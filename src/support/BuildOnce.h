//===- support/BuildOnce.h - Build-on-first-use holder ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A value built on first use and read-only afterwards, for analysis
/// tiers that only some requests need. Unlike std::call_once, a build
/// that fails (returns null) is discarded rather than kept: builds run
/// under the *caller's* resource guard, so one caller's tripped budget
/// must neither be handed to later callers nor stop them from building
/// under their own.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SUPPORT_BUILDONCE_H
#define JSLICE_SUPPORT_BUILDONCE_H

#include <atomic>
#include <memory>
#include <mutex>

namespace jslice {

/// Thread-safe: concurrent first users serialize on the build, and once
/// a build succeeds every reader pays one acquire load. Neither copyable
/// nor movable; owners that move hold it by unique_ptr.
template <typename T> class BuildOnce {
public:
  BuildOnce() = default;
  BuildOnce(const BuildOnce &) = delete;
  BuildOnce &operator=(const BuildOnce &) = delete;

  /// The built value, calling \p Build (returning std::unique_ptr<T>)
  /// when there is none yet. Null when that build returned null; the
  /// next caller then builds again.
  template <typename BuildFn> const T *get(BuildFn &&Build) {
    if (const T *V = Ready.load(std::memory_order_acquire))
      return V;
    std::lock_guard<std::mutex> Lock(M);
    if (const T *V = Ready.load(std::memory_order_relaxed))
      return V;
    Value = Build();
    Ready.store(Value.get(), std::memory_order_release);
    return Value.get();
  }

  /// The value if a build has succeeded, else null; never builds.
  const T *peek() const { return Ready.load(std::memory_order_acquire); }

private:
  std::mutex M;
  std::unique_ptr<T> Value;
  std::atomic<const T *> Ready{nullptr};
};

} // namespace jslice

#endif // JSLICE_SUPPORT_BUILDONCE_H
