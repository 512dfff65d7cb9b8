//===- perfbench/Trace.h - In-memory spans around library calls -----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run records one span per call into a layer's public
/// function: name, start, end, the enclosing span and the op it belongs
/// to. Spans stay in memory and are written out once the run ends, so
/// recording costs two clock reads and one vector append per call. A
/// disabled tracer records nothing, which is how the untraced replay
/// runs the same code path for the overhead comparison.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

uint64_t nowNs();

struct Span {
  static constexpr uint32_t NoParent = UINT32_MAX;

  const char *Name = "";
  uint32_t Parent = NoParent;
  uint32_t Op = 0; ///< Spans of one op share this.
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Spans opened from now on belong to op \p Op.
  void setOp(uint32_t Op) { CurOp = Op; }

  /// Opens a span under the innermost open one; returns its index
  /// (meaningless when disabled).
  uint32_t open(const char *Name);
  void close(uint32_t Id);

  const std::vector<Span> &spans() const { return Spans; }

  /// RAII span.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name)
        : T(T), Id(T.Enabled ? T.open(Name) : 0) {}
    ~Scope() {
      if (T.Enabled)
        T.close(Id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    uint32_t Id;
  };

private:
  bool Enabled;
  uint32_t CurOp = 0;
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
};

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
std::vector<uint64_t> selfTimesNs(const std::vector<Span> &Spans);

struct LayerTotals {
  uint64_t Calls = 0;
  double SelfNs = 0;
};

/// Calls and self time per span name.
std::map<std::string, LayerTotals> summarize(const std::vector<Span> &Spans);

/// Writes one JSON object per span, one per line (format in README.md).
bool writeTrace(const std::string &Path, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
