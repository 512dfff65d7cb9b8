//===- perfbench/Workloads.h - Seeded inputs and their references ---------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads (README.md says why each exists) and the inputs
/// each one builds from its seed: generator programs, the slicing
/// criteria requested on them, and the reference slice of every
/// criterion, computed with the single-shot computeSlice on a fresh
/// Analysis before any timing starts.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "BenchMath.h"

#include "slicer/Criterion.h"

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { ColdUnique, HotZipf, JournaledZipf, BatchAll };

struct Workload {
  const char *Name;
  WorkloadKind Kind;
  /// Serves requests through jslice_serve (false: the library in
  /// process).
  bool Service;
  /// Serves with a write-ahead journal (--journal, batch sync).
  bool Journaled;
};

const Workload *findWorkload(const std::string &Name);

/// A program split around its variable tokens (x0, x1, ...), so every
/// request can rename them into a program no server has seen, whose
/// analysis does exactly the work of the original and whose slice has
/// the same lines.
struct Template {
  std::vector<std::string> Pieces; ///< Vars.size() + 1 text pieces.
  std::vector<std::string> Vars;   ///< The variable token at each hole.
  std::string Source;              ///< The original text.

  /// The text with every variable renamed to "<var>_<Suffix>"; the
  /// original when \p Suffix is empty.
  std::string text(const std::string &Suffix) const;
};

Template splitVariables(const std::string &Source);

/// One requested (program, criterion) pair and its reference slice.
struct SliceCase {
  unsigned Program = 0;
  jslice::Criterion Crit;
  std::set<unsigned> Lines; ///< Reference slice, as source lines.
  unsigned Traversals = 0;  ///< Figure 7 passes the reference took.
  unsigned Productive = 0;  ///< Of those, passes that added a jump.
};

struct Inputs {
  std::vector<Template> Programs;
  std::vector<SliceCase> Cases;
  /// Cases grouped by program (indices into Cases).
  std::vector<std::vector<unsigned>> CasesOf;
  /// Service request n asks case caseFor(n) on its program's text
  /// renamed with suffix suffixFor(n). Request numbers from WalkBase on
  /// walk the cases in order, whatever the stream's distribution.
  static constexpr uint64_t WalkBase = 1ull << 50;
  WorkloadKind Kind = WorkloadKind::ColdUnique;
  uint64_t Seed = 0;
  std::optional<ZipfSampler> Zipf;
  /// Per case, its request line after the id member (programs that
  /// are never renamed only): request lines are then built without
  /// re-serializing the program on the load generator's threads.
  std::vector<std::string> Tails;

  const SliceCase &caseFor(uint64_t N) const;
  std::string suffixFor(uint64_t N) const;
  /// The request line for request \p N under \p Id.
  std::string requestLine(uint64_t N, const std::string &Id) const;
};

/// Builds the workload's programs, criteria and reference slices. For
/// batch-all the cases are a sample of each program's write criteria
/// (its service stream only feeds the traced run's service layers).
Inputs buildInputs(WorkloadKind Kind, uint64_t Seed);

/// What validateReferences checked.
struct ReferenceChecks {
  unsigned Renames = 0;         ///< cold-unique: renamed programs slice alike.
  unsigned CaseOracleRuns = 0;  ///< Interpreter runs on the workload's cases.
  unsigned SmallOracleRuns = 0; ///< Interpreter runs on seeded small programs.
  unsigned Failed = 0;
};

/// Checks the references themselves on a seeded sample: the projection
/// interpreter must observe the same criterion values running the
/// original and running the reference slice, and renamed programs must
/// slice to the same lines. Where the workload's own programs are
/// outside the interpreter check's reach (dead code), seeded small
/// programs of the same generator top the runs up to \p Sample.
ReferenceChecks validateReferences(const Inputs &In, uint64_t Seed,
                                   unsigned Sample);

/// Runs \p Fn(I) for I in [0, N) on up to \p Threads threads; the first
/// exception a call throws is rethrown once every thread has joined.
template <typename FnT>
void parallelFor(size_t N, unsigned Threads, const FnT &Fn);

/// Digest of one criterion's result in a "slice every line" run: its
/// line, whether it resolved (\p Nodes non-null), and its slice's CFG
/// nodes.
uint64_t sliceDigest(unsigned Line, const std::set<unsigned> *Nodes);

/// Order-sensitive digest of a whole run's per-criterion digests.
uint64_t combineDigests(const std::vector<uint64_t> &Digests);

/// batch-all's reference for one program: every line criterion sliced
/// with the single-shot computeSlice on a fresh Analysis.
struct BatchReference {
  uint64_t Digest = 0;
  unsigned Criteria = 0;
  /// Per resolvable criterion: Figure 7 passes, and those that added a
  /// jump.
  std::vector<std::pair<unsigned, unsigned>> Traversals;
};
BatchReference batchReference(const std::string &Source);

} // namespace perfbench

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

template <typename FnT>
void perfbench::parallelFor(size_t N, unsigned Threads, const FnT &Fn) {
  std::atomic<size_t> Next{0};
  std::mutex ErrM;
  std::exception_ptr Err;
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < N;) {
      try {
        Fn(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrM);
        if (!Err)
          Err = std::current_exception();
        Next.store(N);
      }
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
  if (Err)
    std::rethrow_exception(Err);
}

#endif // PERFBENCH_WORKLOADS_H
