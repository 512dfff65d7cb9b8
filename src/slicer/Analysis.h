//===- slicer/Analysis.h - One-stop analysis bundle --------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the slicing algorithms consume, built once per program:
/// the CFG, the lexical successor tree, the postdominator tree, def/use
/// and reaching definitions, and the program dependence graph. The
/// paper's own algorithms (Figures 7, 12, 13) need nothing more.
///
/// The Ball–Horwitz / Choi–Ferrante baseline also needs the augmented
/// flowgraph with its own postdominator tree and control dependence
/// graph. That tier is built on first use, not with the Analysis: most
/// requests never ask for it. Its PDG shares the plain PDG's data
/// edges.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SLICER_ANALYSIS_H
#define JSLICE_SLICER_ANALYSIS_H

#include "cfg/Cfg.h"
#include "cfg/LexicalSuccessorTree.h"
#include "dataflow/DefUse.h"
#include "dataflow/ReachingDefinitions.h"
#include "graph/Dominators.h"
#include "lang/Parser.h"
#include "pdg/ControlDependence.h"
#include "pdg/Pdg.h"
#include "support/BuildOnce.h"

#include <memory>
#include <string>
#include <vector>

namespace jslice {

/// The Ball–Horwitz / Choi–Ferrante augmented tier: the augmented
/// flowgraph, its postdominator tree, and the PDG built from it
/// (control dependence from the augmented graph, data dependence shared
/// with the plain PDG).
struct AugmentedTier {
  Digraph Graph;
  DomTree Pdt;
  Pdg P;
};

/// Immutable analysis results for one program. Move-only.
///
/// Every construction path runs under a ResourceGuard built from the
/// supplied Budget (unlimited by default): the parser, CFG builder,
/// dominator fixpoints, reaching definitions, and control dependence
/// all poll it, and exhaustion surfaces as a DiagKind::ResourceExhausted
/// diagnostic — never a crash, hang, or partially-built Analysis. The
/// guard stays with the Analysis so later slicing traversals and
/// interpreter runs draw from the same budget.
class Analysis {
public:
  /// Parses, checks, and analyzes \p Source.
  static ErrorOr<Analysis> fromSource(const std::string &Source);

  /// As above, under \p B's resource limits.
  static ErrorOr<Analysis> fromSource(const std::string &Source,
                                      const Budget &B);

  /// Analyzes an already-checked program (takes ownership).
  static ErrorOr<Analysis> fromProgram(std::unique_ptr<Program> Prog);

  /// As above, under \p B's resource limits.
  static ErrorOr<Analysis> fromProgram(std::unique_ptr<Program> Prog,
                                       const Budget &B);

  /// The pipeline's resource meter. Mutable by design: slicers and the
  /// interpreter charge their work against the budget the Analysis was
  /// built under (the Analysis results themselves stay immutable).
  ResourceGuard &guard() const { return *GuardPtr; }

  const Program &program() const { return *ProgPtr; }
  const Cfg &cfg() const { return C; }
  const LexicalSuccessorTree &lst() const { return Lst; }
  const DomTree &pdt() const { return Pdt; }
  const DefUse &defUse() const { return DU; }
  const ReachingDefinitions &reachingDefs() const { return RD; }

  /// Dependence graphs from the *unaugmented* flowgraph (the paper's
  /// preferred construction — both graphs left intact).
  const Pdg &pdg() const { return P; }

  /// The augmented tier, built on first use and charged to \p G. \p G
  /// is the caller's guard: guard() on the single-shot path, the
  /// request's own guard on a cached Analysis (whose guard belongs to
  /// the request that built it, its deadline long past). Null when \p G
  /// is or becomes exhausted during the build; a tripped build is
  /// discarded, never handed out, and the next caller builds again.
  /// Once built, the tier is returned without charging \p G. Safe to
  /// call from several threads on one shared Analysis.
  const AugmentedTier *augmentedTier(ResourceGuard &G) const;

  /// Whether the augmented tier has been built (for tests).
  bool augmentedTierBuilt() const { return Aug->peek() != nullptr; }

  /// (Predicate node, jump node) pairs for every conditional-jump
  /// statement `if (p) goto/break/continue/return` — the paper's
  /// adaptation of the conventional algorithm needs them.
  const std::vector<std::pair<unsigned, unsigned>> &condJumpPairs() const {
    return CondJumps;
  }

private:
  Analysis(std::unique_ptr<Program> Prog, Cfg Built,
           std::shared_ptr<ResourceGuard> Guard);

  static ErrorOr<Analysis>
  fromProgramGuarded(std::unique_ptr<Program> Prog,
                     std::shared_ptr<ResourceGuard> Guard);

  std::unique_ptr<AugmentedTier> buildAugmentedTier(ResourceGuard &G) const;

  std::shared_ptr<ResourceGuard> GuardPtr;
  std::unique_ptr<Program> ProgPtr;
  Cfg C;
  LexicalSuccessorTree Lst;
  DomTree Pdt;
  DefUse DU;
  ReachingDefinitions RD;
  Pdg P;
  /// Heap-held: Analysis moves, and the holder's mutex cannot.
  std::unique_ptr<BuildOnce<AugmentedTier>> Aug;
  std::vector<std::pair<unsigned, unsigned>> CondJumps;
};

} // namespace jslice

#endif // JSLICE_SLICER_ANALYSIS_H
