//===- slicer/Analysis.cpp - One-stop analysis bundle ------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "slicer/Analysis.h"

#include "lang/AstWalk.h"

using namespace jslice;

namespace {

/// Unwraps single-statement blocks: `{ { goto L; } }` -> `goto L;`.
const Stmt *unwrapSingleton(const Stmt *S) {
  while (const auto *Block = dyn_cast<BlockStmt>(S)) {
    if (Block->getBody().size() != 1)
      return S;
    S = Block->getBody().front();
  }
  return S;
}

/// Collects the (predicate, jump) node pairs of conditional-jump
/// statements: an if without else whose entire body is one unconditional
/// jump. The paper's conventional-algorithm adaptation ties the two.
std::vector<std::pair<unsigned, unsigned>> findCondJumpPairs(const Cfg &C) {
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (const Stmt *Top : C.program().topLevel()) {
    walkStmtTree(Top, [&](const Stmt *S) {
      const auto *If = dyn_cast<IfStmt>(S);
      if (!If || If->hasElse())
        return;
      const Stmt *Body = unwrapSingleton(If->getThen());
      if (!Body->isJump())
        return;
      Pairs.emplace_back(C.nodeOf(S), C.nodeOf(Body));
    });
  }
  return Pairs;
}

} // namespace

Analysis::Analysis(std::unique_ptr<Program> Prog, Cfg Built,
                   std::shared_ptr<ResourceGuard> Guard)
    : GuardPtr(std::move(Guard)), ProgPtr(std::move(Prog)),
      C(std::move(Built)), Lst(buildLexicalSuccessorTree(C)),
      Pdt(computePostDominators(C.graph(), C.exit(), GuardPtr.get())),
      DU(DefUse::build(C)),
      RD(ReachingDefinitions::compute(C, DU, GuardPtr.get())),
      P(buildControlDependence(C.graph(), Pdt, GuardPtr.get()),
        buildDataDependence(C, DU, RD)),
      Aug(std::make_unique<BuildOnce<AugmentedTier>>()),
      CondJumps(findCondJumpPairs(C)) {}

std::unique_ptr<AugmentedTier>
Analysis::buildAugmentedTier(ResourceGuard &G) const {
  if (G.exhausted())
    return nullptr;
  Digraph Graph = C.buildAugmentedGraph(Lst.parents());
  DomTree AugPdt = computePostDominators(Graph, C.exit(), &G);
  Digraph Control = buildControlDependence(Graph, AugPdt, &G);
  // A trip leaves the postdominators unconverged: never keep that.
  if (G.exhausted())
    return nullptr;
  return std::make_unique<AugmentedTier>(
      AugmentedTier{std::move(Graph), std::move(AugPdt),
                    Pdg(std::move(Control), P.Data)});
}

const AugmentedTier *Analysis::augmentedTier(ResourceGuard &G) const {
  return Aug->get([&] { return buildAugmentedTier(G); });
}

ErrorOr<Analysis> Analysis::fromSource(const std::string &Source) {
  return fromSource(Source, Budget::unlimited());
}

ErrorOr<Analysis> Analysis::fromSource(const std::string &Source,
                                       const Budget &B) {
  auto Guard = std::make_shared<ResourceGuard>(B);
  ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(Source, *Guard);
  if (!Prog)
    return Prog.diags();
  return fromProgramGuarded(std::move(*Prog), std::move(Guard));
}

ErrorOr<Analysis> Analysis::fromProgram(std::unique_ptr<Program> Prog) {
  return fromProgram(std::move(Prog), Budget::unlimited());
}

ErrorOr<Analysis> Analysis::fromProgram(std::unique_ptr<Program> Prog,
                                        const Budget &B) {
  return fromProgramGuarded(std::move(Prog),
                            std::make_shared<ResourceGuard>(B));
}

ErrorOr<Analysis>
Analysis::fromProgramGuarded(std::unique_ptr<Program> Prog,
                             std::shared_ptr<ResourceGuard> Guard) {
  ErrorOr<Cfg> Built = Cfg::build(*Prog, Guard.get());
  if (!Built)
    return Built.diags();
  Analysis A(std::move(Prog), std::move(*Built), std::move(Guard));
  // A guard tripped during any phase (a latched guard short-circuits
  // every later phase) means some structure is unconverged; discard the
  // whole bundle so no partially-constructed Analysis escapes.
  if (A.guard().exhausted())
    return A.guard().toDiag();
  return A;
}
