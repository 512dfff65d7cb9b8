//===- bench/fig02_graphs.cpp - Figure 2 reproduction -------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Figure 2: flowgraph, data dependence, control dependence, and the
/// merged PDG of the jump-free program 1-a. The named dependences the
/// paper calls out in prose are checked explicitly: node 12 is data
/// dependent on 2 and 7; node 7 is control dependent on 5.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace jslice;
using namespace jslice::bench;

int main() {
  Report R("Figure 2: graphs of the program in Figure 1-a");
  const PaperExample &Ex = paperExample("fig1a");
  Analysis A = analyzeExample(Ex);
  NodeLabelFn Label = [&A](unsigned Node) { return A.cfg().labelOf(Node); };

  R.section("Figure 2-a (flowgraph) and 2-b (data dependence)");
  std::printf("flowgraph:\n%s",
              toEdgeListText(A.cfg().graph(), Label).c_str());
  std::printf("data dependence (def -> use):\n%s",
              toEdgeListText(*A.pdg().Data, Label).c_str());

  R.section("Figure 2-c (control dependence)");
  std::printf("%s", toEdgeListText(A.pdg().Control, Label).c_str());

  R.section("paper vs measured (prose claims)");
  std::set<unsigned> DefsOf12;
  for (unsigned Def : A.pdg().Data->preds(nodeOn(A, 12)))
    DefsOf12.insert(A.cfg().node(Def).S->getLoc().Line);
  R.expectLines("node 12 data dependent on", DefsOf12, {2, 7});

  std::set<unsigned> CtrlOf7;
  for (unsigned Ctrl : A.pdg().Control.preds(nodeOn(A, 7)))
    if (const Stmt *S = A.cfg().node(Ctrl).S)
      CtrlOf7.insert(S->getLoc().Line);
  R.expectLines("node 7 control dependent on", CtrlOf7, {5});

  // Shaded nodes of Figure 2-d = the conventional slice.
  SliceResult Slice = *computeSlice(A, Ex.Crit, SliceAlgorithm::Conventional);
  R.expectLines("figure 2-d shaded nodes", Slice.lineSet(A.cfg()),
                Ex.ConventionalLines);
  return R.finish();
}
