//===- tests/DataflowTest.cpp - Def/use and reaching-definitions tests --------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "corpus/PaperPrograms.h"
#include "jslice/jslice.h"

#include <gtest/gtest.h>

using namespace jslice;

namespace {

Analysis analyzeOk(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  EXPECT_TRUE(A.hasValue()) << (A.hasValue() ? "" : A.diags().str());
  return std::move(*A);
}

unsigned nodeOn(const Analysis &A, unsigned Line) {
  std::vector<unsigned> Nodes = A.cfg().nodesOnLine(Line);
  EXPECT_EQ(Nodes.size(), 1u) << "line " << Line;
  return Nodes.front();
}

std::set<unsigned> defLinesReaching(const Analysis &A, unsigned Line,
                                    const std::string &Var) {
  int VarId = A.defUse().varId(Var);
  EXPECT_GE(VarId, 0);
  std::set<unsigned> Lines;
  for (unsigned Node : A.reachingDefs().reachingDefNodes(
           nodeOn(A, Line), static_cast<unsigned>(VarId)))
    Lines.insert(A.cfg().node(Node).S->getLoc().Line);
  return Lines;
}

TEST(DefUseTest, AssignDefinesTargetUsesRhs) {
  Analysis A = analyzeOk("y = 2;\nx = y + z;\n");
  unsigned N = nodeOn(A, 2);
  ASSERT_EQ(A.defUse().defsOf(N).size(), 1u);
  EXPECT_EQ(A.defUse().varName(A.defUse().defsOf(N).front()), "x");
  std::vector<std::string> Uses;
  for (unsigned Var : A.defUse().usesOf(N))
    Uses.push_back(A.defUse().varName(Var));
  EXPECT_EQ(Uses, (std::vector<std::string>{"y", "z"}));
}

TEST(DefUseTest, ReadDefinesTargetAndInputStream) {
  Analysis A = analyzeOk("read(x);\nwrite(x);\n");
  unsigned Read = nodeOn(A, 1);
  std::set<std::string> Defined;
  for (unsigned Var : A.defUse().defsOf(Read))
    Defined.insert(A.defUse().varName(Var));
  EXPECT_EQ(Defined, (std::set<std::string>{"x", DefUse::InputVarName}))
      << "reads advance the input stream (see DefUse.h)";
  ASSERT_EQ(A.defUse().usesOf(Read).size(), 1u);
  EXPECT_EQ(A.defUse().varName(A.defUse().usesOf(Read).front()),
            DefUse::InputVarName);
}

TEST(DefUseTest, EofUsesTheInputStream) {
  Analysis A = analyzeOk("while (!eof())\nread(x);\nwrite(x);\n");
  unsigned Cond = nodeOn(A, 1);
  ASSERT_EQ(A.defUse().usesOf(Cond).size(), 1u);
  EXPECT_EQ(A.defUse().varName(A.defUse().usesOf(Cond).front()),
            DefUse::InputVarName);
}

TEST(DataDependenceTest, ReadsChainThroughTheInputStream) {
  Analysis A = analyzeOk("read(x);\nread(y);\nwrite(y);\n");
  unsigned R1 = nodeOn(A, 1), R2 = nodeOn(A, 2);
  EXPECT_TRUE(A.pdg().Data->hasEdge(R1, R2))
      << "slicing away read 1 would shift what read 2 observes";
}

TEST(DefUseTest, JumpsDefineAndUseNothing) {
  Analysis A = analyzeOk("while (x > 0) {\nbreak;\n}\nwrite(x);\n");
  unsigned Break = nodeOn(A, 2);
  EXPECT_TRUE(A.defUse().defsOf(Break).empty());
  EXPECT_TRUE(A.defUse().usesOf(Break).empty());
}

TEST(DefUseTest, PredicateUsesItsConditionVars) {
  Analysis A = analyzeOk("if (a < b)\nc = 1;\nwrite(c);\n");
  unsigned Cond = nodeOn(A, 1);
  EXPECT_TRUE(A.defUse().defsOf(Cond).empty());
  EXPECT_EQ(A.defUse().usesOf(Cond).size(), 2u);
}

TEST(DefUseTest, CallArgumentsAreUses) {
  Analysis A = analyzeOk("y = f1(a, b + c);\nwrite(y);\n");
  unsigned N = nodeOn(A, 1);
  EXPECT_EQ(A.defUse().usesOf(N).size(), 3u);
}

TEST(ReachingDefsTest, StraightLineKill) {
  Analysis A = analyzeOk("x = 1;\nx = 2;\nwrite(x);\n");
  EXPECT_EQ(defLinesReaching(A, 3, "x"), (std::set<unsigned>{2}))
      << "the second assignment kills the first";
}

TEST(ReachingDefsTest, BranchesMerge) {
  Analysis A = analyzeOk("if (c > 0)\nx = 1; else\nx = 2;\nwrite(x);\n");
  EXPECT_EQ(defLinesReaching(A, 4, "x"), (std::set<unsigned>{2, 3}));
}

TEST(ReachingDefsTest, LoopCarriedDefinitionReaches) {
  Analysis A = analyzeOk("x = 0;\nwhile (x < 5)\nx = x + 1;\nwrite(x);\n");
  EXPECT_EQ(defLinesReaching(A, 4, "x"), (std::set<unsigned>{1, 3}));
  // Inside the loop, both the init and the previous iteration reach.
  EXPECT_EQ(defLinesReaching(A, 3, "x"), (std::set<unsigned>{1, 3}));
}

TEST(ReachingDefsTest, UseWithoutAnyDefHasNoReachingDefs) {
  Analysis A = analyzeOk("write(ghost);\n");
  EXPECT_TRUE(defLinesReaching(A, 1, "ghost").empty());
}

TEST(ReachingDefsTest, JumpRoutesDefinitionsAroundKills) {
  // The goto skips the killing assignment on line 3.
  Analysis A = analyzeOk("x = 1;\nif (c > 0) goto L;\nx = 2;\n"
                         "L: write(x);\n");
  EXPECT_EQ(defLinesReaching(A, 4, "x"), (std::set<unsigned>{1, 3}));
}

TEST(ReachingDefsTest, PaperFigure2DataDependences) {
  // Figure 2-b: node 12 (write positives) is data dependent on the
  // definitions of positives on lines 2 and 7.
  Analysis A = analyzeOk(paperExample("fig1a").Source);
  EXPECT_EQ(defLinesReaching(A, 12, "positives"), (std::set<unsigned>{2, 7}));
  // write(sum) on 11 sees all four sum definitions.
  EXPECT_EQ(defLinesReaching(A, 11, "sum"),
            (std::set<unsigned>{1, 6, 9, 10}));
}

TEST(DataDependenceTest, EdgesRunFromDefToUse) {
  Analysis A = analyzeOk("x = 1;\ny = x;\nwrite(y);\n");
  unsigned N1 = nodeOn(A, 1), N2 = nodeOn(A, 2), N3 = nodeOn(A, 3);
  EXPECT_TRUE(A.pdg().Data->hasEdge(N1, N2));
  EXPECT_TRUE(A.pdg().Data->hasEdge(N2, N3));
  EXPECT_FALSE(A.pdg().Data->hasEdge(N1, N3));
}

TEST(DataDependenceTest, SelfDependenceThroughLoop) {
  Analysis A = analyzeOk("x = 0;\nwhile (x < 9)\nx = x + 1;\nwrite(x);\n");
  unsigned Inc = nodeOn(A, 3);
  EXPECT_TRUE(A.pdg().Data->hasEdge(Inc, Inc))
      << "x = x + 1 in a loop depends on itself";
}

TEST(DataDependenceTest, NoEdgesForJumps) {
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  for (unsigned Node = 0; Node != A.cfg().numNodes(); ++Node) {
    if (!A.cfg().node(Node).isJump())
      continue;
    EXPECT_TRUE(A.pdg().Data->succs(Node).empty())
        << "nothing may be data dependent on a jump (Section 3)";
    EXPECT_TRUE(A.pdg().Data->preds(Node).empty());
  }
}

} // namespace
