//===- tests/FaultInjectionTest.cpp - Error-path coverage by injection --------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Exhaustive coverage of the pipeline's resource-failure paths: a
/// counting pass sizes how many guard checkpoints one full analysis +
/// slice passes through, then every ordinal is armed in turn and the
/// run repeated. The robustness contract (DESIGN.md) requires that each
/// injected failure surfaces as a non-empty ResourceExhausted
/// diagnostic — never a crash, hang, or silent partial result — and
/// that the very next disarmed run succeeds, proving no failure leaks
/// state into the process.
///
//===----------------------------------------------------------------------===//

#include "gen/ProgramGenerator.h"
#include "jslice/jslice.h"

#include <gtest/gtest.h>

using namespace jslice;

namespace {

const char *Summation = R"(sum = 0;
positives = 0;
L3: if (eof()) goto L14;
read(x);
if (x > 0) goto L8;
sum = sum + f1(x);
goto L13;
L8: positives = positives + 1;
if (x % 2 != 0) goto L12;
sum = sum + f2(x);
goto L13;
L12: sum = sum + f3(x);
L13: goto L3;
L14: write(sum);
write(positives);
)";

/// One full pipeline: analyze, then slice with the paper's Figure-7
/// algorithm. Mirrors what a library user does; every fallible step
/// funnels through ErrorOr.
ErrorOr<SliceResult> runPipeline(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  if (!A)
    return A.diags();
  return computeSlice(*A, Criterion(14, {"sum"}), SliceAlgorithm::Agrawal);
}

/// Counts the checkpoints one clean pipeline run observes.
uint64_t sizePipeline(const std::string &Source) {
  FaultInjection::resetCount();
  ErrorOr<SliceResult> R = runPipeline(Source);
  EXPECT_TRUE(R.hasValue()) << "counting pass must succeed: "
                            << (R.hasValue() ? "" : R.diags().str());
  return FaultInjection::observedCheckpoints();
}

TEST(FaultInjectionTest, EveryCheckpointFailsCleanlyAndRecovers) {
  uint64_t Total = sizePipeline(Summation);
  ASSERT_GT(Total, 0u) << "the pipeline must poll the guard";

  for (uint64_t At = 1; At <= Total; ++At) {
    {
      FaultInjection::ScopedArm Arm(At);
      ErrorOr<SliceResult> R = runPipeline(Summation);
      // Slicing charges the same meter, so the armed ordinal always
      // lands within the run and the pipeline must fail.
      ASSERT_FALSE(R.hasValue())
          << "fault at checkpoint " << At << " of " << Total
          << " was swallowed";
      EXPECT_FALSE(R.diags().empty())
          << "fault at checkpoint " << At << " failed without diagnostics";
      EXPECT_TRUE(R.diags().hasKind(DiagKind::ResourceExhausted))
          << "fault at checkpoint " << At
          << " misclassified: " << R.diags().str();
    }
    // Disarmed, the identical run succeeds again: the failure left no
    // partially-constructed state behind (guards are per-Analysis, the
    // injector is the only global, and ScopedArm cleared it).
    ErrorOr<SliceResult> R = runPipeline(Summation);
    ASSERT_TRUE(R.hasValue())
        << "pipeline does not recover after fault at checkpoint " << At
        << ": " << R.diags().str();
  }
}

TEST(FaultInjectionTest, InjectedFailuresAreDeterministic) {
  uint64_t Total = sizePipeline(Summation);
  ASSERT_GT(Total, 2u);
  uint64_t At = Total / 2;

  auto FailureMessage = [&]() {
    FaultInjection::ScopedArm Arm(At);
    ErrorOr<SliceResult> R = runPipeline(Summation);
    EXPECT_FALSE(R.hasValue());
    return R.hasValue() ? std::string() : R.diags().str();
  };
  std::string First = FailureMessage();
  EXPECT_EQ(First, FailureMessage())
      << "same input, same ordinal, different failure";
  EXPECT_NE(First.find("injected fault"), std::string::npos) << First;
}

TEST(FaultInjectionTest, GeneratedProgramsSurviveASweep) {
  // The same exhaustive sweep over machine-generated programs in both
  // dialects, catching error paths the fixed program never reaches
  // (switch lowering, structured-loop wiring).
  for (bool Gotos : {false, true}) {
    GenOptions Gen;
    Gen.Seed = Gotos ? 7 : 11;
    Gen.TargetStmts = 25;
    Gen.AllowGotos = Gotos;
    std::string Source = generateProgram(Gen);

    FaultInjection::resetCount();
    {
      ErrorOr<Analysis> A = Analysis::fromSource(Source);
      ASSERT_TRUE(A.hasValue());
    }
    uint64_t Total = FaultInjection::observedCheckpoints();
    ASSERT_GT(Total, 0u);

    for (uint64_t At = 1; At <= Total; ++At) {
      {
        FaultInjection::ScopedArm Arm(At);
        ErrorOr<Analysis> A = Analysis::fromSource(Source);
        ASSERT_FALSE(A.hasValue())
            << "dialect " << Gotos << ": fault at " << At << " swallowed";
        EXPECT_TRUE(A.diags().hasKind(DiagKind::ResourceExhausted))
            << "dialect " << Gotos << ": fault at " << At
            << " misclassified: " << A.diags().str();
      }
      ErrorOr<Analysis> A = Analysis::fromSource(Source);
      ASSERT_TRUE(A.hasValue())
          << "dialect " << Gotos << ": no recovery after fault at " << At;
    }
  }
}

TEST(FaultInjectionTest, ExhaustedAnalysisIsNeverHandedOut) {
  // A fault during any construction phase must not yield a usable
  // Analysis with half-built dependence graphs.
  FaultInjection::resetCount();
  {
    ErrorOr<Analysis> A = Analysis::fromSource(Summation);
    ASSERT_TRUE(A.hasValue());
  }
  uint64_t Total = FaultInjection::observedCheckpoints();
  for (uint64_t At = 1; At <= Total; At += 7) {
    FaultInjection::ScopedArm Arm(At);
    ErrorOr<Analysis> A = Analysis::fromSource(Summation);
    EXPECT_FALSE(A.hasValue()) << "exhausted analysis escaped at " << At;
  }
}

TEST(FaultInjectionTest, LazyAugmentedTierFailsCleanlyAndRecovers) {
  // Ball–Horwitz builds the augmented tier on first use, charged to the
  // Analysis' own guard. A fault anywhere, the tier build included,
  // must refuse with ResourceExhausted and leave no tier behind; a clean
  // run afterwards slices exactly as before.
  const Criterion Crit(14, {"sum"});
  std::set<unsigned> Expected;
  FaultInjection::resetCount();
  {
    ErrorOr<Analysis> A = Analysis::fromSource(Summation);
    ASSERT_TRUE(A.hasValue());
    ErrorOr<SliceResult> R =
        computeSlice(*A, Crit, SliceAlgorithm::BallHorwitz);
    ASSERT_TRUE(R.hasValue());
    EXPECT_TRUE(A->augmentedTierBuilt());
    Expected = R->lineSet(A->cfg());
  }
  uint64_t Total = FaultInjection::observedCheckpoints();

  unsigned TierTrips = 0;
  for (uint64_t At = 1; At <= Total; ++At) {
    FaultInjection::ScopedArm Arm(At);
    ErrorOr<Analysis> A = Analysis::fromSource(Summation);
    if (!A)
      continue; // Tripped while analyzing; covered by the sweeps above.
    ErrorOr<SliceResult> R =
        computeSlice(*A, Crit, SliceAlgorithm::BallHorwitz);
    ASSERT_FALSE(R.hasValue()) << "fault at " << At << " was swallowed";
    EXPECT_TRUE(R.diags().hasKind(DiagKind::ResourceExhausted))
        << "fault at " << At;
    std::string Site = FaultInjection::trippedSite();
    if (Site == "dominators.iterate" || Site == "controldep.edge") {
      ++TierTrips;
      EXPECT_FALSE(A->augmentedTierBuilt()) << "fault at " << At;
    }
  }
  EXPECT_GT(TierTrips, 0u);

  ErrorOr<Analysis> A = Analysis::fromSource(Summation);
  ASSERT_TRUE(A.hasValue());
  ErrorOr<SliceResult> R = computeSlice(*A, Crit, SliceAlgorithm::BallHorwitz);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->lineSet(A->cfg()), Expected);
}

TEST(FaultInjectionTest, InterpreterChargesTheSharedGuard) {
  Budget B;
  ErrorOr<Analysis> A = Analysis::fromSource(Summation, B);
  ASSERT_TRUE(A.hasValue());

  ErrorOr<ResolvedCriterion> RC = resolveCriterion(*A, Criterion(14, {"sum"}));
  ASSERT_TRUE(RC.hasValue());

  ExecOptions Exec;
  Exec.Input = {1, -2, 3};
  Exec.Guard = &A->guard();
  FaultInjection::ScopedArm Arm(1); // Very next checkpoint: an interp step.
  ExecResult R = runOriginal(*A, RC->Node, RC->VarIds, Exec);
  EXPECT_FALSE(R.Completed);
  EXPECT_TRUE(R.ResourceExhausted);
  EXPECT_TRUE(A->guard().exhausted());
  EXPECT_FALSE(A->guard().reason().empty());
}

} // namespace
