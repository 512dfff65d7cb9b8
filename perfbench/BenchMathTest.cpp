//===- perfbench/BenchMathTest.cpp - Tests for the benchmark's arithmetic -===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "BenchMath.h"
#include "Trace.h"
#include "Workloads.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace perfbench;

namespace {

std::vector<double> oneTo(unsigned N) {
  std::vector<double> V;
  for (unsigned I = 1; I <= N; ++I)
    V.push_back(I);
  return V;
}

TEST(PercentileTest, TailNeedsTenSamplesBeyond) {
  // Nearest rank: p99 of 1000 samples is the 990th, with 10 beyond.
  std::optional<double> P = percentile(oneTo(1000), 99);
  ASSERT_TRUE(P);
  EXPECT_EQ(*P, 990);
  // 999 samples: rank 990, only 9 beyond — not reportable.
  EXPECT_FALSE(percentile(oneTo(999), 99));
  // p75 of 40 samples leaves exactly 10 beyond; of 39, 9.
  EXPECT_EQ(*percentile(oneTo(40), 75), 30);
  EXPECT_FALSE(percentile(oneTo(39), 75));
}

TEST(PercentileTest, UnsortedInputAndMedian) {
  std::vector<double> V = {5, 1, 4, 2, 3};
  EXPECT_EQ(*percentile(V, 50, 0), 3);
  EXPECT_EQ(median(V), 3);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
  EXPECT_FALSE(percentile({}, 50, 0));
}

TEST(PercentileTest, SlottedTailIgnoresABurstInOneSlot) {
  // Four 1-second slots of 1000 samples each, values 1..1000 in each;
  // slot 2 also suffers a burst that lifts its top 5% to 50.
  std::vector<std::pair<double, double>> S;
  for (unsigned Slot = 0; Slot != 4; ++Slot)
    for (unsigned I = 1; I <= 1000; ++I)
      S.emplace_back(Slot + I / 1001.0,
                     Slot == 2 && I > 950 ? 50000.0 : static_cast<double>(I));
  // Whole-window p99 would be the burst; per slot it is 990 in three of
  // four slots.
  EXPECT_EQ(*percentile([&] {
              std::vector<double> V;
              for (auto &P : S)
                V.push_back(P.second);
              return V;
            }(),
                        99),
            50000);
  EXPECT_EQ(*slottedPercentile(S, 4.0, 99, 1000, 10), 990);
  // Too few samples for three slots of the requested size.
  EXPECT_FALSE(slottedPercentile(S, 4.0, 99, 2000, 10));
}

TEST(SlotTest, CountsCompletionsPerSlot) {
  std::vector<uint64_t> C =
      countPerSlot({0.0, 0.5, 0.999, 1.0, 2.5, 3.0, 7.0, -1}, 1.0, 3);
  EXPECT_EQ(C, (std::vector<uint64_t>{3, 1, 1}));
  EXPECT_EQ(countPerSlot({0.1}, 0.5, 0), std::vector<uint64_t>{});
}

TEST(ProcStatTest, CpuTicksSurviveOddCommandNames) {
  // Fields 14 and 15 (utime, stime) counted from the last ')'.
  std::string Stat = "4242 (jslice serve) (x)) S 1 4242 4242 0 -1 4194560 "
                     "123 0 0 0 250 75 0 0 20 0 9 0 100 0 0";
  std::optional<ProcCpu> C = parseProcStat(Stat);
  ASSERT_TRUE(C);
  EXPECT_EQ(C->UserTicks, 250u);
  EXPECT_EQ(C->SystemTicks, 75u);
  EXPECT_FALSE(parseProcStat("4242 (cut short) S 1 2"));
  EXPECT_FALSE(parseProcStat("no parenthesis"));
}

TEST(ProcStatTest, CpuMsPerOp) {
  ProcCpu Before{100, 50}, After{400, 150};
  // 400 ticks at 100 Hz = 4 s over 2000 ops = 2 ms per op.
  EXPECT_DOUBLE_EQ(cpuMsPerOp(Before, After, 100, 2000), 2.0);
  EXPECT_EQ(cpuMsPerOp(Before, After, 100, 0), 0);
}

TEST(ProcStatTest, OwnProcessIsReadable) {
  std::optional<ProcCpu> C = readProcCpu(static_cast<long>(::getpid()));
  EXPECT_TRUE(C);
  std::optional<double> Rss = readPeakRssMb(static_cast<long>(::getpid()));
  ASSERT_TRUE(Rss);
  EXPECT_GT(*Rss, 0);
  EXPECT_EQ(*parseVmHwmKb("Name:\tx\nVmHWM:\t   2048 kB\nVmRSS: 1 kB\n"),
            2048u);
  EXPECT_FALSE(parseVmHwmKb("VmRSS: 1 kB\n"));
}

Span span(const char *Name, uint32_t Parent, uint64_t Start, uint64_t End) {
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.StartNs = Start;
  S.EndNs = End;
  return S;
}

TEST(SpanTest, SelfTimeSubtractsChildCoverageOnce) {
  std::vector<Span> S = {
      span("op", Span::NoParent, 0, 100),
      span("a", 0, 10, 30),  // 20
      span("b", 0, 20, 50),  // overlaps a: union [10, 50) = 40
      span("c", 0, 90, 120), // clipped to the parent: 10
      span("d", 1, 12, 18),  // grandchild: only a's self time drops
  };
  std::vector<uint64_t> Self = selfTimesNs(S);
  EXPECT_EQ(Self[0], 50u);
  EXPECT_EQ(Self[1], 14u);
  EXPECT_EQ(Self[2], 30u);
  EXPECT_EQ(Self[3], 30u);
  EXPECT_EQ(Self[4], 6u);
  std::map<std::string, LayerTotals> L = summarize(S);
  EXPECT_EQ(L["op"].Calls, 1u);
  EXPECT_EQ(L["a"].SelfNs, 14);
}

TEST(SpanTest, TracerNestsAndDisabledRecordsNothing) {
  Tracer T(true);
  T.setOp(7);
  {
    Tracer::Scope Op(T, "op");
    Tracer::Scope Child(T, "child");
  }
  ASSERT_EQ(T.spans().size(), 2u);
  EXPECT_EQ(T.spans()[1].Parent, 0u);
  EXPECT_EQ(T.spans()[1].Op, 7u);
  EXPECT_LE(T.spans()[0].StartNs, T.spans()[1].StartNs);
  EXPECT_GE(T.spans()[0].EndNs, T.spans()[1].EndNs);
  Tracer Off(false);
  { Tracer::Scope Op(Off, "op"); }
  EXPECT_TRUE(Off.spans().empty());
}

TEST(ZipfTest, DeterministicPerSeedAndSkewed) {
  ZipfSampler A(32, 1.0, 7), B(32, 1.0, 7), C(32, 1.0, 8);
  std::vector<unsigned> Counts(32);
  bool Differs = false;
  for (uint64_t I = 0; I != 20000; ++I) {
    size_t R = A.at(I);
    ASSERT_LT(R, 32u);
    EXPECT_EQ(R, B.at(I));
    Differs |= R != C.at(I);
    ++Counts[R];
  }
  EXPECT_TRUE(Differs);
  // Rank 1 draws 1/H(32) ~ 24.6% of the stream, rank 2 half that.
  EXPECT_NEAR(Counts[0] / 20000.0, 0.246, 0.02);
  EXPECT_NEAR(Counts[1] / 20000.0, 0.123, 0.015);
  // Draws do not depend on the order they are made in.
  EXPECT_EQ(A.at(12345), B.at(12345));
}

TEST(IdSourceTest, UniqueAcrossThreads) {
  IdSource Ids("hot-zipf-1-t");
  std::vector<std::vector<std::string>> Got(4);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != 5000; ++I)
        Got[T].push_back(Ids.next());
    });
  for (std::thread &T : Threads)
    T.join();
  std::set<std::string> All;
  for (const auto &V : Got)
    All.insert(V.begin(), V.end());
  EXPECT_EQ(All.size(), 20000u);
  EXPECT_EQ(All.count("hot-zipf-1-t-0"), 1u);
  IdSource Other("hot-zipf-2-t");
  EXPECT_EQ(All.count(Other.next()), 0u);
}

TEST(TemplateTest, RenamesOnlyVariables) {
  Template T =
      splitVariables("read(x0);\nL1: x12 = f1(x0) + 3;\nwrite(x12);\n");
  EXPECT_EQ(T.Vars.size(), 4u);
  EXPECT_EQ(T.text(""), T.Source);
  EXPECT_EQ(T.text("u9"),
            "read(x0_u9);\nL1: x12_u9 = f1(x0_u9) + 3;\nwrite(x12_u9);\n");
}

} // namespace
