//===- tests/AnalysisCacheTest.cpp - Analysis-cache unit tests -------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The content-addressed analysis cache (service/AnalysisCache.h):
/// canonical-key determinism across both generator dialects, the
/// single-flight state machine (exactly one promotion when a leader
/// fails over waiting followers), eviction racing an in-flight hit,
/// quarantine outranking everything, and the self-audit's
/// mismatch-invalidation path driven end to end through
/// executeSliceRequest.
///
//===----------------------------------------------------------------------===//

#include "gen/ProgramGenerator.h"
#include "service/SandboxWorker.h"
#include "slicer/Criterion.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

using namespace jslice;

namespace {

Budget bigBudget() {
  Budget B;
  B.MaxSteps = 50000000;
  B.DeadlineMs = 30000;
  return B;
}

std::string keyOf(const std::string &Source) {
  ResourceGuard G(bigBudget());
  std::optional<std::string> K = canonicalProgramKey(Source, G);
  EXPECT_TRUE(K.has_value()) << Source;
  return K ? *K : std::string();
}

std::shared_ptr<AnalysisArtifact> makeArtifact(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source, bigBudget());
  EXPECT_TRUE(A.hasValue()) << (A.hasValue() ? "" : A.diags().str());
  auto Art = std::make_shared<AnalysisArtifact>(std::move(*A));
  EXPECT_TRUE(Art->BS.closures().valid());
  Art->CostBytes = estimateArtifactCost(*Art, Source);
  return Art;
}

auto farDeadline() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(20);
}

//===----------------------------------------------------------------------===//
// Canonical keys
//===----------------------------------------------------------------------===//

TEST(CanonicalKeyTest, StableAcrossBothDialectsAndRuns) {
  for (bool Gotos : {false, true}) {
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      GenOptions Opts;
      Opts.Seed = Seed;
      Opts.TargetStmts = 40;
      Opts.AllowGotos = Gotos;
      std::string Source = generateProgram(Opts);
      std::string K1 = keyOf(Source);
      std::string K2 = keyOf(Source);
      ASSERT_FALSE(K1.empty());
      EXPECT_EQ(K1, K2) << "seed " << Seed << " gotos " << Gotos;
    }
  }
}

TEST(CanonicalKeyTest, IgnoresIntraLineWhitespace) {
  // Same statements on the same lines, reformatted: one artifact.
  std::string A = "read(a);\nb = a + 1;\nwrite(b);\n";
  std::string B = "read( a ) ;\n  b   =a+ 1 ;\n\twrite(b);\n";
  EXPECT_EQ(keyOf(A), keyOf(B));
}

TEST(CanonicalKeyTest, LineLayoutIsPartOfTheKey) {
  // A blank line shifts every later statement's line number; criteria
  // are (line, vars), so these must NOT share an artifact.
  std::string A = "read(a);\nwrite(a);\n";
  std::string B = "read(a);\n\nwrite(a);\n";
  EXPECT_NE(keyOf(A), keyOf(B));
}

TEST(CanonicalKeyTest, UnparseableProgramHasNoKey) {
  ResourceGuard G(bigBudget());
  EXPECT_FALSE(canonicalProgramKey("x = ;", G).has_value());
}

TEST(CanonicalKeyTest, RawKeyIsContentAddressed) {
  EXPECT_EQ(rawProgramKey("abc"), rawProgramKey("abc"));
  EXPECT_NE(rawProgramKey("abc"), rawProgramKey("abd"));
  // Length is part of the key material, so a prefix never aliases.
  EXPECT_NE(rawProgramKey("a"), rawProgramKey("a\0a" + std::string(1, 0)));
}

//===----------------------------------------------------------------------===//
// Single flight
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, MissThenPublishThenHit) {
  AnalysisCache C{CacheOptions{}};
  const std::string Src = "read(a);\nwrite(a);\n";
  const std::string K = keyOf(Src);

  AnalysisCache::LookupResult L = C.lookup(K, farDeadline());
  ASSERT_EQ(L.K, AnalysisCache::Outcome::MustBuild);
  C.publish(K, makeArtifact(Src));

  L = C.lookup(K, farDeadline());
  ASSERT_EQ(L.K, AnalysisCache::Outcome::Hit);
  ASSERT_TRUE(L.Artifact);

  CacheStats S = C.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Inserts, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_GT(S.Bytes, 0u);
}

TEST(AnalysisCacheTest, LeaderFailurePromotesExactlyOneOfTenFollowers) {
  AnalysisCache C{CacheOptions{}};
  const std::string Src = "read(a);\nwrite(a);\n";
  const std::string K = keyOf(Src);

  // Become the leader, then park 10 followers on the slot.
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);

  std::atomic<int> Promoted{0}, Hits{0}, Other{0};
  std::vector<std::thread> Followers;
  for (int I = 0; I < 10; ++I)
    Followers.emplace_back([&] {
      AnalysisCache::LookupResult L = C.lookup(K, farDeadline());
      if (L.K == AnalysisCache::Outcome::MustBuild) {
        ++Promoted;
        // The promoted follower is now the leader; it must finish the
        // build so the other nine get their artifact.
        C.publish(K, makeArtifact(Src));
      } else if (L.K == AnalysisCache::Outcome::Hit) {
        ++Hits;
      } else {
        ++Other;
      }
    });

  // Wait until every follower is actually coalesced on the slot, so
  // buildFailed races against real waiters, not a startup gap.
  while (C.stats().Coalesced < 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  C.buildFailed(K);

  for (std::thread &T : Followers)
    T.join();

  EXPECT_EQ(Promoted.load(), 1);
  EXPECT_EQ(Hits.load(), 9);
  EXPECT_EQ(Other.load(), 0);
  CacheStats S = C.stats();
  EXPECT_EQ(S.Promotions, 1u);
  EXPECT_EQ(S.BuildFailures, 1u);
  EXPECT_EQ(S.Coalesced, 10u);
}

TEST(AnalysisCacheTest, RepeatedFailuresBackTheKeyOff) {
  CacheOptions Opts;
  Opts.MaxBuildFailures = 2;
  Opts.FailureBackoffLookups = 4;
  AnalysisCache C{Opts};
  const std::string K = "k-backoff";

  // Two failed builds with no waiters: the key enters backoff.
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.buildFailed(K);
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.buildFailed(K);

  // During backoff every lookup bypasses (serves cache-less) instead
  // of re-building — a starved budget cannot wedge a hot program.
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::Bypass);
  // Past the backoff window the key may try again.
  EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
}

TEST(AnalysisCacheTest, CoalesceTimeoutBypassesAndUnwedgesTheKey) {
  AnalysisCache C{CacheOptions{}};
  const std::string K = "k-timeout";
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);

  // A follower whose deadline passes while the leader is still
  // building serves solo.
  auto Soon = std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  EXPECT_EQ(C.lookup(K, Soon).K, AnalysisCache::Outcome::Bypass);
  EXPECT_EQ(C.stats().CoalesceTimeouts, 1u);

  // Leader fails with no remaining waiters: next lookup retries
  // immediately rather than waiting on a dead slot.
  C.buildFailed(K);
  EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
}

//===----------------------------------------------------------------------===//
// Eviction
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, CapacityEvictsLeastRecentlyUsed) {
  CacheOptions Opts;
  Opts.MaxEntries = 2;
  AnalysisCache C{Opts};
  const std::string S1 = "read(a);\nwrite(a);\n";
  const std::string S2 = "read(b);\nwrite(b);\n";
  const std::string S3 = "read(c);\nwrite(c);\n";
  const std::string K1 = keyOf(S1), K2 = keyOf(S2), K3 = keyOf(S3);

  for (const auto &[K, S] : {std::pair{K1, S1}, {K2, S2}}) {
    ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
    C.publish(K, makeArtifact(S));
  }
  // Touch K1 so K2 is the LRU victim.
  ASSERT_EQ(C.lookup(K1, farDeadline()).K, AnalysisCache::Outcome::Hit);

  ASSERT_EQ(C.lookup(K3, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.publish(K3, makeArtifact(S3));

  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.stats().Entries, 2u);
  EXPECT_EQ(C.lookup(K1, farDeadline()).K, AnalysisCache::Outcome::Hit);
  EXPECT_EQ(C.lookup(K2, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
}

TEST(AnalysisCacheTest, EvictionRacingAHitCannotInvalidateTheReader) {
  AnalysisCache C{CacheOptions{}};
  const std::string Src = "read(a);\nb = a + 1;\nwrite(b);\n";
  const std::string K = keyOf(Src);
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.publish(K, makeArtifact(Src));

  AnalysisCache::LookupResult L = C.lookup(K, farDeadline());
  ASSERT_EQ(L.K, AnalysisCache::Outcome::Hit);
  std::shared_ptr<const AnalysisArtifact> Reader = L.Artifact;

  // Watermark eviction drops the entry while the reader still holds
  // the artifact.
  EXPECT_EQ(C.evictToward(0), 1u);
  EXPECT_EQ(C.stats().WatermarkEvictions, 1u);
  EXPECT_EQ(C.stats().Entries, 0u);
  EXPECT_EQ(C.bytes(), 0u);

  // The shared_ptr keeps the artifact alive; a slice through it after
  // the eviction matches a fresh computation exactly.
  ResourceGuard G(bigBudget());
  ErrorOr<ResolvedCriterion> RC =
      resolveCriterion(Reader->A, Criterion(3, {"b"}));
  ASSERT_TRUE(RC.hasValue());
  std::optional<SliceResult> S =
      Reader->BS.sliceShared(*RC, SliceAlgorithm::Agrawal, G);
  ASSERT_TRUE(S.has_value());
  ASSERT_FALSE(G.exhausted());

  ErrorOr<Analysis> Fresh = Analysis::fromSource(Src, bigBudget());
  ASSERT_TRUE(Fresh.hasValue());
  ErrorOr<ResolvedCriterion> FreshRC =
      resolveCriterion(*Fresh, Criterion(3, {"b"}));
  ASSERT_TRUE(FreshRC.hasValue());
  SliceResult Expect = computeSlice(*Fresh, *FreshRC, SliceAlgorithm::Agrawal);
  EXPECT_EQ(S->lineSet(Reader->A.cfg()), Expect.lineSet(Fresh->cfg()));
}

//===----------------------------------------------------------------------===//
// Quarantine
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, QuarantineOutranksPublishAndSurvivesEviction) {
  AnalysisCache C{CacheOptions{}};
  const std::string Src = "read(a);\nwrite(a);\n";
  const std::string K = keyOf(Src);

  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.publish(K, makeArtifact(Src));
  C.quarantine(K);

  EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::Quarantined);
  // A late publish (say, a promoted follower finishing after the
  // crash verdict landed) must not resurrect the key.
  C.publish(K, makeArtifact(Src));
  EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::Quarantined);
  // Watermark pressure cannot flush a quarantine record.
  C.evictToward(0);
  EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::Quarantined);
  EXPECT_EQ(C.stats().Poisoned, 3u);
}

TEST(AnalysisCacheTest, QuarantinedKeyIsRefusedThroughExecute) {
  CacheOptions Opts;
  AnalysisCache C{Opts};
  const std::string Src = "read(a);\nwrite(a);\n";
  C.quarantine(keyOf(Src));

  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  Cfg.Cache = Opts;
  ServiceRequest R;
  R.Id = "q1";
  R.Program = Src;
  R.Line = 2;
  ServiceResponse Resp =
      executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  EXPECT_EQ(Resp.Status, ResponseStatus::Poisoned);
}

//===----------------------------------------------------------------------===//
// Execute integration: hit parity and the audit
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, SecondRequestIsServedFromCacheBitIdentically) {
  CacheOptions Opts;
  AnalysisCache C{Opts};
  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  Cfg.Cache = Opts;

  GenOptions G;
  G.Seed = 7;
  G.TargetStmts = 60;
  G.AllowGotos = true;
  ServiceRequest R;
  R.Id = "c1";
  R.Program = generateProgram(G);
  R.Line = 5;

  ServiceResponse First = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  R.Id = "c2";
  ServiceResponse Second = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);

  ASSERT_EQ(First.Status, Second.Status);
  if (First.Status == ResponseStatus::Ok) {
    EXPECT_FALSE(First.FromCache);
    EXPECT_TRUE(Second.FromCache);
    EXPECT_EQ(First.Lines, Second.Lines);
    EXPECT_EQ(First.ServedTier, Second.ServedTier);
  }
  EXPECT_GE(C.stats().Hits + C.stats().Misses, 2u);
}

TEST(AnalysisCacheTest, AuditMismatchInvalidatesAndServesFresh) {
  // Plant a WRONG artifact under P1's key — P2 differs only in which
  // input feeds c, so the criterion resolves in both but the slices
  // differ. This simulates the one corruption the key cannot prevent
  // (a hash collision, a bug): the audit must catch it, invalidate,
  // and serve the freshly recomputed slice.
  const std::string P1 = "read(a);\nread(b);\nc = a;\nwrite(c);\n";
  const std::string P2 = "read(a);\nread(b);\nc = b;\nwrite(c);\n";
  ASSERT_NE(keyOf(P1), keyOf(P2));

  CacheOptions Opts;
  Opts.AuditEvery = 1; // Audit every hit.
  AnalysisCache C{Opts};
  const std::string K = keyOf(P1);
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.publish(K, makeArtifact(P2)); // The lie.

  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  Cfg.Cache = Opts;
  ServiceRequest R;
  R.Id = "a1";
  R.Program = P1;
  R.Line = 4;
  R.Vars = {"c"};

  ServiceResponse Resp = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  ASSERT_EQ(Resp.Status, ResponseStatus::Ok);
  EXPECT_TRUE(Resp.FromCache);
  EXPECT_TRUE(Resp.Audited);

  // The served lines are the fresh truth (line 1 feeds c via a; line
  // 2 does not), not the planted artifact's answer.
  ErrorOr<Analysis> A = Analysis::fromSource(P1, bigBudget());
  ASSERT_TRUE(A.hasValue());
  ErrorOr<ResolvedCriterion> RC = resolveCriterion(*A, Criterion(4, {"c"}));
  ASSERT_TRUE(RC.hasValue());
  EXPECT_EQ(Resp.Lines,
            computeSlice(*A, *RC, SliceAlgorithm::Agrawal).lineSet(A->cfg()));

  CacheStats S = C.stats();
  EXPECT_EQ(S.Audits, 1u);
  EXPECT_EQ(S.AuditMismatches, 1u);
  // The poisoned entry is gone: the next lookup rebuilds.
  EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
}

TEST(AnalysisCacheTest, CleanAuditLeavesTheEntryAlone) {
  CacheOptions Opts;
  Opts.AuditEvery = 1;
  AnalysisCache C{Opts};
  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  Cfg.Cache = Opts;

  ServiceRequest R;
  R.Id = "a1";
  R.Program = "read(a);\nb = a + 1;\nwrite(b);\n";
  R.Line = 3;
  ServiceResponse First = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  ASSERT_EQ(First.Status, ResponseStatus::Ok);
  R.Id = "a2";
  ServiceResponse Second = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  ASSERT_EQ(Second.Status, ResponseStatus::Ok);
  EXPECT_TRUE(Second.FromCache);
  EXPECT_TRUE(Second.Audited);
  EXPECT_EQ(First.Lines, Second.Lines);

  CacheStats S = C.stats();
  EXPECT_EQ(S.Audits, 1u);
  EXPECT_EQ(S.AuditMismatches, 0u);
  EXPECT_EQ(S.Entries, 1u);
}

//===----------------------------------------------------------------------===//
// Cold path: one parse per request, the augmented tier on first use
//===----------------------------------------------------------------------===//

/// A goto-heavy program on which Ball–Horwitz needs the augmented tier.
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

ServiceRequest summationRequest(SliceAlgorithm Algo) {
  ServiceRequest R;
  R.Id = "s1";
  R.Program = Summation;
  R.Line = 14;
  R.Vars = {"sum"};
  R.Algorithm = Algo;
  return R;
}

/// The single-shot slice on a fresh Analysis: the ground truth.
std::set<unsigned> freshLines(const std::string &Src, const Criterion &Crit,
                              SliceAlgorithm Algo) {
  ErrorOr<Analysis> A = Analysis::fromSource(Src);
  EXPECT_TRUE(A.hasValue());
  ErrorOr<SliceResult> R = computeSlice(*A, Crit, Algo);
  EXPECT_TRUE(R.hasValue());
  return R ? R->lineSet(A->cfg()) : std::set<unsigned>();
}

/// Sweeps every fault-injection ordinal of \p Run and counts the trips
/// that landed on a parser checkpoint.
template <typename RunFn> unsigned parserTripsOverSweep(RunFn Run) {
  FaultInjection::resetCount();
  Run();
  uint64_t Total = FaultInjection::observedCheckpoints();
  EXPECT_GT(Total, 0u);
  unsigned Trips = 0;
  for (uint64_t At = 1; At <= Total; ++At) {
    FaultInjection::ScopedArm Arm(At);
    Run();
    Trips += std::strcmp(FaultInjection::trippedSite(), "parser.stmt") == 0;
  }
  return Trips;
}

TEST(ColdPathTest, ColdCachedRequestParsesOnce) {
  // The cache key parses the program; the ladder's first rung analyzes
  // that AST instead of parsing it a second time.
  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  ServiceRequest R = summationRequest(SliceAlgorithm::Agrawal);
  unsigned Alone = parserTripsOverSweep([&] {
    ResourceGuard G(bigBudget());
    (void)parseProgram(R.Program, G);
  });
  unsigned Request = parserTripsOverSweep([&] {
    AnalysisCache C{Cfg.Cache};
    (void)executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  });
  EXPECT_GT(Alone, 0u);
  EXPECT_EQ(Request, Alone);
}

TEST(ColdPathTest, ParseOnceKeepsTheStepBudget) {
  // Rung 0 pays for the key's parse: a step budget one short of what a
  // rung that parses for itself needs (parse, analysis, slice) still
  // starves it, and the request walks down the ladder the same way.
  ServiceRequest R = summationRequest(SliceAlgorithm::Agrawal);
  Budget Probe = bigBudget();
  ErrorOr<Analysis> A = Analysis::fromSource(R.Program, Probe);
  ASSERT_TRUE(A.hasValue());
  ASSERT_TRUE(computeSlice(*A, Criterion(R.Line, R.Vars), R.Algorithm));
  const uint64_t RungSteps = A->guard().steps();
  ResourceGuard ParseOnly(Probe);
  ASSERT_TRUE(parseProgram(R.Program, ParseOnly).hasValue());
  // Enough for the key (its parse and two cache checkpoints).
  ASSERT_LT(ParseOnly.steps() + 2, RungSteps - 1);

  for (bool Cached : {false, true}) {
    ExecConfig Cfg;
    Cfg.DefaultBudget = bigBudget();
    Cfg.DefaultBudget.MaxSteps = RungSteps - 1;
    Cfg.Cache.Enabled = Cached;
    AnalysisCache C{Cfg.Cache};
    ServiceResponse Resp = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
    ASSERT_FALSE(Resp.Attempts.empty());
    EXPECT_EQ(Resp.Attempts.front().Outcome, "resource-exhausted")
        << "cache " << (Cached ? "on" : "off");
  }
}

TEST(ColdPathTest, HitOnAnExpiredArtifactBuildsTheTierUnderTheHitsGuard) {
  // An artifact's own guard belongs to the request that built it; here
  // its deadline has passed, and it polls on every checkpoint. The
  // first Ball–Horwitz hit builds the augmented tier and must charge the
  // hit's guard, not that expired one — unconverged postdominators
  // would serve a wrong slice from cache.
  Budget Short = bigBudget();
  Short.DeadlineMs = 50; // Room for a sanitizer build; then it expires.
  Short.PollStride = 1;
  std::shared_ptr<AnalysisArtifact> Art;
  // A build slower than the deadline (a loaded machine) retries.
  for (int Try = 0; Try != 20 && !Art; ++Try) {
    ErrorOr<Analysis> A = Analysis::fromSource(Summation, Short);
    if (!A)
      continue;
    auto Built = std::make_shared<AnalysisArtifact>(std::move(*A));
    if (Built->BS.closures().valid() && !Built->A.guard().exhausted())
      Art = std::move(Built);
  }
  ASSERT_TRUE(Art) << "no artifact built within the deadline";
  Art->CostBytes = estimateArtifactCost(*Art, Summation);
  std::this_thread::sleep_for(std::chrono::milliseconds(Short.DeadlineMs + 10));
  ASSERT_FALSE(Art->A.augmentedTierBuilt());

  CacheOptions Opts;
  AnalysisCache C{Opts};
  const std::string K = keyOf(Summation);
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.publish(K, Art);

  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  Cfg.Cache = Opts;
  ServiceRequest R = summationRequest(SliceAlgorithm::BallHorwitz);
  ServiceResponse Resp = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  ASSERT_EQ(Resp.Status, ResponseStatus::Ok) << Resp.Error;
  EXPECT_TRUE(Resp.FromCache);
  EXPECT_TRUE(Art->A.augmentedTierBuilt());
  EXPECT_EQ(Resp.Lines, freshLines(Summation, Criterion(14, {"sum"}),
                                   SliceAlgorithm::BallHorwitz));
}

TEST(ColdPathTest, ConcurrentFirstUseOfTheTierIsRaceFree) {
  // Eight readers hit one artifact whose augmented tier was never
  // built, all at once, each under its own guard.
  std::shared_ptr<AnalysisArtifact> Art = makeArtifact(Summation);
  ASSERT_FALSE(Art->A.augmentedTierBuilt());
  std::vector<Criterion> Crits = allLineCriteria(Art->A);
  std::vector<std::set<unsigned>> Expected;
  for (const Criterion &Crit : Crits)
    Expected.push_back(
        freshLines(Summation, Crit, SliceAlgorithm::BallHorwitz));

  std::atomic<unsigned> Ready{0};
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Readers;
  for (unsigned T = 0; T != 8; ++T)
    Readers.emplace_back([&, T] {
      ++Ready;
      while (Ready.load() != 8)
        std::this_thread::yield();
      for (size_t I = 0; I != Crits.size(); ++I) {
        const Criterion &Crit = Crits[(I + T) % Crits.size()];
        ResourceGuard G(bigBudget());
        ErrorOr<ResolvedCriterion> RC = resolveCriterion(Art->A, Crit);
        std::optional<SliceResult> S =
            RC ? Art->BS.sliceShared(*RC, SliceAlgorithm::BallHorwitz, G)
               : std::nullopt;
        if (!S || G.exhausted() ||
            S->lineSet(Art->A.cfg()) != Expected[(I + T) % Crits.size()])
          ++Mismatches;
      }
    });
  for (std::thread &Th : Readers)
    Th.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_TRUE(Art->A.augmentedTierBuilt());
}

TEST(ColdPathTest, HitTrippingMidTierBuildFallsBackToTheLadder) {
  // Every fault ordinal of a Ball–Horwitz request that hits an artifact
  // without the augmented tier. A trip while the hit builds the tier
  // must never serve from cache or keep the half-built tier: the
  // request goes down the ladder (fresh guards) and still answers
  // correctly.
  const std::set<unsigned> Expected = freshLines(
      Summation, Criterion(14, {"sum"}), SliceAlgorithm::BallHorwitz);
  const std::string K = keyOf(Summation);
  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  ServiceRequest R = summationRequest(SliceAlgorithm::BallHorwitz);

  struct Fixture {
    explicit Fixture(const CacheOptions &Opts)
        : C(Opts), Art(makeArtifact(Summation)) {}
    AnalysisCache C;
    std::shared_ptr<AnalysisArtifact> Art;
  };
  auto Fresh = [&] {
    auto F = std::make_unique<Fixture>(Cfg.Cache);
    EXPECT_EQ(F->C.lookup(K, farDeadline()).K,
              AnalysisCache::Outcome::MustBuild);
    F->C.publish(K, F->Art);
    return F;
  };

  uint64_t Total;
  {
    auto F = Fresh();
    FaultInjection::resetCount();
    ServiceResponse Clean =
        executeSliceRequest(R, Cfg, nullptr, nullptr, &F->C);
    Total = FaultInjection::observedCheckpoints();
    ASSERT_TRUE(Clean.FromCache);
    ASSERT_EQ(Clean.Lines, Expected);
  }

  unsigned TierTrips = 0;
  for (uint64_t At = 1; At <= Total; ++At) {
    auto F = Fresh();
    ServiceResponse Resp;
    std::string Site;
    {
      FaultInjection::ScopedArm Arm(At);
      Resp = executeSliceRequest(R, Cfg, nullptr, nullptr, &F->C);
      Site = FaultInjection::trippedSite();
    }
    ASSERT_EQ(Resp.Status, ResponseStatus::Ok) << "fault at " << At;
    EXPECT_EQ(Resp.ServedTier, "ball-horwitz") << "fault at " << At;
    EXPECT_EQ(Resp.Lines, Expected) << "fault at " << At << " (" << Site
                                    << ")";
    if (Site == "dominators.iterate" || Site == "controldep.edge") {
      ++TierTrips;
      EXPECT_FALSE(Resp.FromCache) << "fault at " << At;
      EXPECT_FALSE(F->Art->A.augmentedTierBuilt()) << "fault at " << At;
      // The next hit, under a budget that holds, builds the tier.
      R.Id = "s2";
      ServiceResponse Next =
          executeSliceRequest(R, Cfg, nullptr, nullptr, &F->C);
      R.Id = "s1";
      EXPECT_TRUE(Next.FromCache) << "fault at " << At;
      EXPECT_EQ(Next.Lines, Expected) << "fault at " << At;
    }
  }
  EXPECT_GT(TierTrips, 0u) << "no ordinal landed inside the tier build";
}

//===----------------------------------------------------------------------===//
// Stats round trip
//===----------------------------------------------------------------------===//

TEST(CacheStatsTest, JsonRoundTripsAndAccumulates) {
  CacheStats S;
  S.Hits = 3;
  S.Misses = 2;
  S.Coalesced = 1;
  S.Promotions = 4;
  S.Evictions = 5;
  S.WatermarkEvictions = 2;
  S.Poisoned = 7;
  S.Audits = 8;
  S.AuditMismatches = 1;
  S.Entries = 9;
  S.Bytes = 12345;

  std::optional<CacheStats> Back = CacheStats::fromJson(S.toJson());
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Hits, 3u);
  EXPECT_EQ(Back->WatermarkEvictions, 2u);
  EXPECT_EQ(Back->Bytes, 12345u);

  CacheStats Sum;
  Sum.add(*Back);
  Sum.add(*Back);
  EXPECT_EQ(Sum.Hits, 6u);
  EXPECT_EQ(Sum.Entries, 18u);

  EXPECT_FALSE(CacheStats::fromJson(JsonValue(42)).has_value());
}

} // namespace
