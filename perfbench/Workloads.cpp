//===- perfbench/Workloads.cpp - Seeded inputs and their references -------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "gen/ProgramGenerator.h"
#include "interp/Interpreter.h"
#include "service/Json.h"
#include "slicer/BatchSlicer.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <stdexcept>
#include <thread>

using namespace jslice;
using namespace perfbench;

namespace {

const Workload Workloads[] = {
    {"cold-unique", WorkloadKind::ColdUnique, true, false},
    {"hot-zipf", WorkloadKind::HotZipf, true, false},
    {"journaled-zipf", WorkloadKind::JournaledZipf, true, true},
    {"batch-all", WorkloadKind::BatchAll, false, false},
};

/// Generator settings shared by every workload.
constexpr unsigned NumVars = 8;

/// cold-unique: every request renames one of ColdPerClass programs in
/// each of eight classes (four sizes x two dialects), cycling through
/// the classes so every run sees the same mix.
constexpr unsigned ColdSizes[] = {100, 200, 400, 800};
constexpr unsigned ColdPerClass = 96;

/// hot-zipf / journaled-zipf: ZipfPrograms programs of 200 to 400
/// statements, without `return` (see batch-all), ranked by length so
/// the hottest program is the shortest: with a quarter of the stream on
/// rank 1, a seed that happened to put a long program there moved the
/// whole run.
constexpr unsigned ZipfPrograms = 32;

/// batch-all: BatchPrograms programs of about BatchStmts statements,
/// generated without `return`: a top-level return leaves the rest of a
/// generated file with near-empty slices, and with returns the cost of
/// slicing a whole 2000-statement file varied 35-fold between files
/// (coefficient of variation 0.67 against 0.11 without). Gotos, breaks
/// and continues still exercise the jump handling. The service
/// stream of its traced run asks BatchCasesPerProgram of each
/// program's write criteria.
constexpr unsigned BatchPrograms = 16;
constexpr unsigned BatchStmts = 2000;
constexpr unsigned BatchCasesPerProgram = 8;

unsigned hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

bool isVariableToken(const std::string &Tok) {
  if (Tok.size() < 2 || Tok[0] != 'x')
    return false;
  for (size_t I = 1; I != Tok.size(); ++I)
    if (!std::isdigit(static_cast<unsigned char>(Tok[I])))
      return false;
  return true;
}

std::string renamed(const std::string &Var, const std::string &Suffix) {
  return Suffix.empty() || !isVariableToken(Var) ? Var : Var + "_" + Suffix;
}

/// A generator program that analyzes cleanly and has reachable write
/// criteria; seeds that fail are skipped deterministically.
struct Shape {
  unsigned Stmts;
  bool Gotos;
  bool Returns = true;
};

std::string generateUsable(uint64_t Seed, const Shape &S) {
  for (uint64_t Attempt = 0; Attempt != 64; ++Attempt) {
    GenOptions G;
    G.Seed = Seed * 64 + Attempt;
    G.TargetStmts = S.Stmts;
    G.NumVars = NumVars;
    G.AllowGotos = S.Gotos;
    G.AllowReturn = S.Returns;
    std::string Src = generateProgram(G);
    ErrorOr<Analysis> A = Analysis::fromSource(Src);
    if (A && !reachableWriteCriteria(*A).empty())
      return Src;
  }
  throw std::runtime_error("no usable generator program near seed " +
                           std::to_string(Seed));
}

uint64_t programSeed(uint64_t Seed, WorkloadKind Kind, unsigned Index) {
  return (Seed << 20) ^ (static_cast<uint64_t>(Kind) << 16) ^ Index;
}

} // namespace

const Workload *perfbench::findWorkload(const std::string &Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

Template perfbench::splitVariables(const std::string &Source) {
  Template T;
  T.Source = Source;
  std::string Piece;
  size_t I = 0;
  while (I < Source.size()) {
    char C = Source[I];
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t J = I;
      while (J < Source.size() &&
             (std::isalnum(static_cast<unsigned char>(Source[J])) ||
              Source[J] == '_'))
        ++J;
      std::string Tok = Source.substr(I, J - I);
      if (isVariableToken(Tok)) {
        T.Pieces.push_back(std::move(Piece));
        Piece.clear();
        T.Vars.push_back(std::move(Tok));
      } else {
        Piece += Tok;
      }
      I = J;
    } else {
      Piece += C;
      ++I;
    }
  }
  T.Pieces.push_back(std::move(Piece));
  return T;
}

std::string Template::text(const std::string &Suffix) const {
  if (Suffix.empty())
    return Source;
  std::string Out;
  Out.reserve(Source.size() + Vars.size() * (Suffix.size() + 1));
  for (size_t I = 0; I != Vars.size(); ++I) {
    Out += Pieces[I];
    Out += renamed(Vars[I], Suffix);
  }
  Out += Pieces.back();
  return Out;
}

const SliceCase &Inputs::caseFor(uint64_t N) const {
  if (Zipf && N < WalkBase) {
    const std::vector<unsigned> &Of = CasesOf[Zipf->at(N)];
    size_t Pick = static_cast<size_t>(hashUnit(Seed ^ 0x5bd1e995u, N) *
                                      static_cast<double>(Of.size()));
    return Cases[Of[std::min(Pick, Of.size() - 1)]];
  }
  return Cases[N % Cases.size()];
}

std::string Inputs::suffixFor(uint64_t N) const {
  return Kind == WorkloadKind::ColdUnique ? "u" + std::to_string(N) : "";
}

/// The request as JSON, without its id: requestLine splices the id in
/// front.
static JsonValue requestJson(const Inputs &In, const SliceCase &C,
                             const std::string &Suffix) {
  JsonValue V = JsonValue::object();
  V.set("program", In.Programs[C.Program].text(Suffix));
  V.set("line", static_cast<int64_t>(C.Crit.Line));
  if (!C.Crit.Vars.empty()) {
    JsonValue Vs = JsonValue::array();
    for (const std::string &Var : C.Crit.Vars)
      Vs.push(renamed(Var, Suffix));
    V.set("vars", std::move(Vs));
  }
  V.set("algorithm", algorithmName(SliceAlgorithm::Agrawal));
  return V;
}

std::string Inputs::requestLine(uint64_t N, const std::string &Id) const {
  const SliceCase &C = caseFor(N);
  std::string Head = "{\"id\":\"" + jsonEscape(Id) + "\",";
  if (!Tails.empty())
    return Head + Tails[&C - Cases.data()];
  return Head + requestJson(*this, C, suffixFor(N)).str().substr(1);
}

Inputs perfbench::buildInputs(WorkloadKind Kind, uint64_t Seed) {
  Inputs In;
  In.Kind = Kind;
  In.Seed = Seed;

  std::vector<Shape> Shapes;
  switch (Kind) {
  case WorkloadKind::ColdUnique:
    for (unsigned P = 0; P != ColdPerClass * 8; ++P)
      Shapes.push_back({ColdSizes[P % 4], (P / 4) % 2 == 1});
    break;
  case WorkloadKind::HotZipf:
  case WorkloadKind::JournaledZipf:
    for (unsigned R = 0; R != ZipfPrograms; ++R)
      Shapes.push_back(
          {200 + 200 * R / (ZipfPrograms - 1), R % 2 == 1, /*Returns=*/false});
    In.Zipf.emplace(ZipfPrograms, 1.0, Seed);
    break;
  case WorkloadKind::BatchAll:
    for (unsigned P = 0; P != BatchPrograms; ++P)
      Shapes.push_back({BatchStmts, P % 2 == 1, /*Returns=*/false});
    break;
  }

  In.Programs.resize(Shapes.size());
  std::vector<std::vector<SliceCase>> PerProgram(Shapes.size());
  parallelFor(Shapes.size(), hardwareThreads(), [&](size_t P) {
    std::string Src =
        generateUsable(programSeed(Seed, Kind, static_cast<unsigned>(P)),
                       Shapes[P]);
    In.Programs[P] = splitVariables(Src);
    ErrorOr<Analysis> A = Analysis::fromSource(Src);
    std::vector<Criterion> Writes = reachableWriteCriteria(*A);
    std::vector<Criterion> Asked;
    if (Kind == WorkloadKind::ColdUnique) {
      Asked.push_back(Writes[static_cast<size_t>(
          hashUnit(Seed, P) * static_cast<double>(Writes.size()))]);
    } else if (Kind == WorkloadKind::BatchAll) {
      for (unsigned I = 0; I != BatchCasesPerProgram; ++I)
        Asked.push_back(Writes[I * Writes.size() / BatchCasesPerProgram]);
    } else {
      Asked = Writes;
    }
    for (Criterion &Crit : Asked) {
      ErrorOr<SliceResult> R = computeSlice(*A, Crit, SliceAlgorithm::Agrawal);
      if (!R)
        throw std::runtime_error("reference slice failed: " +
                                 R.diags().str());
      SliceCase C;
      C.Program = static_cast<unsigned>(P);
      C.Crit = std::move(Crit);
      C.Lines = R->lineSet(A->cfg());
      C.Traversals = R->Traversals;
      C.Productive = R->ProductiveTraversals;
      PerProgram[P].push_back(std::move(C));
    }
  });

  if (In.Zipf) {
    std::vector<size_t> Order(Shapes.size());
    for (size_t P = 0; P != Order.size(); ++P)
      Order[P] = P;
    std::stable_sort(Order.begin(), Order.end(), [&](size_t X, size_t Y) {
      return In.Programs[X].Source.size() < In.Programs[Y].Source.size();
    });
    std::vector<Template> Programs;
    std::vector<std::vector<SliceCase>> Cases;
    for (size_t P : Order) {
      Programs.push_back(std::move(In.Programs[P]));
      Cases.push_back(std::move(PerProgram[P]));
      for (SliceCase &C : Cases.back())
        C.Program = static_cast<unsigned>(Programs.size() - 1);
    }
    In.Programs = std::move(Programs);
    PerProgram = std::move(Cases);
  }

  In.CasesOf.resize(Shapes.size());
  for (size_t P = 0; P != Shapes.size(); ++P)
    for (SliceCase &C : PerProgram[P]) {
      In.CasesOf[P].push_back(static_cast<unsigned>(In.Cases.size()));
      In.Cases.push_back(std::move(C));
    }
  if (Kind != WorkloadKind::ColdUnique)
    for (const SliceCase &C : In.Cases)
      In.Tails.push_back(requestJson(In, C, "").str().substr(1));
  return In;
}

/// One behavioural check of the reference slice of \p Crit: the
/// projection interpreter must observe the same criterion values in the
/// original and in the slice, on three seeded inputs. Programs with
/// dead code are outside the paper's guarantees and not judged (the
/// repository's own oracle, jslice_stress, skips them too), nor are
/// runs whose original diverges. Returns (runs judged, runs failed).
static std::pair<unsigned, unsigned>
oracleCheck(const Analysis &A, const Criterion &Crit, uint64_t InputSeed) {
  if (!A.cfg().unreachableNodes().empty())
    return {0, 0};
  ErrorOr<ResolvedCriterion> RC = resolveCriterion(A, Crit);
  if (!RC)
    return {1, 1};
  SliceResult S = computeSlice(A, *RC, SliceAlgorithm::Agrawal);
  std::set<unsigned> Kept = S.Nodes;
  Kept.insert(A.cfg().exit());
  Rng InputRng(InputSeed);
  unsigned Judged = 0, Failed = 0;
  for (unsigned Trial = 0; Trial != 3; ++Trial) {
    ExecOptions Exec;
    for (unsigned K = 0; K != 12; ++K)
      Exec.Input.push_back(static_cast<int64_t>(InputRng.below(41)) - 20);
    Exec.MaxSteps = 100000;
    ExecResult Orig = runOriginal(A, RC->Node, RC->VarIds, Exec);
    if (!Orig.Completed)
      continue;
    ++Judged;
    ExecResult Sliced = runProjection(A, Kept, RC->Node, RC->VarIds, Exec);
    if (!Sliced.Completed || Sliced.CriterionValues != Orig.CriterionValues)
      ++Failed;
  }
  return {Judged, Failed};
}

ReferenceChecks perfbench::validateReferences(const Inputs &In, uint64_t Seed,
                                              unsigned Sample) {
  std::atomic<unsigned> Renames{0}, CaseRuns{0}, SmallRuns{0}, Failed{0};

  // The workload's own cases. Generated programs of a few hundred
  // statements nearly always hold dead code, so most of these picks
  // are rename checks only.
  Rng R(Seed ^ 0xa5a5a5a5u);
  std::vector<size_t> Picks;
  for (unsigned I = 0; I != Sample && !In.Cases.empty(); ++I)
    Picks.push_back(static_cast<size_t>(R.below(In.Cases.size())));
  parallelFor(Picks.size(), hardwareThreads(), [&](size_t I) {
    const SliceCase &C = In.Cases[Picks[I]];
    const Template &T = In.Programs[C.Program];
    ErrorOr<Analysis> A = Analysis::fromSource(T.Source);
    if (!A) {
      ++Failed;
      return;
    }
    auto [Judged, Bad] = oracleCheck(*A, C.Crit, Seed + Picks[I]);
    CaseRuns += Judged;
    Failed += Bad;
    if (Bad)
      std::fprintf(stderr,
                   "reference check: program %u line %u: the slice does not "
                   "reproduce the criterion values\n",
                   C.Program, C.Crit.Line);
    if (In.Kind == WorkloadKind::ColdUnique) {
      // Renaming must not change what the server is asked to compute.
      std::string Suffix = In.suffixFor(Picks[I]);
      ErrorOr<Analysis> B = Analysis::fromSource(T.text(Suffix));
      Criterion Renamed = C.Crit;
      for (std::string &V : Renamed.Vars)
        V = renamed(V, Suffix);
      ErrorOr<SliceResult> RS =
          B ? computeSlice(*B, Renamed, SliceAlgorithm::Agrawal)
            : ErrorOr<SliceResult>(B.diags());
      ++Renames;
      if (!RS || RS->lineSet(B->cfg()) != C.Lines) {
        ++Failed;
        std::fprintf(stderr, "reference check: program %u renamed as %s "
                             "slices differently\n",
                     C.Program, Suffix.c_str());
      }
    }
  });

  // Tops the oracle runs up to Sample with seeded small programs of
  // both dialects, where dead code is rarer: the reference engine
  // itself is then still checked on this seed.
  constexpr unsigned SmallPrograms = 256;
  parallelFor(SmallPrograms, hardwareThreads(), [&](size_t I) {
    if (CaseRuns + SmallRuns >= Sample)
      return;
    GenOptions G;
    G.Seed = programSeed(Seed, In.Kind, 0xffff) * 1024 + I;
    G.TargetStmts = 80;
    G.NumVars = NumVars;
    G.AllowGotos = I % 2 == 1;
    ErrorOr<Analysis> A = Analysis::fromSource(generateProgram(G));
    if (!A)
      return;
    std::vector<Criterion> Writes = reachableWriteCriteria(*A);
    for (size_t K = 0; K < Writes.size() && K != 4; ++K) {
      auto [Judged, Bad] = oracleCheck(*A, Writes[K], G.Seed + K);
      SmallRuns += Judged;
      Failed += Bad;
      if (Bad)
        std::fprintf(stderr,
                     "reference check: generator seed %llu line %u: the "
                     "slice does not reproduce the criterion values\n",
                     static_cast<unsigned long long>(G.Seed),
                     Writes[K].Line);
    }
  });

  ReferenceChecks Out;
  Out.Renames = Renames;
  Out.CaseOracleRuns = CaseRuns;
  Out.SmallOracleRuns = SmallRuns;
  Out.Failed = Failed;
  return Out;
}

namespace {
struct Fnv {
  uint64_t H = 1469598103934665603ull;
  void mix(uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  }
};
} // namespace

uint64_t perfbench::sliceDigest(unsigned Line,
                                const std::set<unsigned> *Nodes) {
  Fnv F;
  F.mix(Line);
  F.mix(Nodes ? 1 : 0);
  if (Nodes)
    for (unsigned N : *Nodes)
      F.mix(N + 2);
  return F.H;
}

uint64_t perfbench::combineDigests(const std::vector<uint64_t> &Digests) {
  Fnv F;
  for (uint64_t D : Digests)
    F.mix(D);
  F.mix(Digests.size());
  return F.H;
}

BatchReference perfbench::batchReference(const std::string &Source) {
  BatchReference Ref;
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  if (!A)
    throw std::runtime_error("batch program does not analyze: " +
                             A.diags().str());
  std::vector<Criterion> Crits = allLineCriteria(*A);
  std::vector<ErrorOr<SliceResult>> Results;
  for (const Criterion &Crit : Crits)
    Results.push_back(computeSlice(*A, Crit, SliceAlgorithm::Agrawal));
  std::vector<uint64_t> Digests;
  for (size_t I = 0; I != Crits.size(); ++I) {
    Digests.push_back(sliceDigest(
        Crits[I].Line, Results[I] ? &Results[I]->Nodes : nullptr));
    if (Results[I])
      Ref.Traversals.emplace_back(Results[I]->Traversals,
                                  Results[I]->ProductiveTraversals);
  }
  Ref.Digest = combineDigests(Digests);
  Ref.Criteria = static_cast<unsigned>(Crits.size());
  return Ref;
}
