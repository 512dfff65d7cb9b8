//===- perfbench/jslice_perf.cpp - End-to-end and per-layer benchmark -----===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload (README.md) and prints every metric by name with
/// its unit, then one JSON summary as the last line of stdout.
///
///   jslice_perf --workload NAME --seed N --seconds S --trace 0|1
///               --serve-bin PATH --work-dir DIR [--trace-out FILE]
///
/// Service workloads drive a fresh jslice_serve over TCP with a closed
/// loop of four connections from this one process; batch-all runs the
/// library in a separate engine process (this binary again, with
/// --batch-engine). Every op is checked against a reference slice after
/// the timed window. With --trace 1 the run also replays the workload
/// in process with a span around each layer's public call and reports
/// the per-layer metrics instead of the end-to-end ones.
///
/// Exit status: 0 when every op was verified correct, 1 when any op
/// failed or a reference did not validate, 2 on a usage or setup error.
///
//===----------------------------------------------------------------------===//

#include "BenchMath.h"
#include "Trace.h"
#include "Workloads.h"

#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "net/Client.h"
#include "service/AnalysisCache.h"
#include "service/Journal.h"
#include "service/Request.h"
#include "service/Server.h"

#include <algorithm>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <poll.h>
#include <sstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace jslice;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Closed-loop connections: four, matching the 4-core machine the
/// baselines in README.md were taken on, so the count stays fixed when
/// the benchmark runs elsewhere.
constexpr unsigned Connections = 4;

/// Server launches per run; setup_s is their median.
constexpr unsigned SetupRepeats = 3;

/// Times the id-reuse probe resubmits one id right after its response.
constexpr unsigned IdReuseProbes = 500;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ServeBin;
  std::string WorkDir;
  std::string TraceOut;
  bool BatchEngine = false;
  bool SetupOnly = false;
};

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printMetric(const Metric &M) {
  std::printf("%-32s %14.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
}

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

/// A forked child (jslice_serve or the batch engine). Stopping sends
/// SIGTERM, waits, and escalates to SIGKILL; the destructor stops and
/// reaps, so no child outlives the run on any exit path.
class Child {
public:
  /// Starts \p Argv in \p Dir with stdout and stderr appended to \p Log;
  /// when \p StdoutPipe is non-null, stdout goes to a pipe whose read
  /// end is stored there instead.
  Child(const std::vector<std::string> &Argv, const std::string &Dir,
        const std::string &Log, int *StdoutPipe = nullptr) {
    int P[2] = {-1, -1};
    if (StdoutPipe && ::pipe(P) != 0)
      return;
    std::vector<char *> V;
    for (const std::string &A : Argv)
      V.push_back(const_cast<char *>(A.c_str()));
    V.push_back(nullptr);
    Pid = ::fork();
    if (Pid == 0) {
      int LogFd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      int Null = ::open("/dev/null", O_RDONLY);
      if (Null >= 0)
        ::dup2(Null, 0);
      if (LogFd >= 0) {
        ::dup2(LogFd, 1);
        ::dup2(LogFd, 2);
      }
      if (StdoutPipe) {
        ::dup2(P[1], 1);
        ::close(P[0]);
      }
      if (::chdir(Dir.c_str()) != 0)
        _exit(126);
      ::execv(V[0], V.data());
      _exit(127);
    }
    if (StdoutPipe) {
      ::close(P[1]);
      *StdoutPipe = Pid > 0 ? P[0] : -1;
      if (Pid <= 0)
        ::close(P[0]);
    }
  }
  ~Child() { stop(); }
  Child(const Child &) = delete;
  Child &operator=(const Child &) = delete;

  long pid() const { return Pid; }

  /// True while the child has not exited.
  bool alive() {
    if (Pid <= 0)
      return false;
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      ExitStatus = Status;
      Pid = -1;
      return false;
    }
    return true;
  }

  /// Waits for a voluntary exit; returns its status or -1 on timeout.
  int wait(double TimeoutS) {
    auto Start = Clock::now();
    while (alive()) {
      if (secondsSince(Start) > TimeoutS)
        return -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return ExitStatus;
  }

  void stop() {
    if (!alive())
      return;
    ::kill(Pid, SIGTERM);
    if (wait(15) >= 0)
      return;
    ::kill(Pid, SIGKILL);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    ExitStatus = Status;
    Pid = -1;
  }

private:
  long Pid = -1;
  int ExitStatus = -1;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

/// Polls jslice_serve's log for its "listening on HOST:PORT" line.
std::optional<uint16_t> waitListening(Child &C, const std::string &Log,
                                      double TimeoutS) {
  auto Start = Clock::now();
  while (secondsSince(Start) < TimeoutS && C.alive()) {
    std::string Text = readFile(Log);
    size_t At = Text.find("listening on ");
    if (At != std::string::npos) {
      size_t Eol = Text.find('\n', At);
      if (Eol != std::string::npos) {
        size_t Colon = Text.rfind(':', Eol);
        return static_cast<uint16_t>(
            std::strtoul(Text.c_str() + Colon + 1, nullptr, 10));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Service workloads: closed-loop load over TCP
//===----------------------------------------------------------------------===//

struct OpRecord {
  uint64_t N = 0;
  double LatencyMs = 0;
  double DoneS = 0; ///< Completion, in seconds from the loop's epoch.
  unsigned Attempts = 0;
  bool Delivered = false;
  std::string Response;
};

/// Sends requests N = First, First+1, ... from Connections threads, each
/// waiting for its reply before sending again, until \p Count requests
/// were sent or \p Deadline passed. Completion times are taken from
/// \p Epoch.
std::vector<OpRecord> closedLoop(uint16_t Port, const Inputs &In,
                                 IdSource &Ids, uint64_t First,
                                 uint64_t Count, Clock::time_point Epoch,
                                 Clock::time_point Deadline) {
  std::atomic<uint64_t> Next{0};
  std::vector<std::vector<OpRecord>> PerConn(Connections);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Connections; ++T)
    Threads.emplace_back([&, T] {
      ClientOptions Opts;
      Opts.Port = Port;
      Opts.MaxAttempts = 1; // A refusal is a failure, never a hidden retry.
      ClientConnection Conn(Opts);
      std::vector<OpRecord> &Out = PerConn[T];
      Out.reserve(1 << 16);
      while (Clock::now() < Deadline) {
        uint64_t I = Next.fetch_add(1);
        if (I >= Count)
          break;
        OpRecord R;
        R.N = First + I;
        std::string Line = In.requestLine(R.N, Ids.next());
        auto T0 = Clock::now();
        ClientResult Res = Conn.request(Line);
        auto T1 = Clock::now();
        R.LatencyMs = msBetween(T0, T1);
        R.DoneS = std::chrono::duration<double>(T1 - Epoch).count();
        R.Attempts = Res.Attempts;
        R.Delivered = Res.Ok;
        R.Response = std::move(Res.Response);
        Out.push_back(std::move(R));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<OpRecord> All;
  for (std::vector<OpRecord> &V : PerConn)
    for (OpRecord &R : V)
      All.push_back(std::move(R));
  return All;
}

/// Checks one response against its reference; on success stores the
/// server-stamped time on the worker in \p ExecMs.
bool verifyResponse(const Inputs &In, const OpRecord &R, double &ExecMs,
                    std::string &Why) {
  if (!R.Delivered) {
    Why = "transport error";
    return false;
  }
  std::optional<JsonValue> V = JsonValue::parse(R.Response);
  if (!V || !V->isObject()) {
    Why = "unparseable response";
    return false;
  }
  const JsonValue *Status = V->find("status");
  const JsonValue *Tier = V->find("served_tier");
  const JsonValue *Degraded = V->find("degraded");
  const JsonValue *Lines = V->find("lines");
  const JsonValue *Lat = V->find("latency_ms");
  if (!Status || !Status->isString() || Status->asString() != "ok") {
    Why = "status not ok";
    return false;
  }
  if (!Tier || !Tier->isString() ||
      Tier->asString() != algorithmName(SliceAlgorithm::Agrawal) ||
      !Degraded || !Degraded->isBool() || Degraded->asBool()) {
    Why = "degraded tier";
    return false;
  }
  std::set<unsigned> Got;
  if (!Lines || !Lines->isArray()) {
    Why = "no lines";
    return false;
  }
  for (const JsonValue &L : Lines->elements())
    Got.insert(static_cast<unsigned>(L.asInt()));
  if (Got != In.caseFor(R.N).Lines) {
    Why = "slice differs from the reference";
    return false;
  }
  ExecMs = Lat && Lat->isNumber() ? Lat->asDouble() : 0;
  return true;
}

std::optional<CacheStats> pollCacheStats(uint16_t Port) {
  ClientOptions Opts;
  Opts.Port = Port;
  Opts.MaxAttempts = 1;
  ClientConnection Conn(Opts);
  ClientResult R = Conn.request("{\"stats\":true}");
  if (!R.Ok)
    return std::nullopt;
  std::optional<JsonValue> V = JsonValue::parse(R.Response);
  const JsonValue *S = V ? V->find("stats") : nullptr;
  const JsonValue *C = S ? S->find("cache") : nullptr;
  return C ? CacheStats::fromJson(*C) : std::nullopt;
}

/// Resubmits one id right after each of its responses and counts the
/// refusals ("request id already in flight").
unsigned idReuseProbe(uint16_t Port, const Inputs &In, const std::string &Id,
                      unsigned &Sent) {
  ClientOptions Opts;
  Opts.Port = Port;
  Opts.MaxAttempts = 1;
  ClientConnection Conn(Opts);
  std::string Line = In.requestLine(0, Id);
  unsigned Refused = 0;
  Sent = 0;
  for (unsigned I = 0; I != IdReuseProbes + 1; ++I) {
    ClientResult R = Conn.request(Line);
    ++Sent;
    if (I && R.Ok && R.Response.find("already in flight") != std::string::npos)
      ++Refused;
  }
  Sent -= 1; // The first send is not a resubmission.
  return Refused;
}

/// The timed window is also cut into slots of this length; throughput
/// and server CPU per op are the medians over the slots, so a burst of
/// outside interference moves one slot, not the run.
constexpr double SlotS = 1.0;

/// Requests per slot for the slotted tail: p99 of 1100 samples leaves
/// eleven beyond it.
constexpr size_t TailSlotSamples = 1100;

struct ServiceRun {
  std::vector<double> SetupS;
  std::vector<OpRecord> Ops;
  double WindowS = 0;
  std::vector<double> SlotThroughput; ///< Completions per second.
  std::vector<double> SlotCpuMsPerOp; ///< Server CPU per completion.
  double ServerCpuMsPerOp = 0;
  double ClientCpuMsPerOp = 0;
  double RssMb = 0;
  CacheStats Before, After;
  unsigned IdReuseRefusals = 0;
  unsigned IdReuseSent = 0;
  uint64_t WarmupFailures = 0;
  std::vector<std::string> Errors;
};

/// Warm-up request numbers come from their own range, so cold-unique's
/// timed programs are still unseen when timing starts.
constexpr uint64_t WarmupBase = 1ull << 40;

/// The (first request, count) stretches that warm a fresh server up on
/// the workload's kind of work before launch \p Launch is timed: 160
/// unseen programs for cold-unique (the cache's write path); for the
/// others every (program, criterion) pair once, so the timed window
/// never builds an analysis, then 2000 requests of the stream itself.
std::vector<std::pair<uint64_t, uint64_t>> warmupPhases(const Inputs &In,
                                                        unsigned Launch) {
  if (In.Kind == WorkloadKind::ColdUnique)
    return {{WarmupBase + Launch * 160ull, 160}};
  return {{Inputs::WalkBase, In.Cases.size()},
          {WarmupBase + Launch * 2000ull, 2000}};
}

ServiceRun runService(const Args &A, const Workload &W, const Inputs &In,
                      double Seconds, unsigned Launches) {
  ServiceRun Run;
  IdSource WarmIds(std::string(W.Name) + "-" + std::to_string(A.Seed) + "-w");
  IdSource Ids(std::string(W.Name) + "-" + std::to_string(A.Seed) + "-t");
  std::unique_ptr<Child> Serve;
  uint16_t Port = 0;

  for (unsigned L = 0; L != Launches; ++L) {
    if (Serve)
      Serve->stop();
    std::string Dir = A.WorkDir + "/serve" + std::to_string(L);
    ::mkdir(Dir.c_str(), 0755);
    std::vector<std::string> Argv = {A.ServeBin, "--listen", "127.0.0.1:0",
                                     "--quarantine", Dir + "/quarantine"};
    if (W.Journaled)
      Argv.insert(Argv.end(), {"--journal", Dir + "/journal.jsonl",
                               "--journal-sync", "batch"});
    std::string Log = Dir + "/serve.log";

    auto T0 = Clock::now();
    Serve = std::make_unique<Child>(Argv, Dir, Log);
    std::optional<uint16_t> P = waitListening(*Serve, Log, 30);
    if (!P) {
      Run.Errors.push_back("jslice_serve did not start: " + readFile(Log));
      return Run;
    }
    Port = *P;
    std::vector<OpRecord> Warm;
    for (auto [First, Count] : warmupPhases(In, L)) {
      std::vector<OpRecord> Part =
          closedLoop(Port, In, WarmIds, First, Count, Clock::now(),
                     Clock::time_point::max());
      std::move(Part.begin(), Part.end(), std::back_inserter(Warm));
    }
    Run.SetupS.push_back(secondsSince(T0));
    double Unused = 0;
    std::string Why;
    for (const OpRecord &R : Warm)
      if (!verifyResponse(In, R, Unused, Why))
        ++Run.WarmupFailures;
  }

  // Counters before the window; polls never run inside it.
  std::optional<CacheStats> Before = pollCacheStats(Port);
  long Ticks = ::sysconf(_SC_CLK_TCK);
  std::optional<ProcCpu> ServerCpu0 = readProcCpu(Serve->pid());
  std::optional<ProcCpu> ClientCpu0 = readProcCpu(::getpid());

  auto Start = Clock::now();
  auto Deadline = Start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(Seconds));
  unsigned Slots = static_cast<unsigned>(Seconds / SlotS);
  std::vector<std::optional<ProcCpu>> SlotCpu;
  std::thread Sampler([&] {
    for (unsigned K = 1; K <= Slots; ++K) {
      std::this_thread::sleep_until(
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(K * SlotS)));
      SlotCpu.push_back(readProcCpu(Serve->pid()));
    }
  });
  Run.Ops = closedLoop(Port, In, Ids, 0, UINT64_MAX, Start, Deadline);
  Run.WindowS = secondsSince(Start);
  Sampler.join();
  std::vector<double> Done;
  for (const OpRecord &R : Run.Ops)
    Done.push_back(R.DoneS);
  std::vector<uint64_t> PerSlot = countPerSlot(Done, SlotS, Slots);
  std::optional<ProcCpu> Prev = ServerCpu0;
  for (unsigned K = 0; K != Slots && K != SlotCpu.size(); ++K) {
    Run.SlotThroughput.push_back(PerSlot[K] / SlotS);
    if (Prev && SlotCpu[K])
      Run.SlotCpuMsPerOp.push_back(
          cpuMsPerOp(*Prev, *SlotCpu[K], Ticks, PerSlot[K]));
    Prev = SlotCpu[K];
  }

  std::optional<ProcCpu> ServerCpu1 = readProcCpu(Serve->pid());
  std::optional<ProcCpu> ClientCpu1 = readProcCpu(::getpid());
  std::optional<double> Rss = readPeakRssMb(Serve->pid());
  std::optional<CacheStats> After = pollCacheStats(Port);
  if (!Before || !After || !ServerCpu0 || !ServerCpu1 || !ClientCpu0 ||
      !ClientCpu1 || !Rss) {
    Run.Errors.push_back("could not read server counters");
    return Run;
  }
  Run.Before = *Before;
  Run.After = *After;
  Run.ServerCpuMsPerOp =
      cpuMsPerOp(*ServerCpu0, *ServerCpu1, Ticks, Run.Ops.size());
  Run.ClientCpuMsPerOp =
      cpuMsPerOp(*ClientCpu0, *ClientCpu1, Ticks, Run.Ops.size());
  Run.RssMb = *Rss;
  Run.IdReuseRefusals =
      idReuseProbe(Port, In, std::string(W.Name) + "-probe", Run.IdReuseSent);
  Serve->stop();
  return Run;
}

//===----------------------------------------------------------------------===//
// batch-all: the library in an engine process
//===----------------------------------------------------------------------===//

/// The engine: reads the program files in \p Dir, warms up with one op
/// on each dialect, prints "ready", then (unless setup-only) slices
/// whole files for the timed window and writes engine.out.
int batchEngineMain(const Args &A) {
  std::vector<std::string> Programs;
  for (unsigned I = 0;; ++I) {
    std::ifstream F(A.WorkDir + "/program" + std::to_string(I) + ".mc");
    if (!F)
      break;
    std::ostringstream S;
    S << F.rdbuf();
    Programs.push_back(S.str());
  }
  if (Programs.empty())
    return 2;

  struct OpOut {
    unsigned Program;
    double Ms;
    unsigned Criteria;
    unsigned Ok;
    uint64_t Digest;
  };
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  double OpCpuMs = 0;
  auto CpuNowMs = [] {
    timespec Ts = {};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
    return Ts.tv_sec * 1e3 + Ts.tv_nsec / 1e6;
  };
  // One op: analysis, closure cache and runAll, then - after the
  // untimed digest - releasing it all, which the library's user pays
  // for too.
  auto RunOp = [&](unsigned P, OpOut &Out) {
    Out = {P, 0, 0, 0, 0};
    double Cpu0 = CpuNowMs();
    auto T0 = Clock::now();
    auto An = std::make_unique<ErrorOr<Analysis>>(
        Analysis::fromSource(Programs[P]));
    if (!*An) {
      Out.Ms = msBetween(T0, Clock::now());
      return;
    }
    auto BS = std::make_unique<BatchSlicer>(**An);
    std::vector<BatchEntry> Entries = BS->runAll(allLineCriteria(**An));
    Out.Ms = msBetween(T0, Clock::now());
    OpCpuMs += CpuNowMs() - Cpu0;

    std::vector<uint64_t> D(Entries.size());
    parallelFor(Entries.size(), Nproc, [&](size_t I) {
      const BatchEntry &E = Entries[I];
      D[I] = sliceDigest(E.Crit.Line, E.Ok ? &E.Result.Nodes : nullptr);
    });
    Out.Criteria = static_cast<unsigned>(Entries.size());
    for (const BatchEntry &E : Entries)
      Out.Ok += E.Ok;
    Out.Digest = combineDigests(D);

    Cpu0 = CpuNowMs();
    T0 = Clock::now();
    Entries = {};
    BS.reset();
    An.reset();
    Out.Ms += msBetween(T0, Clock::now());
    OpCpuMs += CpuNowMs() - Cpu0;
  };

  OpOut Scratch{};
  for (unsigned P = 0; P != std::min<size_t>(2, Programs.size()); ++P)
    RunOp(P, Scratch);
  std::printf("ready\n");
  std::fflush(stdout);
  if (A.SetupOnly)
    return 0;

  // CPU is summed over the ops alone: the digests between them are the
  // benchmark's own work.
  OpCpuMs = 0;
  std::vector<OpOut> Ops;
  auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(A.Seconds));
  for (unsigned I = 0; Clock::now() < Deadline; ++I) {
    OpOut O{};
    RunOp(I % Programs.size(), O);
    Ops.push_back(O);
  }
  std::optional<double> Rss = readPeakRssMb(::getpid());
  if (!Rss)
    return 2;

  uint64_t Criteria = 0;
  for (const OpOut &O : Ops)
    Criteria += O.Criteria;
  std::FILE *F = std::fopen((A.WorkDir + "/engine.out").c_str(), "w");
  if (!F)
    return 2;
  std::fprintf(F, "cpu_ms_per_op %s\nrss_mb %s\n",
               number(Criteria ? OpCpuMs / Criteria : 0).c_str(),
               number(*Rss).c_str());
  for (const OpOut &O : Ops)
    std::fprintf(F, "op %u %s %u %u %llu\n", O.Program, number(O.Ms).c_str(),
                 O.Criteria, O.Ok, static_cast<unsigned long long>(O.Digest));
  std::fclose(F);
  std::printf("done\n");
  return 0;
}

struct BatchOp {
  unsigned Program = 0;
  double Ms = 0;
  unsigned Criteria = 0;
  unsigned Ok = 0;
  uint64_t Digest = 0;
};

struct BatchRun {
  std::vector<double> SetupS;
  std::vector<BatchOp> Ops;
  double CpuMsPerOp = 0;
  double RssMb = 0;
  std::vector<std::string> Errors;
};

/// Reads one line from \p Fd, waiting at most \p TimeoutS in all.
bool readLineFrom(int Fd, std::string &Line, double TimeoutS) {
  Line.clear();
  auto Start = Clock::now();
  for (;;) {
    int LeftMs = static_cast<int>((TimeoutS - secondsSince(Start)) * 1000);
    pollfd P = {Fd, POLLIN, 0};
    if (LeftMs <= 0 || ::poll(&P, 1, LeftMs) <= 0)
      return false;
    char C;
    if (::read(Fd, &C, 1) != 1)
      return false;
    if (C == '\n')
      return true;
    Line += C;
  }
}

BatchRun runBatch(const Args &A, const Inputs &In, unsigned Launches) {
  BatchRun Run;
  for (size_t P = 0; P != In.Programs.size(); ++P) {
    std::ofstream F(A.WorkDir + "/program" + std::to_string(P) + ".mc");
    F << In.Programs[P].Source;
  }
  char Self[4096];
  ssize_t Len = ::readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  if (Len <= 0) {
    Run.Errors.push_back("cannot locate own binary");
    return Run;
  }
  Self[Len] = 0;
  for (unsigned L = 0; L != Launches; ++L) {
    bool Last = L + 1 == Launches;
    std::vector<std::string> Argv = {Self, "--batch-engine", "--work-dir",
                                     A.WorkDir, "--seconds",
                                     number(A.Seconds)};
    if (!Last)
      Argv.push_back("--setup-only");
    int Out = -1;
    auto T0 = Clock::now();
    Child Engine(Argv, A.WorkDir, A.WorkDir + "/engine.log", &Out);
    std::string Line;
    bool Ready = Out >= 0 && readLineFrom(Out, Line, 120) && Line == "ready";
    Run.SetupS.push_back(secondsSince(T0));
    bool Done = Ready && (!Last || (readLineFrom(Out, Line, 170) &&
                                    Line == "done"));
    if (Out >= 0)
      ::close(Out);
    int Status = Engine.wait(30);
    if (!Ready || !Done || Status != 0) {
      Run.Errors.push_back("batch engine failed: " +
                           readFile(A.WorkDir + "/engine.log"));
      return Run;
    }
  }
  std::istringstream In2(readFile(A.WorkDir + "/engine.out"));
  std::string Tag;
  while (In2 >> Tag) {
    if (Tag == "cpu_ms_per_op") {
      In2 >> Run.CpuMsPerOp;
    } else if (Tag == "rss_mb") {
      In2 >> Run.RssMb;
    } else if (Tag == "op") {
      BatchOp O;
      In2 >> O.Program >> O.Ms >> O.Criteria >> O.Ok >> O.Digest;
      Run.Ops.push_back(O);
    }
  }
  if (Run.Ops.empty())
    Run.Errors.push_back("batch engine reported no ops");
  return Run;
}

//===----------------------------------------------------------------------===//
// The traced in-process replay
//===----------------------------------------------------------------------===//

/// The replay's own copy of the service state one request touches.
struct ReplayState {
  explicit ReplayState(const std::string &JournalPath)
      : Cache(CacheOptions{}), Journaled(!JournalPath.empty()) {
    if (Journaled)
      Wal.open(JournalPath, 0, JournalSync::Batch, 25);
  }
  AnalysisCache Cache;
  Journal Wal;
  bool Journaled;
};

struct ReplayCounts {
  uint64_t Ops = 0;
  uint64_t Parses = 0; ///< parseProgram calls, direct or via fromSource.
  uint64_t Mismatches = 0;
};

/// One request through the public calls executeSliceRequest and the
/// server make for it, in their order, each under its layer's span.
void replayServiceOp(Tracer &T, ReplayState &S, const std::string &Line,
                     const std::set<unsigned> &Expected, ReplayCounts &C) {
  ParsedRequest P;
  {
    Tracer::Scope Sp(T, "service.request_parse");
    P = parseRequestLine(Line);
  }
  const ServiceRequest &R = P.Request;
  if (S.Journaled) {
    Tracer::Scope Sp(T, "service.journal_append");
    S.Wal.begin(R);
  }
  Budget B = ServerOptions::serviceDefaultBudget();
  std::optional<std::string> Key;
  {
    Tracer::Scope Sp(T, "service.cache_key");
    std::string Raw = rawProgramKey(R.Program);
    Key = S.Cache.canonicalKeyFor(Raw);
    if (!Key) {
      // canonicalProgramKey, call by call.
      ResourceGuard G(B);
      ErrorOr<std::unique_ptr<Program>> Prog = [&] {
        Tracer::Scope Pp(T, "lang.parse");
        return parseProgram(R.Program, G);
      }();
      ++C.Parses;
      if (Prog) {
        PrintOptions PO;
        PO.ShowLineNumbers = true;
        std::string Printed;
        {
          Tracer::Scope Pr(T, "lang.print");
          Printed = printProgram(**Prog, PO);
        }
        Key = rawProgramKey(Printed);
        S.Cache.rememberCanonicalKey(Raw, *Key);
      }
    }
  }
  AnalysisCache::LookupResult L;
  if (Key) {
    Tracer::Scope Sp(T, "service.cache_lookup");
    L = S.Cache.lookup(*Key, Clock::now() + std::chrono::seconds(5));
  }

  ServiceResponse Resp;
  Resp.Id = R.Id;
  Resp.Requested = algorithmName(R.Algorithm);
  Resp.ServedTier = Resp.Requested;
  TierReport Tier;
  Tier.Tier = Resp.ServedTier;
  Tier.Outcome = "served";
  Criterion Crit(R.Line, R.Vars);
  if (L.K == AnalysisCache::Outcome::Hit) {
    Tracer::Scope Sp(T, "slicer.slice_shared");
    ResourceGuard G(B);
    ErrorOr<ResolvedCriterion> RC = resolveCriterion(L.Artifact->A, Crit);
    std::optional<SliceResult> SR =
        RC ? L.Artifact->BS.sliceShared(*RC, R.Algorithm, G) : std::nullopt;
    if (SR)
      Resp.Lines = SR->lineSet(L.Artifact->A.cfg());
    Resp.FromCache = true;
    Tier.Detail = "analysis-cache";
  } else {
    ErrorOr<Analysis> An = [&] {
      Tracer::Scope Sp(T, "slicer.analysis");
      return Analysis::fromSource(R.Program, B);
    }();
    ++C.Parses;
    if (An) {
      {
        Tracer::Scope Sp(T, "slicer.slice");
        ErrorOr<SliceResult> SR = computeSlice(*An, Crit, R.Algorithm);
        if (SR)
          Resp.Lines = SR->lineSet(An->cfg());
      }
      std::shared_ptr<AnalysisArtifact> Art;
      {
        Tracer::Scope Sp(T, "slicer.closure_build");
        Art = std::make_shared<AnalysisArtifact>(std::move(*An));
      }
      if (L.K == AnalysisCache::Outcome::MustBuild) {
        Tracer::Scope Sp(T, "service.cache_publish");
        Art->CostBytes = estimateArtifactCost(*Art, R.Program);
        S.Cache.publish(*Key, std::move(Art));
      }
    } else if (L.K == AnalysisCache::Outcome::MustBuild) {
      S.Cache.buildFailed(*Key);
    }
  }
  Resp.Attempts.push_back(std::move(Tier));
  Resp.LatencyMs = 0.5; // The server stamps one; keep the line's shape.
  {
    Tracer::Scope Sp(T, "service.response");
    std::string Out = Resp.str();
    (void)Out;
  }
  if (S.Journaled) {
    Tracer::Scope Sp(T, "service.journal_append");
    S.Wal.end(R.Id, "ok");
  }
  if (Resp.Lines != Expected)
    ++C.Mismatches;
  ++C.Ops;
}

/// One batch-all op: slice every line of a file in process.
void replayBatchOp(Tracer &T, const Template &Prog, ReplayCounts &C) {
  ++C.Ops;
  ++C.Parses;
  ErrorOr<Analysis> A = [&] {
    Tracer::Scope Sp(T, "slicer.analysis");
    return Analysis::fromSource(Prog.Source);
  }();
  if (!A) {
    ++C.Mismatches;
    return;
  }
  std::unique_ptr<BatchSlicer> BS;
  {
    Tracer::Scope Sp(T, "slicer.closure_build");
    BS = std::make_unique<BatchSlicer>(*A);
  }
  Tracer::Scope Sp(T, "slicer.runall");
  (void)BS->runAll(allLineCriteria(*A));
}

/// The request lines a replay pass sends: warm-up lines, then the
/// measured requests (kept short: every pass replays all of them).
struct ReplaySample {
  std::vector<std::pair<std::string, const std::set<unsigned> *>> Warm, Ops;
};

ReplaySample replaySample(const Workload &W, const Inputs &In) {
  ReplaySample S;
  IdSource Ids(std::string(W.Name) + "-replay");
  auto Add = [&](auto &Into, uint64_t N) {
    Into.emplace_back(In.requestLine(N, Ids.next()), &In.caseFor(N).Lines);
  };
  switch (In.Kind) {
  case WorkloadKind::ColdUnique:
    for (uint64_t I = 0; I != 16; ++I)
      Add(S.Warm, WarmupBase + I);
    for (uint64_t I = 0; I != 160; ++I)
      Add(S.Ops, I);
    break;
  case WorkloadKind::HotZipf:
  case WorkloadKind::JournaledZipf:
    for (uint64_t I = 0; I != In.Cases.size(); ++I)
      Add(S.Warm, Inputs::WalkBase + I);
    for (uint64_t I = 0; I != 4000; ++I)
      Add(S.Ops, I);
    break;
  case WorkloadKind::BatchAll:
    for (uint64_t I = 0; I != In.Cases.size(); ++I)
      Add(S.Ops, I);
    break;
  }
  return S;
}

/// The analysis pipeline of one program stage by stage, in the order
/// Analysis builds it — the unaugmented stages, then the Ball–Horwitz
/// augmented tier — followed by the whole Analysis and the slicing
/// engines on top of it.
void stagePass(Tracer &T, const Template &Prog,
               const std::vector<const SliceCase *> &Cases,
               std::vector<double> &Fig7Ns, bool RunAll,
               std::vector<double> &Speedups) {
  {
    Tracer::Scope Root(T, "stages");
    ErrorOr<std::unique_ptr<Program>> P = [&] {
      Tracer::Scope Sp(T, "lang.parse");
      return parseProgram(Prog.Source);
    }();
    if (!P)
      return;
    ErrorOr<Cfg> C = [&] {
      Tracer::Scope Sp(T, "cfg.build");
      return Cfg::build(**P);
    }();
    if (!C)
      return;
    LexicalSuccessorTree Lst = [&] {
      Tracer::Scope Sp(T, "cfg.lst");
      return buildLexicalSuccessorTree(*C);
    }();
    DomTree Pdt = [&] {
      Tracer::Scope Sp(T, "graph.pdt");
      return computePostDominators(C->graph(), C->exit());
    }();
    DefUse DU = [&] {
      Tracer::Scope Sp(T, "dataflow.defuse");
      return DefUse::build(*C);
    }();
    ReachingDefinitions RD = [&] {
      Tracer::Scope Sp(T, "dataflow.reachdefs");
      return ReachingDefinitions::compute(*C, DU);
    }();
    Digraph Control = [&] {
      Tracer::Scope Sp(T, "pdg.controldep");
      return buildControlDependence(C->graph(), Pdt);
    }();
    Digraph Data = [&] {
      Tracer::Scope Sp(T, "dataflow.datadep");
      return buildDataDependence(*C, DU, RD);
    }();
    Tracer::Scope Sp(T, "slicer.augmented");
    Digraph Aug = C->buildAugmentedGraph(Lst.parents());
    DomTree AugPdt = computePostDominators(Aug, C->exit());
    Digraph AugControl = buildControlDependence(Aug, AugPdt);
  }

  Tracer::Scope Root(T, "engines");
  ErrorOr<Analysis> A = [&] {
    Tracer::Scope Sp(T, "slicer.analysis");
    return Analysis::fromSource(Prog.Source);
  }();
  if (!A || Cases.empty())
    return;
  {
    Tracer::Scope Sp(T, "slicer.slice");
    (void)computeSlice(*A, Cases.front()->Crit, SliceAlgorithm::Agrawal);
  }
  std::unique_ptr<BatchSlicer> BS;
  {
    Tracer::Scope Sp(T, "slicer.closure_build");
    BS = std::make_unique<BatchSlicer>(*A);
  }
  for (const SliceCase *C : Cases) {
    ErrorOr<ResolvedCriterion> RC = resolveCriterion(*A, C->Crit);
    if (!RC)
      continue;
    {
      Tracer::Scope Sp(T, "slicer.slice_shared");
      ResourceGuard G(ServerOptions::serviceDefaultBudget());
      (void)BS->sliceShared(*RC, SliceAlgorithm::Agrawal, G);
    }
    // The Figure 7 jump augmentation: the same criterion with and
    // without it, through the same closure cache.
    uint64_t T0 = nowNs();
    (void)BS->slice(*RC, SliceAlgorithm::Conventional);
    uint64_t T1 = nowNs();
    (void)BS->slice(*RC, SliceAlgorithm::Agrawal);
    uint64_t T2 = nowNs();
    Fig7Ns.push_back(static_cast<double>(T2 - T1) -
                     static_cast<double>(T1 - T0));
  }
  if (RunAll) {
    std::vector<Criterion> All = allLineCriteria(*A);
    BatchOptions One;
    One.Threads = 1;
    uint64_t T0 = nowNs();
    {
      Tracer::Scope Sp(T, "slicer.runall_1thread");
      (void)BS->runAll(All, One);
    }
    uint64_t T1 = nowNs();
    {
      Tracer::Scope Sp(T, "slicer.runall");
      (void)BS->runAll(All);
    }
    uint64_t T2 = nowNs();
    Speedups.push_back(static_cast<double>(T1 - T0) /
                       static_cast<double>(std::max<uint64_t>(1, T2 - T1)));
  }
}

/// Times Server::serveLine per request on an in-process server set up
/// like the workload's jslice_serve, warmed with the same lines;
/// returns microseconds per measured request.
std::vector<double> serveLineTimes(const Workload &W, const ReplaySample &S,
                                   const std::string &Dir) {
  ServerOptions Opts;
  Opts.QuarantineDir = Dir + "/quarantine";
  if (W.Journaled) {
    Opts.JournalPath = Dir + "/serveline-journal.jsonl";
    Opts.JournalSyncPolicy = JournalSync::Batch;
  }
  std::ostringstream Out, Log;
  Server Srv(Opts, Out, Log);
  std::mutex M;
  std::condition_variable CV;
  bool Answered = false;
  ResponseSink Sink = [&](const std::string &) {
    std::lock_guard<std::mutex> Lock(M);
    Answered = true;
    CV.notify_one();
  };
  auto Serve = [&](const std::string &Line) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Answered = false;
    }
    auto T0 = Clock::now();
    Srv.serveLine(Line, Sink);
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Answered; });
    return msBetween(T0, Clock::now()) * 1000.0;
  };
  for (const auto &L : S.Warm)
    Serve(L.first);
  std::vector<double> Us;
  for (const auto &L : S.Ops)
    Us.push_back(Serve(L.first));
  Srv.finish();
  return Us;
}

/// Root span names: the workload's ops are "op"; batch-all's service
/// requests, replayed only for the service layers, are "service_op".
constexpr const char *OpRoot = "op";
constexpr const char *ServiceOpRoot = "service_op";

struct ReplayResult {
  std::vector<Span> Spans;   ///< Last traced pass, then the stage pass.
  double UntracedOpNs = 0;   ///< Summed "op" roots, untraced passes.
  double TracedOpNs = 0;     ///< Summed "op" roots, traced passes.
  unsigned Passes = 0;       ///< Counted passes of each kind.
  ReplayCounts Counts;       ///< The workload's ops, last traced pass.
  std::vector<double> ServeLineUs;
  std::vector<double> Fig7Ns, Speedups;
  double JournalUsPerOp = 0;
  double JournalBytesPerOp = 0;
};

/// One pass over the sample with fresh state; returns the summed time
/// of the workload's op roots.
double replayPass(Tracer &T, const Workload &W, const Inputs &In,
                  const ReplaySample &S, const std::string &Dir,
                  ReplayCounts &C, uint64_t *JournalBytes) {
  std::string JPath;
  if (W.Journaled) {
    JPath = Dir + "/replay-journal.jsonl";
    ::unlink(JPath.c_str());
  }
  ReplayState St(JPath);
  ReplayCounts WarmCounts, ServiceCounts;
  for (const auto &L : S.Warm) {
    Tracer::Scope Root(T, "warmup");
    replayServiceOp(T, St, L.first, *L.second, WarmCounts);
  }
  struct stat Before = {};
  if (!JPath.empty())
    ::stat(JPath.c_str(), &Before);

  bool Batch = In.Kind == WorkloadKind::BatchAll;
  double Total = 0;
  uint32_t Op = 0;
  if (Batch)
    for (size_t I = 0; I != std::min<size_t>(4, In.Programs.size()); ++I) {
      const Template &P = In.Programs[I];
      T.setOp(Op++);
      uint64_t T0 = nowNs();
      {
        Tracer::Scope Root(T, OpRoot);
        replayBatchOp(T, P, C);
      }
      Total += static_cast<double>(nowNs() - T0);
    }
  for (const auto &L : S.Ops) {
    T.setOp(Op++);
    uint64_t T0 = nowNs();
    {
      Tracer::Scope Root(T, Batch ? ServiceOpRoot : OpRoot);
      replayServiceOp(T, St, L.first, *L.second, Batch ? ServiceCounts : C);
    }
    if (!Batch)
      Total += static_cast<double>(nowNs() - T0);
  }
  C.Mismatches += WarmCounts.Mismatches + ServiceCounts.Mismatches;
  if (JournalBytes && !JPath.empty()) {
    struct stat After = {};
    ::stat(JPath.c_str(), &After);
    *JournalBytes = static_cast<uint64_t>(After.st_size - Before.st_size);
  }
  return Total;
}

ReplayResult replay(const Workload &W, const Inputs &In,
                    const std::string &Dir) {
  ReplayResult R;
  ReplaySample S = replaySample(W, In);
  // A first round warms caches and the allocator and is not counted;
  // then untraced and traced passes alternate, each kind leading every
  // other round, so drift and order hit both alike.
  for (unsigned Round = 0; Round != 5; ++Round) {
    for (bool Traced : {Round % 2 == 1, Round % 2 == 0}) {
      Tracer Tr(Traced);
      ReplayCounts Counts;
      uint64_t JBytes = 0;
      double Ns = replayPass(Tr, W, In, S, Dir, Counts, &JBytes);
      if (Round == 0)
        continue;
      (Traced ? R.TracedOpNs : R.UntracedOpNs) += Ns;
      if (!Traced)
        continue;
      ++R.Passes;
      R.Spans = Tr.spans();
      R.Counts = Counts;
      R.JournalBytesPerOp =
          Counts.Ops ? static_cast<double>(JBytes) / Counts.Ops : 0;
    }
  }

  // The stage pass: the workload's programs (at most 32) with up to 16
  // of the criteria each is asked; runAll on its two largest.
  Tracer T(true);
  size_t NumPrograms = std::min<size_t>(32, In.Programs.size());
  std::vector<size_t> BySize(NumPrograms);
  for (size_t P = 0; P != NumPrograms; ++P)
    BySize[P] = P;
  std::stable_sort(BySize.begin(), BySize.end(), [&](size_t X, size_t Y) {
    return In.Programs[X].Source.size() > In.Programs[Y].Source.size();
  });
  for (size_t P = 0; P != NumPrograms; ++P) {
    std::vector<const SliceCase *> Cases;
    for (unsigned C : In.CasesOf[P])
      if (Cases.size() < 16)
        Cases.push_back(&In.Cases[C]);
    bool RunAll = P == BySize[0] || (NumPrograms > 1 && P == BySize[1]);
    stagePass(T, In.Programs[P], Cases, R.Fig7Ns, RunAll, R.Speedups);
  }

  // Journal cost on a scratch journal for the workloads that serve
  // without one (journaled-zipf pays it inside its ops).
  if (!W.Journaled) {
    std::string JPath = Dir + "/probe-journal.jsonl";
    size_t N = std::min<size_t>(S.Ops.size(), 2000);
    {
      Journal J;
      J.open(JPath, 0, JournalSync::Batch, 25);
      for (size_t I = 0; I != N; ++I) {
        ParsedRequest P = parseRequestLine(S.Ops[I].first);
        Tracer::Scope Root(T, "journal_probe");
        Tracer::Scope Sp(T, "service.journal_append");
        J.begin(P.Request);
        J.end(P.Request.Id, "ok");
      }
    }
    struct stat St = {};
    ::stat(JPath.c_str(), &St);
    R.JournalBytesPerOp = N ? static_cast<double>(St.st_size) / N : 0;
  }
  // Stage-pass spans follow the op spans (parent ids shift).
  uint32_t Base = static_cast<uint32_t>(R.Spans.size());
  for (Span Sp : T.spans()) {
    if (Sp.Parent != Span::NoParent)
      Sp.Parent += Base;
    R.Spans.push_back(Sp);
  }

  R.ServeLineUs = serveLineTimes(W, S, Dir);
  return R;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

double tailPercentile(const Workload &W) {
  // batch-all slices whole files, a few dozen per run: p99 would have
  // fewer than ten samples beyond it, so its tail is p75.
  return W.Service ? 99 : 75;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: jslice_perf --workload NAME --seed N "
               "--seconds S --trace 0|1 --serve-bin PATH --work-dir DIR "
               "[--trace-out FILE]\n",
               Why);
  return 2;
}

std::optional<Args> parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Value = [&]() -> std::optional<std::string> {
      if (I + 1 >= Argc)
        return std::nullopt;
      return std::string(Argv[++I]);
    };
    if (K == "--batch-engine") {
      A.BatchEngine = true;
    } else if (K == "--setup-only") {
      A.SetupOnly = true;
    } else {
      std::optional<std::string> V = Value();
      if (!V)
        return std::nullopt;
      char *End = nullptr;
      if (K == "--workload")
        A.Workload = *V;
      else if (K == "--seed")
        A.Seed = std::strtoull(V->c_str(), &End, 10);
      else if (K == "--seconds")
        A.Seconds = std::strtod(V->c_str(), &End);
      else if (K == "--trace")
        A.Trace = *V == "1";
      else if (K == "--serve-bin")
        A.ServeBin = *V;
      else if (K == "--work-dir")
        A.WorkDir = *V;
      else if (K == "--trace-out")
        A.TraceOut = *V;
      else
        return std::nullopt;
      if (End && *End)
        return std::nullopt;
    }
  }
  return A;
}

/// Mean self time per call of \p Name, in the unit \p Scale ns.
double perCall(const std::map<std::string, LayerTotals> &L,
               const std::string &Name, double Scale) {
  auto It = L.find(Name);
  if (It == L.end() || !It->second.Calls)
    return 0;
  return It->second.SelfNs / It->second.Calls / Scale;
}

} // namespace

int main(int Argc, char **Argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::optional<Args> Parsed = parseArgs(Argc, Argv);
  if (!Parsed)
    return usage("bad arguments");
  Args A = *Parsed;
  if (A.BatchEngine)
    return batchEngineMain(A);

  const Workload *W = findWorkload(A.Workload);
  if (!W)
    return usage("unknown workload");
  if (A.WorkDir.empty() || A.Seconds <= 0 || (W->Service && A.ServeBin.empty()))
    return usage("missing --work-dir, --seconds or --serve-bin");

  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("# jslice perfbench: workload=%s seed=%llu seconds=%s "
              "trace=%d nproc=%u pinning=none connections=%u\n",
              W->Name, static_cast<unsigned long long>(A.Seed),
              number(A.Seconds).c_str(), A.Trace ? 1 : 0, Nproc,
              W->Service ? Connections : 0);

  // Inputs and their references, before anything is timed.
  Inputs In;
  try {
    In = buildInputs(W->Kind, A.Seed);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: building inputs: %s\n", E.what());
    return 2;
  }
  ReferenceChecks Checks = validateReferences(In, A.Seed, 48);
  std::vector<BatchReference> BatchRefs;
  if (W->Kind == WorkloadKind::BatchAll) {
    BatchRefs.resize(In.Programs.size());
    parallelFor(In.Programs.size(), Nproc, [&](size_t P) {
      BatchRefs[P] = batchReference(In.Programs[P].Source);
    });
  }
  std::printf("# references: %zu programs, %zu cases; checks: %u renames, "
              "%u interpreter runs on workload cases, %u on seeded small "
              "programs; %u failed\n",
              In.Programs.size(), In.Cases.size(), Checks.Renames,
              Checks.CaseOracleRuns, Checks.SmallOracleRuns, Checks.Failed);

  std::vector<Metric> E2E, Layer;
  uint64_t Attempted = 0, Failed = 0, WarmupFailures = 0;
  std::vector<std::string> Errors;
  std::vector<double> Lat, Setup;
  /// Service workloads: (completion second, latency) for the slotted
  /// tail.
  std::vector<std::pair<double, double>> LatAt;
  double WindowS = 0, CpuMsPerOp = 0, RssMb = 0, OkOps = 0;
  double Throughput = -1; ///< Set from slots; else ok ops over the window.

  // Per-layer numbers the service run provides.
  double ExecMs = 0, OutsideMs = 0, AttemptsPerOp = 0, ClientCpu = 0;
  double HitRatio = 0, EvictionsPerOp = 0;
  unsigned IdReuse = 0, IdReuseSent = 0;

  auto FillFromService = [&](const ServiceRun &R, bool Timed) {
    Errors.insert(Errors.end(), R.Errors.begin(), R.Errors.end());
    std::vector<double> Exec, Outside;
    uint64_t Attempts = 0, Fails = 0;
    std::map<std::string, uint64_t> Whys;
    for (const OpRecord &Op : R.Ops) {
      double E = 0;
      std::string Why;
      Attempts += Op.Attempts;
      if (verifyResponse(In, Op, E, Why)) {
        Exec.push_back(E);
        Outside.push_back(Op.LatencyMs - E);
      } else {
        ++Fails;
        ++Whys[Why];
      }
    }
    for (const auto &[Why, N] : Whys)
      Errors.push_back(std::to_string(N) + " op(s): " + Why);
    ExecMs = median(Exec);
    OutsideMs = median(Outside);
    AttemptsPerOp = R.Ops.empty() ? 0 : double(Attempts) / R.Ops.size();
    ClientCpu = R.ClientCpuMsPerOp;
    uint64_t Hits = R.After.Hits - R.Before.Hits;
    uint64_t Misses = R.After.Misses - R.Before.Misses;
    HitRatio = Hits + Misses ? double(Hits) / double(Hits + Misses) : 0;
    EvictionsPerOp = R.Ops.empty() ? 0
                                   : double(R.After.Evictions -
                                            R.Before.Evictions) /
                                         R.Ops.size();
    IdReuse = R.IdReuseRefusals;
    IdReuseSent = R.IdReuseSent;
    WarmupFailures += R.WarmupFailures;
    if (!Timed)
      return;
    Attempted = R.Ops.size();
    Failed = Fails;
    for (const OpRecord &Op : R.Ops) {
      Lat.push_back(Op.Delivered ? Op.LatencyMs : 1e9);
      LatAt.emplace_back(Op.DoneS, Lat.back());
    }
    OkOps = static_cast<double>(Attempted - Failed);
    WindowS = R.WindowS;
    CpuMsPerOp = R.ServerCpuMsPerOp;
    std::printf("# one-second slots: ops/s");
    for (double V : R.SlotThroughput)
      std::printf(" %.0f", V);
    std::printf("; server cpu ms/op");
    for (double V : R.SlotCpuMsPerOp)
      std::printf(" %.4f", V);
    std::printf("\n");
    if (R.SlotThroughput.size() >= 3) {
      // Medians over the one-second slots; only ok ops count.
      Throughput = median(R.SlotThroughput) * OkOps /
                   static_cast<double>(std::max<uint64_t>(1, Attempted));
      CpuMsPerOp = median(R.SlotCpuMsPerOp);
    }
    RssMb = R.RssMb;
    Setup = R.SetupS;
  };

  if (W->Service) {
    ServiceRun R =
        runService(A, *W, In, A.Seconds, A.Trace ? 1 : SetupRepeats);
    FillFromService(R, true);
  } else {
    BatchRun R = runBatch(A, In, A.Trace ? 1 : SetupRepeats);
    Errors.insert(Errors.end(), R.Errors.begin(), R.Errors.end());
    uint64_t BadFiles = 0;
    double BusyMs = 0;
    for (const BatchOp &Op : R.Ops) {
      // An op is one criterion; a file that differs fails all of them.
      const BatchReference &Ref = BatchRefs[Op.Program];
      uint64_t Criteria = std::max(Op.Criteria, Ref.Criteria);
      Attempted += Criteria;
      if (Op.Criteria == Ref.Criteria && Op.Digest == Ref.Digest) {
        OkOps += Op.Criteria;
      } else {
        ++BadFiles;
        Failed += Criteria;
      }
      BusyMs += Op.Ms;
      Lat.push_back(Op.Ms);
    }
    if (BadFiles)
      Errors.push_back(std::to_string(BadFiles) +
                       " whole-file op(s) differ from the reference");
    WindowS = BusyMs / 1000.0;
    CpuMsPerOp = R.CpuMsPerOp;
    RssMb = R.RssMb;
    Setup = R.SetupS;
    if (A.Trace) {
      // The service layers see batch-all's programs through a short
      // run of its request stream.
      ServiceRun S = runService(A, *W, In, std::min(2.0, A.Seconds), 1);
      FillFromService(S, false);
    }
  }

  // The tail: per slot of at least TailSlotSamples requests where the
  // run has three such slots (the median over them), else over the run.
  double Tail = 0;
  std::optional<double> TailV =
      slottedPercentile(LatAt, WindowS, tailPercentile(*W), TailSlotSamples,
                        static_cast<unsigned>(WindowS / SlotS));
  bool Slotted = TailV.has_value();
  if (!TailV)
    TailV = percentile(Lat, tailPercentile(*W));
  if (TailV)
    Tail = *TailV;
  else if (!Lat.empty())
    Errors.push_back("fewer than ten samples beyond p" +
                     number(tailPercentile(*W)) + " (" +
                     std::to_string(Lat.size()) + " samples)");

  if (Throughput < 0)
    Throughput = WindowS > 0 ? OkOps / WindowS : 0;
  E2E.push_back({"throughput_per_s", Throughput, "1/s"});
  E2E.push_back({"latency_p50_ms", median(Lat), "ms"});
  E2E.push_back({"latency_tail_ms", Tail, "ms"});
  E2E.push_back({"cpu_ms_per_op", CpuMsPerOp, "ms"});
  E2E.push_back({"rss_peak_mb", RssMb, "MiB"});
  E2E.push_back({"setup_s", median(Setup), "s"});

  std::printf("# timed ops %llu over %.3f s; tail p%g over %zu samples%s; "
              "setup samples",
              static_cast<unsigned long long>(Attempted), WindowS,
              tailPercentile(*W), Lat.size(),
              Slotted ? ", median of its slots" : "");
  for (double S : Setup)
    std::printf(" %.4f", S);
  std::printf("\n");

  if (A.Trace) {
    std::string Dir = A.WorkDir + "/replay";
    ::mkdir(Dir.c_str(), 0755);
    ReplayResult R = replay(*W, In, Dir);
    std::map<std::string, LayerTotals> L = summarize(R.Spans);
    std::vector<uint64_t> Self = selfTimesNs(R.Spans);
    // Per root kind ("op", "service_op"): summed root time, summed
    // layer self time under it, and each layer's self time.
    struct RootTotals {
      double Count = 0, RootNs = 0, LayerNs = 0;
      std::map<std::string, double> ByLayer;
    };
    std::map<std::string, RootTotals> Roots;
    std::vector<const char *> RootOf(R.Spans.size(), nullptr);
    for (size_t I = 0; I != R.Spans.size(); ++I) {
      const Span &S = R.Spans[I];
      bool IsRoot = S.Parent == Span::NoParent;
      RootOf[I] = IsRoot ? S.Name : RootOf[S.Parent];
      RootTotals &RT = Roots[RootOf[I]];
      if (IsRoot) {
        ++RT.Count;
        RT.RootNs += static_cast<double>(S.EndNs - S.StartNs);
      } else {
        RT.LayerNs += static_cast<double>(Self[I]);
      }
      RT.ByLayer[S.Name] += static_cast<double>(Self[I]);
    }
    const RootTotals &OpT = Roots[OpRoot];
    const RootTotals &SvcT =
        Roots[W->Kind == WorkloadKind::BatchAll ? ServiceOpRoot : OpRoot];
    double Ops = std::max(1.0, OpT.Count);
    double ServeLineNs = 0;
    for (double Us : R.ServeLineUs)
      ServeLineNs += Us * 1000.0;
    double ServeLinePerReq =
        R.ServeLineUs.empty() ? 0 : ServeLineNs / R.ServeLineUs.size();
    double LayersPerReq = SvcT.Count ? SvcT.LayerNs / SvcT.Count : 0;

    uint64_t Multi = 0, TravSum = 0, TravN = 0;
    // The paper's statistic: criteria whose slice needed more than one
    // productive Figure 7 traversal.
    auto CountTraversals = [&](unsigned T, unsigned Productive) {
      TravSum += T;
      ++TravN;
      Multi += Productive > 1;
    };
    if (W->Kind == WorkloadKind::BatchAll) {
      for (const BatchReference &B : BatchRefs)
        for (auto [T, Productive] : B.Traversals)
          CountTraversals(T, Productive);
    } else {
      for (const SliceCase &C : In.Cases)
        CountTraversals(C.Traversals, C.Productive);
    }
    double Fig7 = 0;
    for (double V : R.Fig7Ns)
      Fig7 += V;
    Fig7 = R.Fig7Ns.empty() ? 0 : Fig7 / R.Fig7Ns.size() / 1e3;
    // Per op: one probe span (begin + end) or two op spans.
    double JournalUs =
        !W->Journaled
            ? perCall(L, "service.journal_append", 1e3)
            : OpT.ByLayer.count("service.journal_append")
                  ? OpT.ByLayer.at("service.journal_append") / Ops / 1e3
                  : 0;

    Layer = {
        {"lang.parse_ms", perCall(L, "lang.parse", 1e6), "ms"},
        {"lang.parse_calls_per_op", R.Counts.Parses / Ops, "count"},
        {"lang.print_ms", perCall(L, "lang.print", 1e6), "ms"},
        {"cfg.build_ms", perCall(L, "cfg.build", 1e6), "ms"},
        {"cfg.lst_ms", perCall(L, "cfg.lst", 1e6), "ms"},
        {"graph.pdt_ms", perCall(L, "graph.pdt", 1e6), "ms"},
        {"pdg.controldep_ms", perCall(L, "pdg.controldep", 1e6), "ms"},
        {"dataflow.defuse_ms", perCall(L, "dataflow.defuse", 1e6), "ms"},
        {"dataflow.reachdefs_ms", perCall(L, "dataflow.reachdefs", 1e6), "ms"},
        {"dataflow.datadep_ms", perCall(L, "dataflow.datadep", 1e6), "ms"},
        {"slicer.analysis_ms", perCall(L, "slicer.analysis", 1e6), "ms"},
        {"slicer.augmented_ms", perCall(L, "slicer.augmented", 1e6), "ms"},
        {"slicer.slice_ms", perCall(L, "slicer.slice", 1e6), "ms"},
        {"slicer.closure_build_ms", perCall(L, "slicer.closure_build", 1e6),
         "ms"},
        {"slicer.slice_shared_us", perCall(L, "slicer.slice_shared", 1e3),
         "us"},
        {"slicer.runall_ms", perCall(L, "slicer.runall", 1e6), "ms"},
        {"slicer.runall_speedup", median(R.Speedups), "x"},
        {"slicer.fig7_augment_us", Fig7, "us"},
        {"slicer.traversals_mean", TravN ? double(TravSum) / TravN : 0,
         "count"},
        {"slicer.multi_traversal_share", TravN ? double(Multi) / TravN : 0,
         "share"},
        {"service.request_parse_us",
         perCall(L, "service.request_parse", 1e3), "us"},
        {"service.cache_key_us", perCall(L, "service.cache_key", 1e3), "us"},
        {"service.cache_lookup_us", perCall(L, "service.cache_lookup", 1e3),
         "us"},
        {"service.response_us", perCall(L, "service.response", 1e3), "us"},
        {"service.serve_line_us", ServeLinePerReq / 1e3, "us"},
        {"service.cache_publish_us", perCall(L, "service.cache_publish", 1e3),
         "us"},
        {"service.cache_evictions_per_op", EvictionsPerOp, "count"},
        {"service.cache_hit_ratio", HitRatio, "share"},
        {"service.journal_append_us", JournalUs, "us"},
        {"service.journal_bytes_per_op", R.JournalBytesPerOp, "B"},
        {"service.exec_ms", ExecMs, "ms"},
        {"service.id_reuse_refusals", static_cast<double>(IdReuse), "count"},
        {"net.outside_exec_ms", OutsideMs, "ms"},
        {"net.client_attempts_per_op", AttemptsPerOp, "count"},
        {"net.client_cpu_ms_per_op", ClientCpu, "ms"},
        {"trace.overhead_pct",
         R.UntracedOpNs > 0
             ? 100.0 * (R.TracedOpNs - R.UntracedOpNs) / R.UntracedOpNs
             : 0,
         "%"},
        {"trace.unaccounted_share",
         ServeLinePerReq > 0 ? 1.0 - LayersPerReq / ServeLinePerReq : 0,
         "share"},
    };
    if (R.Counts.Mismatches) {
      Errors.push_back(std::to_string(R.Counts.Mismatches) +
                       " replayed op(s) differ from the reference");
    }

    std::printf("# traced replay: %llu ops, op time %.3f ms traced vs %.3f "
                "ms untraced over %u passes each; serveLine %.1f us per "
                "request vs %.1f us in layer spans\n",
                static_cast<unsigned long long>(R.Counts.Ops),
                R.TracedOpNs / 1e6, R.UntracedOpNs / 1e6, R.Passes,
                ServeLinePerReq / 1e3, LayersPerReq / 1e3);
    std::printf("# layer self time per op and share of the op:\n");
    std::vector<std::pair<double, std::string>> Shares;
    for (const auto &[Name, Ns] : OpT.ByLayer)
      Shares.emplace_back(Ns, Name);
    std::sort(Shares.rbegin(), Shares.rend());
    for (const auto &[Ns, Name] : Shares)
      std::printf("#   %-28s %12.3f us/op %7.2f%%\n", Name.c_str(),
                  Ns / Ops / 1e3, OpT.RootNs > 0 ? 100.0 * Ns / OpT.RootNs : 0);
    std::string TracePath = A.TraceOut.empty()
                                ? A.WorkDir + "/trace.jsonl"
                                : A.TraceOut;
    if (writeTrace(TracePath, R.Spans))
      std::printf("# spans written to %s\n", TracePath.c_str());
  }

  std::printf("# end-to-end%s\n", A.Trace ? " (informational in a traced run)"
                                          : "");
  for (const Metric &M : E2E)
    printMetric(M);
  double FailedShare = Attempted ? double(Failed) / Attempted : 1;
  std::printf("%-32s %14.6g share (%llu of %llu ops)\n", "failed_share",
              FailedShare, static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  if (W->Service || A.Trace)
    std::printf("%-32s %14u count (of %u resubmissions)\n",
                "service.id_reuse_refusals", IdReuse, IdReuseSent);
  if (A.Trace) {
    std::printf("# per-layer\n");
    for (const Metric &M : Layer)
      printMetric(M);
  }

  if (WarmupFailures)
    Errors.push_back(std::to_string(WarmupFailures) + " warm-up op(s) failed");
  if (Checks.Failed)
    Errors.push_back(std::to_string(Checks.Failed) +
                     " reference check(s) failed");
  if (!Attempted)
    Errors.push_back("no op was attempted");
  for (const std::string &E : Errors)
    std::fprintf(stderr, "error: %s\n", E.c_str());
  bool Correct = Errors.empty() && Failed == 0;

  std::string Json = "{\"correct\":" + std::string(Correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(Attempted) +
                     ",\"failed\":" + std::to_string(Failed) +
                     ",\"metrics\":{";
  bool First = true;
  for (const Metric &M : A.Trace ? Layer : E2E) {
    Json += (First ? "\"" : ",\"") + M.Name + "\":{\"value\":" +
            number(M.Value) + ",\"unit\":\"" + M.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
