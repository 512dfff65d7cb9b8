//===- perfbench/BenchMath.cpp - The benchmark's own arithmetic -----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "BenchMath.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace perfbench;

std::optional<double> perfbench::percentile(std::vector<double> Samples,
                                            double P, unsigned MinBeyond) {
  if (Samples.empty() || P <= 0 || P > 100)
    return std::nullopt;
  size_t N = Samples.size();
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N));
  Rank = std::clamp<size_t>(Rank, 1, N);
  if (N - Rank < MinBeyond)
    return std::nullopt;
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

std::optional<double> perfbench::slottedPercentile(
    const std::vector<std::pair<double, double>> &Samples, double WindowS,
    double P, size_t SlotSamples, unsigned MaxSlots) {
  size_t Slots = std::min<size_t>(MaxSlots, Samples.size() / SlotSamples);
  if (Slots < 3 || WindowS <= 0)
    return std::nullopt;
  double SlotS = WindowS / static_cast<double>(Slots);
  std::vector<std::vector<double>> PerSlot(Slots);
  for (const auto &[T, V] : Samples) {
    if (T < 0)
      continue;
    size_t Slot = static_cast<size_t>(T / SlotS);
    PerSlot[std::min(Slot, Slots - 1)].push_back(V);
  }
  std::vector<double> Tails;
  for (std::vector<double> &S : PerSlot)
    if (std::optional<double> Q = percentile(std::move(S), P))
      Tails.push_back(*Q);
  if (Tails.size() < 3)
    return std::nullopt;
  return median(std::move(Tails));
}

std::vector<uint64_t> perfbench::countPerSlot(const std::vector<double> &TimesS,
                                              double SlotS, unsigned Slots) {
  std::vector<uint64_t> Counts(Slots);
  for (double T : TimesS) {
    if (T < 0 || SlotS <= 0)
      continue;
    double Slot = std::floor(T / SlotS);
    if (Slot < Slots)
      ++Counts[static_cast<size_t>(Slot)];
  }
  return Counts;
}

std::optional<ProcCpu> perfbench::parseProcStat(const std::string &Text) {
  size_t Close = Text.rfind(')');
  if (Close == std::string::npos)
    return std::nullopt;
  // After the command come field 3 (state) onwards; utime and stime
  // are fields 14 and 15.
  std::istringstream In(Text.substr(Close + 1));
  std::string Field;
  ProcCpu Out;
  for (unsigned I = 3; I <= 15; ++I) {
    if (!(In >> Field))
      return std::nullopt;
    if (I == 14 || I == 15) {
      char *End = nullptr;
      uint64_t V = std::strtoull(Field.c_str(), &End, 10);
      if (End == Field.c_str() || *End)
        return std::nullopt;
      (I == 14 ? Out.UserTicks : Out.SystemTicks) = V;
    }
  }
  return Out;
}

static std::optional<std::string> slurp(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

std::optional<ProcCpu> perfbench::readProcCpu(long Pid) {
  std::optional<std::string> T =
      slurp("/proc/" + std::to_string(Pid) + "/stat");
  return T ? parseProcStat(*T) : std::nullopt;
}

double perfbench::cpuMsPerOp(const ProcCpu &Before, const ProcCpu &After,
                             long TicksPerSecond, uint64_t Ops) {
  if (!Ops || TicksPerSecond <= 0)
    return 0;
  uint64_t Ticks = (After.UserTicks + After.SystemTicks) -
                   (Before.UserTicks + Before.SystemTicks);
  return 1000.0 * static_cast<double>(Ticks) /
         static_cast<double>(TicksPerSecond) / static_cast<double>(Ops);
}

std::optional<uint64_t> perfbench::parseVmHwmKb(const std::string &Text) {
  size_t At = Text.find("VmHWM:");
  if (At == std::string::npos)
    return std::nullopt;
  std::istringstream In(Text.substr(At + 6));
  uint64_t Kb = 0;
  std::string Unit;
  if (!(In >> Kb >> Unit) || Unit != "kB")
    return std::nullopt;
  return Kb;
}

std::optional<double> perfbench::readPeakRssMb(long Pid) {
  std::optional<std::string> T =
      slurp("/proc/" + std::to_string(Pid) + "/status");
  if (!T)
    return std::nullopt;
  std::optional<uint64_t> Kb = parseVmHwmKb(*T);
  return Kb ? std::optional<double>(*Kb / 1024.0) : std::nullopt;
}

Rng::Rng(uint64_t Seed) : State(Seed * 0x9e3779b97f4a7c15ull + 1) {
  if (!State)
    State = 0x2545f4914f6cdd1dull;
}

uint64_t Rng::next() {
  State ^= State >> 12;
  State ^= State << 25;
  State ^= State >> 27;
  return State * 0x2545f4914f6cdd1dull;
}

uint64_t Rng::below(uint64_t N) { return next() % N; }

double perfbench::hashUnit(uint64_t Seed, uint64_t Index) {
  // splitmix64 finalizer over the pair.
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Index + 0x632be59bd9b4e019ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  Z ^= Z >> 31;
  return static_cast<double>(Z >> 11) * 0x1p-53;
}

ZipfSampler::ZipfSampler(size_t N, double S, uint64_t Seed) : Seed(Seed) {
  double Sum = 0;
  Cdf.reserve(N);
  for (size_t Rank = 0; Rank != N; ++Rank) {
    Sum += 1.0 / std::pow(static_cast<double>(Rank + 1), S);
    Cdf.push_back(Sum);
  }
  for (double &C : Cdf)
    C /= Sum;
}

size_t ZipfSampler::at(uint64_t Index) const {
  double U = hashUnit(Seed, Index);
  size_t Rank = static_cast<size_t>(
      std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
  return std::min(Rank, Cdf.size() - 1);
}

std::string IdSource::next() {
  return Prefix + "-" +
         std::to_string(Next.fetch_add(1, std::memory_order_relaxed));
}
