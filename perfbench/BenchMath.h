//===- perfbench/BenchMath.h - The benchmark's own arithmetic -------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The numbers the benchmark reports are only as good as the few small
/// rules that turn samples into metrics: which percentile may be
/// reported, how CPU time per op is read from /proc, how request ids
/// stay unique and how the Zipf stream is drawn. They live here so
/// BenchMathTest.cpp can pin them down.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCHMATH_H
#define PERFBENCH_BENCHMATH_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile \p P (0 < P <= 100) of \p Samples. Nullopt
/// when fewer than \p MinBeyond samples lie strictly after the rank —
/// the rule that a tail percentile is reported only when at least ten
/// samples lie beyond it.
std::optional<double> percentile(std::vector<double> Samples, double P,
                                 unsigned MinBeyond = 10);

/// The median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> Samples);

/// A tail percentile that a short burst of outside interference cannot
/// move: the window is cut into the most equal slots (at most \p
/// MaxSlots) that each hold about \p SlotSamples samples, \p P is taken
/// per slot under the ten-beyond rule, and the median over the slots
/// that qualify is returned. Nullopt when fewer than three slots do.
/// \p Samples are (completion time in seconds, value) pairs.
std::optional<double>
slottedPercentile(const std::vector<std::pair<double, double>> &Samples,
                  double WindowS, double P, size_t SlotSamples,
                  unsigned MaxSlots);

/// How many of \p TimesS (seconds from the window's start) fall in each
/// of \p Slots consecutive slots of \p SlotS seconds; later times are
/// not counted.
std::vector<uint64_t> countPerSlot(const std::vector<double> &TimesS,
                                   double SlotS, unsigned Slots);

/// User and system CPU of one process, in clock ticks.
struct ProcCpu {
  uint64_t UserTicks = 0;
  uint64_t SystemTicks = 0;
};

/// Parses the contents of /proc/<pid>/stat. The command name in field
/// 2 may itself hold spaces and parentheses, so fields are counted
/// from the last ')'.
std::optional<ProcCpu> parseProcStat(const std::string &Text);

/// Reads /proc/<Pid>/stat; nullopt when the process is gone.
std::optional<ProcCpu> readProcCpu(long Pid);

/// CPU milliseconds per op between two readings; 0 when \p Ops is 0.
double cpuMsPerOp(const ProcCpu &Before, const ProcCpu &After,
                  long TicksPerSecond, uint64_t Ops);

/// The VmHWM line of /proc/<pid>/status, in KiB.
std::optional<uint64_t> parseVmHwmKb(const std::string &StatusText);

/// Reads VmHWM of \p Pid in MiB; nullopt when the process is gone.
std::optional<double> readPeakRssMb(long Pid);

/// xorshift64* — small, fast and fully determined by its seed.
class Rng {
public:
  explicit Rng(uint64_t Seed);
  uint64_t next();
  /// Uniform in [0, N); N must be positive.
  uint64_t below(uint64_t N);

private:
  uint64_t State;
};

/// A uniform draw in [0, 1) that depends only on (\p Seed, \p Index), so
/// the I-th request of a stream is the same whichever connection sends
/// it.
double hashUnit(uint64_t Seed, uint64_t Index);

/// Ranks 0..N-1 with probability proportional to 1/(rank+1)^S; draw I
/// depends only on the seed and I.
class ZipfSampler {
public:
  ZipfSampler(size_t N, double S, uint64_t Seed);
  size_t at(uint64_t Index) const;

private:
  std::vector<double> Cdf;
  uint64_t Seed;
};

/// Request ids unique across threads: "<prefix>-<n>" with n drawn from
/// one atomic counter. The prefix carries the workload and seed, so ids
/// from different runs never collide in one server either.
class IdSource {
public:
  explicit IdSource(std::string Prefix) : Prefix(std::move(Prefix)) {}
  std::string next();

private:
  std::string Prefix;
  std::atomic<uint64_t> Next{0};
};

} // namespace perfbench

#endif // PERFBENCH_BENCHMATH_H
