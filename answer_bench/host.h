// Host and process measurements for the time-to-answer benchmark: honest
// clocks (wall time from steady_clock, whole-process CPU from getrusage),
// peak RSS, hypervisor steal, and the host/build fingerprint every run
// prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace answer_bench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_seconds();

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_seconds();

/// Peak resident set size of this process image, in MiB (VmHWM).
double peak_rss_mb();

/// Aggregate CPU tick counters from /proc/stat. steal_share() of two
/// samples is the share of all CPU ticks the hypervisor stole between
/// them; -1 when the counters are unavailable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool valid = false;
};
CpuTicks read_cpu_ticks();
double steal_share(const CpuTicks& before, const CpuTicks& after);

/// Wall and CPU time of one answer. The workload calls start() right
/// before its first call into the library and stop() when the result is
/// back, so checks and bookkeeping stay outside the measurement.
class AnswerMeter {
 public:
  void start();
  void stop();
  [[nodiscard]] double wall_seconds() const noexcept { return wall_; }
  [[nodiscard]] double cpu_seconds() const noexcept { return cpu_; }

 private:
  double wall_start_ = 0.0;
  double cpu_start_ = 0.0;
  double wall_ = 0.0;
  double cpu_ = 0.0;
};

/// Host/build fingerprint lines ("key: value"), printed by every run.
std::vector<std::pair<std::string, std::string>> fingerprint(
    const std::string& build_rev);

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

}  // namespace answer_bench
