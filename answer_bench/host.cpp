#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "sim/lane_ops.h"
#include "util/cpu_features.h"

namespace answer_bench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image. ru_maxrss is not:
  // Linux carries it across exec, so it would report the launching
  // Python's resident set whenever that is the larger of the two.
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

CpuTicks read_cpu_ticks() {
  CpuTicks out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user/nice, so it is not added again).
  std::uint64_t field[8] = {};
  for (auto& f : field) {
    if (!(in >> f)) return out;
  }
  for (const auto f : field) out.total += f;
  out.steal = field[7];
  out.valid = true;
  return out;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  if (!before.valid || !after.valid || after.total <= before.total) {
    return -1.0;
  }
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

void AnswerMeter::start() {
  cpu_start_ = process_cpu_seconds();
  wall_start_ = now_seconds();
}

void AnswerMeter::stop() {
  wall_ = now_seconds() - wall_start_;
  cpu_ = process_cpu_seconds() - cpu_start_;
}

std::vector<std::pair<std::string, std::string>> fingerprint(
    const std::string& build_rev) {
  std::string cpu_model = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu_model = line.substr(colon + 2);
      break;
    }
  }
  using raidrel::util::isa_name;
  return {
      {"cpu_model", cpu_model},
      {"logical_cpus", std::to_string(std::thread::hardware_concurrency())},
      {"numa_nodes",
       std::to_string(raidrel::util::active_topology().node_count())},
      {"isa_detected", isa_name(raidrel::util::detected_isa())},
      {"isa_active", isa_name(raidrel::sim::lane_ops().isa)},
      {"compiler", ANSWER_BENCH_COMPILER},
      {"build_type", ANSWER_BENCH_BUILD_TYPE},
      {"cxx_flags", ANSWER_BENCH_FLAGS},
      {"build_rev", build_rev.empty() ? "unknown" : build_rev},
  };
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace answer_bench
