// Time-to-answer benchmark harness (see README.md in this directory).
//
//   answer_bench --workload NAME --seed N --seconds S --trace 0|1
//                --work-dir DIR [--build-rev REV]
//   answer_bench --setup-probe --workload NAME --work-dir DIR
//   answer_bench --self-test --work-dir DIR
//
// A run answers one workload's study repeatedly for --seconds, each
// answer at its own seed derived from --seed, checks every answer, and
// prints human-readable lines followed by one JSON object on the last
// line of stdout. --trace 0 reports the end-to-end metrics; --trace 1
// replays answers layer by layer and reports the per-layer metrics.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "host.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace answer_bench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric the traced run prints, in BENCHMARK.json order.
// A workload that never calls a layer reports its metrics as 0 ("absent").
constexpr MetricDef kLayerMetrics[] = {
    {"convergence.trials_to_answer", "count"},
    {"convergence.batches", "count"},
    {"convergence.ess_ratio", "ratio"},
    {"convergence.self_s", "s"},
    {"runner.trials_per_s", "1/s"},
    {"runner.self_s", "s"},
    {"runner.worker_idle_share", "ratio"},
    {"thread_pool.run_us", "us"},
    {"thread_pool.construct_ms", "ms"},
    {"thread_pool.self_s", "s"},
    {"batch_engine.ns_per_trial", "ns"},
    {"batch_engine.rounds_per_trial", "count"},
    {"batch_engine.active_lane_ratio", "ratio"},
    {"batch_engine.events_per_trial", "count"},
    {"batch_engine.construct_us", "us"},
    {"batch_engine.self_s", "s"},
    {"lane_ops.round_dispatch_ns_per_lane", "ns"},
    {"lane_ops.generic_over_active", "ratio"},
    {"lane_ops.self_s", "s"},
    {"rng.fill_ns_per_draw", "ns"},
    {"rng.self_s", "s"},
    {"slot_kernel.sample_ns_per_draw.op", "ns"},
    {"slot_kernel.sample_ns_per_draw.restore", "ns"},
    {"slot_kernel.sample_ns_per_draw.latent", "ns"},
    {"slot_kernel.sample_ns_per_draw.scrub", "ns"},
    {"slot_kernel.residual_ns_per_draw.op", "ns"},
    {"slot_kernel.tilted_ns_per_draw.op", "ns"},
    {"slot_kernel.tilted_ns_per_draw.latent", "ns"},
    {"slot_kernel.self_s", "s"},
    {"util.probe_ns_per_call", "ns"},
    {"util.self_s", "s"},
    {"fleet_simulator.ns_per_group_mission", "ns"},
    {"fleet_simulator.events_per_group_mission", "count"},
    {"fleet_simulator.spare_waits_per_mission", "count"},
    {"fleet_simulator.construct_us", "us"},
    {"fleet_simulator.self_s", "s"},
    {"sweep.self_s", "s"},
    {"sweep.resume_s", "s"},
    {"sweep.manifest_bytes", "count"},
    {"sweep.expand_us", "us"},
    {"analytic.reference_ms", "ms"},
    {"core.config_us", "us"},
    {"trace.answer_s", "s"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

// Fresh-process set-up and construction phases reported as per-layer
// costs: phase name, metric name, unit scale from seconds.
struct SetupMetric {
  const char* phase;
  const char* metric;
  double scale;
};
constexpr SetupMetric kSetupMetrics[] = {
    {"core.config", "core.config_us", 1e6},
    {"analytic.reference", "analytic.reference_ms", 1e3},
    {"thread_pool.construct", "thread_pool.construct_ms", 1e3},
    {"batch_engine.construct", "batch_engine.construct_us", 1e6},
    {"fleet_simulator.construct", "fleet_simulator.construct_us", 1e6},
    {"sweep.expand", "sweep.expand_us", 1e6},
};

// A run answers at least this many times, however long each answer takes.
constexpr int kMinAnswers = 5;
// Fresh-process set-up probes per run; their median is setup_s.
constexpr int kSetupProbes = 101;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_probe = false;
  bool self_test = false;
  std::string work_dir = ".";
  std::string build_rev;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "answer_bench: " << why << "\n"
            << "usage: answer_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--build-rev REV]\n"
               "       answer_bench --setup-probe --workload NAME "
               "--work-dir DIR\n"
               "       answer_bench --self-test --work-dir DIR\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--work-dir") {
        a.work_dir = value();
      } else if (k == "--build-rev") {
        a.build_rev = value();
      } else if (k == "--setup-probe") {
        a.setup_probe = true;
      } else if (k == "--self-test") {
        a.self_test = true;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::uint64_t answer_seed(std::uint64_t run_seed, std::uint64_t k) {
  // splitmix64 of (seed, k): distinct, well-mixed seeds per answer.
  std::uint64_t z = run_seed * 0x9e3779b97f4a7c15ULL + k + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string short_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.5g", v);
  return buf;
}

// ---------------------------------------------------------------------
// Answers and their tally. A failed check or a thrown library error
// counts against the run; it never escapes the harness.

struct Tally {
  int attempted = 0;
  int failed = 0;
  std::vector<double> wall;  ///< successful answers only
  std::vector<double> cpu;
};

bool attempt(Workload& w, std::uint64_t seed,
             raidrel::fault::FaultInjector* fault, Tally& tally,
             AnswerOutcome* outcome) {
  ++tally.attempted;
  AnswerMeter meter;
  AnswerOutcome out;
  try {
    out = w.answer(seed, meter, fault);
  } catch (const std::exception& e) {
    out.failure = std::string("error: ") + e.what();
  }
  std::cout << "answer " << tally.attempted << " seed=" << seed << " "
            << short_num(meter.wall_seconds()) << " s cpu "
            << short_num(meter.cpu_seconds()) << " s  " << out.summary;
  if (!out.failure.empty()) {
    ++tally.failed;
    std::cout << "  FAILED: " << out.failure;
  } else {
    tally.wall.push_back(meter.wall_seconds());
    tally.cpu.push_back(meter.cpu_seconds());
  }
  std::cout << "\n";
  if (outcome != nullptr) *outcome = out;
  return out.failure.empty();
}

// ---------------------------------------------------------------------
// Set-up probes: a fresh process of this binary sets the workload up and
// prints its own phase times, measured from its first set-up call to its
// last (so exec and loader time stay out). It then times the construction
// of the layers the answers build for themselves; those phases are
// reported per layer and stay out of the set-up total.

struct SetupSamples {
  std::vector<double> total;
  std::map<std::string, std::vector<double>> phases;
};

int setup_probe_main(const Args& a) {
  auto w = make_workload(a.workload, a.work_dir);
  if (!w) usage("unknown workload " + a.workload);
  PhaseTimer timer;
  w->setup(timer);
  PhaseTimer construct;
  w->construct_layers(construct);
  std::printf("setup %.9e", timer.total());
  for (const auto* t : {&timer, &construct}) {
    for (const auto& [name, s] : t->phases()) {
      std::printf(" %s=%.9e", name.c_str(), s);
    }
  }
  std::printf("\n");
  return 0;
}

bool spawn_setup_probe(const Args& a, SetupSamples& out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {"answer_bench", "--setup-probe",
                                   "--workload", a.workload,
                                   "--work-dir", a.work_dir};
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  if (rc == 0) {
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
      text.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  if (rc != 0) return false;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;

  std::istringstream in(text);
  std::string tag;
  double total = 0.0;
  if (!(in >> tag >> total) || tag != "setup") return false;
  out.total.push_back(total);
  for (std::string kv; in >> kv;) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) continue;
    out.phases[kv.substr(0, eq)].push_back(std::stod(kv.substr(eq + 1)));
  }
  return true;
}

void print_fingerprint(const Args& a) {
  for (const auto& [k, v] : fingerprint(a.build_rev)) {
    std::cout << "fingerprint " << k << ": " << v << "\n";
  }
}

void print_json(bool correct, const Tally& tally,
                const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(tally.attempted);
  s += ", \"failed\": " + std::to_string(tally.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += '"';
    s += metrics[i].first.name;
    s += "\": {\"value\": ";
    s += num(metrics[i].second);
    s += ", \"unit\": \"";
    s += metrics[i].first.unit;
    s += "\"}";
  }
  s += "}}";
  std::cout << s << std::endl;
}

// ---------------------------------------------------------------------
// End-to-end run (--trace 0).

int end_to_end_main(const Args& a, Workload& w) {
  Tally tally;
  SetupSamples setup;
  int probe_failures = 0;
  const CpuTicks ticks0 = read_cpu_ticks();
  const double t0 = now_seconds();
  AnswerOutcome first;
  // Set-up probes are spread between answers so that they sample the
  // same host conditions the answers see. The loop stops when one more
  // iteration plus the closing repeat answer would overrun --seconds.
  const int probes_per_answer = 4;
  std::vector<double> iterations;
  for (int k = 0;; ++k) {
    const double elapsed = now_seconds() - t0;
    const double next = iterations.empty() ? 0.0 : median(iterations);
    if (k >= kMinAnswers && elapsed + 2.0 * next > a.seconds) break;
    const double it0 = now_seconds();
    attempt(w, answer_seed(a.seed, static_cast<std::uint64_t>(k)), nullptr,
            tally, k == 0 ? &first : nullptr);
    for (int p = 0; p < probes_per_answer &&
                    static_cast<int>(setup.total.size()) < kSetupProbes;
         ++p) {
      if (!spawn_setup_probe(a, setup)) ++probe_failures;
    }
    iterations.push_back(now_seconds() - it0);
  }
  // The last answer repeats the first one's seed: a seeded answer must
  // reproduce bit for bit.
  AnswerOutcome again;
  if (attempt(w, answer_seed(a.seed, 0), nullptr, tally, &again) &&
      again.digest != first.digest) {
    ++tally.failed;
    std::cout << "FAILED: repeated answer at seed " << answer_seed(a.seed, 0)
              << " is not bit-identical\n";
  }
  const CpuTicks ticks1 = read_cpu_ticks();
  while (static_cast<int>(setup.total.size()) < kSetupProbes &&
         probe_failures < kSetupProbes) {
    if (!spawn_setup_probe(a, setup)) ++probe_failures;
  }

  print_fingerprint(a);
  std::cout << "fingerprint steal_share_during_answers: "
            << short_num(steal_share(ticks0, ticks1)) << "\n";
  const bool correct = tally.failed == 0 && probe_failures == 0 &&
                       !tally.wall.empty() && !setup.total.empty();
  if (tally.wall.empty() || setup.total.empty()) {
    std::cout << "no successful answer or set-up probe to report\n";
    print_json(false, tally, {});
    return 1;
  }
  const std::vector<std::pair<MetricDef, double>> metrics = {
      {{"time_to_answer_s", "s"}, median(tally.wall)},
      {{"cpu_s", "s"}, median(tally.cpu)},
      {{"setup_s", "s"}, median(setup.total)},
      {{"peak_rss_mb", "MB"}, peak_rss_mb()},
  };
  const std::size_t samples[] = {tally.wall.size(), tally.cpu.size(),
                                 setup.total.size(), 1};
  std::cout << "workload " << a.workload << ": " << tally.attempted
            << " answers attempted, " << tally.failed << " failed\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << "metric " << metrics[i].first.name << " = "
              << short_num(metrics[i].second) << " " << metrics[i].first.unit
              << " (median of " << samples[i] << ")\n";
  }
  print_json(correct, tally, metrics);
  return 0;
}

// ---------------------------------------------------------------------
// Traced run (--trace 1).

int traced_main(const Args& a, Workload& w) {
  Tally tally;
  Tracer tracer;
  LayerValues layers;
  bool correct = true;
  std::vector<double> untraced;
  std::vector<double> traced;
  double first_answer = 0.0;  ///< the traced answer the layer table covers
  const double t0 = now_seconds();
  for (int k = 0; k < 2 || now_seconds() - t0 < 0.5 * a.seconds; ++k) {
    const std::uint64_t seed = answer_seed(a.seed, static_cast<std::uint64_t>(k));
    AnswerOutcome plain;
    if (!attempt(w, seed, nullptr, tally, &plain)) {
      correct = false;
      continue;
    }
    untraced.push_back(tally.wall.back());
    ++tally.attempted;
    TracedOutcome t;
    try {
      t = w.traced_answer(seed, tracer, k,
                          first_answer == 0.0 ? &layers : nullptr);
    } catch (const std::exception& e) {
      t.failure = std::string("error: ") + e.what();
    }
    if (t.failure.empty() && t.digest != plain.digest) {
      t.failure = "traced answer is not bit-identical to the untraced one";
    }
    std::cout << "traced answer " << k << " seed=" << seed << " "
              << short_num(t.answer_seconds) << " s";
    if (!t.failure.empty()) {
      ++tally.failed;
      correct = false;
      std::cout << "  FAILED: " << t.failure;
    }
    std::cout << "\n";
    traced.push_back(t.answer_seconds);
    if (first_answer == 0.0) first_answer = t.answer_seconds;
  }

  SetupSamples setup;
  for (int p = 0; p < kSetupProbes; ++p) {
    if (!spawn_setup_probe(a, setup)) correct = false;
  }
  for (const auto& m : kSetupMetrics) {
    const auto it = setup.phases.find(m.phase);
    if (it != setup.phases.end()) {
      layers.set(m.metric, m.scale * median(it->second));
    }
  }
  double attributed = 0.0;
  for (const auto& [layer, s] : layers.self()) {
    layers.set(layer + ".self_s", s);
    attributed += s;
  }
  if (first_answer > 0.0) {
    layers.set("trace.answer_s", first_answer);
    layers.set("trace.unattributed_share", 1.0 - attributed / first_answer);
  }
  if (!untraced.empty() && !traced.empty()) {
    layers.set("trace.overhead_share", median(traced) / median(untraced) - 1.0);
  }

  print_fingerprint(a);
  std::cout << "self-time table of the first traced answer ("
            << short_num(first_answer)
            << " s):\n";
  for (const auto& [layer, s] : layers.self()) {
    std::cout << "  self " << layer << " " << short_num(s) << " s ("
              << short_num(100.0 * s / first_answer) << "%)\n";
  }
  std::cout << "  unattributed "
            << short_num(layers.get("trace.unattributed_share") * 100.0)
            << "%\n";
  std::vector<std::pair<MetricDef, double>> metrics;
  for (const auto& m : kLayerMetrics) {
    const bool present = layers.has(m.name);
    std::cout << "layer " << m.name << " = "
              << (present ? short_num(layers.get(m.name)) + " " + m.unit
                          : std::string("absent (layer not called)"))
              << "\n";
    metrics.push_back({m, layers.get(m.name)});
  }
  const std::string path = a.work_dir + "/trace-" + a.workload + "-" +
                           std::to_string(a.seed) + ".json";
  if (!tracer.write_json(path, a.workload)) correct = false;
  std::cout << "spans written to " << path << "\n";
  print_json(correct && tally.failed == 0, tally, metrics);
  return 0;
}

// ---------------------------------------------------------------------
// Self-test: an injected runner fault must surface as one failed answer
// out of the attempted ones, and the run must go on.

int self_test_main(const Args& a) {
  auto w = make_workload("table3_cell", a.work_dir);
  PhaseTimer timer;
  w->setup(timer);
  Tally tally;
  for (std::uint64_t k = 0; k < 3; ++k) {
    raidrel::fault::FaultPlan plan;
    if (k == 1) {
      raidrel::fault::FaultSpec spec;
      spec.site = "runner_trial";
      spec.first_hit = 1000;
      plan.arm(spec);
    }
    raidrel::fault::FaultInjector injector(plan);
    attempt(*w, answer_seed(a.seed, k), &injector, tally, nullptr);
  }
  const bool ok = tally.attempted == 3 && tally.failed == 1 &&
                  tally.wall.size() == 2;
  std::cout << "self-test: " << tally.failed << "/" << tally.attempted
            << " answers failed with runner_trial armed on answer 2 -> "
            << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace answer_bench

int main(int argc, char** argv) {
  using namespace answer_bench;
  const Args a = parse(argc, argv);
  std::filesystem::create_directories(a.work_dir);
  if (a.self_test) return self_test_main(a);
  if (a.setup_probe) return setup_probe_main(a);
  auto w = make_workload(a.workload, a.work_dir);
  if (!w) usage("unknown workload '" + a.workload + "'");
  PhaseTimer timer;
  w->setup(timer);
  return a.trace ? traced_main(a, *w) : end_to_end_main(a, *w);
}
