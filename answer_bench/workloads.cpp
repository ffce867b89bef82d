#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>

#include <unistd.h>

#include "analytic/markov.h"
#include "analytic/mttdl.h"
#include "core/presets.h"
#include "obs/run_telemetry.h"
#include "probes.h"
#include "rng/rng.h"
#include "sim/batch_engine.h"
#include "sim/convergence.h"
#include "sim/fleet_simulator.h"
#include "sim/runner.h"
#include "sim/thread_pool.h"
#include "stats/weibull.h"
#include "sweep/sweep_runner.h"
#include "util/cpu_features.h"

namespace answer_bench {

void PhaseTimer::phase(const std::string& name,
                       const std::function<void()>& fn) {
  const double t0 = now_seconds();
  if (first_ < 0.0) first_ = t0;
  fn();
  last_ = now_seconds();
  phases_.emplace_back(name, last_ - t0);
}

void LayerValues::set(const std::string& name, double value) {
  for (auto& [k, v] : values_) {
    if (k == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

bool LayerValues::has(const std::string& name) const {
  return std::any_of(values_.begin(), values_.end(),
                     [&](const auto& kv) { return kv.first == name; });
}

double LayerValues::get(const std::string& name) const {
  for (const auto& [k, v] : values_) {
    if (k == name) return v;
  }
  return 0.0;
}

void LayerValues::add_self(const std::string& layer, double seconds) {
  for (auto& [k, v] : self_) {
    if (k == layer) {
      v += seconds;
      return;
    }
  }
  self_.emplace_back(layer, seconds);
}

namespace {

using namespace raidrel;

// ---------------------------------------------------------------------
// Digests. Only fields that do not depend on how worker threads split and
// merge the trials go in, so a 2-thread answer repeats bit for bit: event
// counts are integers (exact in doubles at any summation order), and
// weighted sums only occur in single-threaded workloads.

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g;", v);
  out += buf;
}

std::uint64_t result_digest(const sim::RunResult& r) {
  std::string canon = "trials=" + std::to_string(r.trials()) + ";";
  for (const double c : r.cumulative_ddfs_per_1000()) append_double(canon, c);
  for (const auto kind : {raid::DdfKind::kDoubleOperational,
                          raid::DdfKind::kLatentThenOp,
                          raid::DdfKind::kLatentStripeCollision}) {
    append_double(canon, r.total_per_1000(kind));
  }
  for (const std::uint64_t c :
       {r.op_failures(), r.latent_defects(), r.scrubs_completed(),
        r.restores_completed(), r.spare_arrivals()}) {
    canon += std::to_string(c) + ";";
  }
  append_double(canon, r.weight_sum());
  append_double(canon, r.ess());
  append_double(canon, r.max_weight());
  return obs::fnv1a64(canon);
}

std::uint64_t converged_digest(const sim::ConvergedRun& run) {
  const std::string tail = "batches=" + std::to_string(run.batches) +
                           ";stop=" + sim::to_string(run.stop) +
                           ";converged=" + (run.converged ? "1" : "0");
  return obs::fnv1a64(tail, result_digest(run.result));
}

std::uint64_t file_digest(const std::string& path, std::size_t* bytes) {
  std::ifstream in(path, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (bytes != nullptr) *bytes = data.size();
  return obs::fnv1a64(data);
}

std::string fmt(double v, int digits = 4) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

// Half-width of a check band around a reference value: kBandZ combined
// standard errors of one answer and of the reference. z = 5 is a two-sided
// false-alarm rate of 5.7e-7 per answer for a normal estimate, fixed in
// advance.
constexpr double kBandZ = 5.0;

double band_half_width(double answer_sem, double reference_sem) {
  return kBandZ * std::hypot(answer_sem, reference_sem);
}

// ---------------------------------------------------------------------
// Runner totals of a traced study, read from the RunTelemetry the library
// forwards into every run_monte_carlo / run_fleet_monte_carlo call.

struct RunnerTotals {
  double runner_seconds = 0.0;    ///< sum of batch wall times, spawn to join
  double busy_seconds = 0.0;      ///< sum over batches of mean worker busy
  double worker_seconds = 0.0;    ///< sum of every worker's busy time
  double capacity_seconds = 0.0;  ///< sum over batches of threads x wall
  std::size_t batches = 0;

  void add(const RunnerTotals& o) {
    runner_seconds += o.runner_seconds;
    busy_seconds += o.busy_seconds;
    worker_seconds += o.worker_seconds;
    capacity_seconds += o.capacity_seconds;
    batches += o.batches;
  }
  [[nodiscard]] double idle_share() const {
    return capacity_seconds > 0.0 ? 1.0 - worker_seconds / capacity_seconds
                                  : 0.0;
  }
};

// Every batch appends one BatchStats and then one WorkerStats per worker,
// in batch order.
RunnerTotals runner_totals(const obs::RunTelemetry& tel, unsigned threads) {
  RunnerTotals totals;
  const auto& workers = tel.workers();
  std::size_t w = 0;
  for (const auto& b : tel.batches()) {
    const std::size_t n =
        std::min<std::size_t>(threads, static_cast<std::size_t>(b.trials));
    double batch_busy = 0.0;
    for (std::size_t k = 0; k < n && w < workers.size(); ++k, ++w) {
      batch_busy += workers[w].wall_seconds;
    }
    totals.runner_seconds += b.wall_seconds;
    totals.worker_seconds += batch_busy;
    totals.busy_seconds += batch_busy / static_cast<double>(n);
    totals.capacity_seconds += static_cast<double>(n) * b.wall_seconds;
    ++totals.batches;
  }
  return totals;
}

// ---------------------------------------------------------------------
// Engine replay: every trial of an answer through one single-threaded
// BatchGroupSimulator, in the answer's batch ranges and merge order, so
// the folded RunResult must reproduce the answer's result digest.

struct EngineCounts {
  double seconds = 0.0;  ///< inside run_lane only
  std::uint64_t trials = 0;
  std::uint64_t active_lane_rounds = 0;
  std::uint64_t capacity_lane_rounds = 0;
  std::uint64_t op = 0;
  std::uint64_t restore = 0;
  std::uint64_t latent = 0;
  std::uint64_t scrub = 0;
  std::uint64_t spare = 0;
  std::uint64_t probes = 0;

  void add(const EngineCounts& o) {
    seconds += o.seconds;
    trials += o.trials;
    active_lane_rounds += o.active_lane_rounds;
    capacity_lane_rounds += o.capacity_lane_rounds;
    op += o.op;
    restore += o.restore;
    latent += o.latent;
    scrub += o.scrub;
    spare += o.spare;
    probes += o.probes;
  }
};

std::uint64_t replay_engine(const raid::GroupConfig& cfg,
                            const sim::ConvergenceOptions& opt,
                            std::size_t trials, Tracer& tracer, int answer,
                            EngineCounts& c) {
  sim::BatchGroupSimulator engine(cfg, kLaneWidth, sim::KernelPolicy::kLowered,
                                  opt.tilt, opt.math_tier);
  const rng::StreamFactory streams(opt.seed);
  sim::RunResult total(cfg.mission_hours, opt.bucket_hours);
  const ScopedSpan span(tracer, "batch_engine", answer);
  for (std::size_t first = 0; first < trials;) {
    const std::size_t batch = std::min(opt.batch_trials, trials - first);
    sim::RunResult batch_total(cfg.mission_hours, opt.bucket_hours);
    sim::RunResult local(cfg.mission_hours, opt.bucket_hours);
    for (std::size_t lb = 0; lb < batch; lb += kLaneWidth) {
      const std::size_t n = std::min(kLaneWidth, batch - lb);
      const double t0 = now_seconds();
      engine.run_lane(streams, first + lb, n);
      c.seconds += now_seconds() - t0;
      const auto& oc = engine.occupancy();
      c.active_lane_rounds += oc.active_lane_rounds;
      c.capacity_lane_rounds += oc.capacity_lane_rounds;
      for (std::size_t k = 0; k < n; ++k) {
        const sim::TrialResult& t = engine.result(k);
        local.add_trial(t);
        c.op += t.op_failures;
        c.restore += t.restores_completed;
        c.latent += t.latent_defects;
        c.scrub += t.scrubs_completed;
        c.spare += t.spare_arrivals;
        c.probes += t.double_op_probe.size();
      }
    }
    c.trials += batch;
    batch_total.merge(local);
    total.merge(batch_total);
    first += batch;
  }
  return result_digest(total);
}

double lane_ratio(const EngineCounts& c) {
  return c.capacity_lane_rounds > 0
             ? static_cast<double>(c.active_lane_rounds) /
                   static_cast<double>(c.capacity_lane_rounds)
             : 0.0;
}

// Unit costs of the engine's layers for one group configuration.
struct EngineCosts {
  double fill_ns = 0.0;
  double dispatch_ns_per_lane = 0.0;
  double sample_ns[4] = {};  ///< op, restore, latent, scrub
  double residual_op_ns = 0.0;
  double tilted_op_ns = 0.0;
  double tilted_latent_ns = 0.0;
  double probe_ns = 0.0;
  double generic_over_active = 0.0;
};

EngineCosts probe_engine(const raid::GroupConfig& cfg,
                         const std::optional<sim::TiltSpec>& tilt,
                         double active_lane_ratio) {
  EngineCosts e;
  const auto kernel = sim::SlotKernel::compile(cfg.slots.front());
  const std::size_t nslots = cfg.slots.size();
  const std::size_t live = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(active_lane_ratio * static_cast<double>(kLaneWidth))));
  const sim::LaneOps& active = sim::lane_ops();
  const sim::LaneOps& generic = sim::lane_ops_for(util::SimdIsa::kGeneric);
  e.fill_ns = fill_ns_per_draw(active);
  e.dispatch_ns_per_lane = round_dispatch_ns_per_lane(active, nslots, live);
  const double generic_ns = fill_ns_per_draw(generic) +
                            round_dispatch_ns_per_lane(generic, nslots, live);
  e.generic_over_active = generic_ns / (e.fill_ns + e.dispatch_ns_per_lane);
  e.sample_ns[0] = sample_ns_per_draw(kernel.op);
  e.sample_ns[1] = sample_ns_per_draw(kernel.restore);
  e.sample_ns[2] = sample_ns_per_draw(kernel.latent);
  e.sample_ns[3] = sample_ns_per_draw(kernel.scrub);
  e.residual_op_ns = residual_ns_per_draw(kernel.op, 0.5 * cfg.mission_hours);
  if (tilt && tilt->engaged()) {
    e.tilted_op_ns =
        tilted_ns_per_draw(kernel.op, tilt->op_theta, cfg.mission_hours);
    e.tilted_latent_ns =
        tilted_ns_per_draw(kernel.latent, tilt->ld_theta, cfg.mission_hours);
  }
  e.probe_ns = probe_ns_per_call(nslots - 1, cfg.redundancy);
  return e;
}

// Splits the single-threaded engine replay time into layer self times.
// Draw counts follow the engine's refill rule: every slot draws an op and
// (when present) a latent lifetime at install; an op failure draws a
// restore; a completed restore installs a fresh drive (op + latent); a
// latent defect draws a scrub; a completed scrub draws the next latent.
// `scale` converts single-threaded CPU time into answer wall time (1 /
// workers running the engine concurrently).
void attribute_engine(const raid::GroupConfig& cfg,
                      const std::optional<sim::TiltSpec>& tilt,
                      const EngineCounts& c, const EngineCosts& e,
                      double scale, LayerValues& out) {
  const auto kernel = sim::SlotKernel::compile(cfg.slots.front());
  const double installs =
      static_cast<double>(c.trials) * static_cast<double>(cfg.slots.size()) +
      static_cast<double>(c.restore);
  const bool tilted = tilt && tilt->engaged();
  const double draws[4] = {
      installs, static_cast<double>(c.op),
      kernel.latent.present() ? installs + static_cast<double>(c.scrub) : 0.0,
      kernel.scrub.present() ? static_cast<double>(c.latent) : 0.0};
  const double ns[4] = {tilted ? e.tilted_op_ns : e.sample_ns[0],
                        e.sample_ns[1],
                        tilted && kernel.latent.present() ? e.tilted_latent_ns
                                                          : e.sample_ns[2],
                        e.sample_ns[3]};
  double rng_s = 0.0;
  double kernel_s = 0.0;
  for (int k = 0; k < 4; ++k) {
    rng_s += draws[k] * e.fill_ns * 1e-9;
    kernel_s += draws[k] * std::max(0.0, ns[k] - e.fill_ns) * 1e-9;
  }
  const double dispatch_s =
      static_cast<double>(c.active_lane_rounds) * e.dispatch_ns_per_lane * 1e-9;
  const double probe_s = static_cast<double>(c.probes) * e.probe_ns * 1e-9;
  out.add_self("lane_ops", dispatch_s * scale);
  out.add_self("rng", rng_s * scale);
  out.add_self("slot_kernel", kernel_s * scale);
  out.add_self("util", probe_s * scale);
  out.add_self("batch_engine",
               (c.seconds - dispatch_s - rng_s - kernel_s - probe_s) * scale);
}

void set_engine_metrics(const EngineCounts& c, const EngineCosts& e,
                        LayerValues& out) {
  const double trials = static_cast<double>(std::max<std::uint64_t>(1, c.trials));
  out.set("batch_engine.ns_per_trial", 1e9 * c.seconds / trials);
  out.set("batch_engine.rounds_per_trial",
          static_cast<double>(c.active_lane_rounds) / trials);
  out.set("batch_engine.active_lane_ratio", lane_ratio(c));
  out.set("batch_engine.events_per_trial",
          static_cast<double>(c.op + c.restore + c.latent + c.scrub + c.spare) /
              trials);
  out.set("lane_ops.round_dispatch_ns_per_lane", e.dispatch_ns_per_lane);
  out.set("lane_ops.generic_over_active", e.generic_over_active);
  out.set("rng.fill_ns_per_draw", e.fill_ns);
  const char* laws[4] = {"op", "restore", "latent", "scrub"};
  for (int k = 0; k < 4; ++k) {
    if (e.sample_ns[k] > 0.0) {
      out.set(std::string("slot_kernel.sample_ns_per_draw.") + laws[k],
              e.sample_ns[k]);
    }
  }
  out.set("slot_kernel.residual_ns_per_draw.op", e.residual_op_ns);
  if (e.tilted_op_ns > 0.0) {
    out.set("slot_kernel.tilted_ns_per_draw.op", e.tilted_op_ns);
  }
  if (e.tilted_latent_ns > 0.0) {
    out.set("slot_kernel.tilted_ns_per_draw.latent", e.tilted_latent_ns);
  }
  out.set("util.probe_ns_per_call", e.probe_ns);
}

void set_runner_metrics(const RunnerTotals& r, std::size_t trials,
                        LayerValues& out) {
  out.set("runner.trials_per_s",
          r.runner_seconds > 0.0 ? static_cast<double>(trials) / r.runner_seconds
                                 : 0.0);
  out.set("runner.worker_idle_share", r.idle_share());
}

// Runner self time: the run_monte_carlo spans minus the workers' busy
// time (engine work) and the pool hand-offs (one ThreadPool::run per
// multi-threaded batch).
void runner_self(const RunnerTotals& r, unsigned threads, double run_us,
                 LayerValues& out) {
  const double pool_s =
      threads > 1 ? static_cast<double>(r.batches) * run_us * 1e-6 : 0.0;
  if (threads > 1) {
    out.add_self("thread_pool", pool_s);
    out.set("thread_pool.run_us", run_us);
  }
  out.add_self("runner", r.runner_seconds - r.busy_seconds - pool_s);
}

// ThreadPool construction as an answer's library call does it: the
// topology probe, the pool, and its workers' start on the first run at
// more than one thread.
void construct_pool(PhaseTimer& timer, unsigned threads) {
  std::optional<sim::ThreadPool> pool;
  timer.phase("thread_pool.construct", [&] {
    (void)util::active_topology();
    pool.emplace();
    if (threads > 1) pool->run(threads, [] {});
  });
}

// A converged group study: the shared body of table3_cell and fig6_is.
class ConvergedWorkload : public Workload {
 public:
  TracedOutcome traced_answer(std::uint64_t seed, Tracer& tracer,
                              int answer_id, LayerValues* layers) override {
    sim::ConvergenceOptions opt = options(seed, nullptr);
    obs::RunTelemetry telemetry;
    opt.telemetry = &telemetry;
    const int root = tracer.begin("convergence", answer_id);
    const sim::ConvergedRun run = sim::run_until_converged(config_, opt);
    tracer.end(root);
    TracedOutcome out;
    out.digest = converged_digest(run);
    out.answer_seconds = tracer.duration(root);
    if (layers == nullptr) return out;

    LayerValues& L = *layers;
    const RunnerTotals rt = runner_totals(telemetry, opt.threads);
    const std::size_t trials = run.result.trials();
    L.set("convergence.trials_to_answer", static_cast<double>(trials));
    L.set("convergence.batches", static_cast<double>(run.batches));
    L.set("convergence.ess_ratio", run.ess / static_cast<double>(trials));
    L.add_self("convergence", out.answer_seconds - rt.runner_seconds);
    set_runner_metrics(rt, trials, L);
    runner_self(rt, opt.threads, pool_run_us(opt.threads), L);

    EngineCounts c;
    const std::uint64_t engine_digest =
        replay_engine(config_, opt, trials, tracer, answer_id, c);
    if (engine_digest != result_digest(run.result)) {
      out.failure = "batch_engine replay is not bit-identical to the answer";
    }
    const EngineCosts e = probe_engine(config_, opt.tilt, lane_ratio(c));
    set_engine_metrics(c, e, L);
    attribute_engine(config_, opt.tilt, c, e, 1.0 / opt.threads, L);
    return out;
  }

 protected:
  virtual sim::ConvergenceOptions options(
      std::uint64_t seed, fault::FaultInjector* fault) const = 0;

  // The timed part of an answer, shared by both converged workloads.
  sim::ConvergedRun converge(std::uint64_t seed, AnswerMeter& meter,
                             fault::FaultInjector* fault) const {
    const sim::ConvergenceOptions opt = options(seed, fault);
    meter.start();
    sim::ConvergedRun run = sim::run_until_converged(config_, opt);
    meter.stop();
    return run;
  }

  // run_until_converged builds a ThreadPool (which probes the topology)
  // and a simulator per worker on every call.
  void construct_layers(PhaseTimer& timer) const override {
    construct_pool(timer, options(0, nullptr).threads);
    std::optional<sim::BatchGroupSimulator> engine;
    timer.phase("batch_engine.construct", [&] {
      engine.emplace(config_, kLaneWidth, sim::KernelPolicy::kLowered, tilt_);
    });
  }

  raid::GroupConfig config_;
  std::optional<sim::TiltSpec> tilt_;
};

// ---------------------------------------------------------------------
// table3_cell: Table 3's 168 h-scrub base case (Table 2 Weibull laws, 7+1,
// 87,600 h), converged on relative SEM on one runner thread: on two, its
// wall time drifted with host load about twice as far as on one.

constexpr double kTable3TargetSem = 0.007;
constexpr std::size_t kTable3Batch = 4096;
// Reference for the DDF band: run_until_converged on this configuration
// at seed 2007 to 0.1% relative SEM gave 136.147 +/- 0.136 DDFs per 1000
// groups over 7,340,032 trials. An answer stops at kTable3TargetSem, so
// its standard error is about 0.007 x 136 = 0.95 (80 answers at distinct
// seeds: mean 136.09, sd 0.86).
constexpr double kTable3Reference = 136.147;
constexpr double kTable3ReferenceSem = 0.136;

class Table3Cell final : public ConvergedWorkload {
 public:
  void setup(PhaseTimer& timer) override {
    timer.phase("core.config", [&] {
      config_ = core::presets::base_case().to_group_config();
      config_.validate();
      (void)sim::config_digest(config_);
    });
    timer.phase("analytic.reference", [&] {
      mttdl_ddfs_ = analytic::expected_ddfs(core::presets::mttdl_inputs(),
                                            config_.mission_hours, 1000.0);
    });
  }

  AnswerOutcome answer(std::uint64_t seed, AnswerMeter& meter,
                       fault::FaultInjector* fault) override {
    const sim::ConvergedRun run = converge(seed, meter, fault);
    AnswerOutcome out;
    out.digest = converged_digest(run);
    const double ddfs = run.result.total_ddfs_per_1000();
    out.summary = "DDFs/1000=" + fmt(ddfs) + " rel_sem=" +
                  fmt(run.relative_sem, 3) + " trials=" +
                  std::to_string(run.result.trials()) + " stop=" +
                  sim::to_string(run.stop) + " vs MTTDL x" +
                  fmt(ddfs / mttdl_ddfs_, 3);
    if (run.stop != sim::ConvergedRun::StopRule::kRelativeSem) {
      out.failure = "did not converge on relative SEM";
    } else if (const double half = band_half_width(
                   kTable3TargetSem * kTable3Reference, kTable3ReferenceSem);
               std::abs(ddfs - kTable3Reference) > half) {
      out.failure = "DDFs/1000 " + fmt(ddfs) + " outside " +
                    fmt(kTable3Reference) + " +/- " + fmt(half, 3);
    }
    return out;
  }

 protected:
  sim::ConvergenceOptions options(std::uint64_t seed,
                                  fault::FaultInjector* fault) const override {
    sim::ConvergenceOptions opt;
    opt.seed = seed;
    opt.threads = kThreads;
    opt.target_relative_sem = kTable3TargetSem;
    opt.batch_trials = kTable3Batch;
    opt.min_trials = kTable3Batch;
    opt.max_trials = 4000000;
    opt.fault = fault;
    return opt;
  }

 private:
  static constexpr unsigned kThreads = 1;
  double mttdl_ddfs_ = 0.0;
};

// ---------------------------------------------------------------------
// fig6_is: bench_rare_event_ddf's rare all-exponential RAID-6 cell (4
// drives, lambda = 2e-5/h, mu = 1/24 h, 10,000 h) under the theta = 8
// op-hazard tilt, converged on an effective-sample-size target. The laws
// are memoryless, so the parallel-repair birth-death CTMC is exact.

constexpr unsigned kRareDrives = 4;
constexpr double kRareLambda = 2e-5;
constexpr double kRareMu = 1.0 / 24.0;
constexpr double kRareMission = 10000.0;
constexpr double kRareTheta = 8.0;
constexpr double kRareTargetEss = 10000.0;
constexpr std::size_t kRareBatch = 16384;
// Two-sided false-alarm rate of the CTMC-bracketing check, fixed in
// advance: z = 4.892 is a nominal 1e-6 chance per answer that a correct,
// normally distributed estimate misses the exact value. The estimate is
// skewed (see answer()), so the nominal rate is a target, not a guarantee.
constexpr double kRareZ = 4.892;

class Fig6Is final : public ConvergedWorkload {
 public:
  void setup(PhaseTimer& timer) override {
    timer.phase("core.config", [&] {
      raid::SlotModel m;
      m.time_to_op_failure =
          std::make_unique<stats::Weibull>(0.0, 1.0 / kRareLambda, 1.0);
      m.time_to_restore =
          std::make_unique<stats::Weibull>(0.0, 1.0 / kRareMu, 1.0);
      config_ = raid::make_uniform_group(kRareDrives, 2, m, kRareMission);
      config_.validate();
      tilt_ = sim::TiltSpec{kRareTheta, 1.0};
      for (const auto& slot : config_.slots) {
        sim::validate_tilt(*tilt_, sim::SlotKernel::compile(slot));
      }
      (void)sim::config_digest(config_);
    });
    timer.phase("analytic.reference", [&] {
      // Parallel-repair birth-death chain, absorbing at 3 drives down.
      const double l = kRareLambda;
      const double u = kRareMu;
      const analytic::MarkovChain chain(
          4, {-4.0 * l, 4.0 * l, 0.0, 0.0,                      //
              u, -(u + 3.0 * l), 3.0 * l, 0.0,                  //
              0.0, 2.0 * u, -(2.0 * u + 2.0 * l), 2.0 * l,      //
              0.0, 0.0, 0.0, 0.0});
      exact_ = chain.absorption_probability(0, 3, kRareMission);
    });
  }

  AnswerOutcome answer(std::uint64_t seed, AnswerMeter& meter,
                       fault::FaultInjector* fault) override {
    const sim::ConvergedRun run = converge(seed, meter, fault);
    AnswerOutcome out;
    out.digest = converged_digest(run);
    const double n = static_cast<double>(run.result.trials());
    const double est = run.result.total_ddfs_per_1000() / 1000.0;
    // ESS-based interval: the spread of the weighted per-trial outcomes
    // over sqrt(ESS) instead of sqrt(n). The plain weighted SEM is no
    // interval here: at this tilt the estimate is skewed (most answers
    // miss the few heavy-weight paths and sit low with a small SEM), and
    // it misses the exact value at |z| > 8 for some seeds. Dividing by the
    // ESS is conservative: the half-width is typically 13 times the exact
    // value, so the check catches an estimate that is too high by more
    // than about an order of magnitude, and none that is too low.
    const double sem = run.result.total_ddfs_per_1000_sem() / 1000.0 *
                       std::sqrt(n / std::max(run.ess, 1.0));
    const double half = kRareZ * sem;
    out.summary = "p=" + fmt(est, 4) + " +/-" + fmt(half, 3) + " exact=" +
                  fmt(exact_, 4) + " z=" + fmt((est - exact_) / sem, 3) +
                  " ess/n=" + fmt(run.ess / n, 3) +
                  " trials=" + std::to_string(run.result.trials());
    if (run.stop != sim::ConvergedRun::StopRule::kEss) {
      out.failure = "did not converge on the ESS target";
    } else if (std::abs(est - exact_) > half) {
      out.failure = "exact CTMC value " + fmt(exact_) + " outside " +
                    fmt(est) + " +/- " + fmt(half);
    }
    return out;
  }

 protected:
  sim::ConvergenceOptions options(std::uint64_t seed,
                                  fault::FaultInjector* fault) const override {
    sim::ConvergenceOptions opt;
    opt.seed = seed;
    opt.threads = 1;
    // Only the ESS rule may stop the study.
    opt.target_relative_sem = 1e-12;
    opt.zero_ddf_upper_bound = 0.0;
    opt.target_ess = kRareTargetEss;
    opt.batch_trials = kRareBatch;
    opt.min_trials = kRareBatch;
    opt.max_trials = 4000000;
    opt.bucket_hours = kRareMission / 10.0;
    opt.tilt = tilt_;
    opt.fault = fault;
    return opt;
  }

 private:
  double exact_ = 0.0;
};

// ---------------------------------------------------------------------
// check_drives_sweep: the check-drives study (redundancy x rebuild model)
// through SweepRunner on 2 shards, plus a halved-rebuild axis so the
// "added check drive beats halved rebuild" crossover can be checked. The
// base case's op lifetimes are compressed tenfold over a 20,000 h mission
// so the m = 2 cells converge in well under a second. Each answer is
// interrupted halfway by max_cells and resumed from its manifest.

constexpr unsigned kSweepShards = 2;
constexpr double kSweepTargetSem = 0.03;
constexpr std::size_t kSweepBatch = 1024;

core::ScenarioConfig check_drives_base() {
  core::ScenarioConfig s = core::presets::base_case();
  s.name = "check-drives (compressed timescale)";
  s.mission_hours = 20000.0;
  s.ttop.eta /= 10.0;
  return s;
}

class CheckDrivesSweep final : public Workload {
 public:
  explicit CheckDrivesSweep(std::string work_dir)
      : dir_(std::move(work_dir)) {}

  void setup(PhaseTimer& timer) override {
    std::optional<sweep::SweepSpec> spec;
    timer.phase("core.config", [&] {
      const core::ScenarioConfig base = check_drives_base();
      const raid::GroupConfig group = base.to_group_config();
      group.validate();
      (void)sim::config_digest(group);
      spec.emplace("check-drives", base);
    });
    timer.phase("sweep.expand", [&] {
      sweep::Axis restore{"restore", {}};
      restore.points.push_back({"base", [](core::ScenarioConfig&) {}});
      restore.points.push_back({"halved", [](core::ScenarioConfig& s) {
                                  s.ttr.gamma *= 0.5;
                                  s.ttr.eta *= 0.5;
                                }});
      spec->add_redundancy_axis({1, 2})
          .add_rebuild_model_axis({raid::RebuildModel::kDedicatedSpare,
                                   raid::RebuildModel::kDeclustered})
          .add_axis(std::move(restore));
      cells_ = spec->expand();
    });
  }

  // SweepRunner builds a ThreadPool for its shards, and each cell's study
  // builds its own simulator.
  void construct_layers(PhaseTimer& timer) const override {
    construct_pool(timer, kSweepShards);
    std::optional<sim::BatchGroupSimulator> engine;
    timer.phase("batch_engine.construct", [&] {
      engine.emplace(cells_.front().scenario.to_group_config(), kLaneWidth);
    });
  }

  AnswerOutcome answer(std::uint64_t seed, AnswerMeter& meter,
                       fault::FaultInjector* fault) override {
    const std::string path = manifest("answer");
    std::filesystem::remove(path);
    sweep::SweepOptions opt = options(seed, path, fault);
    opt.max_cells = cells_.size() / 2;
    meter.start();
    const sweep::SweepResult first = sweep::SweepRunner(opt).run(name_, cells_);
    opt.max_cells = 0;
    const sweep::SweepResult resumed =
        sweep::SweepRunner(opt).run(name_, cells_);
    meter.stop();

    AnswerOutcome out;
    std::size_t bytes = 0;
    out.digest = file_digest(path, &bytes);
    out.failure = check(first, resumed);
    if (out.failure.empty()) {
      const std::string ref = manifest("reference");
      std::filesystem::remove(ref);
      const sweep::SweepResult whole =
          sweep::SweepRunner(options(seed, ref, nullptr)).run(name_, cells_);
      if (!whole.complete || file_digest(ref, nullptr) != out.digest) {
        out.failure =
            "resumed manifest differs from an uninterrupted pass";
      }
      std::filesystem::remove(ref);
    }
    std::filesystem::remove(path);
    std::uint64_t trials = 0;
    for (const auto& c : resumed.cells) trials += c.trials;
    out.summary = std::to_string(resumed.cells.size()) + " cells, " +
                  std::to_string(trials) + " trials, manifest " +
                  std::to_string(bytes) + " B";
    return out;
  }

  TracedOutcome traced_answer(std::uint64_t seed, Tracer& tracer,
                              int answer_id, LayerValues* layers) override {
    const std::string path = manifest("traced");
    std::filesystem::remove(path);
    sweep::SweepOptions opt = options(seed, path, nullptr);
    opt.max_cells = cells_.size() / 2;
    const int root = tracer.begin("sweep", answer_id);
    const int run_span = tracer.begin("sweep.run", answer_id);
    (void)sweep::SweepRunner(opt).run(name_, cells_);
    tracer.end(run_span);
    opt.max_cells = 0;
    const int resume_span = tracer.begin("sweep.resume", answer_id);
    const sweep::SweepResult resumed =
        sweep::SweepRunner(opt).run(name_, cells_);
    tracer.end(resume_span);
    tracer.end(root);

    TracedOutcome out;
    std::size_t bytes = 0;
    out.digest = file_digest(path, &bytes);
    out.answer_seconds = tracer.duration(root);
    std::filesystem::remove(path);
    if (resumed.cells.size() != cells_.size()) {
      out.failure = "traced sweep did not complete";
      return out;
    }
    if (layers == nullptr) return out;

    // Per-cell replays: each cell's study re-run through the convergence
    // replay and the engine replay, checked against the sweep's cell
    // result digest. Cells ran on kSweepShards workers, so their
    // single-threaded time maps to answer wall time at 1 / kSweepShards.
    LayerValues& L = *layers;
    const double scale = 1.0 / kSweepShards;
    const sim::ConvergenceOptions base = options(seed, path, nullptr).convergence;
    RunnerTotals rt;
    EngineCounts all;
    double cells_seconds = 0.0;
    double conv_self = 0.0;
    std::uint64_t trials = 0;
    std::size_t batches = 0;
    std::size_t probe_cell = 0;
    std::vector<raid::GroupConfig> configs;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const raid::GroupConfig& cfg =
          configs.emplace_back(cells_[i].scenario.to_group_config());
      // A sweep cell is one worker's serial study.
      sim::ConvergenceOptions opt_c = base;
      opt_c.threads = 1;
      obs::RunTelemetry telemetry;
      opt_c.telemetry = &telemetry;
      const int cell_span = tracer.begin("convergence", answer_id);
      const sim::ConvergedRun run = sim::run_until_converged(cfg, opt_c);
      tracer.end(cell_span);
      const RunnerTotals cell_rt = runner_totals(telemetry, 1);
      cells_seconds += tracer.duration(cell_span);
      conv_self += tracer.duration(cell_span) - cell_rt.runner_seconds;
      if (cell_digest(cells_[i], run) !=
          resumed.cells[i].result_digest) {
        out.failure = "cell " + cells_[i].label +
                      " replay is not bit-identical to the sweep's result";
      }
      rt.add(cell_rt);
      trials += run.result.trials();
      batches += run.batches;

      EngineCounts c;
      const std::uint64_t d = replay_engine(cfg, opt_c, run.result.trials(),
                                            tracer, answer_id, c);
      if (d != result_digest(run.result)) {
        out.failure = "cell " + cells_[i].label +
                      " batch_engine replay is not bit-identical";
      }
      const EngineCosts e = probe_engine(cfg, std::nullopt, lane_ratio(c));
      attribute_engine(cfg, std::nullopt, c, e, scale, L);
      if (cfg.redundancy > configs[probe_cell].redundancy) probe_cell = i;
      all.add(c);
    }
    L.set("convergence.trials_to_answer", static_cast<double>(trials));
    L.set("convergence.batches", static_cast<double>(batches));
    L.set("convergence.ess_ratio", 1.0);
    L.add_self("convergence", conv_self * scale);
    set_runner_metrics(rt, trials, L);
    L.add_self("runner", (rt.runner_seconds - rt.busy_seconds) * scale);
    L.set("thread_pool.run_us", pool_run_us(kSweepShards));
    // Layer unit costs are reported for the largest-m cell, the one whose
    // probe runs the m >= 2 census.
    const auto& pc = configs[probe_cell];
    set_engine_metrics(all, probe_engine(pc, std::nullopt, lane_ratio(all)), L);
    L.add_self("sweep", out.answer_seconds - cells_seconds * scale);
    L.set("sweep.resume_s", tracer.duration(resume_span));
    L.set("sweep.manifest_bytes", static_cast<double>(bytes));
    return out;
  }

 private:
  // The sweep's own CellResult fields for a replayed cell (see
  // SweepRunner's simulate_cell), digested with cell_result_digest.
  static std::uint64_t cell_digest(const sweep::SweepCell& cell,
                                   const sim::ConvergedRun& run) {
    sweep::CellResult r;
    r.trials = run.result.trials();
    r.batches = run.batches;
    r.converged = run.converged;
    r.stop = sim::to_string(run.stop);
    r.total_ddfs_per_1000 = run.result.total_ddfs_per_1000();
    r.sem_per_1000 = run.absolute_sem;
    r.relative_sem = std::isfinite(run.relative_sem) ? run.relative_sem : -1.0;
    r.year1_ddfs_per_1000 = run.result.ddfs_per_1000_at(
        std::min(8760.0, cell.scenario.mission_hours));
    r.double_op_per_1000 =
        run.result.total_per_1000(raid::DdfKind::kDoubleOperational);
    r.latent_then_op_per_1000 =
        run.result.total_per_1000(raid::DdfKind::kLatentThenOp);
    r.op_failures = run.result.op_failures();
    r.latent_defects = run.result.latent_defects();
    r.scrubs_completed = run.result.scrubs_completed();
    r.restores_completed = run.result.restores_completed();
    if (cell.scenario.rebuild != raid::RebuildModel::kDedicatedSpare) {
      r.rebuild = raid::to_string(cell.scenario.rebuild);
    }
    return sweep::cell_result_digest(r);
  }

  // Per-process names, so concurrent runs in one checkout cannot collide.
  std::string manifest(const std::string& tag) const {
    return dir_ + "/check_drives-" + std::to_string(getpid()) + "-" + tag +
           ".json";
  }

  sweep::SweepOptions options(std::uint64_t seed, const std::string& path,
                              fault::FaultInjector* fault) const {
    sweep::SweepOptions opt;
    opt.convergence.seed = seed;
    opt.convergence.target_relative_sem = kSweepTargetSem;
    opt.convergence.batch_trials = kSweepBatch;
    opt.convergence.min_trials = kSweepBatch;
    opt.convergence.max_trials = 400000;
    opt.threads = kSweepShards;
    opt.manifest_path = path;
    opt.fault = fault;
    return opt;
  }

  // Crossover, completeness and quarantine checks of one resumed sweep.
  std::string check(const sweep::SweepResult& first,
                    const sweep::SweepResult& resumed) const {
    if (first.complete || first.simulated != cells_.size() / 2) {
      return "max_cells did not interrupt the first pass halfway";
    }
    if (!resumed.complete || resumed.cached != first.simulated) {
      return "resumed pass did not complete from the manifest";
    }
    if (resumed.degraded()) return "a cell was quarantined or I/O failed";
    auto find = [&](const std::string& m, const std::string& rebuild,
                    const std::string& restore) -> const sweep::CellResult& {
      for (const auto& c : resumed.cells) {
        if (c.coordinates[0].second == m && c.coordinates[1].second == rebuild &&
            c.coordinates[2].second == restore) {
          return c;
        }
      }
      throw std::logic_error("missing sweep cell");
    };
    for (const auto model : {raid::RebuildModel::kDedicatedSpare,
                             raid::RebuildModel::kDeclustered}) {
      const std::string rb = raid::to_string(model);
      const auto& added = find("2", rb, "base");
      const auto& halved = find("1", rb, "halved");
      // One added check drive at the base rebuild time must beat halving
      // the rebuild time, beyond a 3-sigma allowance on both estimates.
      if (!(added.total_ddfs_per_1000 + 3.0 * (added.sem_per_1000 +
                                               halved.sem_per_1000) <
            halved.total_ddfs_per_1000)) {
        return "crossover fails for " + rb + ": m=2 " +
               fmt(added.total_ddfs_per_1000) + " vs halved m=1 " +
               fmt(halved.total_ddfs_per_1000);
      }
    }
    return {};
  }

  std::string dir_;
  std::string name_ = "check-drives";
  std::vector<sweep::SweepCell> cells_;
};

// ---------------------------------------------------------------------
// fleet_spares: bench_shared_spares' 50-group aging fleet with a shared
// pool of kFleetSpares spares on a weekly replenishment cycle (the knee
// of its sizing curve), single-threaded through run_fleet_monte_carlo.

constexpr unsigned kFleetGroups = 50;
constexpr unsigned kFleetSpares = 4;
constexpr std::size_t kFleetTrials = 384;
constexpr std::size_t kFleetBaselineTrials = 512;
// Reference for the DDF band: run_fleet_monte_carlo on this fleet at seed
// 2007 over 19,968 fleet missions (998,400 group-missions) gave 856.02
// DDFs per 1000 group-missions. Groups sharing a pool are not independent,
// so RunResult's SEM understates the spread. The standard errors are
// therefore taken from 80 answers of kFleetTrials missions at distinct
// seeds: mean 855.98, sd 7.44 (RunResult's SEM: 6.61). The reference's
// standard error is that sd scaled to its trial count.
constexpr double kFleetReference = 856.02;
constexpr double kFleetAnswerSem = 7.44;
constexpr double kFleetReferenceSem = 1.03;

sim::FleetConfig make_fleet(std::optional<raid::SparePoolConfig> pool) {
  sim::FleetConfig fleet;
  for (unsigned g = 0; g < kFleetGroups; ++g) {
    raid::SlotModel m;
    m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 23000.0, 1.12);
    m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 12.0, 2.0);
    m.time_to_latent_defect = std::make_unique<stats::Weibull>(0.0, 9259.0, 1.0);
    m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 168.0, 3.0);
    fleet.groups.push_back(raid::make_uniform_group(8, 1, m, 21900.0));
  }
  fleet.shared_pool = pool;
  return fleet;
}

class FleetSpares final : public Workload {
 public:
  void setup(PhaseTimer& timer) override {
    timer.phase("core.config", [&] {
      fleet_ = make_fleet(raid::SparePoolConfig{kFleetSpares, 168.0});
      baseline_fleet_ = make_fleet(std::nullopt);
      fleet_.validate();
      baseline_fleet_.validate();
      (void)sim::config_digest(fleet_);
      (void)sim::config_digest(baseline_fleet_);
    });
  }

  // A single-threaded fleet run builds one FleetSimulator and no pool.
  void construct_layers(PhaseTimer& timer) const override {
    std::optional<sim::FleetSimulator> simulator;
    timer.phase("fleet_simulator.construct",
                [&] { simulator.emplace(fleet_); });
  }

  AnswerOutcome answer(std::uint64_t seed, AnswerMeter& meter,
                       fault::FaultInjector* fault) override {
    sim::RunOptions run = options(seed, kFleetTrials);
    run.fault = fault;
    meter.start();
    const sim::RunResult r = sim::run_fleet_monte_carlo(fleet_, run);
    meter.stop();
    if (!baseline_) {
      baseline_.emplace(sim::run_fleet_monte_carlo(
          baseline_fleet_, options(seed, kFleetBaselineTrials)));
    }
    AnswerOutcome out;
    out.digest = result_digest(r);
    const double ddfs = r.total_ddfs_per_1000();
    const double base = baseline_->total_ddfs_per_1000();
    const double allowance =
        4.0 * std::hypot(r.total_ddfs_per_1000_sem(),
                         baseline_->total_ddfs_per_1000_sem());
    out.summary = "DDFs/1000 groups=" + fmt(ddfs) + " always-spared=" +
                  fmt(base) + " spare waits=" +
                  std::to_string(r.spare_arrivals());
    const double half = band_half_width(kFleetAnswerSem, kFleetReferenceSem);
    if (std::abs(ddfs - kFleetReference) > half) {
      out.failure = "DDFs/1000 " + fmt(ddfs) + " outside " +
                    fmt(kFleetReference) + " +/- " + fmt(half, 3);
    } else if (ddfs + allowance < base) {
      out.failure = "shared pool " + fmt(ddfs) +
                    " is below the always-spared baseline " + fmt(base);
    }
    return out;
  }

  TracedOutcome traced_answer(std::uint64_t seed, Tracer& tracer,
                              int answer_id, LayerValues* layers) override {
    sim::RunOptions run = options(seed, kFleetTrials);
    obs::RunTelemetry telemetry;
    run.telemetry = &telemetry;
    // A fleet study is one fixed-size run: there is no convergence loop
    // around the runner call.
    const int root = tracer.begin("answer", answer_id);
    const sim::RunResult r = sim::run_fleet_monte_carlo(fleet_, run);
    tracer.end(root);
    TracedOutcome out;
    out.digest = result_digest(r);
    out.answer_seconds = tracer.duration(root);
    if (layers == nullptr) return out;

    LayerValues& L = *layers;
    const RunnerTotals rt = runner_totals(telemetry, 1);
    L.add_self("answer", out.answer_seconds - rt.runner_seconds);
    set_runner_metrics(rt, r.trials(), L);
    runner_self(rt, 1, 0.0, L);

    // Fleet replay: the same trials through one FleetSimulator, folded in
    // the runner's order.
    sim::FleetSimulator simulator(fleet_);
    const rng::StreamFactory streams(seed);
    sim::FleetTrialResult trial;
    sim::RunResult local(r.mission_hours(), r.bucket_hours());
    double seconds = 0.0;
    const int replay = tracer.begin("fleet_simulator", answer_id);
    for (std::size_t i = 0; i < kFleetTrials; ++i) {
      auto rs = streams.stream(i);
      const double t0 = now_seconds();
      simulator.run_trial(rs, trial);
      seconds += now_seconds() - t0;
      for (const auto& g : trial.per_group) local.add_trial(g);
    }
    tracer.end(replay);
    sim::RunResult total(r.mission_hours(), r.bucket_hours());
    total.merge(local);
    if (result_digest(total) != out.digest) {
      out.failure = "fleet_simulator replay is not bit-identical to the answer";
    }
    const double missions = static_cast<double>(total.trials());
    L.set("fleet_simulator.ns_per_group_mission", 1e9 * seconds / missions);
    L.set("fleet_simulator.events_per_group_mission",
          static_cast<double>(total.op_failures() + total.restores_completed() +
                              total.latent_defects() +
                              total.scrubs_completed() +
                              total.spare_arrivals()) /
              missions);
    L.set("fleet_simulator.spare_waits_per_mission",
          static_cast<double>(total.spare_arrivals()) / missions);
    L.add_self("fleet_simulator", seconds);
    return out;
  }

 private:
  static sim::RunOptions options(std::uint64_t seed, std::size_t trials) {
    sim::RunOptions run;
    run.trials = trials;
    run.seed = seed;
    run.threads = 1;
    return run;
  }

  sim::FleetConfig fleet_;
  sim::FleetConfig baseline_fleet_;
  std::optional<sim::RunResult> baseline_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& work_dir) {
  if (name == "table3_cell") return std::make_unique<Table3Cell>();
  if (name == "fig6_is") return std::make_unique<Fig6Is>();
  if (name == "check_drives_sweep") {
    return std::make_unique<CheckDrivesSweep>(work_dir);
  }
  if (name == "fleet_spares") return std::make_unique<FleetSpares>();
  return nullptr;
}

}  // namespace answer_bench
