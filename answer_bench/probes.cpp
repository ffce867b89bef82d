#include "probes.h"

#include <vector>

#include "host.h"
#include "rng/rng.h"
#include "sim/thread_pool.h"
#include "util/math.h"

namespace answer_bench {

namespace {

using raidrel::sim::CompiledLaw;
using raidrel::sim::LaneEvent;
using raidrel::sim::LaneOps;

volatile double g_sink = 0.0;

// Median over blocks of the per-call cost of `fn`, in seconds. Each block
// repeats the call until ~2 ms have passed, so timer resolution and a
// single preemption stay out of the result.
template <class Fn>
double seconds_per_call(Fn&& fn) {
  fn();  // warm caches and lazy state
  std::size_t reps = 1;
  for (;;) {
    const double t0 = now_seconds();
    for (std::size_t r = 0; r < reps; ++r) fn();
    if (now_seconds() - t0 >= 2e-3 || reps >= (std::size_t{1} << 24)) break;
    reps *= 2;
  }
  std::vector<double> blocks;
  for (int b = 0; b < 7; ++b) {
    const double t0 = now_seconds();
    for (std::size_t r = 0; r < reps; ++r) fn();
    blocks.push_back((now_seconds() - t0) / static_cast<double>(reps));
  }
  return median(std::move(blocks));
}

// One lane's worth of independent random streams.
struct LaneStreams {
  LaneStreams() {
    const raidrel::rng::StreamFactory factory(0x5eedULL);
    for (std::size_t i = 0; i < kLaneWidth; ++i) {
      streams.push_back(factory.stream(i));
    }
    for (auto& s : streams) ptrs.push_back(&s);
  }
  std::vector<raidrel::rng::RandomStream> streams;
  std::vector<raidrel::rng::RandomStream*> ptrs;
  std::vector<double> out = std::vector<double>(kLaneWidth);
};

}  // namespace

double fill_ns_per_draw(const LaneOps& ops) {
  LaneStreams lane;
  const double s = seconds_per_call([&] {
    ops.fill_uniform_open(lane.ptrs.data(), lane.out.data(), kLaneWidth);
    g_sink = g_sink + lane.out[0];
  });
  return 1e9 * s / static_cast<double>(kLaneWidth);
}

double round_dispatch_ns_per_lane(const LaneOps& ops, std::size_t nslots,
                                  std::size_t live_lanes) {
  if (nslots == 0 || live_lanes == 0) return 0.0;
  constexpr double kMission = 1e9;
  auto rs = raidrel::rng::StreamFactory(0xd15cULL).stream(0);
  std::vector<double> tnext(live_lanes * nslots);
  std::vector<std::uint8_t> kinds(tnext.size());
  for (std::size_t i = 0; i < tnext.size(); ++i) {
    tnext[i] = rs.uniform() * 0.5 * kMission;  // nothing settles
    kinds[i] = static_cast<std::uint8_t>(rs.next_u64() % 4);
  }
  std::vector<std::uint32_t> lanes(live_lanes);
  for (std::size_t k = 0; k < live_lanes; ++k) {
    lanes[k] = static_cast<std::uint32_t>(k);
  }
  std::vector<std::vector<LaneEvent>> buckets(4,
                                              std::vector<LaneEvent>(live_lanes));
  std::vector<LaneEvent> spare(live_lanes);
  LaneEvent* const bucket_ptrs[4] = {buckets[0].data(), buckets[1].data(),
                                     buckets[2].data(), buckets[3].data()};
  std::size_t counts[5] = {};
  const double s = seconds_per_call([&] {
    const std::size_t keep = ops.round_dispatch(
        tnext.data(), kinds.data(), nslots, lanes.data(), live_lanes,
        kMission, nullptr, bucket_ptrs, spare.data(), counts);
    g_sink = g_sink + static_cast<double>(keep + counts[0]);
  });
  return 1e9 * s / static_cast<double>(live_lanes);
}

double sample_ns_per_draw(const CompiledLaw& law) {
  if (!law.present()) return 0.0;
  LaneStreams lane;
  const LaneOps& ops = raidrel::sim::lane_ops();
  const double s = seconds_per_call([&] {
    law.sample_n(lane.ptrs.data(), lane.out.data(), kLaneWidth, ops);
    g_sink = g_sink + lane.out[0];
  });
  return 1e9 * s / static_cast<double>(kLaneWidth);
}

double residual_ns_per_draw(const CompiledLaw& law, double age) {
  if (!law.present()) return 0.0;
  LaneStreams lane;
  const std::vector<double> ages(kLaneWidth, age);
  const LaneOps& ops = raidrel::sim::lane_ops();
  const double s = seconds_per_call([&] {
    law.sample_residual_n(ages.data(), lane.ptrs.data(), lane.out.data(),
                          kLaneWidth, ops);
    g_sink = g_sink + lane.out[0];
  });
  return 1e9 * s / static_cast<double>(kLaneWidth);
}

double tilted_ns_per_draw(const CompiledLaw& law, double theta,
                          double horizon) {
  if (!law.present()) return 0.0;
  LaneStreams lane;
  const std::vector<double> horizons(kLaneWidth, horizon);
  std::vector<double> log_w(kLaneWidth, 0.0);
  const raidrel::sim::HazardTilt tilt(theta);
  const LaneOps& ops = raidrel::sim::lane_ops();
  const double s = seconds_per_call([&] {
    law.sample_n_tilted(tilt, horizons.data(), lane.ptrs.data(),
                        lane.out.data(), log_w.data(), kLaneWidth, ops);
    g_sink = g_sink + lane.out[0];
  });
  return 1e9 * s / static_cast<double>(kLaneWidth);
}

double probe_ns_per_call(std::size_t peers, unsigned at_least) {
  if (peers == 0) return 0.0;
  auto rs = raidrel::rng::StreamFactory(0x9b0beULL).stream(0);
  std::vector<double> p(peers);
  for (auto& x : p) x = 1e-4 + 1e-2 * rs.uniform();
  std::vector<double> dist(peers + 1);
  const double s = seconds_per_call([&] {
    g_sink = g_sink + raidrel::util::poisson_binomial_tail(
                          p.data(), peers, at_least, dist.data());
  });
  return 1e9 * s;
}

double pool_run_us(unsigned tasks) {
  raidrel::sim::ThreadPool pool;
  const std::function<void()> noop = [] {};
  const double s = seconds_per_call([&] { pool.run(tasks, noop); });
  return 1e6 * s;
}

}  // namespace answer_bench
