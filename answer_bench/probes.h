// Layer micro-probes for the traced run: each times one library entry
// point in isolation, on inputs shaped like the workload's (its laws, slot
// count, lane occupancy, peer count and m), and returns a per-call or
// per-element cost. The traced run multiplies these by counts measured in
// the answer to split the engine's time into layers.
#pragma once

#include <cstddef>

#include "sim/lane_ops.h"
#include "sim/runner.h"
#include "sim/slot_kernel.h"

namespace answer_bench {

/// Lockstep lane width every batched workload runs at.
inline constexpr std::size_t kLaneWidth = raidrel::sim::kDefaultBatchWidth;

/// rng: one uniform draw through `ops.fill_uniform_open` at lane width.
double fill_ns_per_draw(const raidrel::sim::LaneOps& ops);

/// lane_ops: `ops.round_dispatch` per live lane, for `live_lanes` lanes of
/// `nslots` slots in which no lane settles.
double round_dispatch_ns_per_lane(const raidrel::sim::LaneOps& ops,
                                  std::size_t nslots, std::size_t live_lanes);

/// slot_kernel: one bulk draw of `law` at lane width (includes the uniform
/// fill inside sample_n). 0 when the law is absent.
double sample_ns_per_draw(const raidrel::sim::CompiledLaw& law);
/// sample_residual_n at drive age `age`.
double residual_ns_per_draw(const raidrel::sim::CompiledLaw& law, double age);
/// sample_n_tilted under hazard scale `theta`, capped at `horizon`.
double tilted_ns_per_draw(const raidrel::sim::CompiledLaw& law, double theta,
                          double horizon);

/// util: one poisson_binomial_tail call over `peers` probabilities, asking
/// for at least `at_least` events.
double probe_ns_per_call(std::size_t peers, unsigned at_least);

/// thread_pool: one ThreadPool::run of a no-op over `tasks` parked workers.
double pool_run_us(unsigned tasks);

}  // namespace answer_bench
