// The four reliability studies the benchmark answers. Each workload builds
// its inputs in a timed set-up, answers its study at a given seed through
// the library's public entry points, checks the answer, and can replay
// the answer layer by layer for the traced run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_injection.h"
#include "host.h"
#include "trace.h"

namespace answer_bench {

/// Times named set-up phases. total() runs from the start of the first
/// phase to the end of the last one.
class PhaseTimer {
 public:
  void phase(const std::string& name, const std::function<void()>& fn);
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& phases()
      const noexcept {
    return phases_;
  }
  [[nodiscard]] double total() const noexcept { return last_ - first_; }

 private:
  std::vector<std::pair<std::string, double>> phases_;
  double first_ = -1.0;
  double last_ = 0.0;
};

struct AnswerOutcome {
  std::uint64_t digest = 0;  ///< bit-level fingerprint of the answer
  std::string failure;       ///< empty when every check passed
  std::string summary;       ///< one human-readable line
};

/// Per-layer metric values of one traced run, keyed by metric name. A
/// metric a workload never sets belongs to a layer it does not call.
class LayerValues {
 public:
  void set(const std::string& name, double value);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double get(const std::string& name) const;

  /// Self-time table: wall seconds of the traced answer attributed to a
  /// layer itself (not to the layers it calls).
  void add_self(const std::string& layer, double seconds);
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& self()
      const noexcept {
    return self_;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, double>> self_;
};

struct TracedOutcome {
  std::uint64_t digest = 0;  ///< must equal the untraced answer's digest
  std::string failure;       ///< a replay that was not bit-identical
  double answer_seconds = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input the answers need before their first library call
  /// (configs, analytic reference, sweep cells), timing each phase.
  virtual void setup(PhaseTimer& timer) = 0;

  /// Times the construction of the library objects an answer builds for
  /// itself inside its library call (thread pool, simulators), once, after
  /// setup() in a fresh process. Reported as per-layer metrics only: an
  /// answer pays these costs again, so they are not part of set-up.
  virtual void construct_layers(PhaseTimer& timer) const = 0;

  /// One untraced answer. `meter` brackets the library calls only; checks
  /// run after it stops. `fault` (may be null) is forwarded to the
  /// library's fault-injection hooks. Throws when the library call fails.
  virtual AnswerOutcome answer(std::uint64_t seed, AnswerMeter& meter,
                               raidrel::fault::FaultInjector* fault) = 0;

  /// The same answer replayed through per-layer calls under `tracer`,
  /// each replay checked bit-identical. The first traced answer's layer
  /// metrics and self times go to `layers` (null for later answers).
  virtual TracedOutcome traced_answer(std::uint64_t seed, Tracer& tracer,
                                      int answer_id, LayerValues* layers) = 0;
};

/// Null for an unknown name. Files the workload writes (sweep manifests)
/// go under `work_dir`.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& work_dir);

}  // namespace answer_bench
