// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each library layer (nothing inside
// the library is instrumented); they are kept in memory and written out
// once, when the run ends.
#pragma once

#include <string>
#include <vector>

namespace answer_bench {

struct Span {
  std::string name;    ///< layer, optionally qualified, e.g. "sweep.resume"
  double start = 0.0;  ///< steady-clock seconds
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  int answer = -1;     ///< answer id shared by every span of one answer
};

class Tracer {
 public:
  /// Opens a span nested in the innermost open one and returns its id.
  int begin(std::string name, int answer);
  /// Closes the innermost open span, which must be `id`.
  void end(int id);

  [[nodiscard]] double duration(int id) const;

  /// Writes every span as one JSON document; false if the file cannot be
  /// written.
  bool write_json(const std::string& path, const std::string& workload) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int answer)
      : tracer_(tracer), id_(tracer.begin(std::move(name), answer)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace answer_bench
