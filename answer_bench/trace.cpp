#include "trace.h"

#include <cassert>
#include <cstdio>
#include <fstream>
#include <utility>

#include "host.h"

namespace answer_bench {

int Tracer::begin(std::string name, int answer) {
  const int id = static_cast<int>(spans_.size());
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.answer = answer;
  s.start = now_seconds();
  spans_.push_back(std::move(s));
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  // Spans are strictly nested: the one closing is the innermost open one.
  assert(!open_.empty() && open_.back() == id);
  spans_[static_cast<std::size_t>(id)].end = now_seconds();
  open_.pop_back();
}

double Tracer::duration(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end - s.start;
}

bool Tracer::write_json(const std::string& path,
                        const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\": \"" << workload << "\", \"spans\": [\n";
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"id\": %zu, \"name\": \"%s\", \"answer\": %d, "
                  "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                  i, s.name.c_str(), s.answer, s.parent, s.start - origin,
                  s.end - origin, i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace answer_bench
