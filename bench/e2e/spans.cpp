#include "spans.hpp"

#include <cstdio>

namespace mann::e2e {

std::size_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.rep = rep_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  // Scopes nest, so the span closing is always the innermost open one.
  open_.pop_back();
}

bool Tracer::write(const std::string& path, const std::string& extra) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Chrome trace timestamps are microseconds; three decimals keep ns.
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"index\": %zu, \"parent\": %lld, \"rep\": %lld}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.rep));
  }
  std::fprintf(f, "]%s}\n", extra.c_str());
  return std::fclose(f) == 0;
}

}  // namespace mann::e2e
