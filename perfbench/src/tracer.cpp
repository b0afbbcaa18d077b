#include "tracer.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, SpanName name, std::uint64_t op)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_.open_;
  span.op = op;
  tracer_.spans_.push_back(span);
  index_ = static_cast<std::uint32_t>(tracer_.spans_.size());
  tracer_.open_ = index_;
  // Read the clock last so recording the span is not inside it.
  tracer_.spans_.back().start_ns = tracer_.now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ == 0) return;
  Span& span = tracer_.spans_[index_ - 1];
  span.end_ns = tracer_.now_ns();
  tracer_.open_ = span.parent;
}

Tracer::Totals Tracer::totals() const {
  Totals totals;
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != 0) child_ns[span.parent - 1] += span.end_ns - span.start_ns;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto name = static_cast<std::size_t>(spans_[i].name);
    const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    totals.self_ns[name] += duration - child_ns[i];
    ++totals.count[name];
  }
  return totals;
}

std::vector<double> Tracer::durations(SpanName name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(static_cast<double>(span.end_ns - span.start_ns));
  }
  return out;
}

void Tracer::write(const std::string& path, const std::string& replay,
                   std::uint64_t max_op) const {
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("cannot open span file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.op >= max_op) continue;
    out << "{\"replay\":\"" << replay << "\",\"id\":" << i + 1
        << ",\"parent\":" << span.parent << ",\"op\":" << span.op << ",\"name\":\""
        << kSpanNames[static_cast<std::size_t>(span.name)]
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
}

}  // namespace perfbench
