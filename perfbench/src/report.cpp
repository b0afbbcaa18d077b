#include "report.hpp"

#include <charconv>
#include <cmath>
#include <iomanip>
#include <ostream>

namespace perfbench {

namespace {

/// True when the `pct` percentile of `count` samples has at least ten
/// samples beyond it.
bool tail_reportable(std::size_t count, double pct) {
  return static_cast<double>(count) * (100.0 - pct) / 100.0 >= 10.0;
}

/// Shortest decimal text that reads back as exactly `value`.
std::string exact_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("null");
}

}  // namespace

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::add_percentiles(const std::string& prefix, const std::string& suffix,
                             const psc::util::SampleSet& samples,
                             const std::string& unit, double scale) {
  if (samples.count() == 0) return;
  add(prefix + "p50" + suffix, samples.percentile(50.0) * scale, unit,
      samples.count());
  if (tail_reportable(samples.count(), 99.0)) {
    add(prefix + "p99" + suffix, samples.percentile(99.0) * scale, unit,
        samples.count());
  }
}

void Report::print_lines(std::ostream& out) const {
  for (const Metric& metric : metrics_) {
    out << "  " << std::left << std::setw(40) << metric.name << ' '
        << std::right << std::setw(16) << exact_number(metric.value) << ' '
        << std::left << std::setw(8) << metric.unit << " n=" << metric.samples
        << '\n';
  }
}

void Report::print_json(std::ostream& out, bool correct, std::uint64_t attempted,
                        std::uint64_t failed) const {
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics_) {
    out << (first ? "" : ", ") << '"' << metric.name << "\": {\"value\": "
        << exact_number(metric.value) << ", \"unit\": \"" << metric.unit
        << "\", \"samples\": " << metric.samples << '}';
    first = false;
  }
  out << "}}\n";
}

}  // namespace perfbench
