// Metric collection and output: every metric is printed on its own line with
// unit and sample count, and the run ends with one JSON object holding all
// of them (run.py narrows it to the metrics BENCHMARK.json names).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::size_t samples);

  /// Adds `<prefix>_p50<suffix>` and, where at least ten samples lie beyond
  /// it, `<prefix>_p99<suffix>` (scaled by `scale`). Omits both when empty.
  void add_percentiles(const std::string& prefix, const std::string& suffix,
                       const psc::util::SampleSet& samples, const std::string& unit,
                       double scale = 1.0);

  /// One line per metric: name, value, unit, samples.
  void print_lines(std::ostream& out) const;

  /// The machine-readable result line.
  void print_json(std::ostream& out, bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
