// Tests for the bench harness helpers. Pins the LatencyRecorder percentile
// contract in bench/bench_common.hpp: rank math at small sample counts
// must interpolate — p99 of a 100-op smoke run is NOT the max and never
// reads past the end — recording after a query must re-sort, the empty
// recorder is safe, and section() folds samples into the shared gate
// schema correctly. Also covers TableWriter output and the Timer.
#include <gtest/gtest.h>

#include <sstream>

#include "bench/bench_common.hpp"

namespace psc::bench {
namespace {

TEST(LatencyRecorder, HundredSampleSmokePercentilesInterpolate) {
  // The exact shape of a --small perf_gate section: 100 per-op samples.
  LatencyRecorder latencies;
  latencies.reserve(100);
  for (int i = 1; i <= 100; ++i) latencies.record(static_cast<double>(i));
  EXPECT_EQ(latencies.count(), 100u);
  EXPECT_NEAR(latencies.percentile(50.0), 50.5, 1e-9);
  EXPECT_NEAR(latencies.percentile(99.0), 99.01, 1e-9);  // not 100 (the max)
  EXPECT_NEAR(latencies.percentile(100.0), 100.0, 1e-9);
  EXPECT_NEAR(latencies.percentile(0.0), 1.0, 1e-9);
}

TEST(LatencyRecorder, TinySampleCountsStayInRange) {
  LatencyRecorder one;
  one.record(7.0);
  EXPECT_EQ(one.percentile(50.0), 7.0);
  EXPECT_EQ(one.percentile(99.0), 7.0);

  LatencyRecorder two;
  two.record(10.0);
  two.record(20.0);
  EXPECT_NEAR(two.percentile(50.0), 15.0, 1e-9);
  EXPECT_NEAR(two.percentile(99.0), 19.9, 1e-9);  // inside (10, 20), not 20
}

TEST(LatencyRecorder, EmptyPercentileIsZeroNotACrash) {
  const LatencyRecorder empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.percentile(50.0), 0.0);
  EXPECT_EQ(empty.percentile(99.0), 0.0);
  const SectionResult section = empty.section("empty", 0, 0.0);
  EXPECT_EQ(section.ops_per_sec, 0.0);
  EXPECT_EQ(section.p50_ns, 0.0);
  EXPECT_EQ(section.p99_ns, 0.0);
}

TEST(LatencyRecorder, RecordAfterQueryResorts) {
  // The perf gate's incremental sections query percentiles mid-run;
  // recording afterwards must not freeze a stale sort order.
  LatencyRecorder latencies;
  for (int i = 100; i >= 2; --i) latencies.record(static_cast<double>(i));
  EXPECT_NEAR(latencies.percentile(99.0), 99.02, 1e-9);
  latencies.record(1.0);
  EXPECT_NEAR(latencies.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(latencies.percentile(99.0), 99.01, 1e-9);
}

TEST(LatencyRecorder, SectionFoldsThroughputAndPercentiles) {
  LatencyRecorder latencies;
  for (int i = 1; i <= 100; ++i) latencies.record(static_cast<double>(i));
  // Batched timing: 400 logical ops covered by the 100 samples.
  const SectionResult section = latencies.section("pipelined", 400, 2.0);
  EXPECT_EQ(section.name, "pipelined");
  EXPECT_EQ(section.ops, 400u);
  EXPECT_NEAR(section.ops_per_sec, 200.0, 1e-9);
  EXPECT_NEAR(section.p50_ns, 50.5, 1e-9);
  EXPECT_NEAR(section.p99_ns, 99.01, 1e-9);
}

TEST(LatencyRecorder, TimeRecordsOneSamplePerInvocation) {
  LatencyRecorder latencies;
  int runs = 0;
  for (int i = 0; i < 5; ++i) latencies.time([&] { ++runs; });
  EXPECT_EQ(runs, 5);
  EXPECT_EQ(latencies.count(), 5u);
  EXPECT_GE(latencies.percentile(0.0), 0.0);
}

TEST(TableWriter, AlignedOutputAndCsv) {
  TableWriter table({"k", "ratio"});
  table.add_row({static_cast<long long>(10), 0.5});
  table.add_row({static_cast<long long>(310), 0.925});
  std::ostringstream text;
  table.print(text);
  EXPECT_NE(text.str().find("ratio"), std::string::npos);
  EXPECT_NE(text.str().find("310"), std::string::npos);

  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_NE(csv.str().find("k,ratio"), std::string::npos);
  EXPECT_NE(csv.str().find("310,0.925"), std::string::npos);
}

TEST(TableWriter, RowWidthMismatchThrows) {
  TableWriter table({"a", "b"});
  EXPECT_THROW(table.add_row({1.0}), std::invalid_argument);
}

TEST(TableWriter, CsvEscapesCommas) {
  TableWriter table({"name"});
  table.add_row({std::string("a,b")});
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_NE(csv.str().find("\"a,b\""), std::string::npos);
}

TEST(Timer, MeasuresElapsed) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100'000; ++i) sink = sink + 1.0;
  EXPECT_GE(timer.elapsed_seconds(), 0.0);
  EXPECT_GE(timer.elapsed_millis(), timer.elapsed_seconds() * 0.0);
}

}  // namespace
}  // namespace psc::bench
