// Tests for the benchmark-harness library itself: suite runner with
// verification, CSV export, table/chart rendering, and the gate benches'
// command line, paired-ratio timer and exit codes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench_common.h"
#include "common/thread_pool.h"

namespace speck::bench {
namespace {

std::vector<gen::CorpusEntry> tiny_corpus() {
  auto corpus = gen::test_corpus();
  corpus.resize(4);  // keep the harness test fast
  return corpus;
}

TEST(RunSuite, ProducesOneMeasurementPerPair) {
  const auto corpus = tiny_corpus();
  const auto algorithms = baselines::make_all_algorithms(
      sim::DeviceSpec::titan_v(), sim::CostModel{});
  const auto measurements = run_suite(corpus, algorithms);
  EXPECT_EQ(measurements.size(), corpus.size() * algorithms.size());
  for (const Measurement& m : measurements) {
    EXPECT_FALSE(m.algorithm.empty());
    EXPECT_FALSE(m.matrix.empty());
    if (m.status == SpGemmStatus::kOk && m.products > 0) {
      EXPECT_GT(m.seconds, 0.0);
      EXPECT_GT(m.gflops, 0.0);
    }
  }
}

TEST(RunSuite, VerifiesResultsAgainstOracle) {
  // The harness aborts on a wrong result — all shipped algorithms pass.
  const auto corpus = tiny_corpus();
  const auto algorithms = baselines::make_gpu_algorithms(
      sim::DeviceSpec::titan_v(), sim::CostModel{});
  EXPECT_NO_THROW(run_suite(corpus, algorithms, /*verify=*/true));
}

TEST(BestSeconds, PicksMinimumPerMatrix) {
  std::vector<Measurement> measurements(3);
  measurements[0] = {"a", "m1", 10, SpGemmStatus::kOk, 2.0, 0, 0, {}};
  measurements[1] = {"b", "m1", 10, SpGemmStatus::kOk, 1.0, 0, 0, {}};
  measurements[2] = {"c", "m1", 10, SpGemmStatus::kOutOfMemory, 0.1, 0, 0, {}};
  const auto best = best_seconds_per_matrix(measurements);
  EXPECT_DOUBLE_EQ(best.at("m1"), 1.0);  // the OOM run does not count
}

TEST(Csv, RoundTripsMeasurements) {
  std::vector<Measurement> measurements(2);
  measurements[0] = {"speck", "m1", 1000, SpGemmStatus::kOk, 0.5, 4.0, 2048, {}};
  measurements[1] = {"cusp", "m2", 500, SpGemmStatus::kOutOfMemory, 0, 0, 0, {}};
  const std::string path = "/tmp/speck_test_csv.csv";
  write_csv(path, measurements);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "algorithm,matrix,products,status,seconds,gflops,peak_memory_bytes");
  std::getline(in, line);
  EXPECT_NE(line.find("speck,m1,1000,ok,0.5,4,2048"), std::string::npos);
  std::getline(in, line);
  EXPECT_NE(line.find("cusp,m2,500,oom"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RejectsUnwritablePath) {
  EXPECT_THROW(write_csv("/nonexistent/dir/out.csv", {}), InvalidArgument);
}

TEST(Format, Helpers) {
  EXPECT_EQ(format_double(1.2345, 2), "1.23");
  EXPECT_EQ(format_double(10.0, 0), "10");
  EXPECT_EQ(format_bytes_mb(2 * 1024 * 1024), "2.0");
}

TEST(AsciiChart, RendersSeriesAndLegend) {
  const std::vector<std::string> names{"up", "down"};
  const std::vector<std::vector<double>> series{{1, 2, 4, 8, 16},
                                                {16, 8, 4, 2, 1}};
  const std::string chart = ascii_chart(names, series, 8, true);
  EXPECT_NE(chart.find("legend: *=up o=down"), std::string::npos);
  EXPECT_NE(chart.find("16.00"), std::string::npos);
  EXPECT_NE(chart.find("1.00"), std::string::npos);
  // 8 grid rows between the two axis lines.
  int lines = 0;
  for (const char c : chart) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 8 + 3);
}

TEST(AsciiChart, HandlesDegenerateInput) {
  EXPECT_EQ(ascii_chart({}, {}, 8, true), "(no data)\n");
  EXPECT_EQ(ascii_chart({"flat"}, {{5, 5, 5}}, 8, true), "(no data)\n");
  EXPECT_THROW(ascii_chart({"a"}, {{1, 2}, {3}}, 8, true), InvalidArgument);
}


// --- Gate benches -----------------------------------------------------------

bool parse(GateArgs& args, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench_test");
  return args.parse(static_cast<int>(argv.size()), argv.data());
}

/// A command line like a gate bench's: one count, one real, a --quick
/// thread sweep and a --quick count.
GateArgs bench_args() {
  GateArgs args({1, 8}, {1});
  args.count_flag("--reps", 5, 1).flag("--min-speedup", 1.25);
  return args;
}

TEST(GateArgs, DefaultsWithoutFlags) {
  GateArgs args = bench_args();
  ASSERT_TRUE(parse(args, {}));
  EXPECT_FALSE(args.quick);
  EXPECT_EQ(args.threads, (std::vector<int>{1, 8}));
  EXPECT_EQ(args.count("--reps"), 5u);
  EXPECT_DOUBLE_EQ(args.get("--min-speedup"), 1.25);
  EXPECT_THROW(args.get("--nonesuch"), std::logic_error);
}

TEST(GateArgs, QuickSelectsItsSettings) {
  GateArgs args = bench_args();
  ASSERT_TRUE(parse(args, {"--quick"}));
  EXPECT_TRUE(args.quick);
  EXPECT_EQ(args.threads, (std::vector<int>{1}));
  EXPECT_EQ(args.count("--reps"), 1u);
  EXPECT_DOUBLE_EQ(args.get("--min-speedup"), 1.25);  // no --quick value
}

TEST(GateArgs, FlagsApplyInOrder) {
  GateArgs later = bench_args();
  ASSERT_TRUE(parse(later, {"--quick", "--reps", "3", "--threads", "4"}));
  EXPECT_EQ(later.count("--reps"), 3u);
  EXPECT_EQ(later.threads, (std::vector<int>{4}));
  GateArgs earlier = bench_args();
  ASSERT_TRUE(parse(earlier, {"--reps", "3", "--quick"}));
  EXPECT_EQ(earlier.count("--reps"), 1u);
}

TEST(GateArgs, RejectsUnknownFlagsAndMissingValues) {
  const std::vector<std::vector<const char*>> bad = {
      {"--bogus"},
      {"--iterations", "2"},  // not registered here
      {"--min-speedup"},
      {"--threads"},
      {"--min-speedup", "fast"},
      {"--min-speedup", "inf"},
      {"--reps", "-1"},
      {"--reps", "2.5"},
      {"--reps", "1e3"},
      {"--reps", "+2"},
      {"--reps", "99999999999999999999"},  // beyond 2^64
      {"--reps", "9007199254740993"},      // beyond 2^53
      {"--threads", "0"},
      {"--threads", "1025"},
      {"--threads", "1e10"},
      {"--threads", "-4"},
  };
  for (const auto& argv : bad) {
    SCOPED_TRACE(std::string(argv[0]) + " " + (argv.size() > 1 ? argv[1] : ""));
    GateArgs args = bench_args();
    EXPECT_FALSE(parse(args, argv));
  }
  GateArgs edge = bench_args();
  ASSERT_TRUE(parse(edge, {"--reps", "0", "--threads", "1024", "--min-speedup", "-1"}));
  EXPECT_EQ(edge.count("--reps"), 0u);
  EXPECT_EQ(edge.threads, (std::vector<int>{1024}));
}

/// apply_report_args() on `argv` after the program name.
int apply_report(GateArgs& args, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench_report");
  return apply_report_args(args, static_cast<int>(argv.size()),
                           const_cast<char**>(argv.data()));
}

TEST(ReportArgs, RejectsWhatItDoesNotKnow) {
  // `bench_table4_common_stats --threds 2` used to run on the default pool.
  const std::vector<std::vector<const char*>> bad = {
      {"--threds", "2"}, {"--quick"}, {"--threads"}, {"--threads", "0"},
      {"--per-matrix"}, {"--csv", "out.csv"}};
  for (const auto& argv : bad) {
    SCOPED_TRACE(argv[0]);
    GateArgs args = report_args();
    EXPECT_EQ(apply_report(args, argv), 0);
  }
}

TEST(ReportArgs, ThreadsResizeTheGlobalPool) {
  GateArgs args = report_args();
  EXPECT_EQ(apply_report(args, {"--threads", "3"}), 3);
  EXPECT_EQ(global_pool().thread_count(), 3);
  GateArgs defaults = report_args();
  EXPECT_EQ(apply_report(defaults, {}), default_thread_count());
  EXPECT_EQ(global_pool().thread_count(), default_thread_count());
}

TEST(ReportArgs, BenchFlags) {
  // bench_fig6_trend's switch and bench_table3_overall's output path.
  GateArgs args = report_args();
  args.switch_flag("--per-matrix").text_flag("--csv");
  ASSERT_GT(apply_report(args, {}), 0);
  EXPECT_EQ(args.get("--per-matrix"), 0.0);
  EXPECT_EQ(args.text("--csv"), "");
  ASSERT_GT(apply_report(args, {"--csv", "out.csv", "--per-matrix"}), 0);
  EXPECT_EQ(args.get("--per-matrix"), 1.0);
  EXPECT_EQ(args.text("--csv"), "out.csv");
  GateArgs missing = report_args();
  missing.text_flag("--csv");
  EXPECT_EQ(apply_report(missing, {"--csv"}), 0);
}

TEST(EmitRatio, QuartileKeysOnlyWithMoreThanOneRound) {
  PairedRatio one;
  one.ratios = {2.0};
  one.median = one.q1 = one.q3 = 2.0;
  testing::internal::CaptureStdout();
  emit_ratio("speedup", one);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "speedup=2\n");
  PairedRatio four;
  four.ratios = {4, 1, 3, 2};
  four.median = 2.5;
  four.q1 = 1.75;
  four.q3 = 3.25;
  testing::internal::CaptureStdout();
  emit_ratio("speedup", four);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "speedup=2.5\nspeedup_q1=1.75\nspeedup_q3=3.25\n");
}

/// Scripted sides: each call logs "<side><unit>" and advances the fake
/// clock by that side's scripted duration for (round, unit).
struct ScriptedSides {
  std::vector<std::vector<double>> a, b;  ///< [round][unit] seconds
  double now = 0.0;
  std::vector<std::string> log;
  std::size_t a_calls = 0, b_calls = 0;

  PairedRatio run() {
    const std::size_t units = a.front().size();
    return time_paired(
        units, a.size(),
        [&](std::size_t u) {
          log.push_back("A" + std::to_string(u));
          now += a[a_calls++ / units][u];
        },
        [&](std::size_t u) {
          log.push_back("B" + std::to_string(u));
          now += b[b_calls++ / units][u];
        },
        [&] { return now; });
  }
};

TEST(TimePaired, AlternatesOrderPerUnitAndRound) {
  ScriptedSides sides;
  sides.a = {{1, 1}, {1, 1}};
  sides.b = {{1, 1}, {1, 1}};
  sides.run();
  EXPECT_EQ(sides.log, (std::vector<std::string>{"A0", "B0", "B1", "A1",  // round 0
                                                 "B0", "A0", "A1", "B1"}));
}

TEST(TimePaired, RoundRatiosMedianAndQuartiles) {
  ScriptedSides sides;
  // Per round, A's summed time over B's: 4, 1, 3, 2.
  sides.a = {{3, 1}, {1, 1}, {2, 4}, {1, 3}};
  sides.b = {{0.5, 0.5}, {1, 1}, {1, 1}, {1, 1}};
  const PairedRatio r = sides.run();
  EXPECT_EQ(r.ratios, (std::vector<double>{4, 1, 3, 2}));
  EXPECT_DOUBLE_EQ(r.median, 2.5);
  EXPECT_DOUBLE_EQ(r.q1, 1.75);
  EXPECT_DOUBLE_EQ(r.q3, 3.25);
  EXPECT_DOUBLE_EQ(r.a_seconds, 16.0);
  EXPECT_DOUBLE_EQ(r.b_seconds, 7.0);
}

TEST(TimePaired, SideErrorPropagates) {
  int b_calls = 0;
  const auto fail_on_second = [&](std::size_t) {
    if (++b_calls == 2) throw std::runtime_error("multiply failed on m1");
  };
  EXPECT_THROW(time_paired(2, 2, [](std::size_t) {}, fail_on_second), std::runtime_error);
  EXPECT_EQ(b_calls, 2);  // time_paired stopped at the failure
}

TEST(RunGate, MapsOutcomesToExitCodes) {
  EXPECT_EQ(run_gate([] { return false; }), 0);
  EXPECT_EQ(run_gate([] { return true; }), 1);
  EXPECT_EQ(run_gate([]() -> bool { throw std::runtime_error("plan failed"); }), 2);
}

TEST(ZeroAllocGate, FailsWithoutTheCountingAllocator) {
  // This binary does not link counting_new.cpp, so no allocation is ever
  // counted: a measured 0 must not pass.
  EXPECT_FALSE(zero_alloc_gate(0, "probe"));
}

}  // namespace
}  // namespace speck::bench
