// Tests for the benchmark-reporting spine: JSON round-trip, the
// centralised median/stddev math, schema validation, and bench_compare's
// regression verdicts and exit-code contract around the noise threshold.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/compare.h"
#include "bench/json.h"
#include "bench/report.h"

namespace cgnp {
namespace bench {
namespace {

// --- Json -------------------------------------------------------------------

TEST(JsonTest, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":1,"b":[true,false,null],"c":{"nested":"va\"lue"},"d":-2.5e3})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& doc = *parsed;
  EXPECT_EQ(doc.GetNumber("a", 0), 1);
  ASSERT_NE(doc.Find("b"), nullptr);
  EXPECT_EQ(doc.Find("b")->Items().size(), 3u);
  EXPECT_TRUE(doc.Find("b")->Items()[0].AsBool());
  EXPECT_TRUE(doc.Find("b")->Items()[2].is_null());
  EXPECT_EQ(doc.Find("c")->GetString("nested", ""), "va\"lue");
  EXPECT_EQ(doc.GetNumber("d", 0), -2500);
  // Compact dump re-parses to the same document.
  auto reparsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Dump(), doc.Dump());
  // Pretty dump re-parses too.
  auto pretty = Json::Parse(doc.Dump(2));
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(pretty->Dump(), doc.Dump());
}

TEST(JsonTest, EscapesControlCharacters) {
  Json obj = Json::MakeObject();
  obj.Set("k", Json::MakeString("line\nbreak\ttab\x01"));
  auto parsed = Json::Parse(obj.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("k", ""), "line\nbreak\ttab\x01");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

// --- Timing summaries -------------------------------------------------------

TEST(SummarizeSamplesTest, MedianAndStddev) {
  // Odd count: median is the middle element regardless of input order.
  TimingStats odd = SummarizeSamples({30, 10, 20});
  EXPECT_DOUBLE_EQ(odd.median_ms, 20);
  EXPECT_EQ(odd.repeats, 3);
  // Population stddev of {10,20,30}: sqrt(200/3).
  EXPECT_NEAR(odd.stddev_ms, 8.16496580927726, 1e-9);

  // Even count: mean of the two middle elements.
  TimingStats even = SummarizeSamples({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(even.median_ms, 2.5);
  EXPECT_NEAR(even.stddev_ms, 1.118033988749895, 1e-9);

  TimingStats empty = SummarizeSamples({});
  EXPECT_EQ(empty.repeats, 0);
  EXPECT_DOUBLE_EQ(empty.median_ms, 0);
}

TEST(MeasureMsTest, RunsWarmupAndRepeats) {
  int calls = 0;
  const TimingStats stats = MeasureMs([&] { ++calls; }, /*repeats=*/3,
                                      /*warmup=*/2);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(stats.repeats, 3);
  EXPECT_EQ(stats.samples_ms.size(), 3u);
  EXPECT_GE(stats.median_ms, 0);
}

// --- Report round-trip ------------------------------------------------------

BenchRow MakeRow(const std::string& case_name, double wall_ms, double f1,
                 int threads = 1) {
  BenchRow row;
  row.case_name = case_name;
  row.dataset = "Citeseer";
  row.backend = "CGNP-GNN";
  row.threads = threads;
  row.scale = "small";
  row.repeats = 3;
  row.AddMetric("wall_ms", wall_ms, 0.5);
  row.AddMetric("f1", f1);
  return row;
}

TEST(BenchReporterTest, EmitParseRoundTrip) {
  BenchReporter reporter("round_trip");
  reporter.Add(MakeRow("sgsc", 120.5, 0.8125));
  reporter.Add(MakeRow("sgdc", 64.25, 0.75, /*threads=*/2));

  auto parsed = ParseReport(reporter.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->meta.suite, "round_trip");
  EXPECT_FALSE(parsed->meta.git_sha.empty());
  ASSERT_EQ(parsed->rows.size(), 2u);
  const BenchRow& row = parsed->rows[0];
  EXPECT_EQ(row.case_name, "sgsc");
  EXPECT_EQ(row.dataset, "Citeseer");
  EXPECT_EQ(row.backend, "CGNP-GNN");
  EXPECT_EQ(row.threads, 1);
  EXPECT_EQ(row.repeats, 3);
  ASSERT_NE(row.FindMetric("wall_ms"), nullptr);
  EXPECT_DOUBLE_EQ(row.FindMetric("wall_ms")->value, 120.5);
  EXPECT_DOUBLE_EQ(row.FindMetric("wall_ms")->stddev, 0.5);
  EXPECT_DOUBLE_EQ(row.FindMetric("f1")->value, 0.8125);
  EXPECT_EQ(parsed->rows[1].threads, 2);
  EXPECT_EQ(parsed->rows[1].Key("round_trip"),
            "round_trip|sgdc|Citeseer|CGNP-GNN|t2|small");
}

TEST(BenchReporterTest, WriteAndLoadFile) {
  BenchReporter reporter("file_io");
  reporter.Add(MakeRow("case_a", 10, 0.5));
  const std::string path = "bench_report_test_tmp.json";
  ASSERT_TRUE(reporter.WriteFile(path).ok());
  auto loaded = LoadReportFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.suite, "file_io");
  ASSERT_EQ(loaded->rows.size(), 1u);
  std::remove(path.c_str());

  auto missing = LoadReportFile("definitely_missing_report.json");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(BenchReporterTest, SchemaValidation) {
  // Wrong schema_version.
  EXPECT_FALSE(
      ParseReport(R"({"schema_version":99,"suite":"s","results":[]})").ok());
  // Missing suite.
  EXPECT_FALSE(ParseReport(R"({"schema_version":1,"results":[]})").ok());
  // Missing results.
  EXPECT_FALSE(ParseReport(R"({"schema_version":1,"suite":"s"})").ok());
  // Row without a case name.
  EXPECT_FALSE(ParseReport(
                   R"({"schema_version":1,"suite":"s",
                       "results":[{"metrics":{"f1":{"value":1}}}]})")
                   .ok());
  // Row without metrics.
  EXPECT_FALSE(ParseReport(
                   R"({"schema_version":1,"suite":"s",
                       "results":[{"case":"c","metrics":{}}]})")
                   .ok());
  // Minimal valid document.
  auto minimal = ParseReport(
      R"({"schema_version":1,"suite":"s",
          "results":[{"case":"c","metrics":{"f1":{"value":0.5}}}]})");
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_EQ(minimal->rows[0].FindMetric("f1")->value, 0.5);
}

// --- Metric classification --------------------------------------------------

TEST(ClassifyMetricTest, ByNameConvention) {
  EXPECT_EQ(ClassifyMetric("wall_ms"), MetricClass::kTimeLowerBetter);
  EXPECT_EQ(ClassifyMetric("train_ms"), MetricClass::kTimeLowerBetter);
  EXPECT_EQ(ClassifyMetric("p99_ms"), MetricClass::kTimeLowerBetter);
  EXPECT_EQ(ClassifyMetric("qps"), MetricClass::kTimeHigherBetter);
  EXPECT_EQ(ClassifyMetric("items_per_second"),
            MetricClass::kTimeHigherBetter);
  EXPECT_EQ(ClassifyMetric("speedup_vs_1thread_nocache"),
            MetricClass::kTimeHigherBetter);
  // Hit rates are scheduling-dependent at threads>1 (concurrent misses of
  // the same cold key), so they threshold-compare instead of drift-gating.
  EXPECT_EQ(ClassifyMetric("cache_hit_rate"), MetricClass::kTimeHigherBetter);
  EXPECT_EQ(ClassifyMetric("f1"), MetricClass::kExact);
  EXPECT_EQ(ClassifyMetric("accuracy"), MetricClass::kExact);
  EXPECT_EQ(ClassifyMetric("nodes"), MetricClass::kExact);
}

// --- Comparison -------------------------------------------------------------

BenchReport MakeReport(const std::string& suite,
                       std::vector<BenchRow> rows) {
  BenchReport report;
  report.meta.suite = suite;
  report.rows = std::move(rows);
  return report;
}

TEST(CompareTest, IdenticalReportsAreClean) {
  const auto base = MakeReport("s", {MakeRow("a", 100, 0.8)});
  const CompareResult result =
      CompareReports({base}, {base}, CompareOptions{});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(ExitCodeFor(result), 0);
  EXPECT_EQ(result.regressions, 0);
  EXPECT_EQ(result.drifts, 0);
  ASSERT_EQ(result.cases.size(), 1u);
}

TEST(CompareTest, NotesHostMismatches) {
  auto base = MakeReport("s", {MakeRow("a", 100, 0.8)});
  auto cur = base;
  base.meta.host_cores = 1;
  cur.meta.host_cores = 4;
  const CompareResult cores = CompareReports({base}, {cur}, CompareOptions{});
  EXPECT_TRUE(cores.ok()) << "a note is not a failure";
  ASSERT_EQ(cores.host_notes.size(), 1u);
  EXPECT_NE(cores.host_notes[0].find("1 cores"), std::string::npos);
  EXPECT_NE(cores.host_notes[0].find("4 cores"), std::string::npos);

  cur.meta.host_simd = "avx2";
  base.meta.host_simd = "scalar";
  EXPECT_EQ(CompareReports({base}, {cur}, CompareOptions{}).host_notes.size(),
            2u);

  // Matching hosts, and reports that never recorded the core count, are
  // silent.
  cur.meta = base.meta;
  EXPECT_TRUE(
      CompareReports({base}, {cur}, CompareOptions{}).host_notes.empty());
  cur.meta.host_cores = 0;
  EXPECT_TRUE(
      CompareReports({base}, {cur}, CompareOptions{}).host_notes.empty());
}

TEST(CompareTest, TwoTimesSlowdownRegresses) {
  const auto base = MakeReport("s", {MakeRow("a", 100, 0.8)});
  const auto slow = MakeReport("s", {MakeRow("a", 200, 0.8)});
  const CompareResult result =
      CompareReports({base}, {slow}, CompareOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(ExitCodeFor(result), 1);
  EXPECT_EQ(result.regressions, 1);
  ASSERT_EQ(result.cases.size(), 1u);
  const MetricDelta& d = result.cases[0].deltas[0];
  EXPECT_EQ(d.metric, "wall_ms");
  EXPECT_EQ(d.verdict, Verdict::kRegressed);
  EXPECT_NEAR(d.change, 1.0, 1e-12);
}

TEST(CompareTest, VerdictsAroundTheThreshold) {
  const auto base = MakeReport("s", {MakeRow("a", 100, 0.8)});
  // 14% slower: inside the default 15% noise band.
  const CompareResult under = CompareReports(
      {base}, {MakeReport("s", {MakeRow("a", 114, 0.8)})}, CompareOptions{});
  EXPECT_TRUE(under.ok());
  EXPECT_EQ(under.cases[0].deltas[0].verdict, Verdict::kOk);
  // 16% slower: past it.
  const CompareResult over = CompareReports(
      {base}, {MakeReport("s", {MakeRow("a", 116, 0.8)})}, CompareOptions{});
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.cases[0].deltas[0].verdict, Verdict::kRegressed);
  // 16% faster: an improvement, never a failure.
  const CompareResult faster = CompareReports(
      {base}, {MakeReport("s", {MakeRow("a", 84, 0.8)})}, CompareOptions{});
  EXPECT_TRUE(faster.ok());
  EXPECT_EQ(faster.cases[0].deltas[0].verdict, Verdict::kImproved);
  EXPECT_EQ(faster.improvements, 1);
}

TEST(CompareTest, PerCaseThresholdOverride) {
  CompareOptions options;
  options.case_thresholds.emplace_back("noisy_case", 0.5);
  const auto base = MakeReport(
      "s", {MakeRow("noisy_case", 100, 0.8), MakeRow("stable_case", 100, 0.8)});
  const auto cur = MakeReport(
      "s", {MakeRow("noisy_case", 140, 0.8), MakeRow("stable_case", 140, 0.8)});
  const CompareResult result = CompareReports({base}, {cur}, options);
  // 40% slower passes the 50% override but fails the default 15%.
  EXPECT_EQ(result.regressions, 1);
  for (const auto& cc : result.cases) {
    const bool noisy = cc.key.find("noisy_case") != std::string::npos;
    EXPECT_EQ(cc.deltas[0].verdict,
              noisy ? Verdict::kOk : Verdict::kRegressed);
  }
}

TEST(CompareTest, HigherIsBetterMetrics) {
  BenchRow base_row;
  base_row.case_name = "serve";
  base_row.AddMetric("qps", 1000);
  BenchRow cur_row = base_row;
  cur_row.AddMetric("qps", 700);  // 30% fewer queries/s = regression
  const CompareResult result =
      CompareReports({MakeReport("s", {base_row})},
                     {MakeReport("s", {cur_row})}, CompareOptions{});
  EXPECT_EQ(result.regressions, 1);
  EXPECT_EQ(result.cases[0].deltas[0].verdict, Verdict::kRegressed);
  // Throughput up is an improvement.
  cur_row.AddMetric("qps", 1400);
  const CompareResult faster =
      CompareReports({MakeReport("s", {base_row})},
                     {MakeReport("s", {cur_row})}, CompareOptions{});
  EXPECT_TRUE(faster.ok());
  EXPECT_EQ(faster.cases[0].deltas[0].verdict, Verdict::kImproved);
}

TEST(CompareTest, AccuracyDriftIsFatalEvenInAdvisoryMode) {
  CompareOptions options;
  options.advisory_timing = true;
  const auto base = MakeReport("s", {MakeRow("a", 100, 0.80)});
  // Timing doubled AND f1 moved: timing downgrades, f1 does not.
  const auto cur = MakeReport("s", {MakeRow("a", 200, 0.70)});
  const CompareResult result = CompareReports({base}, {cur}, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.regressions, 0);
  EXPECT_EQ(result.advisories, 1);
  EXPECT_EQ(result.drifts, 1);
  EXPECT_EQ(ExitCodeFor(result), 1);

  // Within the accuracy tolerance: clean.
  options.accuracy_tolerance = 0.02;
  const auto wiggle = MakeReport("s", {MakeRow("a", 100, 0.81)});
  EXPECT_TRUE(CompareReports({base}, {wiggle}, options).ok());
}

TEST(CompareTest, MissingExtraAndRenamedCases) {
  const auto base =
      MakeReport("s", {MakeRow("old_name", 100, 0.8), MakeRow("kept", 50, 0.7)});
  // "old_name" renamed to "new_name": one missing (fatal) + one extra (ok).
  const auto cur =
      MakeReport("s", {MakeRow("new_name", 100, 0.8), MakeRow("kept", 50, 0.7)});
  const CompareResult result =
      CompareReports({base}, {cur}, CompareOptions{});
  ASSERT_EQ(result.missing_cases.size(), 1u);
  EXPECT_NE(result.missing_cases[0].find("old_name"), std::string::npos);
  ASSERT_EQ(result.extra_cases.size(), 1u);
  EXPECT_NE(result.extra_cases[0].find("new_name"), std::string::npos);
  EXPECT_EQ(ExitCodeFor(result), 1);

  // Extra-only (a new benchmark landed): passes.
  const CompareResult extra_only = CompareReports(
      {MakeReport("s", {MakeRow("kept", 50, 0.7)})}, {cur}, CompareOptions{});
  EXPECT_TRUE(extra_only.ok());
  EXPECT_EQ(ExitCodeFor(extra_only), 0);
  EXPECT_EQ(extra_only.extra_cases.size(), 1u);
}

TEST(CompareTest, VanishedMetricIsDrift) {
  BenchRow base_row = MakeRow("a", 100, 0.8);
  BenchRow cur_row;
  cur_row.case_name = "a";
  cur_row.dataset = base_row.dataset;
  cur_row.backend = base_row.backend;
  cur_row.AddMetric("wall_ms", 100);  // f1 gone
  const CompareResult result =
      CompareReports({MakeReport("s", {base_row})},
                     {MakeReport("s", {cur_row})}, CompareOptions{});
  EXPECT_EQ(result.drifts, 1);
  EXPECT_EQ(ExitCodeFor(result), 1);
}

TEST(CompareTest, SubFloorTimingsAreSkipped) {
  // A classical method's "training" takes microseconds; a 3x swing there
  // is scheduler jitter, not a regression.
  BenchRow base_row;
  base_row.case_name = "a";
  base_row.AddMetric("train_ms", 0.0002);
  BenchRow cur_row = base_row;
  cur_row.AddMetric("train_ms", 0.0006);
  const CompareResult result =
      CompareReports({MakeReport("s", {base_row})},
                     {MakeReport("s", {cur_row})}, CompareOptions{});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.cases[0].deltas[0].verdict, Verdict::kOk);
  // But crossing the floor upward still counts.
  cur_row.AddMetric("train_ms", 50);
  const CompareResult crossed =
      CompareReports({MakeReport("s", {base_row})},
                     {MakeReport("s", {cur_row})}, CompareOptions{});
  EXPECT_EQ(crossed.regressions, 1);
}

TEST(CompareTest, ThroughputDerivedFromSubFloorTimingsIsSkipped) {
  // A serving row whose latencies are all sub-millisecond: its qps is
  // jitter too and must not be threshold-compared...
  BenchRow base_row;
  base_row.case_name = "serve";
  base_row.AddMetric("p50_ms", 0.2);
  base_row.AddMetric("qps", 4000);
  BenchRow cur_row;
  cur_row.case_name = "serve";
  cur_row.AddMetric("p50_ms", 0.25);
  cur_row.AddMetric("qps", 2800);  // -30%, but derived from jitter
  const CompareResult skipped =
      CompareReports({MakeReport("s", {base_row})},
                     {MakeReport("s", {cur_row})}, CompareOptions{});
  EXPECT_TRUE(skipped.ok());
  // ...while a row with measurable latencies keeps its qps gate.
  base_row.AddMetric("p50_ms", 20);
  cur_row.AddMetric("p50_ms", 25);
  const CompareResult gated =
      CompareReports({MakeReport("s", {base_row})},
                     {MakeReport("s", {cur_row})}, CompareOptions{});
  EXPECT_EQ(gated.regressions, 2);  // p50_ms +25% and qps -30%
}

TEST(CompareTest, ZeroBaselineTimingIsIgnored) {
  BenchRow base_row;
  base_row.case_name = "a";
  base_row.AddMetric("errors_ms", 0);  // zero baseline: no relative change
  BenchRow cur_row = base_row;
  cur_row.AddMetric("errors_ms", 5);
  const CompareResult result =
      CompareReports({MakeReport("s", {base_row})},
                     {MakeReport("s", {cur_row})}, CompareOptions{});
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace bench
}  // namespace cgnp
