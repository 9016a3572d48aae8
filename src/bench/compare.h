// Cross-report comparison: the engine behind tools/bench_compare.
//
// Two sets of BENCH_<suite>.json reports (baseline vs current) are joined
// on the row key (suite, case, dataset, backend, threads, scale) and every
// metric is classified and diffed:
//
//   * timing metrics ("*_ms" lower-is-better; "qps" / "*_per_second" /
//     "speedup*" / "*_rate" higher-is-better): a relative change worse
//     than the noise threshold (default 15%, per-case overrides) is a
//     REGRESSION. In advisory mode (CI on shared runners) timing
//     regressions downgrade to warnings.
//   * everything else (f1, accuracy, counts) is treated as deterministic:
//     absolute drift beyond the accuracy tolerance is a DRIFT and always
//     fails, advisory mode or not.
//
// Cases present in the baseline but missing from the current run fail the
// comparison (a benchmark silently disappearing is itself a regression);
// new cases are reported but pass (commit them with --update-baseline).
#ifndef CGNP_BENCH_COMPARE_H_
#define CGNP_BENCH_COMPARE_H_

#include <string>
#include <utility>
#include <vector>

#include "bench/report.h"

namespace cgnp {
namespace bench {

struct CompareOptions {
  // Relative noise threshold for timing metrics (0.15 = 15% worse).
  double timing_threshold = 0.15;
  // Absolute tolerance for accuracy-class metrics.
  double accuracy_tolerance = 0.02;
  // "*_ms" timings where baseline and current are BOTH below this floor
  // are too small to measure reliably (scheduler jitter dominates) and are
  // skipped entirely -- e.g. classical baselines whose "training" is a
  // no-op taking hundreds of nanoseconds. When EVERY "*_ms" metric of a
  // case is sub-floor on both sides, the case's higher-is-better metrics
  // (qps, speedup, hit rate) are derived from that same jitter and are
  // skipped with them.
  double timing_floor_ms = 5.0;
  // (case-key substring, threshold) overrides; first match wins.
  std::vector<std::pair<std::string, double>> case_thresholds;
  // Downgrade timing regressions to advisories (accuracy still fails).
  bool advisory_timing = false;
};

enum class MetricClass { kTimeLowerBetter, kTimeHigherBetter, kExact };
MetricClass ClassifyMetric(const std::string& name);

enum class Verdict {
  kOk,
  kImproved,    // timing got better beyond the threshold
  kRegressed,   // timing got worse beyond the threshold
  kAdvisory,    // regression downgraded by advisory_timing
  kDrifted,     // exact metric moved beyond tolerance (always fatal)
};
const char* VerdictName(Verdict v);

struct MetricDelta {
  std::string metric;
  double baseline = 0;
  double current = 0;
  // Signed relative change, positive = worse (direction-normalised);
  // for exact metrics this is the absolute difference.
  double change = 0;
  MetricClass metric_class = MetricClass::kExact;
  Verdict verdict = Verdict::kOk;
};

struct CaseComparison {
  std::string key;
  double threshold = 0;  // the (possibly overridden) timing threshold used
  std::vector<MetricDelta> deltas;
};

struct CompareResult {
  std::vector<CaseComparison> cases;
  std::vector<std::string> missing_cases;  // in baseline, absent in current
  std::vector<std::string> extra_cases;    // in current, absent in baseline
  // Non-fatal context the CLI prints before the per-case table -- e.g.
  // baseline and current recorded at different SIMD dispatch levels or on
  // hosts with different core counts, where every timing delta is expected
  // and advisory reading is warranted.
  std::vector<std::string> host_notes;
  int regressions = 0;
  int drifts = 0;
  int advisories = 0;
  int improvements = 0;

  bool ok() const {
    return regressions == 0 && drifts == 0 && missing_cases.empty();
  }
};

CompareResult CompareReports(const std::vector<BenchReport>& baseline,
                             const std::vector<BenchReport>& current,
                             const CompareOptions& options);

// Exit-code contract of tools/bench_compare:
//   0 comparison clean; 1 regression / drift / missing case;
//   (2 is reserved by the CLI for usage, IO and schema errors.)
int ExitCodeFor(const CompareResult& result);

}  // namespace bench
}  // namespace cgnp

#endif  // CGNP_BENCH_COMPARE_H_
