#include "bench/compare.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

namespace cgnp {
namespace bench {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

double ThresholdForCase(const std::string& key, const CompareOptions& opt) {
  for (const auto& [needle, threshold] : opt.case_thresholds) {
    if (key.find(needle) != std::string::npos) return threshold;
  }
  return opt.timing_threshold;
}

}  // namespace

MetricClass ClassifyMetric(const std::string& name) {
  if (EndsWith(name, "_ms")) return MetricClass::kTimeLowerBetter;
  // "*_rate" (cache hit rate) is higher-is-better but NOT exact: at
  // threads>1 concurrent workers can both miss the same cold key, so the
  // realised rate is scheduling-dependent and must be threshold-compared,
  // not drift-gated.
  if (name == "qps" || EndsWith(name, "_per_second") ||
      EndsWith(name, "_rate") || StartsWith(name, "speedup")) {
    return MetricClass::kTimeHigherBetter;
  }
  return MetricClass::kExact;
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kImproved: return "improved";
    case Verdict::kRegressed: return "REGRESSED";
    case Verdict::kAdvisory: return "advisory";
    case Verdict::kDrifted: return "DRIFTED";
  }
  return "?";
}

CompareResult CompareReports(const std::vector<BenchReport>& baseline,
                             const std::vector<BenchReport>& current,
                             const CompareOptions& options) {
  // Index both sides by row key. Later duplicates win (a tier that runs a
  // suite twice overwrites; keys are designed to be unique per config).
  std::map<std::string, const BenchRow*> base_rows, cur_rows;
  for (const auto& report : baseline) {
    for (const auto& row : report.rows) {
      base_rows[row.Key(report.meta.suite)] = &row;
    }
  }
  for (const auto& report : current) {
    for (const auto& row : report.rows) {
      cur_rows[row.Key(report.meta.suite)] = &row;
    }
  }

  CompareResult result;
  // Timings recorded at different SIMD dispatch levels, or on hosts with
  // different core counts (every threads > 1 row), are expected to move;
  // note every such (suite, baseline, current) mismatch so the reader
  // discounts the deltas instead of chasing phantom regressions. Unknown
  // values ("unknown" level, 0 cores: older reports) stay silent.
  for (const auto& base_report : baseline) {
    for (const auto& cur_report : current) {
      if (cur_report.meta.suite != base_report.meta.suite) continue;
      const std::string& bs = base_report.meta.host_simd;
      const std::string& cs = cur_report.meta.host_simd;
      if (bs != cs && bs != "unknown" && cs != "unknown") {
        result.host_notes.push_back(
            base_report.meta.suite + ": baseline recorded at simd_level=" +
            bs + ", current at simd_level=" + cs +
            " -- timing deltas reflect the dispatch level, not the code");
      }
      const int bc = base_report.meta.host_cores;
      const int cc = cur_report.meta.host_cores;
      if (bc != cc && bc > 0 && cc > 0) {
        result.host_notes.push_back(
            base_report.meta.suite + ": baseline recorded on " +
            std::to_string(bc) + " cores, current on " + std::to_string(cc) +
            " cores -- timing deltas reflect the host, not the code");
      }
    }
  }
  for (const auto& [key, cur] : cur_rows) {
    if (base_rows.find(key) == base_rows.end()) {
      result.extra_cases.push_back(key);
    }
    (void)cur;
  }
  for (const auto& [key, base] : base_rows) {
    const auto it = cur_rows.find(key);
    if (it == cur_rows.end()) {
      result.missing_cases.push_back(key);
      continue;
    }
    const BenchRow* cur = it->second;
    CaseComparison cc;
    cc.key = key;
    cc.threshold = ThresholdForCase(key, options);
    // When every wall-clock metric of the case sits under the floor on
    // both sides, throughput numbers derived from those timings (qps,
    // speedup, hit rate of a sub-millisecond request stream) are jitter
    // too and are skipped along with them.
    bool has_ms_metric = false;
    bool all_ms_sub_floor = true;
    for (const auto& [name, base_metric] : base->metrics) {
      if (ClassifyMetric(name) != MetricClass::kTimeLowerBetter) continue;
      has_ms_metric = true;
      const MetricValue* cur_metric = cur->FindMetric(name);
      if (base_metric.value >= options.timing_floor_ms ||
          (cur_metric != nullptr &&
           cur_metric->value >= options.timing_floor_ms)) {
        all_ms_sub_floor = false;
      }
    }
    const bool sub_floor_case = has_ms_metric && all_ms_sub_floor;
    for (const auto& [name, base_metric] : base->metrics) {
      MetricDelta d;
      d.metric = name;
      d.baseline = base_metric.value;
      d.metric_class = ClassifyMetric(name);
      const MetricValue* cur_metric = cur->FindMetric(name);
      if (cur_metric == nullptr) {
        // A metric vanishing from an existing case is a schema-level
        // change; surface it as drift so it cannot slip through.
        d.current = std::nan("");
        d.verdict = Verdict::kDrifted;
        ++result.drifts;
        cc.deltas.push_back(std::move(d));
        continue;
      }
      d.current = cur_metric->value;
      switch (d.metric_class) {
        case MetricClass::kTimeLowerBetter:
        case MetricClass::kTimeHigherBetter: {
          const bool sub_floor_timing =
              d.metric_class == MetricClass::kTimeLowerBetter &&
              d.baseline < options.timing_floor_ms &&
              d.current < options.timing_floor_ms;
          const bool sub_floor_derived =
              d.metric_class == MetricClass::kTimeHigherBetter &&
              sub_floor_case;
          if (sub_floor_timing || sub_floor_derived) {
            // Under the measurement floor (directly, or derived from
            // timings that are): jitter, not signal.
            d.change = 0;
            d.verdict = Verdict::kOk;
            break;
          }
          if (std::fabs(d.baseline) < 1e-12) {
            // No meaningful relative change from a zero baseline.
            d.change = 0;
            d.verdict = Verdict::kOk;
            break;
          }
          const double rel = (d.current - d.baseline) / d.baseline;
          // Normalise sign so positive always means "worse".
          d.change =
              d.metric_class == MetricClass::kTimeLowerBetter ? rel : -rel;
          if (d.change > cc.threshold) {
            d.verdict =
                options.advisory_timing ? Verdict::kAdvisory : Verdict::kRegressed;
            if (d.verdict == Verdict::kAdvisory) {
              ++result.advisories;
            } else {
              ++result.regressions;
            }
          } else if (d.change < -cc.threshold) {
            d.verdict = Verdict::kImproved;
            ++result.improvements;
          }
          break;
        }
        case MetricClass::kExact: {
          d.change = std::fabs(d.current - d.baseline);
          if (d.change > options.accuracy_tolerance) {
            d.verdict = Verdict::kDrifted;
            ++result.drifts;
          }
          break;
        }
      }
      cc.deltas.push_back(std::move(d));
    }
    result.cases.push_back(std::move(cc));
  }
  std::sort(result.missing_cases.begin(), result.missing_cases.end());
  std::sort(result.extra_cases.begin(), result.extra_cases.end());
  return result;
}

int ExitCodeFor(const CompareResult& result) { return result.ok() ? 0 : 1; }

}  // namespace bench
}  // namespace cgnp
