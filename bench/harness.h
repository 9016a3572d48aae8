// Shared benchmark harness: scale presets, method roster, centralised
// timing, paper-style table printing, and the canonical JSON report spine
// (src/bench/report.h). Every bench binary accepts:
//   --scale=small|paper|xl (default small: CPU-sized; paper: Section VII-A
//                          parameters -- expect hours on CPU; xl: the
//                          10^6-node storage sweep, fig4 only)
//   --seed=N              (default 1)
//   --threads=N           (default 1: serial kernels, comparable with
//                          historical runs; N>1 enables intra-op
//                          ParallelFor via set_num_threads)
//   --datasets=a,b,...    (optional filter by dataset name)
//   --repeats=N           (default 1) timed repeats per measurement; the
//                          report carries the median and stddev
//   --warmup=N            (default 0) untimed runs before measuring
//   --json=PATH|off       (default BENCH_<suite>.json) canonical report
#ifndef CGNP_BENCH_HARNESS_H_
#define CGNP_BENCH_HARNESS_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"
#include "core/cgnp.h"
#include "data/profiles.h"
#include "data/tasks.h"
#include "meta/method.h"

namespace cgnp {
namespace bench {

struct BenchOptions {
  std::string suite;  // report suite name, set by ParseOptions
  bool paper_scale = false;
  // --scale=xl: the storage-tier sweep (10^6-node graphs through the
  // binary container; bench_fig4_scalability). Mutually exclusive with
  // paper_scale; suites without an xl mode treat it as small.
  bool xl_scale = false;
  uint64_t seed = 1;
  // Intra-op kernel threads (set_num_threads); 1 keeps timings comparable
  // with serial-era runs. ParseOptions applies it.
  int kernel_threads = 1;
  std::vector<std::string> dataset_filter;  // empty = all
  // Timed repeats / untimed warmup runs per measurement. Default 1/0 keeps
  // single-shot runtime identical to the historical behaviour.
  int repeats = 1;
  int warmup = 0;
  // Canonical report destination; empty disables JSON output (--json=off).
  std::string json_path;

  // Collects rows for the whole run; FinishReport serialises it.
  std::shared_ptr<BenchReporter> reporter;

  // Task-set sizes.
  int64_t train_tasks = 12;
  int64_t valid_tasks = 3;
  int64_t test_tasks = 5;
  TaskConfig task;  // subgraph size, shots, query set, pos/neg samples

  // Hyper-parameters shared across learned methods.
  MethodConfig method;
  CgnpConfig cgnp;

  std::string scale_name() const {
    if (xl_scale) return "xl";
    return paper_scale ? "paper" : "small";
  }
};

// Parses argv; exits with a usage message on unknown flags. `suite` names
// the report (BENCH_<suite>.json by default).
BenchOptions ParseOptions(int argc, char** argv, const std::string& suite);

// True when `name` passes the --datasets filter.
bool DatasetSelected(const BenchOptions& opt, const std::string& name);

// Milliseconds spent running fn once (single-shot; prefer MeasureMs with
// opt.repeats for reported rows).
double TimeMs(const std::function<void()>& fn);

// The full method roster of the paper's tables, in table order. ACQ is
// included only when `attributed` (it cannot run otherwise; the paper notes
// the same restriction for Arxiv / DBLP / Reddit).
struct NamedMethod {
  std::string name;
  std::unique_ptr<CsMethod> method;
  bool learned;  // participates in meta-training timing (Fig. 3b)
};
std::vector<NamedMethod> MakeMethodRoster(const BenchOptions& opt,
                                          bool attributed);

// Where a roster run's rows belong in the report: the case key plus the
// dataset they were measured on.
struct RosterScope {
  std::string case_name;  // e.g. "sgsc_1shot"
  std::string dataset;    // e.g. "Citeseer"
};

// Convenience: evaluates every roster method on a task split and prints
// one table row per method. Returns (name, stats, train_ms, test_ms).
struct MethodResult {
  std::string name;
  EvalStats stats;
  double train_ms = 0;       // median over repeats
  double test_ms = 0;
  double train_ms_std = 0;
  double test_ms_std = 0;
  int repeats = 1;
};

// Meta-trains + evaluates one method `opt.repeats` times (fresh instance
// per repeat via `make`) and summarises the timings.
MethodResult RunMethodRepeated(
    const BenchOptions& opt, const std::string& name,
    const std::function<std::unique_ptr<CsMethod>()>& make,
    const TaskSplit& split);

// Routes finished rows into the JSON reporter.
void RecordResults(const BenchOptions& opt, const RosterScope& scope,
                   const std::vector<MethodResult>& results);

// RunMethodRepeated over the roster + RecordResults + table printing.
// `include` (optional) selects a roster subset, e.g. Fig. 4's
// learned-methods-only sweep.
std::vector<MethodResult> RunRoster(
    const BenchOptions& opt, bool attributed, const TaskSplit& split,
    const RosterScope& scope,
    const std::function<bool(const NamedMethod&)>& include = nullptr);

// Writes BENCH_<suite>.json (unless --json=off). Returns main()'s exit
// code: 0 on success, 1 when the report could not be written.
int FinishReport(const BenchOptions& opt);

// Prints the header / row of a paper-style metric table.
void PrintTableHeader(const std::string& title);
void PrintResultRow(const MethodResult& r);

}  // namespace bench
}  // namespace cgnp

#endif  // CGNP_BENCH_HARNESS_H_
