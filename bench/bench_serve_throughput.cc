// Serving benchmark: QPS and latency percentiles of the QueryServer as a
// function of worker-thread count and context-cache on/off.
//
// The workload models production query traffic: a pool of distinct query
// nodes, each asked `repeat` times (users re-asking about the same
// community with different thresholds / pagination), shuffled into one
// request stream. With the cache on, repeats share one encoder pass
// (Algorithm 2's inference asymmetry); the hit rate and the latency drop
// it buys are reported per configuration.
//
// Output: the usual human-readable table plus the canonical
// BENCH_serve_throughput.json report (src/bench/report.h). One row per
// server configuration, keyed case=cache_on|cache_off / backend / threads,
// plus one `fit` row for the one-time engine training cost.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "serve/query_server.h"

namespace {

using namespace cgnp;
using namespace cgnp::bench;
using serve::SearchRequest;

// Stats -> canonical report row shared by every server configuration.
BenchRow MakeServeRow(const BenchOptions& opt, const std::string& case_name,
                      const serve::ServerStats& stats, int threads,
                      double threshold, double speedup) {
  BenchRow row;
  row.case_name = case_name;
  row.dataset = "synthetic";
  row.backend = stats.backend;
  row.threads = threads;
  row.scale = opt.scale_name();
  row.AddMetric("qps", stats.qps);
  row.AddMetric("mean_ms", stats.mean_ms);
  row.AddMetric("p50_ms", stats.p50_ms);
  row.AddMetric("p99_ms", stats.p99_ms);
  row.AddMetric("cache_hit_rate", stats.cache_hit_rate);
  row.AddMetric("requests", static_cast<double>(stats.requests));
  row.AddMetric("errors", static_cast<double>(stats.errors));
  row.AddMetric("threshold", threshold);
  if (speedup > 0) row.AddMetric("speedup_vs_1thread_nocache", speedup);
  // Per-stage medians from the trace spans (task_build/encode/decode for
  // cgnp, search for classical). encode_skip_rate = fraction of requests
  // that reused a cached context and skipped the encoder entirely --
  // cache-on rows should show it tracking the hit rate, proving hits
  // skip encode rather than merely returning faster.
  uint64_t encode_count = 0;
  for (const auto& st : stats.stages) {
    row.AddMetric(st.stage + "_p50_ms", st.p50_ms);
    if (st.stage == "encode") encode_count = st.count;
  }
  if (stats.cache_eligible > 0) {
    row.AddMetric("encode_skip_rate",
                  1.0 - static_cast<double>(encode_count) /
                            static_cast<double>(stats.cache_eligible));
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using serve::QueryServer;

  BenchOptions opt = ParseOptions(argc, argv, "serve_throughput");

  // Data graph + trained engine (train once; the bench measures serving).
  Rng rng(opt.seed);
  SyntheticConfig data_cfg;
  data_cfg.num_nodes = opt.paper_scale ? 5000 : 800;
  data_cfg.num_communities = opt.paper_scale ? 25 : 8;
  data_cfg.intra_degree = 12;
  data_cfg.inter_degree = 1.5;
  data_cfg.attribute_dim = 16;
  data_cfg.attrs_per_node = 3;
  data_cfg.attrs_per_community_pool = 5;
  data_cfg.attr_affinity = 0.9;
  const Graph g = GenerateSyntheticGraph(data_cfg, &rng);

  CommunitySearchEngine::Options eopt;
  eopt.model = opt.cgnp;
  eopt.model.hidden_dim = opt.paper_scale ? opt.cgnp.hidden_dim : 16;
  eopt.model.epochs = opt.paper_scale ? opt.cgnp.epochs : 5;
  eopt.tasks = opt.task;
  eopt.tasks.subgraph_size = opt.paper_scale ? opt.task.subgraph_size : 100;
  eopt.num_train_tasks = opt.paper_scale ? opt.train_tasks : 8;
  eopt.seed = opt.seed;
  CommunitySearchEngine engine(eopt);
  Status fitted = Status::Ok();
  const double train_ms = TimeMs([&] { fitted = engine.Fit(g); });
  if (!fitted.ok()) {
    std::fprintf(stderr, "engine fit failed: %s\n",
                 fitted.ToString().c_str());
    return 1;
  }
  std::printf("engine fitted in %.0f ms; serving workload on %lld nodes\n",
              train_ms, static_cast<long long>(g.num_nodes()));
  {
    BenchRow fit_row;
    fit_row.case_name = "fit";
    fit_row.dataset = "synthetic";
    fit_row.backend = "cgnp";
    fit_row.threads = opt.kernel_threads;
    fit_row.scale = opt.scale_name();
    fit_row.AddMetric("train_ms", train_ms);
    opt.reporter->Add(std::move(fit_row));
  }

  // Workload: `distinct` communities asked `repeat` times each, shuffled.
  const int64_t distinct = opt.paper_scale ? 64 : 24;
  const int64_t repeat = opt.paper_scale ? 8 : 6;
  std::vector<SearchRequest> workload;
  for (int64_t r = 0; r < repeat; ++r) {
    for (int64_t i = 0; i < distinct; ++i) {
      SearchRequest req;
      req.graph = &g;
      req.graph_id = 1;
      req.query = (i * 37) % g.num_nodes();
      workload.push_back(req);
    }
  }
  Rng shuffle_rng(opt.seed + 1);
  std::vector<int64_t> order(workload.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  shuffle_rng.Shuffle(&order);
  std::vector<SearchRequest> stream;
  stream.reserve(workload.size());
  for (int64_t idx : order) stream.push_back(workload[idx]);

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  double baseline_qps = 0;  // 1 thread, no cache

  std::printf("\n%-8s %-6s %10s %10s %10s %10s %10s\n", "threads", "cache",
              "qps", "mean_ms", "p50_ms", "p99_ms", "hit_rate");
  for (const bool cache_on : {false, true}) {
    for (const int threads : thread_counts) {
      serve::ServeOptions server_opt;
      server_opt.num_threads = threads;
      server_opt.cache_capacity =
          cache_on ? static_cast<int64_t>(distinct * 2) : 0;
      auto server_ptr = QueryServer::Create(&engine, server_opt).value();
      QueryServer& server = *server_ptr;
      // Warm-up pass keeps one-time costs (thread spawn, page faults) out
      // of the measurement; it also pre-fills the cache, putting the
      // cache-on rows at their steady-state hit rate. Additional repeats
      // (--repeats=N) re-serve the whole stream; the reported stats are
      // from the last pass, whose timing percentiles cover every pass via
      // ResetStats only before the first.
      server.ServeBatch(
          std::vector<SearchRequest>(stream.begin(), stream.begin() + 8));
      server.ResetStats();
      for (int rep = 0; rep < opt.repeats; ++rep) server.ServeBatch(stream);
      const auto stats = server.Stats();
      if (!cache_on && threads == 1) baseline_qps = stats.qps;
      const double speedup = baseline_qps > 0 ? stats.qps / baseline_qps : 0;
      std::printf("%-8d %-6s %10.1f %10.2f %10.2f %10.2f %10.3f\n", threads,
                  cache_on ? "on" : "off", stats.qps, stats.mean_ms,
                  stats.p50_ms, stats.p99_ms, stats.cache_hit_rate);
      opt.reporter->Add(MakeServeRow(opt, cache_on ? "cache_on" : "cache_off",
                                     stats, threads, stream.front().threshold,
                                     speedup));
    }
  }

  // Classical backends through the same server, selected by registry
  // name: one attributable report row each.
  std::printf("\n%-8s %10s %10s %10s\n", "backend", "qps", "p50_ms",
              "p99_ms");
  for (const char* backend : {"kcore", "ktruss", "ctc"}) {
    serve::ServeOptions sopt;
    sopt.backend = backend;
    sopt.num_threads = 4;
    auto server = QueryServer::Create(nullptr, sopt);
    if (!server.ok()) {
      std::fprintf(stderr, "backend %s unavailable: %s\n", backend,
                   server.status().ToString().c_str());
      continue;
    }
    (*server)->ServeBatch(
        std::vector<SearchRequest>(stream.begin(), stream.begin() + 8));
    (*server)->ResetStats();
    for (int rep = 0; rep < opt.repeats; ++rep) (*server)->ServeBatch(stream);
    const auto stats = (*server)->Stats();
    std::printf("%-8s %10.1f %10.2f %10.2f\n", backend, stats.qps,
                stats.p50_ms, stats.p99_ms);
    opt.reporter->Add(MakeServeRow(opt, "classical", stats, sopt.num_threads,
                                   stream.front().threshold, /*speedup=*/0));
  }
  // Observability overhead: the same cached-server workload with the
  // runtime obs switch on vs off. Both are full record paths through the
  // sharded counters / spans (on) or the early-out branch (off); the gap
  // is what instrumentation costs a served request.
  {
    serve::ServeOptions server_opt;
    server_opt.num_threads = 2;
    server_opt.cache_capacity = static_cast<int64_t>(distinct * 2);
    auto server_ptr = QueryServer::Create(&engine, server_opt).value();
    QueryServer& server = *server_ptr;
    server.ServeBatch(
        std::vector<SearchRequest>(stream.begin(), stream.begin() + 8));
    server.ResetStats();
    const double obs_on_ms = TimeMs([&] {
      for (int rep = 0; rep < opt.repeats; ++rep) server.ServeBatch(stream);
    });
    obs::SetEnabled(false);
    server.ResetStats();
    const double obs_off_ms = TimeMs([&] {
      for (int rep = 0; rep < opt.repeats; ++rep) server.ServeBatch(stream);
    });
    obs::SetEnabled(true);
    std::printf("\nobs overhead: on %.1f ms, off %.1f ms (%zu requests)\n",
                obs_on_ms, obs_off_ms, stream.size() * opt.repeats);
    BenchRow row;
    row.case_name = "obs_overhead";
    row.dataset = "synthetic";
    row.backend = "cgnp";
    row.threads = 2;
    row.scale = opt.scale_name();
    row.AddMetric("obs_on_ms", obs_on_ms);
    row.AddMetric("obs_off_ms", obs_off_ms);
    opt.reporter->Add(std::move(row));
  }

  return FinishReport(opt);
}
