// Figure 4: scalability of the learning-based approaches as the task-graph
// size grows (paper: 200 -> 10,000 DBLP nodes; small scale: 100 -> 2,000).
// Prints total test time (Fig. 4a) and total training time (Fig. 4b) per
// method and size.
//
// --scale=xl extends the figure past the paper: a 10^6-node planted graph
// pushed through the binary container (docs/GRAPH_FORMAT.md) -- build,
// save, copying load vs mmap load, and per-query community-search latency
// on both backings. Rows land under case "xl_storage" with scale "xl"
// (bench/baselines/BENCH_fig4_scalability_xl.json holds the tier
// baseline); timings are advisory, node/edge/member counts exact.
#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"
#include "cs/searcher.h"
#include "data/synthetic.h"
#include "graph/format.h"

namespace {

using namespace cgnp;
using namespace cgnp::bench;

int RunXlStorageSweep(const BenchOptions& opt) {
  SyntheticConfig cfg;
  cfg.num_nodes = 1000000;
  cfg.num_communities = 1000;
  cfg.intra_degree = 6.0;
  cfg.inter_degree = 2.0;
  std::printf("Figure 4 (xl): %lld-node graph through the binary container\n",
              static_cast<long long>(cfg.num_nodes));

  Rng rng(opt.seed);
  Graph g;
  const double build_ms =
      TimeMs([&] { g = GenerateSyntheticGraph(cfg, &rng); });
  const std::string path = "bench_fig4_xl.cgrf";
  double save_ms = 0;
  {
    Status s;
    save_ms = TimeMs([&] { s = SaveGraphBinary(g, path); });
    if (!s.ok()) {
      std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const double file_mb =
      static_cast<double>(ReadGraphFileInfo(path).value().file_bytes) /
      (1024.0 * 1024.0);

  Graph loaded, mapped;
  const double load_ms =
      TimeMs([&] { loaded = LoadGraphBinary(path).value(); });
  const double map_ms = TimeMs([&] { mapped = MapGraphBinary(path).value(); });
  // The mmap path without the optional checksum pass: the pure
  // O(pages touched) cost of making a million-node graph servable.
  Graph mapped_unchecked;
  MapOptions unchecked;
  unchecked.verify_checksums = false;
  const double map_unchecked_ms = TimeMs(
      [&] { mapped_unchecked = MapGraphBinary(path, unchecked).value(); });

  std::printf(
      "  build=%.0fms save=%.0fms file=%.1fMB load=%.0fms map=%.0fms "
      "map(unchecked)=%.0fms\n",
      build_ms, save_ms, file_mb, load_ms, map_ms, map_unchecked_ms);

  // Query latency per backing: the same maximal k-core queries answered
  // from heap vectors and straight off the file's pages. Member counts
  // are exact metrics -- the two backings must agree.
  const auto searcher = MakeSearcher("kcore").value();
  const std::vector<NodeId> queries = {7, 131071, 524287, 777777, 999983};
  auto run_queries = [&](const Graph& graph, double* total_members) {
    double total = 0;
    *total_members = 0;
    for (NodeId q : queries) {
      QueryResult r;
      total += TimeMs([&] { r = searcher->Search(graph, q, {}, {}).value(); });
      *total_members += static_cast<double>(r.members.size());
    }
    return total / static_cast<double>(queries.size());
  };
  double vector_members = 0, mapped_members = 0;
  const double vector_query_ms = run_queries(loaded, &vector_members);
  const double mapped_query_ms = run_queries(mapped, &mapped_members);
  std::printf("  query(kcore): vector=%.1fms mapped=%.1fms members=%.0f\n",
              vector_query_ms, mapped_query_ms, vector_members);
  std::remove(path.c_str());

  BenchRow vec;
  vec.case_name = "xl_storage";
  vec.dataset = "synthetic-1m";
  vec.backend = "vector";
  vec.threads = opt.kernel_threads;
  vec.scale = opt.scale_name();
  vec.AddMetric("build_ms", build_ms);
  vec.AddMetric("save_ms", save_ms);
  vec.AddMetric("load_ms", load_ms);
  vec.AddMetric("query_ms", vector_query_ms);
  vec.AddMetric("num_nodes", static_cast<double>(loaded.num_nodes()));
  vec.AddMetric("num_edges", static_cast<double>(loaded.num_edges()));
  vec.AddMetric("members", vector_members);
  vec.AddMetric("file_mb", file_mb);
  opt.reporter->Add(vec);

  BenchRow map;
  map.case_name = "xl_storage";
  map.dataset = "synthetic-1m";
  map.backend = "mapped";
  map.threads = opt.kernel_threads;
  map.scale = opt.scale_name();
  map.AddMetric("map_ms", map_ms);
  map.AddMetric("map_unchecked_ms", map_unchecked_ms);
  map.AddMetric("query_ms", mapped_query_ms);
  map.AddMetric("num_nodes", static_cast<double>(mapped.num_nodes()));
  map.AddMetric("num_edges", static_cast<double>(mapped.num_edges()));
  map.AddMetric("members", mapped_members);
  opt.reporter->Add(map);

  return FinishReport(opt);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cgnp;
  using namespace cgnp::bench;
  BenchOptions opt = ParseOptions(argc, argv, "fig4_scalability");
  if (opt.xl_scale) return RunXlStorageSweep(opt);

  std::vector<int64_t> sizes = opt.paper_scale
                                   ? std::vector<int64_t>{200, 1000, 5000, 10000}
                                   : std::vector<int64_t>{100, 300, 1000, 2000};

  std::printf("Figure 4: scalability on DBLP-like graphs (scale=%s)\n",
              opt.paper_scale ? "paper" : "small");

  for (int64_t size : sizes) {
    // Grow the data graph with the task size so BFS can fill the budget.
    DatasetProfile profile = DblpProfile();
    profile.graph_configs[0].num_nodes =
        std::max<int64_t>(profile.graph_configs[0].num_nodes, size * 3);
    // Keep the community-size-to-task-size ratio fixed so the scaling
    // measurement is not confounded by a vanishing positive class.
    profile.graph_configs[0].num_communities = std::max<int64_t>(
        10, profile.graph_configs[0].num_nodes / (size / 8 + 1));
    Rng rng(opt.seed);
    const Graph g = MakeDataset(profile, &rng)[0];

    BenchOptions run = opt;
    run.task.subgraph_size = size;
    // Fewer tasks at large sizes keeps CPU wall-clock sane; the per-method
    // comparison (the figure's point) is unaffected.
    run.train_tasks = opt.paper_scale ? opt.train_tasks : 4;
    run.test_tasks = opt.paper_scale ? opt.test_tasks : 2;
    run.task.query_set_size = opt.paper_scale ? opt.task.query_set_size : 6;

    Rng task_rng(opt.seed + size);
    const TaskSplit split = MakeSingleGraphTasks(
        g, TaskRegime::kSgsc, run.task, run.train_tasks, 0, run.test_tasks,
        &task_rng);
    if (split.train.empty() || split.test.empty()) {
      std::printf("\n[|V(G)|=%lld] skipped: task sampling failed\n",
                  static_cast<long long>(size));
      continue;
    }
    char title[96];
    std::snprintf(title, sizeof(title), "|V(G)| = %lld per task",
                  static_cast<long long>(size));
    PrintTableHeader(title);
    // Learned methods only, as in the paper's figure; rows are recorded
    // under a per-size case key.
    RunRoster(run, /*attributed=*/false, split,
              // std::string{} + ... (not const char* + string&&): the
              // latter trips a GCC 12 -Wrestrict false positive (PR105651)
              // when inlined.
              {std::string("n") + std::to_string(size), "DBLP"},
              [](const NamedMethod& nm) {
                return nm.name != "ATC" && nm.name != "CTC" &&
                       nm.name != "ACQ";
              });
  }
  return FinishReport(opt);
}
