// Table I: dataset profiles. Generates every (synthetic stand-in) dataset
// and prints the realised statistics next to the paper's originals so the
// scaling factor is explicit.
#include <cstdio>

#include "bench/harness.h"

namespace {

struct PaperRow {
  const char* name;
  long long nodes;
  long long edges;
  long long attrs;  // -1 = N/A
  long long comms;
};

constexpr PaperRow kPaperRows[] = {
    {"Cora", 2708, 5429, 1433, 7},
    {"Citeseer", 3327, 4732, 3703, 6},
    {"Arxiv", 199343, 1166243, -1, 40},
    {"Reddit", 232965, 114615892, -1, 50},
    {"DBLP", 317080, 1049866, -1, 5000},
    {"Facebook", 348, 2867, 224, 24},  // first ego-net row of Table I
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cgnp;
  using namespace cgnp::bench;
  BenchOptions opt = ParseOptions(argc, argv, "table1_datasets");

  std::printf("Table I: dataset profiles (synthetic stand-ins; see DESIGN.md)\n");
  std::printf("%-10s | %10s %12s %8s %8s | %10s %12s %8s %8s\n", "Dataset",
              "paper|V|", "paper|E|", "|A|", "|C|", "ours|V|", "ours|E|",
              "|A|", "|C|");
  Rng rng(opt.seed);
  const auto profiles = AllProfiles();
  for (size_t i = 0; i < profiles.size(); ++i) {
    if (!DatasetSelected(opt, profiles[i].name)) continue;
    const auto graphs = MakeDataset(profiles[i], &rng);
    int64_t nodes = 0, edges = 0, comms = 0;
    int64_t attr_dim = profiles[i].graph_configs[0].attribute_dim;
    for (const auto& g : graphs) {
      nodes += g.num_nodes();
      edges += g.num_edges();
      comms += g.num_communities();
    }
    const PaperRow& p = kPaperRows[i];
    std::printf("%-10s | %10lld %12lld %8lld %8lld | %10lld %12lld %8lld %8lld\n",
                profiles[i].name.c_str(), p.nodes, p.edges, p.attrs, p.comms,
                static_cast<long long>(nodes), static_cast<long long>(edges),
                static_cast<long long>(attr_dim),
                static_cast<long long>(comms));
    // Realised dataset statistics are exact-class metrics: any change with
    // the same seed means the generators changed, which bench_compare
    // flags as drift.
    BenchRow row;
    row.case_name = "profile";
    row.dataset = profiles[i].name;
    row.threads = opt.kernel_threads;
    row.scale = opt.scale_name();
    row.AddMetric("nodes", static_cast<double>(nodes));
    row.AddMetric("edges", static_cast<double>(edges));
    row.AddMetric("attr_dim", static_cast<double>(attr_dim));
    row.AddMetric("communities", static_cast<double>(comms));
    opt.reporter->Add(std::move(row));
  }
  std::printf("\n(Facebook paper row shows the first of ten ego networks; the "
              "synthetic row aggregates all ten.)\n");
  return FinishReport(opt);
}
