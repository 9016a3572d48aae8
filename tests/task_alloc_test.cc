// Process-heap allocation count of the cgnp task build. This binary
// replaces the global operator new, so it counts every heap allocation --
// not an arena gauge (workspace_test and serve_test cover those). A warm
// BuildQueryTask must allocate a bounded number of times per task, not
// once or more per task node: attribute sets, BFS neighbour lists and the
// task CSR each cost a few allocations in total.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/engine.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"

namespace {

std::atomic<int64_t> g_heap_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC's -Wmismatched-new-delete does not pair an inlined
// free() with the operator new it sees at the call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cgnp {
namespace {

TEST(TaskBuildAllocations, FewerThanOnePerTaskNode) {
  Rng rng(3);
  SyntheticConfig cfg;
  cfg.num_nodes = 5000;
  cfg.num_communities = 25;
  cfg.intra_degree = 10;
  cfg.inter_degree = 2;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  const Graph g = GenerateSyntheticGraph(cfg, &rng);
  ASSERT_TRUE(g.has_attributes());
  TaskConfig tasks;
  tasks.subgraph_size = 200;

  // Warm-up: first-use costs (trace and metrics registration, thread
  // pool start) are not per-query costs.
  ASSERT_TRUE(BuildQueryTask(g, 0, {}, tasks, cfg.attribute_dim, 7).ok());

  for (const NodeId q : {NodeId{1}, NodeId{2500}, NodeId{4999}}) {
    const int64_t before = g_heap_allocs.load();
    auto task = BuildQueryTask(g, q, {}, tasks, cfg.attribute_dim, 7);
    const int64_t allocs = g_heap_allocs.load() - before;
    ASSERT_TRUE(task.ok());
    const int64_t task_nodes = task.value().graph.num_nodes();
    ASSERT_EQ(task_nodes, 200) << "query " << q;
    EXPECT_LT(allocs, task_nodes) << "query " << q;
    std::printf("query %lld: %lld heap allocations for a %lld-node task\n",
                static_cast<long long>(q), static_cast<long long>(allocs),
                static_cast<long long>(task_nodes));
  }
}

}  // namespace
}  // namespace cgnp
