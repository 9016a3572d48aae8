// Process-heap allocation count and bytes of the cgnp task build. This
// binary replaces the global operator new, so it counts every heap
// allocation -- not an arena gauge (workspace_test and serve_test cover
// those). A warm BuildQueryTask must allocate a small, fixed number of
// times per task, not once or more per task node, and its bytes must
// follow the task, not the parent graph: no |V|-sized buffer.
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
std::atomic<int64_t> g_heap_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
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

// An attributed synthetic graph with 200-node communities, so graphs of
// different sizes give tasks of the same shape.
Graph AttributedGraph(int64_t num_nodes) {
  Rng rng(3);
  SyntheticConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_communities = num_nodes / 200;
  cfg.intra_degree = 10;
  cfg.inter_degree = 2;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  return GenerateSyntheticGraph(cfg, &rng);
}

constexpr int64_t kAttributeDim = 16;

TaskConfig TwoHundredNodeTasks() {
  TaskConfig tasks;
  tasks.subgraph_size = 200;
  return tasks;
}

TEST(TaskBuildAllocations, FewerThanOnePerTaskNode) {
  const Graph g = AttributedGraph(5000);
  ASSERT_TRUE(g.has_attributes());
  const TaskConfig tasks = TwoHundredNodeTasks();

  // Warm-up: first-use costs (trace and metrics registration, thread
  // pool start) are not per-query costs.
  ASSERT_TRUE(BuildQueryTask(g, 0, {}, tasks, kAttributeDim, 7).ok());

  for (const NodeId q : {NodeId{1}, NodeId{2500}, NodeId{4999}}) {
    const int64_t before = g_heap_allocs.load();
    auto task = BuildQueryTask(g, q, {}, tasks, kAttributeDim, 7);
    const int64_t allocs = g_heap_allocs.load() - before;
    ASSERT_TRUE(task.ok());
    const int64_t task_nodes = task.value().graph.num_nodes();
    ASSERT_EQ(task_nodes, 200) << "query " << q;
    // 34-35 measured: the task's arrays and the growth of its edge and
    // neighbour buffers.
    EXPECT_LE(allocs, 40) << "query " << q;
    std::printf("query %lld: %lld heap allocations for a %lld-node task\n",
                static_cast<long long>(q), static_cast<long long>(allocs),
                static_cast<long long>(task_nodes));
  }
}

// Heap bytes of warm BuildQueryTask calls, summed over a fixed set of
// queries spread over the graph.
int64_t TaskBuildBytes(const Graph& g) {
  const TaskConfig tasks = TwoHundredNodeTasks();
  EXPECT_TRUE(BuildQueryTask(g, 0, {}, tasks, kAttributeDim, 7).ok());
  int64_t bytes = 0;
  for (int i = 1; i <= 8; ++i) {
    const NodeId q = g.num_nodes() * i / 9;
    const int64_t before = g_heap_bytes.load();
    auto task = BuildQueryTask(g, q, {}, tasks, kAttributeDim, 7);
    bytes += g_heap_bytes.load() - before;
    EXPECT_TRUE(task.ok());
    EXPECT_EQ(task.value().graph.num_nodes(), 200) << "query " << q;
  }
  return bytes;
}

TEST(TaskBuildAllocations, BytesFollowTheTaskNotTheGraph) {
  const int64_t small = TaskBuildBytes(AttributedGraph(5000));
  const int64_t large = TaskBuildBytes(AttributedGraph(200000));
  std::printf("8 tasks: %lld heap bytes at 5e3 nodes, %lld at 2e5 nodes\n",
              static_cast<long long>(small), static_cast<long long>(large));
  // A |V|-sized buffer would add about 9 bytes per parent node per task
  // (1.8 MB at 2e5 nodes against ~60 KB for the task itself).
  EXPECT_LE(large, small * 3 / 2);
}

}  // namespace
}  // namespace cgnp
