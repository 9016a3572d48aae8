#include "graph/sampling.h"

#include <algorithm>

#include "common/check.h"

namespace cgnp {

namespace {

// Up-front room for at most this many nodes. A BFS asked for more nodes
// than it finds (say, all of a small component of a large graph) must not
// pay for |V| before it has found anything; the table grows past it.
constexpr int64_t kMaxInitialNodes = int64_t{1} << 16;

// Closes the row that starts at row_ptr->back() in *col: sorts it, the
// canonical order GraphBuilder::Build gives a neighbour list. A parent row
// holds neither repeats nor its own node (GraphBuilder drops both, the
// container validator rejects both), and parent ids map one-to-one to task
// positions, so neither does the row.
void CloseRow(std::vector<NodeId>* col, std::vector<int64_t>* row_ptr) {
  std::sort(col->begin() + row_ptr->back(), col->end());
  row_ptr->push_back(static_cast<int64_t>(col->size()));
}

// The BFS behind BfsSample and BfsSubgraph. Appends the visited nodes to
// `nodes` in visiting order and their positions to `table`; `nodes` doubles
// as the FIFO queue, and neighbour lists are shuffled in one reused buffer.
// Only the first `max_nodes` nodes found are kept: a node found later could
// never be visited. So when the BFS ends, every node found has been visited
// -- the queue ran dry, or the budget was reached with exactly `max_nodes`
// found -- and every position recorded below is a task node.
//
// With `row_ptr` ({0} on entry) and `col` set, each visited node's row is
// recorded as it is expanded: the task positions of its neighbours, closed
// by CloseRow. That is the induced subgraph's CSR.
void Bfs(const Graph& g, NodeId seed, int64_t max_nodes, Rng* rng,
         std::vector<NodeId>* nodes, TaskNodeIndex* table,
         std::vector<int64_t>* row_ptr, std::vector<NodeId>* col) {
  CGNP_CHECK_GE(seed, 0);
  CGNP_CHECK_LT(seed, g.num_nodes());
  CGNP_CHECK_GT(max_nodes, 0);
  const int64_t expected =
      std::min({max_nodes, g.num_nodes(), kMaxInitialNodes});
  *table = TaskNodeIndex(expected);
  nodes->clear();
  nodes->reserve(static_cast<size_t>(expected));
  if (row_ptr != nullptr) row_ptr->reserve(static_cast<size_t>(expected) + 1);
  std::vector<NodeId> nbrs;
  table->Insert(seed, 0);
  nodes->push_back(seed);
  for (int64_t head = 0; head < static_cast<int64_t>(nodes->size()) &&
                         head < max_nodes;
       ++head) {
    const auto nb = g.Neighbors((*nodes)[head]);
    nbrs.assign(nb.begin(), nb.end());
    rng->Shuffle(&nbrs);
    for (NodeId u : nbrs) {
      int64_t p = table->Find(u);
      if (p < 0) {
        p = static_cast<int64_t>(nodes->size());
        if (p == max_nodes) continue;
        table->Insert(u, p);
        nodes->push_back(u);
      }
      if (col != nullptr) col->push_back(p);
    }
    if (col != nullptr) CloseRow(col, row_ptr);
  }
}

}  // namespace

std::vector<NodeId> BfsSample(const Graph& g, NodeId seed, int64_t max_nodes,
                              Rng* rng) {
  std::vector<NodeId> out;
  TaskNodeIndex table;
  Bfs(g, seed, max_nodes, rng, &out, &table, nullptr, nullptr);
  return out;
}

Graph BfsSubgraph(const Graph& g, NodeId seed, int64_t max_nodes, Rng* rng,
                  std::vector<NodeId>* nodes, TaskNodeIndex* index) {
  std::vector<int64_t> row_ptr{0};
  std::vector<NodeId> col;
  TaskNodeIndex table;
  Bfs(g, seed, max_nodes, rng, nodes, &table, &row_ptr, &col);
  if (index != nullptr) *index = std::move(table);
  return GraphBuilder::FromLocalRows(g, *nodes, std::move(row_ptr),
                                     std::move(col));
}

// Declared in graph/graph.h; defined here to share the row assembly with
// BfsSubgraph. Its callers (the classical backends) index the |V|-sized
// map by parent id anyway, so rows are built through it: an array read per
// neighbour, into a column array reserved for the nodes' whole degree.
Graph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes,
                      std::vector<NodeId>* new_of_old) {
  std::vector<NodeId> own_map;
  std::vector<NodeId>& map = new_of_old != nullptr ? *new_of_old : own_map;
  map.assign(static_cast<size_t>(g.num_nodes()), -1);
  const int64_t n = static_cast<int64_t>(nodes.size());
  int64_t degree_sum = 0;
  for (int64_t i = 0; i < n; ++i) {
    CGNP_CHECK_GE(nodes[i], 0);
    CGNP_CHECK_LT(nodes[i], g.num_nodes());
    CGNP_CHECK_EQ(map[nodes[i]], -1) << " duplicate node in InducedSubgraph";
    map[nodes[i]] = i;
    degree_sum += g.Degree(nodes[i]);
  }
  std::vector<int64_t> row_ptr{0};
  row_ptr.reserve(static_cast<size_t>(n) + 1);
  std::vector<NodeId> col;
  col.reserve(static_cast<size_t>(degree_sum));
  for (int64_t i = 0; i < n; ++i) {
    for (NodeId u : g.Neighbors(nodes[i])) {
      if (map[u] >= 0) col.push_back(map[u]);
    }
    CloseRow(&col, &row_ptr);
  }
  return GraphBuilder::FromLocalRows(g, nodes, std::move(row_ptr),
                                     std::move(col));
}

}  // namespace cgnp
