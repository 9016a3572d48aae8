// Subgraph sampling used by the task generators (Section VII-A of the
// paper: "one task is generated by sampling a subgraph of 200 nodes by BFS").
//
// Every task graph -- training tasks (SampleTask) and query tasks
// (BuildQueryTask) -- is built by BfsSubgraph in one pass. Its cost grows
// with the task, not with the parent graph: the nodes found so far live in
// a TaskNodeIndex sized from the task, and no |V|-sized buffer is
// allocated or cleared.
#ifndef CGNP_GRAPH_SAMPLING_H_
#define CGNP_GRAPH_SAMPLING_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "tensor/rng.h"

namespace cgnp {

// Map from parent node id to task position, holding only the nodes a task
// has found. Linear probing over a power-of-two table that is kept at most
// half full: it starts from the expected task size and doubles with what it
// holds, so its size never depends on |V|. The BFS behind BfsSample and
// BfsSubgraph keeps its visited set here, and BfsSubgraph can hand it out
// as the task's one parent-to-local lookup.
class TaskNodeIndex {
 public:
  explicit TaskNodeIndex(int64_t expected = 0) {
    size_t cap = 16;
    while (cap < 2 * static_cast<size_t>(expected)) cap <<= 1;
    Resize(cap);
  }

  // Task position of v, or -1 when v is not a task node.
  int64_t Find(NodeId v) const {
    for (size_t i = Home(v);; i = (i + 1) & mask_) {
      if (slots_[i].node == v) return slots_[i].pos;
      if (slots_[i].node < 0) return -1;
    }
  }

  // Records v (absent) at task position `pos`.
  void Insert(NodeId v, int64_t pos) {
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<Slot> old = std::move(slots_);
      Resize(2 * old.size());
      for (const Slot& s : old) {
        if (s.node >= 0) Place(s);
      }
    }
    Place({v, pos});
    ++size_;
  }

 private:
  struct Slot {
    NodeId node = -1;  // -1: empty
    int64_t pos = -1;
  };

  void Resize(size_t cap) {
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
  }
  // Fibonacci hashing: node ids are often dense runs, which the
  // multiplication spreads over the table.
  size_t Home(NodeId v) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void Place(const Slot& s) {
    size_t i = Home(s.node);
    while (slots_[i].node >= 0) i = (i + 1) & mask_;
    slots_[i] = s;
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
  size_t size_ = 0;
};

// Breadth-first sample of up to `max_nodes` nodes starting from `seed`.
// Neighbor expansion order is randomised via `rng` so repeated calls from
// the same seed produce different (overlapping) subgraphs. The returned
// node ids are in visitation order; the result always contains `seed`.
// Draws one Rng::Shuffle per visited node; memory is O(result).
std::vector<NodeId> BfsSample(const Graph& g, NodeId seed, int64_t max_nodes,
                              Rng* rng);

// BfsSample and InducedSubgraph in one pass: `*nodes` receives exactly what
// BfsSample(g, seed, max_nodes, rng) returns (with the same Rng draws), and
// the result is bitwise the graph InducedSubgraph(g, *nodes) returns --
// canonical CSR, features, attributes and communities -- without a
// |V|-sized map or the GraphBuilder edge-list pass. Each visited node's
// row is recorded from its own parent row while it is expanded, so `g`
// must be symmetric (u in v's row exactly when v is in u's), as every
// GraphBuilder graph and every validated graph container is. When `index`
// is non-null it receives the task's parent-id -> position map. Always
// vector-backed.
Graph BfsSubgraph(const Graph& g, NodeId seed, int64_t max_nodes, Rng* rng,
                  std::vector<NodeId>* nodes, TaskNodeIndex* index = nullptr);

}  // namespace cgnp

#endif  // CGNP_GRAPH_SAMPLING_H_
