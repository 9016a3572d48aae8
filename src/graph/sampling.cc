#include "graph/sampling.h"

#include "common/check.h"

namespace cgnp {

namespace {

// BFS from `start`, appending nodes to `out` in visiting order until it
// holds `max_nodes` or the component runs out. `out` doubles as the FIFO
// queue: entries past `head` are discovered but not yet visited, and are
// dropped at the end. Neighbour lists are shuffled in one reused buffer.
void ExpandBfs(const Graph& g, NodeId start, int64_t max_nodes, Rng* rng,
               std::vector<char>* seen, std::vector<NodeId>* out) {
  std::vector<NodeId> nbrs;
  size_t head = out->size();
  (*seen)[start] = 1;
  out->push_back(start);
  while (head < out->size() && static_cast<int64_t>(head) < max_nodes) {
    const auto nb = g.Neighbors((*out)[head++]);
    nbrs.assign(nb.begin(), nb.end());
    rng->Shuffle(&nbrs);
    for (NodeId u : nbrs) {
      if (!(*seen)[u]) {
        (*seen)[u] = 1;
        out->push_back(u);
      }
    }
  }
  out->resize(head);
}

}  // namespace

std::vector<NodeId> BfsSample(const Graph& g, NodeId seed, int64_t max_nodes,
                              Rng* rng) {
  CGNP_CHECK_GE(seed, 0);
  CGNP_CHECK_LT(seed, g.num_nodes());
  CGNP_CHECK_GT(max_nodes, 0);
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> out;
  ExpandBfs(g, seed, max_nodes, rng, &seen, &out);
  return out;
}

std::vector<NodeId> BfsSampleWithRestarts(const Graph& g, NodeId seed,
                                          int64_t max_nodes, Rng* rng) {
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> out;
  NodeId start = seed;
  while (static_cast<int64_t>(out.size()) < max_nodes) {
    if (seen[start]) {
      // Find an unseen restart node; give up when the graph is exhausted.
      NodeId candidate = -1;
      for (int attempts = 0; attempts < 32; ++attempts) {
        const NodeId r = rng->NextInt(g.num_nodes());
        if (!seen[r]) {
          candidate = r;
          break;
        }
      }
      if (candidate == -1) {
        for (NodeId v = 0; v < g.num_nodes() && candidate == -1; ++v) {
          if (!seen[v]) candidate = v;
        }
      }
      if (candidate == -1) break;  // whole graph sampled
      start = candidate;
    }
    ExpandBfs(g, start, max_nodes, rng, &seen, &out);
  }
  return out;
}

}  // namespace cgnp
