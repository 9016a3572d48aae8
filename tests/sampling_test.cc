#include "graph/sampling.h"

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <unordered_map>

#include "data/synthetic.h"
#include "graph/algorithms.h"
#include "graph/format.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

TEST(BfsSample, ContainsSeedAndRespectsBudget) {
  Rng rng(1);
  Graph g = testing::CompleteGraph(20);
  const auto nodes = BfsSample(g, 5, 8, &rng);
  EXPECT_EQ(nodes.size(), 8u);
  EXPECT_EQ(nodes.front(), 5);
  std::set<NodeId> uniq(nodes.begin(), nodes.end());
  EXPECT_EQ(uniq.size(), nodes.size());
}

TEST(BfsSample, SampleIsConnected) {
  Rng rng(2);
  SyntheticConfig cfg;
  cfg.num_nodes = 500;
  cfg.num_communities = 5;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  const auto nodes = BfsSample(g, 0, 100, &rng);
  Graph sub = InducedSubgraph(g, nodes);
  // BFS order guarantees each node (after the seed) has an earlier neighbor.
  const auto cc = ConnectedComponents(sub);
  for (NodeId v = 0; v < sub.num_nodes(); ++v) EXPECT_EQ(cc[v], cc[0]);
}

TEST(BfsSample, StopsAtComponentBoundary) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(4, 5);
  Graph g = b.Build();
  Rng rng(3);
  const auto nodes = BfsSample(g, 0, 10, &rng);
  EXPECT_EQ(nodes.size(), 3u);  // component of 0 is {0,1,2}
}

TEST(BfsSample, DifferentRngsGiveDifferentSamples) {
  Rng gen_rng(5);
  SyntheticConfig cfg;
  cfg.num_nodes = 400;
  cfg.num_communities = 4;
  cfg.intra_degree = 12;
  Graph g = GenerateSyntheticGraph(cfg, &gen_rng);
  Rng a(10), b(11);
  const auto na = BfsSample(g, 0, 50, &a);
  const auto nb = BfsSample(g, 0, 50, &b);
  EXPECT_NE(na, nb);  // randomised expansion order
}


// --- BfsSubgraph parity ----------------------------------------------------
//
// References with the plain algorithms task graphs were built with before
// the fused pass: a BFS over a |V|-sized seen array, and an induced
// subgraph through a parent-to-local map and GraphBuilder's edge list.

std::vector<NodeId> ReferenceBfs(const Graph& g, NodeId seed,
                                 int64_t max_nodes, Rng* rng) {
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> out{seed};
  seen[seed] = 1;
  size_t head = 0;
  while (head < out.size() && static_cast<int64_t>(head) < max_nodes) {
    const auto nb = g.Neighbors(out[head++]);
    std::vector<NodeId> nbrs(nb.begin(), nb.end());
    rng->Shuffle(&nbrs);
    for (NodeId u : nbrs) {
      if (!seen[u]) {
        seen[u] = 1;
        out.push_back(u);
      }
    }
  }
  out.resize(head);
  return out;
}

Graph ReferenceInduced(const Graph& g, const std::vector<NodeId>& nodes) {
  std::unordered_map<NodeId, NodeId> local;
  for (size_t i = 0; i < nodes.size(); ++i) local[nodes[i]] = i;
  const auto n = static_cast<int64_t>(nodes.size());
  GraphBuilder b(n);
  for (int64_t i = 0; i < n; ++i) {
    for (NodeId u : g.Neighbors(nodes[i])) {
      if (const auto it = local.find(u); it != local.end()) {
        b.AddEdge(i, it->second);
      }
    }
  }
  if (g.has_features()) {
    const int64_t d = g.feature_dim();
    std::vector<float> feats;
    for (NodeId v : nodes) {
      feats.insert(feats.end(), g.features().begin() + v * d,
                   g.features().begin() + (v + 1) * d);
    }
    b.SetFeatures(d, std::move(feats));
  }
  if (g.has_attributes()) {
    std::vector<std::vector<int32_t>> attrs;
    for (NodeId v : nodes) attrs.push_back(testing::AttrVec(g, v));
    b.SetAttributes(std::move(attrs));
  }
  if (g.has_communities()) {
    std::vector<int64_t> comm;
    for (NodeId v : nodes) comm.push_back(g.CommunityOf(v));
    b.SetCommunities(std::move(comm));
  }
  return b.Build();
}

template <typename T>
std::vector<T> Vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void ExpectSameGraph(const Graph& got, const Graph& want) {
  EXPECT_EQ(got.backing(), GraphBacking::kVector);
  EXPECT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(Vec(got.row_ptr()), Vec(want.row_ptr()));
  EXPECT_EQ(Vec(got.col_idx()), Vec(want.col_idx()));
  EXPECT_EQ(got.feature_dim(), want.feature_dim());
  EXPECT_EQ(Vec(got.features()), Vec(want.features()));
  EXPECT_EQ(Vec(got.attr_ptr()), Vec(want.attr_ptr()));
  EXPECT_EQ(Vec(got.attr_ids()), Vec(want.attr_ids()));
  EXPECT_EQ(Vec(got.communities()), Vec(want.communities()));
}

// Features, attributes and communities, with hubs (power-law degrees) so
// that some tasks reach far more nodes than they keep.
Graph ParityParent() {
  Rng rng(17);
  SyntheticConfig cfg;
  cfg.num_nodes = 3000;
  cfg.num_communities = 15;
  cfg.power_law_degrees = true;
  cfg.attribute_dim = 12;
  cfg.attrs_per_node = 3;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  std::vector<float> feats(g.num_nodes() * 3);
  for (float& f : feats) f = rng.Uniform(-1.0f, 1.0f);
  return std::move(g).WithFeatures(3, std::move(feats));
}

void ExpectParity(const Graph& g) {
  Rng picks(23);
  const int64_t budgets[] = {1, 7, 200, 5000};  // 5000 > |V|: whole component
  for (int i = 0; i < 200; ++i) {
    const NodeId seed = picks.NextInt(g.num_nodes());
    const int64_t max_nodes = budgets[i % 4];
    Rng fused_rng(1000 + i), sample_rng(1000 + i), ref_rng(1000 + i);
    std::vector<NodeId> nodes;
    TaskNodeIndex index;
    const Graph fused =
        BfsSubgraph(g, seed, max_nodes, &fused_rng, &nodes, &index);
    const std::vector<NodeId> sampled =
        BfsSample(g, seed, max_nodes, &sample_rng);
    const std::vector<NodeId> want = ReferenceBfs(g, seed, max_nodes, &ref_rng);
    ASSERT_EQ(nodes, want) << "seed " << seed << ", budget " << max_nodes;
    ASSERT_EQ(sampled, want) << "seed " << seed << ", budget " << max_nodes;
    // The same number of Rng draws.
    const uint64_t next = ref_rng.NextU64();
    EXPECT_EQ(fused_rng.NextU64(), next);
    EXPECT_EQ(sample_rng.NextU64(), next);

    // The handed-out index is the task's parent-id -> position map.
    std::vector<int64_t> position(g.num_nodes(), -1);
    for (size_t k = 0; k < want.size(); ++k) position[want[k]] = k;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(index.Find(v), position[v]) << "node " << v;
    }

    const Graph ref = ReferenceInduced(g, want);
    ExpectSameGraph(fused, ref);
    ExpectSameGraph(InducedSubgraph(g, want), ref);
    std::vector<NodeId> new_of_old;
    ExpectSameGraph(InducedSubgraph(g, want, &new_of_old), ref);
    ASSERT_EQ(static_cast<int64_t>(new_of_old.size()), g.num_nodes());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(new_of_old[want[k]], static_cast<NodeId>(k));
    }
    EXPECT_EQ(std::count(new_of_old.begin(), new_of_old.end(), -1),
              g.num_nodes() - static_cast<int64_t>(want.size()));
  }
}

TEST(BfsSubgraph, MatchesBfsSampleThenInducedSubgraph) {
  ExpectParity(ParityParent());
}

TEST(BfsSubgraph, MatchesOnAMappedParent) {
  const std::string path = ::testing::TempDir() + "bfs_subgraph_parity.cgrf";
  ASSERT_TRUE(SaveGraphBinary(ParityParent(), path).ok());
  auto mapped = MapGraphBinary(path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_EQ(mapped.value().backing(), GraphBacking::kMapped);
  ExpectParity(mapped.value());
}

TEST(BfsSubgraph, StopsAtComponentBoundary) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(4, 5);
  const Graph g = b.Build();
  Rng rng(3);
  std::vector<NodeId> nodes;
  const Graph sub = BfsSubgraph(g, 1, 10, &rng, &nodes);
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes.front(), 1);
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 3);  // the triangle
}

}  // namespace
}  // namespace cgnp
