#include "graph/graph.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

TEST(GraphBuilder, DedupesAndDropsSelfLoops) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate in reverse
  b.AddEdge(0, 1);  // duplicate
  b.AddEdge(2, 2);  // self loop
  b.AddEdge(2, 3);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(2), 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(GraphBuilder, DuplicatesCollapseAtAnyMultiplicityAndOrientation) {
  // The class contract: duplicates -- same pair added any number of
  // times, in either orientation -- collapse to ONE undirected edge, and
  // self loops vanish silently, whatever they are mixed with.
  GraphBuilder b(3);
  for (int i = 0; i < 10; ++i) b.AddEdge(0, 1);
  for (int i = 0; i < 7; ++i) b.AddEdge(1, 0);
  b.AddEdge(2, 1);
  b.AddEdge(1, 2);
  for (int i = 0; i < 5; ++i) b.AddEdge(1, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(std::ranges::equal(g.row_ptr(),
                                 std::vector<int64_t>{0, 1, 3, 4}));
  EXPECT_TRUE(std::ranges::equal(g.col_idx(),
                                 std::vector<NodeId>{1, 0, 2, 1}));
}

TEST(GraphBuilder, SelfLoopOnlyNodeEndsUpIsolated) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(2, 2);  // node 2's only "edge" is a self loop
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.Degree(2), 0);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(GraphBuilder, BuildsVectorBackedGraphWithoutStorageIdentity) {
  Graph g = testing::TwoCliqueGraph();
  EXPECT_EQ(g.backing(), GraphBacking::kVector);
  // Only graphs loaded from a binary container carry a fingerprint.
  EXPECT_EQ(g.storage_fingerprint(), 0u);
}

TEST(GraphBuilder, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.AddEdge(2, 4);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  b.AddEdge(2, 1);
  Graph g = b.Build();
  auto nb = g.Neighbors(2);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
}

TEST(Graph, CsrBothDirectionsConsistent) {
  Graph g = testing::TwoCliqueGraph();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.Neighbors(v)) {
      EXPECT_TRUE(g.HasEdge(u, v)) << u << "-" << v;
    }
  }
}

TEST(Graph, FeaturesRoundTrip) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.SetFeatures(2, {1, 2, 3, 4, 5, 6});
  Graph g = b.Build();
  ASSERT_TRUE(g.has_features());
  EXPECT_EQ(g.feature_dim(), 2);
  Tensor f = g.FeatureTensor();
  EXPECT_EQ(f.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(f.At(2, 1), 6);
}

TEST(Graph, AttributesSortedOnBuild) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.SetAttributes({{5, 1, 3}, {}});
  Graph g = b.Build();
  ASSERT_TRUE(g.has_attributes());
  EXPECT_EQ(testing::AttrVec(g, 0), (std::vector<int32_t>{1, 3, 5}));
  EXPECT_TRUE(g.Attributes(1).empty());
}

TEST(Graph, CommunityAccessors) {
  Graph g = testing::TwoCliqueGraph();
  ASSERT_TRUE(g.has_communities());
  EXPECT_EQ(g.num_communities(), 2);
  EXPECT_EQ(g.CommunityOf(0), 0);
  EXPECT_EQ(g.CommunityOf(7), 1);
  EXPECT_EQ(g.CommunityMembers(0), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  Graph g = testing::TwoCliqueGraph();
  std::vector<NodeId> map;
  Graph sub = InducedSubgraph(g, {2, 3, 4}, &map);
  EXPECT_EQ(sub.num_nodes(), 3);
  // Edges among {2,3,4}: (2,3) and (3,4).
  EXPECT_EQ(sub.num_edges(), 2);
  EXPECT_EQ(map[2], 0);
  EXPECT_EQ(map[3], 1);
  EXPECT_EQ(map[4], 2);
  EXPECT_EQ(map[0], -1);
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_TRUE(sub.HasEdge(1, 2));
  EXPECT_FALSE(sub.HasEdge(0, 2));
}

TEST(InducedSubgraph, CarriesMetadata) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.SetFeatures(1, {10, 11, 12, 13});
  b.SetAttributes({{1}, {2}, {3}, {4}});
  b.SetCommunities({0, 0, 1, 1});
  Graph g = b.Build();
  Graph sub = InducedSubgraph(g, {3, 1});
  EXPECT_EQ(sub.num_nodes(), 2);
  EXPECT_EQ(sub.num_edges(), 0);
  EXPECT_FLOAT_EQ(sub.features()[0], 13);
  EXPECT_FLOAT_EQ(sub.features()[1], 11);
  EXPECT_EQ(testing::AttrVec(sub, 0), (std::vector<int32_t>{4}));
  EXPECT_EQ(sub.CommunityOf(0), 1);
  EXPECT_EQ(sub.CommunityOf(1), 0);
}

TEST(InducedSubgraph, WholeGraphIsIdentity) {
  Graph g = testing::TwoCliqueGraph();
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  Graph sub = InducedSubgraph(g, all);
  EXPECT_EQ(sub.num_nodes(), g.num_nodes());
  EXPECT_EQ(sub.num_edges(), g.num_edges());
}

}  // namespace
}  // namespace cgnp
