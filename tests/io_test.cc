#include "data/io.h"

#include <cstdio>
#include <fstream>

#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : cleanup_) std::remove(p.c_str());
  }
  std::string TempPath(const std::string& name) {
    std::string p = ::testing::TempDir() + "/cgnp_io_" + name;
    cleanup_.push_back(p);
    return p;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  Rng rng(1);
  SyntheticConfig cfg;
  cfg.num_nodes = 120;
  cfg.num_communities = 4;
  cfg.attribute_dim = 12;
  Graph g = GenerateSyntheticGraph(cfg, &rng);

  const std::string edges = TempPath("edges.txt");
  const std::string comms = TempPath("comms.txt");
  const std::string attrs = TempPath("attrs.txt");
  ASSERT_TRUE(SaveGraphToFiles(g, edges, comms, attrs).ok());
  auto loaded = LoadGraphFromFiles(edges, comms, attrs);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Graph h = std::move(loaded).value();

  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  // The loader interns ids in first-seen file order; reconstruct that
  // mapping (save emits edges v<u in increasing v order).
  std::vector<NodeId> new_of_old(g.num_nodes(), -1);
  NodeId next = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.Neighbors(v)) {
      if (u <= v) continue;
      if (new_of_old[v] == -1) new_of_old[v] = next++;
      if (new_of_old[u] == -1) new_of_old[u] = next++;
    }
  }
  ASSERT_EQ(next, g.num_nodes()) << "generator produced isolated nodes";
  // Edge sets identical under the mapping.
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    for (NodeId u : g.Neighbors(v)) {
      EXPECT_TRUE(h.HasEdge(new_of_old[v], new_of_old[u]));
    }
  }
  ASSERT_TRUE(h.has_communities());
  // Community partitions match up to renumbering: same co-membership.
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.CommunityOf(v) == g.CommunityOf(0),
              h.CommunityOf(new_of_old[v]) == h.CommunityOf(new_of_old[0]));
  }
  ASSERT_TRUE(h.has_attributes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(testing::AttrVec(h, new_of_old[v]), testing::AttrVec(g, v));
  }
}

TEST_F(IoTest, CommentsAndBlankLinesIgnored) {
  const std::string path = TempPath("commented.txt");
  {
    std::ofstream out(path);
    out << "# a comment\n\n0 1\n1 2\n# trailing\n";
  }
  auto loaded = LoadGraphFromFiles(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Graph& g = *loaded;
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST_F(IoTest, NonContiguousIdsCompacted) {
  const std::string path = TempPath("sparseids.txt");
  {
    std::ofstream out(path);
    out << "1000 2000\n2000 500000\n";
  }
  auto loaded = LoadGraphFromFiles(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Graph& g = *loaded;
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));  // 1000-2000
  EXPECT_TRUE(g.HasEdge(1, 2));  // 2000-500000
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST_F(IoTest, SnapStyleCommunityFile) {
  const std::string edges = TempPath("snap_edges.txt");
  const std::string comms = TempPath("snap_comms.txt");
  {
    std::ofstream out(edges);
    out << "0 1\n1 2\n2 3\n3 4\n";
  }
  {
    std::ofstream out(comms);
    out << "0 1 2\n3 4\n";
  }
  auto loaded = LoadGraphFromFiles(edges, comms);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Graph& g = *loaded;
  ASSERT_TRUE(g.has_communities());
  EXPECT_EQ(g.CommunityOf(0), g.CommunityOf(1));
  EXPECT_EQ(g.CommunityOf(0), g.CommunityOf(2));
  EXPECT_EQ(g.CommunityOf(3), g.CommunityOf(4));
  EXPECT_NE(g.CommunityOf(0), g.CommunityOf(3));
}

TEST_F(IoTest, MissingEdgeFileReturnsNotFound) {
  const auto loaded = LoadGraphFromFiles("/nonexistent/cgnp_edges.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(IoTest, MalformedEdgeLineReturnsDataLoss) {
  const std::string path = TempPath("malformed.txt");
  {
    std::ofstream out(path);
    out << "0 1\nnot an edge\n";
  }
  const auto loaded = LoadGraphFromFiles(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace cgnp
