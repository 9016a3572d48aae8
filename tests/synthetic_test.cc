#include "data/synthetic.h"

#include <algorithm>
#include <set>

#include "data/profiles.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

TEST(Synthetic, NodeAndCommunityCounts) {
  Rng rng(1);
  SyntheticConfig cfg;
  cfg.num_nodes = 500;
  cfg.num_communities = 8;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  EXPECT_EQ(g.num_nodes(), 500);
  ASSERT_TRUE(g.has_communities());
  EXPECT_EQ(g.num_communities(), 8);
  // Every node labelled, every community non-trivial.
  std::vector<int64_t> count(8, 0);
  for (NodeId v = 0; v < 500; ++v) {
    const int64_t c = g.CommunityOf(v);
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 8);
    ++count[c];
  }
  for (int64_t c = 0; c < 8; ++c) EXPECT_GE(count[c], 2);
}

TEST(Synthetic, IntraDensityExceedsInterDensity) {
  Rng rng(2);
  SyntheticConfig cfg;
  cfg.num_nodes = 600;
  cfg.num_communities = 6;
  cfg.intra_degree = 10;
  cfg.inter_degree = 2;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  int64_t intra = 0, inter = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.Neighbors(v)) {
      if (u < v) continue;
      if (g.CommunityOf(u) == g.CommunityOf(v)) {
        ++intra;
      } else {
        ++inter;
      }
    }
  }
  // Expected ratio ~5x; require at least 2x to be robust to sampling noise.
  EXPECT_GT(intra, 2 * inter);
  // Density per possible pair is far higher within communities: with 6
  // equal communities, within-pairs are ~1/6 of cross-pairs.
  const double n = static_cast<double>(g.num_nodes());
  const double within_pairs = 6 * (n / 6) * (n / 6 - 1) / 2;
  const double cross_pairs = n * (n - 1) / 2 - within_pairs;
  EXPECT_GT(static_cast<double>(intra) / within_pairs,
            5.0 * static_cast<double>(inter) / cross_pairs);
}

TEST(Synthetic, ExpectedDegreeApproximatelyMatches) {
  Rng rng(3);
  SyntheticConfig cfg;
  cfg.num_nodes = 2000;
  cfg.num_communities = 10;
  cfg.intra_degree = 8;
  cfg.inter_degree = 2;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  const double mean_degree = 2.0 * static_cast<double>(g.num_edges()) /
                             static_cast<double>(g.num_nodes());
  // Duplicate proposals get deduplicated, so realised degree is slightly
  // below the 10 requested; accept a broad band.
  EXPECT_GT(mean_degree, 6.0);
  EXPECT_LT(mean_degree, 11.0);
}

TEST(Synthetic, AttributeHomophily) {
  Rng rng(4);
  SyntheticConfig cfg;
  cfg.num_nodes = 400;
  cfg.num_communities = 4;
  cfg.attribute_dim = 40;
  cfg.attrs_per_node = 4;
  cfg.attr_affinity = 0.9;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  ASSERT_TRUE(g.has_attributes());
  // Jaccard similarity of attribute sets: same community >> different.
  auto jaccard = [&](NodeId a, NodeId b) {
    const auto& aa = g.Attributes(a);
    const auto& ab = g.Attributes(b);
    std::vector<int32_t> inter;
    std::set_intersection(aa.begin(), aa.end(), ab.begin(), ab.end(),
                          std::back_inserter(inter));
    const double uni =
        static_cast<double>(aa.size() + ab.size() - inter.size());
    return uni > 0 ? static_cast<double>(inter.size()) / uni : 0.0;
  };
  Rng pick(5);
  double same_sum = 0, diff_sum = 0;
  int64_t same_n = 0, diff_n = 0;
  for (int i = 0; i < 3000; ++i) {
    const NodeId a = pick.NextInt(g.num_nodes());
    const NodeId b = pick.NextInt(g.num_nodes());
    if (a == b) continue;
    if (g.CommunityOf(a) == g.CommunityOf(b)) {
      same_sum += jaccard(a, b);
      ++same_n;
    } else {
      diff_sum += jaccard(a, b);
      ++diff_n;
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(diff_n, 0);
  EXPECT_GT(same_sum / static_cast<double>(same_n),
            2.0 * (diff_sum / static_cast<double>(diff_n)));
}

TEST(Synthetic, PowerLawProducesHubs) {
  Rng rng(6);
  SyntheticConfig flat_cfg;
  flat_cfg.num_nodes = 2000;
  flat_cfg.num_communities = 10;
  flat_cfg.power_law_degrees = false;
  SyntheticConfig pl_cfg = flat_cfg;
  pl_cfg.power_law_degrees = true;
  Graph flat = GenerateSyntheticGraph(flat_cfg, &rng);
  Graph pl = GenerateSyntheticGraph(pl_cfg, &rng);
  auto max_degree = [](const Graph& g) {
    int64_t mx = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) mx = std::max(mx, g.Degree(v));
    return mx;
  };
  EXPECT_GT(max_degree(pl), max_degree(flat));
}

TEST(Synthetic, SkewProducesUnequalCommunitySizes) {
  Rng rng(7);
  SyntheticConfig cfg;
  cfg.num_nodes = 1000;
  cfg.num_communities = 10;
  cfg.community_size_skew = 1.0;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  std::vector<int64_t> count(10, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) ++count[g.CommunityOf(v)];
  const auto [mn, mx] = std::minmax_element(count.begin(), count.end());
  EXPECT_GT(*mx, 3 * *mn);
}

TEST(Synthetic, DeterministicGivenSeed) {
  SyntheticConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_communities = 5;
  cfg.attribute_dim = 20;
  Rng a(99), b(99);
  Graph ga = GenerateSyntheticGraph(cfg, &a);
  Graph gb = GenerateSyntheticGraph(cfg, &b);
  EXPECT_TRUE(std::ranges::equal(ga.col_idx(), gb.col_idx()));
  EXPECT_TRUE(std::ranges::equal(ga.communities(), gb.communities()));
  for (NodeId v = 0; v < ga.num_nodes(); ++v) {
    EXPECT_EQ(testing::AttrVec(ga, v), testing::AttrVec(gb, v));
  }
}

TEST(Profiles, AllSixMatchPaperTableOne) {
  const auto profiles = AllProfiles();
  ASSERT_EQ(profiles.size(), 6u);
  EXPECT_EQ(profiles[0].name, "Cora");
  EXPECT_EQ(profiles[1].name, "Citeseer");
  EXPECT_EQ(profiles[2].name, "Arxiv");
  EXPECT_EQ(profiles[3].name, "Reddit");
  EXPECT_EQ(profiles[4].name, "DBLP");
  EXPECT_EQ(profiles[5].name, "Facebook");
  // Attribute presence mirrors Table I.
  EXPECT_GT(profiles[0].graph_configs[0].attribute_dim, 0);
  EXPECT_GT(profiles[1].graph_configs[0].attribute_dim, 0);
  EXPECT_EQ(profiles[2].graph_configs[0].attribute_dim, 0);
  EXPECT_EQ(profiles[3].graph_configs[0].attribute_dim, 0);
  EXPECT_EQ(profiles[4].graph_configs[0].attribute_dim, 0);
  EXPECT_GT(profiles[5].graph_configs[0].attribute_dim, 0);
  // Facebook is the multi-graph dataset with ten ego networks.
  EXPECT_EQ(profiles[5].graph_configs.size(), 10u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(profiles[i].graph_configs.size(), 1u) << profiles[i].name;
  }
}

TEST(Profiles, MakeDatasetGeneratesAllGraphs) {
  Rng rng(11);
  const auto graphs = MakeDataset(FacebookProfile(), &rng);
  ASSERT_EQ(graphs.size(), 10u);
  for (const auto& g : graphs) {
    EXPECT_GT(g.num_nodes(), 0);
    EXPECT_TRUE(g.has_communities());
    EXPECT_TRUE(g.has_attributes());
  }
}

TEST(Profiles, RedditIsDensestPerNode) {
  Rng rng(12);
  // Compare realised density of (scaled) Reddit vs Citeseer.
  Graph reddit = MakeDataset(RedditProfile(), &rng)[0];
  Graph citeseer = MakeDataset(CiteseerProfile(), &rng)[0];
  const double reddit_deg = 2.0 * static_cast<double>(reddit.num_edges()) /
                            static_cast<double>(reddit.num_nodes());
  const double citeseer_deg =
      2.0 * static_cast<double>(citeseer.num_edges()) /
      static_cast<double>(citeseer.num_nodes());
  EXPECT_GT(reddit_deg, 5.0 * citeseer_deg);
}

}  // namespace
}  // namespace cgnp
