#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "serve/context_cache.h"

namespace cgnp {
namespace {

Graph PlantedGraph(uint64_t seed = 1) {
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_nodes = 500;
  cfg.num_communities = 5;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  cfg.attr_affinity = 0.9;
  return GenerateSyntheticGraph(cfg, &rng);
}

CommunitySearchEngine::Options FastOptions() {
  CommunitySearchEngine::Options opt;
  opt.model.encoder = GnnKind::kGcn;
  opt.model.hidden_dim = 16;
  opt.model.num_layers = 2;
  opt.model.epochs = 8;
  opt.model.lr = 5e-3f;
  opt.tasks.subgraph_size = 80;
  opt.tasks.shots = 2;
  opt.tasks.query_set_size = 6;
  opt.num_train_tasks = 10;
  return opt;
}

TEST(Engine, FitThenSearchReturnsQuery) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  EXPECT_FALSE(engine.trained());
  ASSERT_TRUE(engine.Fit(g).ok());
  EXPECT_TRUE(engine.trained());
  const NodeId q = 17;
  const auto members = engine.Search(g, q).value();
  EXPECT_FALSE(members.empty());
  EXPECT_NE(std::find(members.begin(), members.end(), q), members.end());
}

TEST(Engine, SupportObservationsImproveSearch) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());

  const NodeId q = 42;
  const int64_t community = g.CommunityOf(q);
  // Build a labelled support observation from the ground truth.
  QueryExample obs;
  obs.query = q;
  for (NodeId v = 0; v < g.num_nodes() && obs.pos.size() < 5; ++v) {
    if (v != q && g.CommunityOf(v) == community) obs.pos.push_back(v);
  }
  for (NodeId v = 0; v < g.num_nodes() && obs.neg.size() < 10; ++v) {
    if (g.CommunityOf(v) != community) obs.neg.push_back(v);
  }

  auto f1_of = [&](const std::vector<NodeId>& members) {
    int64_t tp = 0, fp = 0, fn = 0;
    std::vector<char> in_set(g.num_nodes(), 0);
    for (NodeId v : members) in_set[v] = 1;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == q) continue;
      const bool is_member = g.CommunityOf(v) == community;
      if (in_set[v] && is_member) ++tp;
      if (in_set[v] && !is_member) ++fp;
      if (!in_set[v] && is_member) ++fn;
    }
    const double p = tp + fp > 0 ? static_cast<double>(tp) /
                                       static_cast<double>(tp + fp)
                                 : 0;
    const double r = tp + fn > 0 ? static_cast<double>(tp) /
                                       static_cast<double>(tp + fn)
                                 : 0;
    return p + r > 0 ? 2 * p * r / (p + r) : 0.0;
  };

  const auto with_support = engine.Search(g, q, {obs}).value();
  EXPECT_GT(f1_of(with_support), 0.1) << "supported search should find most"
                                         " of the planted community";
}

TEST(Engine, ValidationEarlyStoppingPath) {
  Graph g = PlantedGraph(3);
  CommunitySearchEngine::Options opt = FastOptions();
  opt.num_valid_tasks = 4;
  opt.early_stop_patience = 3;
  CommunitySearchEngine engine(opt);
  ASSERT_TRUE(engine.Fit(g).ok());
  EXPECT_TRUE(engine.trained());
  const auto members = engine.Search(g, 11).value();
  EXPECT_FALSE(members.empty());
}

TEST(Engine, SearchOnUnseenGraphSameSchema) {
  // Meta-trained on one graph, queried on a freshly generated one with the
  // same attribute schema (the cross-graph transfer the paper tests).
  Graph train_g = PlantedGraph(1);
  Graph test_g = PlantedGraph(2);
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(train_g).ok());
  const auto members = engine.Search(test_g, 7).value();
  EXPECT_FALSE(members.empty());
}

// --- EngineBuilder ---------------------------------------------------------

TEST(EngineBuilderTest, BuildsValidatedEngineFluently) {
  const CommunitySearchEngine::Options opt = FastOptions();
  auto built = EngineBuilder()
                   .WithModel(opt.model)
                   .WithTasks(opt.tasks)
                   .WithTrainTasks(opt.num_train_tasks)
                   .WithSeed(123)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_FALSE(built->trained());
  EXPECT_EQ(built->options().seed, 123u);
  EXPECT_EQ(built->options().tasks.subgraph_size, opt.tasks.subgraph_size);

  // The built engine trains and answers like a directly constructed one.
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = std::move(built).value();
  ASSERT_TRUE(engine.Fit(g).ok());
  EXPECT_FALSE(engine.Search(g, 5).value().empty());
}

TEST(EngineBuilderTest, RejectsInvalidConfigs) {
  CgnpConfig bad_model;
  bad_model.hidden_dim = 0;
  const auto no_hidden = EngineBuilder().WithModel(bad_model).Build();
  ASSERT_FALSE(no_hidden.ok());
  EXPECT_EQ(no_hidden.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_hidden.status().message().find("hidden_dim"),
            std::string::npos);

  TaskConfig bad_tasks;
  bad_tasks.subgraph_size = -5;
  const auto no_subgraph = EngineBuilder().WithTasks(bad_tasks).Build();
  ASSERT_FALSE(no_subgraph.ok());
  EXPECT_EQ(no_subgraph.status().code(), StatusCode::kInvalidArgument);

  const auto no_tasks = EngineBuilder().WithTrainTasks(0).Build();
  ASSERT_FALSE(no_tasks.ok());
  EXPECT_EQ(no_tasks.status().code(), StatusCode::kInvalidArgument);

  CgnpConfig nan_lr;
  nan_lr.lr = -1.0f;
  const auto bad_lr = EngineBuilder().WithModel(nan_lr).Build();
  ASSERT_FALSE(bad_lr.ok());
  EXPECT_EQ(bad_lr.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, CheckpointRoundTripThroughBuilder) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());
  const std::string path =
      ::testing::TempDir() + "builder_engine.ckpt";
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  auto restored = EngineBuilder().FromCheckpoint(path).Build();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(restored->trained());
  EXPECT_EQ(engine.Search(g, 17).value(), restored->Search(g, 17).value());
  std::remove(path.c_str());

  // FromCheckpoint is exclusive with the config setters: the checkpoint
  // stores the full configuration.
  const auto mixed = EngineBuilder()
                         .WithSeed(1)
                         .FromCheckpoint(path)
                         .Build();
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
}

// --- Error paths: bad public-API input returns Status, never aborts --------

TEST(EngineErrorTest, SearchBeforeFitIsFailedPrecondition) {
  Graph g = PlantedGraph();
  const CommunitySearchEngine engine(FastOptions());
  const auto result = engine.Search(g, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineErrorTest, OutOfRangeQueryIdReturnsStatus) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());

  for (const NodeId bad : {NodeId(-1), g.num_nodes(), NodeId(1 << 30)}) {
    const auto result = engine.Search(g, bad);
    ASSERT_FALSE(result.ok()) << "query " << bad << " was accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(EngineErrorTest, OutOfRangeSupportIdReturnsStatus) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());

  QueryExample obs;
  obs.query = 3;
  obs.pos.push_back(g.num_nodes() + 7);  // malformed external request
  const auto result = engine.Search(g, 3, {obs});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(EngineErrorTest, EmptyGraphReturnsStatus) {
  Graph train_g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(train_g).ok());

  const Graph empty;
  const auto result = engine.Search(empty, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kInvalidArgument ||
              result.status().code() == StatusCode::kOutOfRange)
      << result.status();
}

TEST(EngineErrorTest, BadThresholdReturnsInvalidArgument) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());
  for (const float bad : {-0.5f, 1.5f, std::nanf("")}) {
    const auto result = engine.Search(g, 3, {}, bad);
    ASSERT_FALSE(result.ok()) << "threshold " << bad << " was accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EngineErrorTest, FitWithoutCommunitiesReturnsInvalidArgument) {
  // A structural graph without ground-truth labels cannot be fitted.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  const Graph unlabelled = b.Build();
  CommunitySearchEngine engine(FastOptions());
  const Status status = engine.Fit(unlabelled);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(EngineErrorTest, QueryReportsBackendProbsAndTiming) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());
  const auto result = engine.Query(g, 17);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->backend, "cgnp");
  EXPECT_EQ(result->members.size(), result->probs.size());
  EXPECT_FALSE(result->members.empty());
  EXPECT_GT(result->elapsed_ms, 0.0);
}

// A request answered from the cache slot returns exactly what a cache-less
// Query returns at the same threshold, for every decoder, zero-shot and
// supported, and builds no task and runs no encoder.
TEST(EngineCacheTest, HitMatchesFreshQueryForEveryDecoder) {
  const Graph g = PlantedGraph();
  const NodeId q = 42;
  const int64_t community = g.CommunityOf(q);
  // Two shots: labelled observations around two members of q's community.
  std::vector<QueryExample> two_shot;
  for (NodeId v = 0; v < g.num_nodes() && two_shot.size() < 2; ++v) {
    if (g.CommunityOf(v) != community) continue;
    QueryExample ex;
    ex.query = two_shot.empty() ? q : v;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == ex.query) continue;
      auto& side = g.CommunityOf(u) == community ? ex.pos : ex.neg;
      if (side.size() < 4) side.push_back(u);
    }
    two_shot.push_back(std::move(ex));
  }

  for (DecoderKind decoder : {DecoderKind::kInnerProduct, DecoderKind::kMlp,
                              DecoderKind::kGnn}) {
    CommunitySearchEngine::Options opt = FastOptions();
    opt.model.decoder = decoder;
    opt.model.epochs = 2;
    CommunitySearchEngine engine(opt);
    ASSERT_TRUE(engine.Fit(g).ok());
    // One cache for both support sets: the supported request must not hit
    // the zero-shot entry.
    serve::ContextCache cache(4);
    for (const auto& support : {std::vector<QueryExample>{}, two_shot}) {
      const std::string where =
          "decoder " + std::to_string(static_cast<int>(decoder)) + ", " +
          std::to_string(support.size()) + "-shot";
      QueryOptions cached;
      cached.cache = &cache;
      cached.graph_id = 1;
      const auto fill = engine.Query(g, q, support, cached);
      ASSERT_TRUE(fill.ok()) << fill.status();
      EXPECT_FALSE(fill->cache_hit) << where;

      for (float threshold : {0.0f, 0.3f, 0.5f, 0.9f, 1.0f}) {
        QueryOptions fresh_opt;
        fresh_opt.threshold = threshold;
        const auto fresh = engine.Query(g, q, support, fresh_opt);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        cached.threshold = threshold;
        obs::TraceCollector collector;
        const auto hit = engine.Query(g, q, support, cached);
        const std::vector<obs::StageTiming> stages = collector.Take();
        ASSERT_TRUE(hit.ok()) << hit.status();
        EXPECT_TRUE(hit->cache_hit) << where << ", threshold " << threshold;
        EXPECT_EQ(hit->members, fresh->members)
            << where << ", threshold " << threshold;
        EXPECT_EQ(hit->probs, fresh->probs)  // exact float equality
            << where << ", threshold " << threshold;
        for (const obs::StageTiming& st : stages) {
          if (st.depth != 0) continue;
          EXPECT_NE(st.name, "task_build") << where;
          EXPECT_NE(st.name, "encode") << where;
        }
      }
    }
  }
}

// Bad input returns its Status before the lookup, so a warm cache cannot
// turn it into an answer and the lookup is not counted.
TEST(EngineCacheTest, CacheSlotValidatesBeforeLookup) {
  const Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());
  serve::ContextCache cache(4);
  QueryOptions cached;
  cached.cache = &cache;
  QueryExample bad;
  bad.query = 17;
  bad.pos = {g.num_nodes()};
  for (int round = 0; round < 2; ++round) {
    const auto result = engine.Query(g, 17, {bad}, cached);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  }
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

}  // namespace
}  // namespace cgnp
