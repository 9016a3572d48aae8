#include "serve/query_server.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/check.h"
#include "common/thread_pool.h"
#include "cs/kcore_community.h"
#include "cs/ktruss_community.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/context_cache.h"

namespace cgnp {
namespace {

using serve::ContextCache;
using serve::QueryServer;
using serve::SearchRequest;
using serve::SearchResponse;
using serve::ServeOptions;
using serve::TaskFingerprint;

// All construction goes through the validating Create(); the helper keeps
// each test at one line. Tests that need a failure path call Create()
// directly and inspect the Status.
std::unique_ptr<QueryServer> MakeServer(const CommunitySearchEngine& engine,
                                        int num_threads,
                                        int64_t cache_capacity = 256) {
  ServeOptions opt;
  opt.num_threads = num_threads;
  opt.cache_capacity = cache_capacity;
  return QueryServer::Create(&engine, opt).value();
}

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

CommunitySearchEngine TrainedEngine(const Graph& g) {
  CommunitySearchEngine::Options opt;
  opt.model.encoder = GnnKind::kGcn;
  opt.model.hidden_dim = 16;
  opt.model.num_layers = 2;
  opt.model.epochs = 4;
  opt.model.lr = 5e-3f;
  opt.tasks.subgraph_size = 80;
  opt.tasks.shots = 2;
  opt.tasks.query_set_size = 6;
  opt.num_train_tasks = 6;
  CommunitySearchEngine engine(opt);
  CGNP_CHECK(engine.Fit(g).ok());
  return engine;
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(counter.load(), 100);
}

TEST(ContextCacheTest, LruEvictionAndCounters) {
  ContextCache cache(2);
  const ContextCache::Key a{1, 10}, b{1, 20}, c{1, 30};
  Tensor out;
  EXPECT_FALSE(cache.Get(a, &out));
  cache.Put(a, Tensor::Full({2}, 1.0f));
  cache.Put(b, Tensor::Full({2}, 2.0f));
  ASSERT_TRUE(cache.Get(a, &out));  // promotes a over b
  EXPECT_EQ(out.At(0), 1.0f);
  cache.Put(c, Tensor::Full({2}, 3.0f));  // evicts b (LRU)
  EXPECT_FALSE(cache.Get(b, &out));
  EXPECT_TRUE(cache.Get(a, &out));
  EXPECT_TRUE(cache.Get(c, &out));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ContextCacheTest, ZeroCapacityDisablesCaching) {
  ContextCache cache(0);
  cache.Put({1, 10}, Tensor::Full({2}, 1.0f));
  Tensor out;
  EXPECT_FALSE(cache.Get({1, 10}, &out));
  EXPECT_EQ(cache.size(), 0);
}

TEST(ContextCacheTest, GraphIdNamespacesEntries) {
  ContextCache cache(4);
  cache.Put({1, 10}, Tensor::Full({2}, 1.0f));
  Tensor out;
  EXPECT_FALSE(cache.Get({2, 10}, &out)) << "same fingerprint, other graph";
  EXPECT_TRUE(cache.Get({1, 10}, &out));
}

TEST(ContextCacheTest, ConcurrentMissesOnOneKeyCostOneMiss) {
  ContextCache cache(4);
  const ContextCache::Key key{1, 10};
  constexpr int kThreads = 8;
  std::barrier start(kThreads);
  std::atomic<int> misses{0};
  std::vector<std::shared_ptr<const serve::MemberScores>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      ContextCache::Claim claim;
      if (cache.Get(key, &seen[t], &claim)) return;
      ++misses;
      // A slow miss: every other thread looks the key up meanwhile.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cache.Put(std::move(claim), serve::MemberScores{{3, 4}, {0.5f, 0.25f}});
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(misses.load(), 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
  int hits_with_scores = 0;
  for (const auto& scores : seen) {
    if (scores == nullptr) continue;
    ++hits_with_scores;
    EXPECT_EQ(scores->nodes, (std::vector<NodeId>{3, 4}));
  }
  EXPECT_EQ(hits_with_scores, kThreads - 1);
}

TEST(ContextCacheTest, DroppedClaimHandsTheMissToAWaiter) {
  ContextCache cache(4);
  const ContextCache::Key key{1, 10};
  std::shared_ptr<const serve::MemberScores> out;
  auto failed = std::make_unique<ContextCache::Claim>();
  ASSERT_FALSE(cache.Get(key, &out, failed.get()));
  std::atomic<bool> waiter_missed{false};
  std::thread waiter([&] {
    ContextCache::Claim claim;
    std::shared_ptr<const serve::MemberScores> mine;
    if (cache.Get(key, &mine, &claim)) return;
    waiter_missed = true;
    cache.Put(std::move(claim), serve::MemberScores{{7}, {1.0f}});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  failed.reset();  // the first miss fails without a Put
  waiter.join();
  EXPECT_TRUE(waiter_missed.load());
  EXPECT_EQ(cache.misses(), 2u);
  ContextCache::Claim unused;
  ASSERT_TRUE(cache.Get(key, &out, &unused));
  EXPECT_EQ(out->nodes, std::vector<NodeId>{7});
}

TEST(ContextCacheTest, FailedMissReleasesEveryWaiterAtOnce) {
  // Eight concurrent requests for a key whose miss always fails: the first
  // owns the flight, seven wait for it. When it fails, all seven must miss
  // at once and run their own (failing) misses side by side -- none waits
  // for another. Each waiter holds its claim until all seven hold theirs,
  // which never happens if their misses run one after another.
  ContextCache cache(4);
  const ContextCache::Key key{1, 10};
  constexpr int kWaiters = 7;
  std::shared_ptr<const serve::MemberScores> out;
  auto first = std::make_unique<ContextCache::Claim>();
  ASSERT_FALSE(cache.Get(key, &out, first.get()));
  std::mutex mu;
  std::condition_variable cv;
  int holding = 0;
  bool gave_up = false;  // one waiter timed out: stop the rest waiting
  std::atomic<int> side_by_side{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      ContextCache::Claim claim;
      std::shared_ptr<const serve::MemberScores> mine;
      if (cache.Get(key, &mine, &claim)) return;
      std::unique_lock<std::mutex> lock(mu);
      ++holding;
      cv.notify_all();
      if (cv.wait_for(lock, std::chrono::seconds(5),
                      [&] { return holding == kWaiters || gave_up; }) &&
          !gave_up) {
        ++side_by_side;
      } else {
        gave_up = true;
        cv.notify_all();
      }
      // The claim drops here unfilled: this miss failed too.
    });
  }
  while (cache.waiting() < kWaiters) std::this_thread::yield();
  first.reset();  // the first miss fails without a Put
  for (auto& th : waiters) th.join();
  EXPECT_EQ(side_by_side.load(), kWaiters);
  EXPECT_EQ(cache.misses(), static_cast<uint64_t>(kWaiters + 1));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.waiting(), 0);
  // No flight is left behind: the next lookup owns a fresh one at once.
  ContextCache::Claim next;
  EXPECT_FALSE(cache.Get(key, &out, &next));
  cache.Put(std::move(next), serve::MemberScores{{2}, {0.5f}});
  ContextCache::Claim unused;
  ASSERT_TRUE(cache.Get(key, &out, &unused));
  EXPECT_EQ(out->nodes, std::vector<NodeId>{2});
}

TEST(ContextCacheTest, TaskFingerprintSeparatesTasks) {
  Graph g = PlantedGraph();
  int32_t max_attr = -1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int32_t a : g.Attributes(v)) max_attr = std::max(max_attr, a);
  }
  const int64_t attr_dim = max_attr + 1;
  TaskConfig tasks;
  tasks.subgraph_size = 60;
  const LocalQueryTask t1 =
      BuildQueryTask(g, 3, {}, tasks, attr_dim, 7).value();
  const LocalQueryTask t1_again =
      BuildQueryTask(g, 3, {}, tasks, attr_dim, 7).value();
  const LocalQueryTask t2 =
      BuildQueryTask(g, 4, {}, tasks, attr_dim, 7).value();
  EXPECT_EQ(TaskFingerprint(t1), TaskFingerprint(t1_again));
  EXPECT_NE(TaskFingerprint(t1), TaskFingerprint(t2));

  // A support observation with extra positives changes the conditioning,
  // so it must change the fingerprint even over the identical subgraph.
  QueryExample obs;
  obs.query = 3;
  obs.pos = t1.nodes.size() > 1 ? std::vector<NodeId>{t1.nodes[1]}
                                : std::vector<NodeId>{};
  const LocalQueryTask t1_supported =
      BuildQueryTask(g, 3, {obs}, tasks, attr_dim, 7).value();
  EXPECT_EQ(t1.nodes, t1_supported.nodes);
  EXPECT_NE(TaskFingerprint(t1), TaskFingerprint(t1_supported));
}

TEST(ContextCacheTest, OutOfRangeSupportIdReturnsStatus) {
  Graph g = PlantedGraph();
  int32_t max_attr = -1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int32_t a : g.Attributes(v)) max_attr = std::max(max_attr, a);
  }
  TaskConfig tasks;
  tasks.subgraph_size = 60;
  QueryExample obs;
  obs.query = g.num_nodes() + 5;  // malformed external request
  const auto task = BuildQueryTask(g, 3, {obs}, tasks, max_attr + 1, 7);
  ASSERT_FALSE(task.ok());
  EXPECT_EQ(task.status().code(), StatusCode::kOutOfRange);
}

TEST(QueryServerTest, CachedContextIdenticalToFresh) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 2, 16);
  QueryServer& server = *server_ptr;

  SearchRequest req;
  req.graph = &g;
  req.graph_id = 1;
  req.query = 17;
  const SearchResponse fresh = server.Serve(req);
  ASSERT_TRUE(fresh.status.ok()) << fresh.status;
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.backend, "cgnp");
  EXPECT_EQ(fresh.threshold, req.threshold);
  const SearchResponse cached = server.Serve(req);
  ASSERT_TRUE(cached.status.ok()) << cached.status;
  EXPECT_TRUE(cached.cache_hit);

  // Cached vs freshly encoded context must produce identical predictions.
  ASSERT_EQ(fresh.members, cached.members);
  ASSERT_EQ(fresh.probs.size(), cached.probs.size());
  for (size_t i = 0; i < fresh.probs.size(); ++i) {
    EXPECT_EQ(fresh.probs[i], cached.probs[i]);  // bitwise
  }
}

TEST(QueryServerTest, MatchesSingleThreadedEngineSearch) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 4);
  QueryServer& server = *server_ptr;

  std::vector<SearchRequest> batch;
  for (NodeId q = 0; q < 40; ++q) {
    SearchRequest req;
    req.graph = &g;
    req.graph_id = 1;
    req.query = q;
    batch.push_back(req);
  }
  const auto responses = server.ServeBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status;
    EXPECT_EQ(responses[i].members, engine.Search(g, batch[i].query).value())
        << "multi-threaded serving diverged from Search on query "
        << batch[i].query;
  }
}

TEST(QueryServerTest, SupportedQueriesMatchEngineSearch) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 2);
  QueryServer& server = *server_ptr;

  const NodeId q = 42;
  QueryExample obs;
  obs.query = q;
  const int64_t community = g.CommunityOf(q);
  for (NodeId v = 0; v < g.num_nodes() && obs.pos.size() < 5; ++v) {
    if (v != q && g.CommunityOf(v) == community) obs.pos.push_back(v);
  }
  SearchRequest req;
  req.graph = &g;
  req.query = q;
  req.support = {obs};
  EXPECT_EQ(server.Serve(req).members, engine.Search(g, q, {obs}).value());
}

TEST(QueryServerTest, StatsTrackRequestsAndCacheHits) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 4, 64);
  QueryServer& server = *server_ptr;

  // 3 distinct queries, each asked 4 times: 3 misses, 9 hits.
  std::vector<SearchRequest> batch;
  for (int rep = 0; rep < 4; ++rep) {
    for (NodeId q : {NodeId(5), NodeId(6), NodeId(7)}) {
      SearchRequest req;
      req.graph = &g;
      req.graph_id = 1;
      req.query = q;
      batch.push_back(req);
    }
  }
  const auto responses = server.ServeBatch(batch);
  // Identical requests must agree regardless of which thread / cache state
  // served them.
  for (size_t i = 3; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].members, responses[i % 3].members);
  }

  const auto stats = server.Stats();
  EXPECT_EQ(stats.requests, batch.size());
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, batch.size());
  // Concurrent first-time requests for one key wait for its single miss
  // (ContextCache::Claim), so this is 9; ConcurrentRequestsForOneColdKey
  // checks the exact count.
  EXPECT_GE(stats.cache_hits, 6u);
  // Every cgnp request consults the cache, so the hit-rate denominator is
  // the full batch here.
  EXPECT_EQ(stats.cache_eligible, batch.size());
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate,
                   static_cast<double>(stats.cache_hits) /
                       static_cast<double>(stats.cache_eligible));
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.p50_ms, 0.0);
  EXPECT_GE(stats.p99_ms, stats.p50_ms);
  EXPECT_GE(stats.max_ms, stats.p99_ms);
  EXPECT_GT(stats.min_ms, 0.0);
  EXPECT_LE(stats.min_ms, stats.p50_ms);

  server.ResetStats();
  EXPECT_EQ(server.Stats().requests, 0u);
  EXPECT_DOUBLE_EQ(server.Stats().min_ms, 0.0);
}

// The cgnp backend with a gate: while `gate` is set, every request waits
// at it until one request runs on each worker, so a batch of exactly
// num_threads requests puts one on every worker.
struct WorkerGate {
  const CommunitySearchEngine* engine = nullptr;
  std::unique_ptr<std::barrier<>> gate;  // null: requests pass straight on
};

WorkerGate& TheWorkerGate() {
  static WorkerGate gate;
  return gate;
}

class GatedCgnpSearcher : public CommunitySearcher {
 public:
  const std::string& name() const override {
    static const std::string kName = "cgnp-gated-test";
    return kName;
  }
  StatusOr<QueryResult> Search(const Graph& g, NodeId query,
                               const std::vector<QueryExample>& labelled,
                               const QueryOptions& options) const override {
    WorkerGate& w = TheWorkerGate();
    if (w.gate != nullptr) w.gate->arrive_and_wait();
    return w.engine->Query(g, query, labelled, options);
  }
};

TEST(QueryServerTest, ConcurrentRequestsForOneColdKeyMissOnce) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server = MakeServer(engine, 4, 64);
  SearchRequest req;
  req.graph = &g;
  req.graph_id = 1;
  req.query = 9;
  const std::vector<SearchRequest> batch(8, req);
  const auto responses = server->ServeBatch(batch);
  for (const auto& r : responses) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.members, responses.front().members);
  }
  const auto stats = server->Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, batch.size() - 1);
}

TEST(QueryServerTest, WarmServingAllocatesNoNewWorkspaceBytes) {
  // The zero-steady-state-allocation contract (docs/KERNELS.md): every
  // per-query tensor allocation comes from the per-thread workspace arena,
  // and arenas retain their blocks across queries -- so once every worker
  // has served the workload once, repeating it reserves no new memory.
  // cgnp_workspace_bytes sums live arena reservations process-wide and
  // cgnp_workspace_hwm is the per-query usage high water; both must be
  // flat across warm rounds at any thread count. The cache is off, so
  // every request runs the model and uses its worker's arena (a cache hit
  // touches no arena).
  obs::Gauge& bytes =
      obs::MetricsRegistry::Default().GetGauge("cgnp_workspace_bytes");
  obs::Gauge& hwm =
      obs::MetricsRegistry::Default().GetGauge("cgnp_workspace_hwm");
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  static const bool registered =
      RegisterSearcherFactory(
          "cgnp-gated-test",
          [](const SearcherConfig&)
              -> StatusOr<std::unique_ptr<CommunitySearcher>> {
            return std::unique_ptr<CommunitySearcher>(new GatedCgnpSearcher());
          })
          .ok();
  ASSERT_TRUE(registered);
  WorkerGate& w = TheWorkerGate();
  w.engine = &engine;

  for (int threads : {1, 2, 8}) {
    ServeOptions opt;
    opt.backend = "cgnp-gated-test";
    opt.num_threads = threads;
    opt.cache_capacity = 0;
    auto server_or = QueryServer::Create(nullptr, opt);
    ASSERT_TRUE(server_or.ok()) << server_or.status();
    QueryServer& server = **server_or;
    std::vector<SearchRequest> batch;
    for (NodeId q = 0; q < NodeId(4 * threads); ++q) {
      SearchRequest req;
      req.graph = &g;
      req.graph_id = 1;
      req.query = q;
      batch.push_back(req);
    }
    // Warm deterministically: every worker serves every request once, one
    // gated batch of `threads` copies per request.
    w.gate = std::make_unique<std::barrier<>>(threads);
    for (const SearchRequest& req : batch) {
      for (const SearchResponse& r :
           server.ServeBatch(std::vector<SearchRequest>(threads, req))) {
        ASSERT_TRUE(r.status.ok()) << r.status;
      }
    }
    w.gate.reset();
    const double warm_bytes = bytes.Value();
    const double warm_hwm = hwm.Value();

    // Steady state: the same workload, repeated, allocates zero new bytes.
    for (int round = 0; round < 5; ++round) {
      for (const SearchResponse& r : server.ServeBatch(batch)) {
        ASSERT_TRUE(r.status.ok()) << r.status;
      }
      EXPECT_EQ(bytes.Value(), warm_bytes)
          << threads << " threads, warm round " << round;
      EXPECT_EQ(hwm.Value(), warm_hwm)
          << threads << " threads, warm round " << round;
    }
  }  // server destruction joins the pool; dying arenas decrement the gauge
  w.engine = nullptr;
}

// --- Backend selection by registry name ------------------------------------

TEST(QueryServerBackendTest, UnknownBackendNameReturnsNotFound) {
  serve::ServeOptions opt;
  opt.backend = "definitely-not-a-backend";
  const auto server = QueryServer::Create(nullptr, opt);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kNotFound);
  EXPECT_NE(server.status().message().find("kcore"), std::string::npos)
      << "error should list the registered backends: " << server.status();
}

TEST(QueryServerBackendTest, CgnpBackendNeedsAnEngine) {
  serve::ServeOptions opt;
  opt.backend = "cgnp";
  const auto server = QueryServer::Create(nullptr, opt);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryServerBackendTest, ClassicalBackendsMatchDirectCalls) {
  Graph g = PlantedGraph();
  for (const char* name : {"kcore", "ktruss"}) {
    serve::ServeOptions opt;
    opt.backend = name;
    opt.num_threads = 2;
    auto server = QueryServer::Create(nullptr, opt);
    ASSERT_TRUE(server.ok()) << server.status();
    EXPECT_EQ((*server)->backend_name(), name);

    SearchRequest req;
    req.graph = &g;
    req.query = 17;
    const SearchResponse resp = (*server)->Serve(req);
    ASSERT_TRUE(resp.status.ok()) << resp.status;
    EXPECT_EQ(resp.backend, name);
    const std::vector<NodeId> direct = std::string(name) == "kcore"
                                           ? KCoreCommunity(g, 17)
                                           : KTrussCommunity(g, 17);
    EXPECT_EQ(resp.members, direct)
        << name << " served through the registry diverged from the direct "
        << "src/cs/ call";
    EXPECT_TRUE(resp.probs.empty()) << "classical membership is crisp";
  }
}

TEST(QueryServerBackendTest, CgnpViaCreateMatchesEngineSearch) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  const QueryResult direct = engine.Query(g, 23).value();
  const std::string ckpt = ::testing::TempDir() + "serve_cgnp_engine.ckpt";
  ASSERT_TRUE(engine.SaveCheckpoint(ckpt).ok());

  // The caller's engine, then no engine: the registry restores the
  // checkpoint. Both serve through engine.Query plus the server's cache.
  for (bool from_checkpoint : {false, true}) {
    serve::ServeOptions opt;
    opt.backend = "cgnp";
    opt.num_threads = 2;
    if (from_checkpoint) opt.searcher.checkpoint = ckpt;
    auto server =
        QueryServer::Create(from_checkpoint ? nullptr : &engine, opt);
    ASSERT_TRUE(server.ok()) << server.status();

    SearchRequest req;
    req.graph = &g;
    req.graph_id = 1;
    req.query = 23;
    for (bool expect_hit : {false, true}) {
      const SearchResponse resp = (*server)->Serve(req);
      ASSERT_TRUE(resp.status.ok()) << resp.status;
      EXPECT_EQ(resp.backend, "cgnp");
      EXPECT_EQ(resp.members, direct.members);
      EXPECT_EQ(resp.probs, direct.probs);  // exact float equality
      EXPECT_TRUE(resp.cache_eligible);
      EXPECT_EQ(resp.cache_hit, expect_hit);
    }
  }
  std::remove(ckpt.c_str());
}

// --- Error paths: malformed requests never abort the server ----------------

TEST(QueryServerErrorTest, OutOfRangeQueryIdReturnsStatusResponse) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 2);
  QueryServer& server = *server_ptr;

  SearchRequest req;
  req.graph = &g;
  req.query = g.num_nodes() + 100;
  const SearchResponse resp = server.Serve(req);
  ASSERT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(resp.members.empty());
  EXPECT_EQ(server.Stats().errors, 1u);
}

TEST(QueryServerErrorTest, NullGraphReturnsStatusResponse) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 2);
  QueryServer& server = *server_ptr;

  SearchRequest req;  // graph left null
  req.query = 3;
  const SearchResponse resp = server.Serve(req);
  ASSERT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
}

TEST(QueryServerErrorTest, BatchMixesErrorsAndSuccesses) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 4);
  QueryServer& server = *server_ptr;

  std::vector<SearchRequest> batch;
  for (NodeId q : {NodeId(3), NodeId(-7), NodeId(5), g.num_nodes()}) {
    SearchRequest req;
    req.graph = &g;
    req.query = q;
    batch.push_back(req);
  }
  const auto responses = server.ServeBatch(batch);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_FALSE(responses[3].status.ok());
  const auto stats = server.Stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.backend, "cgnp");
}

TEST(QueryServerErrorTest, ClassicalBackendErrorsOnBadQuery) {
  Graph g = PlantedGraph();
  serve::ServeOptions opt;
  opt.backend = "kcore";
  auto server = QueryServer::Create(nullptr, opt);
  ASSERT_TRUE(server.ok()) << server.status();
  SearchRequest req;
  req.graph = &g;
  req.query = -1;
  const SearchResponse resp = (*server)->Serve(req);
  ASSERT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace cgnp
