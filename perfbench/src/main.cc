// The repository benchmark. One process runs one workload:
//
//   perfbench_main --workload serve_hot --seed 1 --seconds 15 --trace 0
//
// Every workload runs the same deployment lifecycle through the library's
// public API -- generate a graph, fit a CGNP engine, serve cgnp queries
// open loop, apply graph edits beside queries -- and differs in which part
// is heavy (README.md has the table). --trace 0 prints the end-to-end
// metrics, --trace 1 the per-layer metrics from spans the benchmark records
// around its own calls into each layer. The last stdout line is the result
// object; a stamp line and a readable table come before it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/cgnp.h"
#include "core/engine.h"
#include "cs/dynamic.h"
#include "cs/searcher.h"
#include "data/metrics.h"
#include "data/synthetic.h"
#include "data/tasks.h"
#include "graph/delta.h"
#include "graph/sampling.h"
#include "helpers.h"
#include "meta/query_gnn.h"
#include "obs/metrics.h"
#include "serve/context_cache.h"
#include "serve/dynamic_server.h"
#include "serve/query_server.h"
#include "spans.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "tensor/simd.h"
#include "tensor/workspace.h"

namespace perfbench {
namespace {

using cgnp::CommunitySearchEngine;
using cgnp::Graph;
using cgnp::NodeId;
using cgnp::QueryExample;
using cgnp::Rng;
using cgnp::serve::ContextCache;
using cgnp::serve::DynamicGraphServer;
using cgnp::serve::QueryServer;
using cgnp::serve::SearchRequest;
using cgnp::serve::SearchResponse;
using Clock = std::chrono::steady_clock;

// --- Workloads ---------------------------------------------------------

constexpr int64_t kDynamicNodes = 20000;  // edits cost grows with |V|
constexpr int64_t kHotPool = 2000;        // hot query pool
constexpr double kZipfS = 1.1;            // hot query skew
constexpr int64_t kShots = 5;             // cold support size
constexpr int64_t kCompactEvery = 64;
constexpr int64_t kOracleStride = 16;     // every Nth response re-answered
constexpr double kLadderStep = 1.05;      // rate ladder: 5% steps
constexpr int64_t kEditCacheCapacity = 1024;
constexpr double kDynamicQps = 100;       // side dynamic graph query rate
// A growing graph: three inserts per delete, interleaved evenly. Inserts
// cost about twice what deletes do, so the median edit must sit well
// inside the insert mode; near its lower edge it moves with every small
// change in the mix.
constexpr double kInsertShare = 0.75;
constexpr int64_t kReplayRequests = 400;
constexpr int kReplayPairs = 3;  // untraced/traced replay passes
constexpr int kTrainReplayTasks = 6;
constexpr int64_t kTestTasks = 90;
constexpr uint64_t kGraphSeed = 2023;
constexpr size_t kTailChunk = 1000;  // requests per chunk of a chunked p99
constexpr int kRounds = 10;
constexpr auto kGeneratorSpin = std::chrono::microseconds(200);
constexpr auto kClientPoll = std::chrono::milliseconds(5);

constexpr int kSetupRepeats = 3;
constexpr int kLadderRungs = 64;          // base * 1.05^63 = 21.6 * base
constexpr int64_t kTrainTasks = 24;       // fit and training slices
constexpr int64_t kFitEpochs = 4;
constexpr int64_t kAblationEpochs = 4;
constexpr int64_t kSliceEpochs = 3;  // serving workloads' training slices

struct Spec {
  const char* name;
  int64_t nodes;        // main graph
  bool dynamic_main;    // main graph served by DynamicGraphServer + writer
  bool hot;             // Zipf pool, zero-shot; else distinct, 5-shot
  bool ablation;        // training slices run the GCN/GAT/SAGE ablation
  double nominal_qps;
  double ladder_base;   // rung 0 of the rate ladder
  double p99_limit_ms;
  int64_t cache_capacity;
  // Share of --seconds for the nominal windows, each ladder probe and the
  // edit windows (the last only when the main graph is static).
  double nominal_frac, probe_frac, edit_frac;
  // Writer edits per second. Beside measured queries (dynamic_main) the
  // writer runs at half the rate: at 40 edits/s a compaction every 1.6 s
  // evicted cached contexts faster than the hot traffic refilled them, and
  // the query median drifted out of the cache-hit mode during a run.
  double edit_rate;
};

// Nominal rates sit at about a seventh of each workload's capacity on a
// quiet 4-core host, so queueing stays small when a shared host slows;
// ladder bases keep that capacity well inside the 64 rungs. p99 limits:
// README.md.
const Spec kSpecs[] = {
    {"serve_hot", 100000, false, true, false, 1000, 500, 25.0, 1024, 0.4, 0.05,
     0.4, 40},
    {"serve_cold_1m", 1000000, false, false, false, 250, 150, 25.0, 256, 0.6,
     0.05, 0.4, 40},
    {"meta_train", 20000, false, false, true, 350, 200, 25.0, 256, 0.4, 0.04,
     0.4, 40},
    {"dynamic_mixed", kDynamicNodes, true, true, false, 500, 500, 50.0, 1024,
     0.8, 0.06, 0.0, 20},
};

cgnp::CgnpConfig ModelConfig(cgnp::GnnKind encoder, uint64_t seed) {
  cgnp::CgnpConfig m;
  m.encoder = encoder;
  m.hidden_dim = 32;
  m.num_layers = 2;
  m.lr = 5e-3f;
  m.seed = seed;
  return m;
}

cgnp::TaskConfig Tasks() {
  cgnp::TaskConfig t;
  t.subgraph_size = 200;
  t.shots = kShots;
  t.query_set_size = 10;
  return t;
}

Graph MakeGraph(int64_t nodes, uint64_t seed) {
  cgnp::SyntheticConfig c;
  c.num_nodes = nodes;
  c.num_communities = std::max<int64_t>(10, nodes / 100);
  c.intra_degree = 8;
  c.inter_degree = 1.5;
  c.attribute_dim = 16;
  c.attrs_per_node = 3;
  c.attrs_per_community_pool = 5;
  c.attr_affinity = 0.9;
  Rng rng(seed);
  return cgnp::GenerateSyntheticGraph(c, &rng);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

// --- Request streams ---------------------------------------------------

// Deterministic request source over one graph: hot = Zipf draws from a
// pool fixed by `pool_seed`, zero-shot; cold = every node once in an order
// drawn from `stream_seed`, each with a kShots support set taken from the
// ground truth. Each phase of a run draws from its own source, so the
// nominal windows see the same requests whatever the ladder does.
class Requests {
 public:
  Requests(const Graph* g, uint64_t graph_id, bool hot, uint64_t pool_seed,
           uint64_t stream_seed)
      : g_(g), graph_id_(graph_id), hot_(hot), rng_(stream_seed),
        zipf_(std::min<int64_t>(kHotPool, g->num_nodes()), kZipfS) {
    const int64_t n = g->num_nodes();
    if (hot_) {
      Rng pool_rng(pool_seed);
      order_ =
          pool_rng.SampleWithoutReplacement(Iota(n), std::min(kHotPool, n));
    } else {
      order_ = Iota(n);
      rng_.Shuffle(&order_);
      members_.resize(static_cast<size_t>(g->num_communities()));
      for (NodeId v = 0; v < n; ++v) {
        const int64_t c = g->CommunityOf(v);
        if (c >= 0) members_[static_cast<size_t>(c)].push_back(v);
      }
    }
  }

  SearchRequest Next() {
    SearchRequest r;
    r.graph = g_;
    r.graph_id = graph_id_;
    if (hot_) {
      r.query = order_[static_cast<size_t>(zipf_.Next(&rng_))];
      return r;
    }
    r.query = order_[cursor_++ % order_.size()];
    r.support = Support(r.query);
    return r;
  }

  // The `capacity` most popular nodes of the pool from least to most
  // popular (hot; empty when cold): serving them in this order fills a
  // cache of that capacity with the contexts an LRU would keep, most
  // popular most recently used.
  std::vector<NodeId> HotSet(int64_t capacity) const {
    if (!hot_) return {};
    const size_t n = std::min(order_.size(), static_cast<size_t>(capacity));
    return std::vector<NodeId>(order_.rend() - static_cast<std::ptrdiff_t>(n),
                               order_.rend());
  }

 private:
  static std::vector<NodeId> Iota(int64_t n) {
    std::vector<NodeId> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i;
    return v;
  }

  std::vector<QueryExample> Support(NodeId q) {
    std::vector<QueryExample> out;
    const int64_t c = g_->CommunityOf(q);
    if (c < 0) return out;
    const auto& mem = members_[static_cast<size_t>(c)];
    if (mem.size() < 8) return out;
    auto pick = [&] { return PickOne(mem, &rng_); };
    for (int64_t s = 0; s < kShots; ++s) {
      QueryExample ex;
      ex.query = pick();
      for (int i = 0; i < 5; ++i) {
        const NodeId p = pick();
        if (p != ex.query) ex.pos.push_back(p);
      }
      // Negatives: out-of-community neighbours of community members, so
      // they tend to fall inside the query's sampled subgraph.
      for (int tries = 0; tries < 40 && ex.neg.size() < 10; ++tries) {
        const auto nb = g_->Neighbors(pick());
        if (nb.empty()) continue;
        const NodeId v = PickOne(nb, &rng_);
        if (g_->CommunityOf(v) != c) ex.neg.push_back(v);
      }
      out.push_back(std::move(ex));
    }
    return out;
  }

  const Graph* g_;
  uint64_t graph_id_;
  bool hot_;
  Rng rng_;
  ZipfSampler zipf_;
  std::vector<NodeId> order_;
  size_t cursor_ = 0;
  std::vector<std::vector<NodeId>> members_;
};

// --- The system under test ---------------------------------------------

// One set-up: graphs, fitted engine, servers, warm caches.
struct World {
  std::shared_ptr<const Graph> main;
  std::shared_ptr<const Graph> dyn_base;  // == main on dynamic_mixed
  std::unique_ptr<CommunitySearchEngine> engine;
  std::unique_ptr<QueryServer> server;  // static main graph; null when dynamic
  std::unique_ptr<DynamicGraphServer> dyn;
  std::unique_ptr<Requests> main_requests;  // nominal windows
  std::unique_ptr<Requests> ladder_requests;
  std::unique_ptr<Requests> dyn_requests;  // edit windows (static main graph)
  std::vector<cgnp::GraphEdit> edits;
  size_t next_edit = 0;
  double edit_rate = 0;  // the writer's edits per second
};

using ServeFn = std::function<SearchResponse(const SearchRequest&)>;

ServeFn MainServe(World* w) {
  if (w->server) {
    return [w](const SearchRequest& r) { return w->server->Serve(r); };
  }
  return [w](const SearchRequest& r) { return w->dyn->Serve(r); };
}
ServeFn DynServe(World* w) {
  return [w](const SearchRequest& r) { return w->dyn->Serve(r); };
}

std::unique_ptr<World> SetUp(const Spec& spec, uint64_t seed, double seconds,
                             std::string* error) {
  auto w = std::make_unique<World>();
  // The graphs belong to the workload's definition; --seed drives the
  // traffic, the edit stream, task sampling and model initialisation.
  w->main = std::make_shared<const Graph>(MakeGraph(spec.nodes, kGraphSeed));
  w->dyn_base = spec.dynamic_main
                    ? w->main
                    : std::make_shared<const Graph>(
                          MakeGraph(kDynamicNodes, kGraphSeed + 1));
  cgnp::CgnpConfig model = ModelConfig(cgnp::GnnKind::kGat, seed);
  model.epochs = kFitEpochs;
  auto built = cgnp::EngineBuilder()
                   .WithModel(model)
                   .WithTasks(Tasks())
                   .WithTrainTasks(kTrainTasks)
                   .WithSeed(seed)
                   .Build();
  if (!built.ok()) {
    *error = built.status().ToString();
    return nullptr;
  }
  w->engine = std::make_unique<CommunitySearchEngine>(std::move(built).value());
  const cgnp::Status fit = w->engine->Fit(*w->main);
  if (!fit.ok()) {
    *error = "fit: " + fit.ToString();
    return nullptr;
  }

  cgnp::serve::ServeOptions so;
  so.num_threads = 1;  // Serve() runs on the caller; the pool stays idle
  so.cache_capacity = spec.cache_capacity;
  if (!spec.dynamic_main) {
    auto server = QueryServer::Create(w->engine.get(), so);
    if (!server.ok()) {
      *error = server.status().ToString();
      return nullptr;
    }
    w->server = std::move(server).value();
  }
  DynamicGraphServer::Options dopt;
  dopt.serve = so;
  dopt.serve.cache_capacity =
      spec.dynamic_main ? spec.cache_capacity : kEditCacheCapacity;
  dopt.graph_id = 2;
  dopt.compact_every = kCompactEvery;
  auto dyn = DynamicGraphServer::Create(w->engine.get(), w->dyn_base, dopt);
  if (!dyn.ok()) {
    *error = dyn.status().ToString();
    return nullptr;
  }
  w->dyn = std::move(dyn).value();

  w->main_requests = std::make_unique<Requests>(w->main.get(), 1, spec.hot,
                                                seed + 7, seed + 8);
  w->ladder_requests = std::make_unique<Requests>(w->main.get(), 1, spec.hot,
                                                  seed + 7, seed + 9);
  if (!spec.dynamic_main) {
    w->dyn_requests = std::make_unique<Requests>(w->dyn_base.get(), 2, true,
                                                 seed + 10, seed + 11);
  }
  // Enough edits for every window the writer runs in, at its fixed rate.
  w->edit_rate = spec.edit_rate;
  const int64_t edits =
      static_cast<int64_t>(spec.edit_rate * seconds * 1.5) + 400;
  w->edits = MakeEditStream(*w->dyn_base, edits, kInsertShare, seed + 12);

  // Warm-up: fill the caches (the hottest nodes of each pool, least
  // popular first, then 300 requests of the nominal stream) and
  // first-touch the code paths.
  ServeFn main_serve = MainServe(w.get());
  for (NodeId q : w->main_requests->HotSet(spec.cache_capacity)) {
    SearchRequest r;
    r.graph = w->main.get();
    r.graph_id = 1;
    r.query = q;
    main_serve(r);
  }
  for (int i = 0; i < 300; ++i) main_serve(w->main_requests->Next());
  if (w->dyn_requests) {
    for (NodeId q : w->dyn_requests->HotSet(kEditCacheCapacity)) {
      SearchRequest r;
      r.query = q;
      w->dyn->Serve(r);
    }
  }
  return w;
}

// --- Open loop ---------------------------------------------------------

struct Check {
  SearchRequest request;
  std::vector<NodeId> members;
  std::shared_ptr<const Graph> graph;
};

struct Window {
  std::vector<double> latency_ms, wait_ms, service_ms, lag_ms, update_ms;
  std::vector<int64_t> depth;
  int64_t queries = 0, query_errors = 0, edits = 0, edit_errors = 0;
  bool overflow = false;
  std::vector<Check> checks;
};

// Runs one open-loop window: a generator (this thread) issues `rate`
// requests per second at seeded Poisson due times into a FIFO; `clients`
// threads drain it, each calling `serve` synchronously. Latency runs from
// the due time to completion. With `writer_world`, one more thread applies
// the edit stream at its edit_rate through DynamicGraphServer::ApplyUpdate.
// Every kOracleStride-th response is kept for the correctness check when
// `oracle` is set. The window aborts (overflow) when the FIFO holds more
// than `max_backlog` requests.
Window RunOpenLoop(const ServeFn& serve, Requests* src, double rate,
                   double seconds, int clients, World* writer_world,
                   uint64_t seed, bool oracle,
                   const std::function<std::shared_ptr<const Graph>()>& pin) {
  Window w;
  Rng arrivals_rng(seed);
  const std::vector<double> due = PoissonArrivals(rate, seconds, &arrivals_rng);
  std::vector<SearchRequest> reqs;
  reqs.reserve(due.size());
  for (size_t i = 0; i < due.size(); ++i) reqs.push_back(src->Next());
  const size_t max_backlog = static_cast<size_t>(std::max(50.0, rate * 0.25));

  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> fifo;
  std::atomic<int64_t> queued{0};  // fifo.size(), readable without mu
  bool done = false;
  // Per-request samples, indexed by issue order (each slot written by the
  // one client that served it); NaN = never served.
  const double kUnserved = std::nan("");
  std::vector<double> lat(due.size(), kUnserved), wait(due.size(), kUnserved),
      svc(due.size(), kUnserved);
  std::vector<Window> per_client(static_cast<size_t>(clients));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due_at = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i]));
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Window& mine = per_client[static_cast<size_t>(c)];
      while (true) {
        // Poll for work before blocking: a blocked client is woken through
        // an idle vCPU, and on a shared VM that wake-up waits for the host
        // scheduler, a delay that grows when the host is busy.
        const Clock::time_point poll_end = Clock::now() + kClientPoll;
        while (queued.load(std::memory_order_acquire) == 0 &&
               Clock::now() < poll_end) {
          std::this_thread::yield();
        }
        size_t i;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !fifo.empty(); });
          if (fifo.empty()) return;
          i = fifo.front();
          fifo.pop_front();
          queued.fetch_sub(1, std::memory_order_relaxed);
        }
        const bool sampled = oracle && i % kOracleStride == 0;
        std::shared_ptr<const Graph> before = sampled && pin ? pin() : nullptr;
        const Clock::time_point start = Clock::now();
        SearchResponse resp = serve(reqs[i]);
        const Clock::time_point end = Clock::now();
        lat[i] = Seconds(due_at(i), end) * 1e3;
        wait[i] = Seconds(due_at(i), start) * 1e3;
        svc[i] = Seconds(start, end) * 1e3;
        ++mine.queries;
        if (!resp.status.ok()) ++mine.query_errors;
        if (sampled && resp.status.ok()) {
          std::shared_ptr<const Graph> after = pin ? pin() : nullptr;
          // A compaction between the two pins leaves the serving snapshot
          // unknown; such a sample is skipped.
          if (before == after) {
            Check chk{reqs[i], std::move(resp.members), before};
            mine.checks.push_back(std::move(chk));
          }
        }
      }
    });
  }
  std::thread writer;
  if (writer_world != nullptr) {
    writer = std::thread([&] {
      World* ww = writer_world;
      const double interval = 1.0 / ww->edit_rate;
      for (int64_t k = 0;; ++k) {
        const double at = static_cast<double>(k) * interval;
        if (at >= seconds || ww->next_edit >= ww->edits.size()) break;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(at)));
        const cgnp::GraphEdit& e = ww->edits[ww->next_edit++];
        const Clock::time_point s = Clock::now();
        const cgnp::Status st = ww->dyn->ApplyUpdate(e);
        w.update_ms.push_back(Seconds(s, Clock::now()) * 1e3);
        ++w.edits;
        if (!st.ok()) ++w.edit_errors;
      }
    });
  }
  for (size_t i = 0; i < due.size(); ++i) {
    // Sleep to just before the due time and spin the rest: a timed sleep
    // alone wakes some 60 us late, a delay charged to every request.
    const Clock::time_point due_i = due_at(i);
    std::this_thread::sleep_until(due_i - kGeneratorSpin);
    while (Clock::now() < due_i) {
    }
    w.lag_ms.push_back(Seconds(due_i, Clock::now()) * 1e3);
    std::lock_guard<std::mutex> lock(mu);
    if (fifo.size() > max_backlog) {
      w.overflow = true;
      break;
    }
    fifo.push_back(i);
    queued.fetch_add(1, std::memory_order_release);
    w.depth.push_back(static_cast<int64_t>(fifo.size()));
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    if (w.overflow) {
      fifo.clear();
      queued.store(0, std::memory_order_relaxed);
    }
    done = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
  if (writer.joinable()) writer.join();
  for (size_t i = 0; i < due.size(); ++i) {
    if (std::isnan(lat[i])) continue;
    w.latency_ms.push_back(lat[i]);
    w.wait_ms.push_back(wait[i]);
    w.service_ms.push_back(svc[i]);
  }
  for (Window& c : per_client) {
    w.queries += c.queries;
    w.query_errors += c.query_errors;
    for (Check& k : c.checks) w.checks.push_back(std::move(k));
  }
  return w;
}

int Nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int Clients(bool writer) {
  return std::clamp(Nproc() - 1 - (writer ? 1 : 0), 1, 3);
}

// Re-answers every kept response through CommunitySearchEngine::Query on
// the graph it was served from; returns the number of mismatches.
int64_t OracleMismatches(const CommunitySearchEngine& engine,
                         const std::vector<Check>& checks) {
  int64_t bad = 0;
  for (const Check& c : checks) {
    const Graph& g = c.graph ? *c.graph : *c.request.graph;
    cgnp::QueryOptions opt;
    opt.threshold = c.request.threshold;
    auto res = engine.Query(g, c.request.query, c.request.support, opt);
    if (!res.ok() || res->members != c.members) ++bad;
  }
  return bad;
}

// --- Output ------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
  int64_t samples;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 int64_t attempted, int64_t failed) {
  std::printf("%-32s %16s %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6g %-6s %8lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  std::string out =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- End-to-end run ----------------------------------------------------

struct Outcome {
  std::vector<Metric> metrics;
  int64_t attempted = 0, failed = 0;
  bool correct = true;
};

// One training slice: a fresh model per encoder meta-trained with
// CgnpMetaTrain for `epochs` epochs on the pre-sampled tasks at one kernel
// thread. Adds the task steps and the training wall time to *steps and
// *train_s, counts non-finite epoch losses in *failed, and returns the mean
// held-out F1.
double TrainSlice(const cgnp::TaskSplit& split,
                  const std::vector<cgnp::GnnKind>& kinds, int64_t epochs,
                  uint64_t seed, int64_t* steps, double* train_s,
                  int64_t* attempted, int64_t* failed) {
  double f1_sum = 0.0;
  for (cgnp::GnnKind kind : kinds) {
    const cgnp::CgnpConfig cfg = ModelConfig(kind, seed);
    Rng init(cfg.seed);
    cgnp::CgnpModel model(cfg, split.train.front().graph.feature_dim(), &init);
    const Clock::time_point start = Clock::now();
    cgnp::CgnpMetaTrain(&model, split.train, epochs, cfg.lr, cfg.seed,
                        [&](const cgnp::CgnpEpochStats& s) {
                          ++*attempted;
                          if (!std::isfinite(s.mean_loss)) ++*failed;
                        });
    const double took = Seconds(start, Clock::now());
    const int64_t done = epochs * static_cast<int64_t>(split.train.size());
    std::fprintf(stderr, "train %s: %.1f tasks/s\n", cgnp::GnnKindName(kind),
                 static_cast<double>(done) / took);
    *train_s += took;
    *steps += done;
    if (epochs > 0) f1_sum += cgnp::CgnpValidationF1(model, split.test);
  }
  return f1_sum / static_cast<double>(kinds.size());
}

// The highest rung of the rate ladder at which the p99 stays within the
// workload's limit, no request fails and the backlog does not grow; 0 when
// rung 0 fails. Probes run untraced, with the writer on dynamic_mixed.
double SloQps(const Spec& spec, World* w, double seconds, uint64_t seed,
              int* probes, Outcome* out) {
  World* writer = spec.dynamic_main ? w : nullptr;
  const int clients = Clients(writer != nullptr);
  Ladder ladder(kLadderRungs);
  while (!ladder.done()) {
    const int rung = ladder.next();
    const double rate = LadderRate(spec.ladder_base, kLadderStep, rung);
    const Window p = RunOpenLoop(
        MainServe(w), w->ladder_requests.get(), rate, seconds * spec.probe_frac,
        clients, writer, seed + 1000 + static_cast<uint64_t>((*probes)++),
        false, nullptr);
    out->attempted += p.queries + p.edits;
    out->failed += p.query_errors + p.edit_errors;
    const Tail tail = TailPercentile(p.latency_ms, 99);
    const bool pass = !p.overflow && p.query_errors == 0 &&
                      !BacklogGrows(p.depth, clients) &&
                      tail.value <= spec.p99_limit_ms;
    std::fprintf(stderr, "ladder rung %d (%.0f/s): n=%zu p%.1f=%.3f ms %s\n",
                 rung, rate, p.latency_ms.size(), tail.percentile, tail.value,
                 pass ? "pass" : "fail");
    ladder.Report(pass);
  }
  return ladder.best() >= 0
             ? LadderRate(spec.ladder_base, kLadderStep, ladder.best())
             : 0.0;
}

// The measured part runs in kRounds rounds, each a nominal window, a
// training slice and an edit window, so every metric averages samples
// taken all through the run. A latency median is taken per round and the
// rounds' medians are averaged: a shared host runs this process fast or
// about 1.5x slower for seconds at a time, and a median pooled over the run
// jumps between the two levels where an average of rounds moves smoothly
// with the share of slow rounds.
Outcome RunEndToEnd(const Spec& spec, uint64_t seed, double seconds,
                    std::string* error) {
  Outcome out;
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int r = 0; r < kSetupRepeats; ++r) {
    world.reset();
    const auto t0 = Clock::now();
    world = SetUp(spec, seed, seconds, error);
    if (!world) return out;
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  World* w = world.get();

  Rng task_rng(seed + 21);
  const cgnp::TaskSplit split = cgnp::MakeSingleGraphTasks(
      *w->main, cgnp::TaskRegime::kSgsc, Tasks(), kTrainTasks, 0, kTestTasks,
      &task_rng);
  // Serving workloads: the served model's F1 and two GAT epochs per round.
  // meta_train: the GCN/GAT/SAGE ablation every other round; its F1 must
  // repeat bitwise.
  const bool ablation = spec.ablation;
  std::vector<cgnp::GnnKind> kinds = {cgnp::GnnKind::kGat};
  if (ablation) kinds = {cgnp::GnnKind::kGcn, cgnp::GnnKind::kGat,
                         cgnp::GnnKind::kSage};
  double test_f1 =
      ablation ? -1.0
               : cgnp::CgnpValidationF1(*w->engine->model(), split.test);
  int64_t train_steps = 0;
  double train_s = 0.0;

  World* writer = spec.dynamic_main ? w : nullptr;
  const int clients = Clients(writer != nullptr);
  std::function<std::shared_ptr<const Graph>()> pin;
  if (spec.dynamic_main) pin = [w] { return w->dyn->snapshot(); };
  std::vector<double> latency, tails, updates;
  // Per-round medians: latency, its wait and service parts, edits.
  std::vector<double> round_p50, round_wait, round_svc, round_lag, round_u50;
  double tail_pct = 100.0;
  std::vector<Check> checks;
  auto account = [&](const Window& win) {
    out.attempted += win.queries + win.edits;
    out.failed += win.query_errors + win.edit_errors;
    updates.insert(updates.end(), win.update_ms.begin(), win.update_ms.end());
    if (!win.update_ms.empty()) round_u50.push_back(Median(win.update_ms));
  };
  for (int round = 0; round < kRounds; ++round) {
    Window nominal = RunOpenLoop(
        MainServe(w), w->main_requests.get(), spec.nominal_qps,
        seconds * spec.nominal_frac / kRounds, clients, writer,
        seed + 31 + static_cast<uint64_t>(round), true, pin);
    account(nominal);
    latency.insert(latency.end(), nominal.latency_ms.begin(),
                   nominal.latency_ms.end());
    round_p50.push_back(Median(nominal.latency_ms));
    round_wait.push_back(Median(nominal.wait_ms));
    round_svc.push_back(Median(nominal.service_ms));
    round_lag.push_back(Median(nominal.lag_ms));
    for (const Tail& t : ChunkTails(nominal.latency_ms, 99, kTailChunk)) {
      tails.push_back(t.value);
      tail_pct = std::min(tail_pct, t.percentile);
    }
    for (Check& c : nominal.checks) checks.push_back(std::move(c));

    if (!ablation || round % 2 == 0) {
      const double f1 = TrainSlice(split, kinds,
                                   ablation ? kAblationEpochs : kSliceEpochs,
                                   seed, &train_steps, &train_s,
                                   &out.attempted, &out.failed);
      if (ablation) {
        // Training is deterministic: every slice must give the same F1.
        if (test_f1 >= 0 && f1 != test_f1) ++out.failed;
        test_f1 = f1;
      }
    }
    if (!spec.dynamic_main) {
      account(RunOpenLoop(DynServe(w), w->dyn_requests.get(), kDynamicQps,
                          seconds * spec.edit_frac / kRounds, Clients(true), w,
                          seed + 51 + static_cast<uint64_t>(round),
                          false, nullptr));
    }
  }

  const int64_t mismatches = OracleMismatches(*w->engine, checks);
  out.attempted += static_cast<int64_t>(checks.size());
  out.failed += mismatches + (checks.empty() ? 1 : 0);  // the oracle must run
  out.correct = out.failed == 0;

  std::fprintf(stderr, "query p99 per chunk:");
  for (double t : tails) std::fprintf(stderr, " %.2f", t);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr,
               "query p50 %.4g ms: wait p50 %.4g (generator lag p50 %.4g), "
               "service p50 %.4g\n",
               Mean(round_p50), Mean(round_wait), Mean(round_lag),
               Mean(round_svc));
  const Tail u99 = TailPercentile(updates, 99);
  // The p99s are printed, not reported: on a shared host they follow CPU
  // steal more than the server (README.md); the traced run reports them
  // ungated.
  std::fprintf(stderr,
               "query_p99_ms %.4g: median of %zu chunk tails (lowest "
               "percentile p%.2f) over %zu requests; update_p99_ms %.4g at "
               "p%.2f of %lld; oracle checked %zu, mismatches %lld; "
               "error_rate %.6g\n",
               Median(tails), tails.size(), tail_pct, latency.size(),
               u99.value, u99.percentile,
               static_cast<long long>(u99.count), checks.size(),
               static_cast<long long>(mismatches),
               static_cast<double>(out.failed) /
                   static_cast<double>(std::max<int64_t>(1, out.attempted)));
  out.metrics = {
      {"setup_s", "s", Median(setup_s), static_cast<int64_t>(setup_s.size())},
      {"query_p50_ms", "ms", Mean(round_p50),
       static_cast<int64_t>(latency.size())},
      {"update_p50_ms", "ms", Mean(round_u50),
       static_cast<int64_t>(updates.size())},
      {"train_tasks_per_s", "1/s",
       static_cast<double>(train_steps) / std::max(train_s, 1e-9),
       train_steps},
      {"test_f1", "ratio", test_f1, kTestTasks},
      {"peak_rss_mb", "MB", PeakRssMb(), 1},
  };
  return out;
}

// --- Traced run --------------------------------------------------------

// One cgnp request through the same public calls QueryServer makes, with
// BuildQueryTask split one level down. Returns the members (in parent ids).
// Every step that costs time, freeing the per-request buffers included,
// sits in a child span, so the coverage gate sees the whole request.
std::vector<NodeId> ReplayRequest(const CommunitySearchEngine& engine,
                                  ContextCache* cache, const SearchRequest& r,
                                  SpanRecorder* rec, int64_t* task_nodes,
                                  bool* ok) {
  const cgnp::CgnpModel& model = *engine.model();
  const Graph& g = *r.graph;
  SpanScope request(rec, "request");
  cgnp::NoGradGuard no_grad;
  cgnp::WorkspaceScope workspace;
  cgnp::LocalQueryTask task;
  std::vector<NodeId> new_of_old;
  Graph sub;
  cgnp::Tensor context;
  std::vector<NodeId> members;
  {
    SpanScope s(rec, "task_build");
    {
      SpanScope b(rec, "validate");
      if (!cgnp::ValidateQueryInput(g, r.query, r.support).ok()) {
        *ok = false;
        return {};
      }
    }
    {
      SpanScope b(rec, "bfs_sample");
      Rng rng(engine.options().seed ^ static_cast<uint64_t>(r.query + 1));
      task.nodes = cgnp::BfsSample(
          g, r.query, engine.options().tasks.subgraph_size, &rng);
    }
    {
      SpanScope b(rec, "induced_subgraph");
      sub = cgnp::InducedSubgraph(g, task.nodes, &new_of_old);
    }
    {
      SpanScope b(rec, "task_features");
      task.graph = cgnp::AttachTaskFeatures(sub, engine.attribute_dim());
    }
    SpanScope b(rec, "support_remap");
    auto local_id = [&](NodeId v) {
      return new_of_old[static_cast<size_t>(v)];
    };
    task.query = local_id(r.query);
    for (const QueryExample& ex : r.support) {
      if (local_id(ex.query) < 0) continue;
      QueryExample local;
      local.query = local_id(ex.query);
      for (NodeId v : ex.pos) {
        if (local_id(v) >= 0) local.pos.push_back(local_id(v));
      }
      for (NodeId v : ex.neg) {
        if (local_id(v) >= 0) local.neg.push_back(local_id(v));
      }
      task.support.push_back(std::move(local));
    }
    if (task.support.empty()) {
      QueryExample self;
      self.query = task.query;
      task.support.push_back(std::move(self));
    }
  }
  *task_nodes += static_cast<int64_t>(task.nodes.size());
  ContextCache::Key key;
  bool hit;
  {
    SpanScope s(rec, "cache_get");
    key = {r.graph_id, cgnp::serve::TaskFingerprint(task), r.graph_version};
    hit = cache->Get(key, &context);
  }
  if (!hit) {
    {
      SpanScope s(rec, "encode");
      context = model.TaskContext(task.graph, task.support, nullptr);
    }
    SpanScope s(rec, "cache_put");
    cache->Put(key, context, task.nodes);
  }
  {
    SpanScope s(rec, "decode");
    members = cgnp::MembersFromContext(model, task, context, r.threshold);
  }
  SpanScope s(rec, "release");
  context = cgnp::Tensor();
  task = cgnp::LocalQueryTask();
  sub = Graph();
  std::vector<NodeId>().swap(new_of_old);
  return members;
}

// One epoch of CgnpMetaTrain through its public steps, recording spans;
// returns the trained parameters.
std::vector<float> ReplayTraining(const std::vector<cgnp::CsTask>& tasks,
                                  const cgnp::CgnpConfig& cfg,
                                  int64_t feature_dim, SpanRecorder* rec,
                                  int64_t* nonfinite) {
  Rng init(cfg.seed);
  cgnp::CgnpModel model(cfg, feature_dim, &init);
  Rng rng(cfg.seed);
  cgnp::Adam opt(model.Parameters(), cfg.lr);
  model.SetTraining(true);
  std::vector<int64_t> order(tasks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  rng.Shuffle(&order);
  std::vector<float> targets, mask;
  int64_t step = 0;
  for (int64_t idx : order) {
    const cgnp::CsTask& task = tasks[static_cast<size_t>(idx)];
    if (task.support.empty() || task.query.empty()) continue;
    rec->BeginRequest(1000000 + step++);
    SpanScope s(rec, "train_step");
    {
      SpanScope z(rec, "zero_grad");
      opt.ZeroGrad();
    }
    cgnp::Tensor context, loss_sum;
    {
      SpanScope f(rec, "forward");
      {
        SpanScope c(rec, "task_context");
        context = model.TaskContext(task.graph, task.support, &rng);
      }
      SpanScope q(rec, "query_loss");
      for (const QueryExample& ex : task.query) {
        cgnp::Tensor logits =
            model.QueryLogits(task.graph, context, ex.query, &rng);
        cgnp::ExampleTargets(ex, task.graph.num_nodes(), &targets, &mask);
        cgnp::Tensor loss = cgnp::BceWithLogits(logits, targets, mask);
        loss_sum = loss_sum.Defined() ? cgnp::Add(loss_sum, loss) : loss;
      }
      loss_sum = cgnp::MulScalar(
          loss_sum, 1.0f / static_cast<float>(task.query.size()));
      if (!std::isfinite(loss_sum.Item())) ++*nonfinite;
    }
    {
      SpanScope b(rec, "backward");
      loss_sum.Backward();
    }
    {
      SpanScope a(rec, "adam");
      opt.Step();
    }
    SpanScope r(rec, "release");  // frees the tape of this step
    loss_sum = cgnp::Tensor();
    context = cgnp::Tensor();
  }
  model.SetTraining(false);
  return model.FlatParameters();
}

double MedianUs(const std::function<void()>& fn, int reps) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(Seconds(t0, Clock::now()) * 1e6);
  }
  return Median(us);
}

Outcome RunTraced(const Spec& spec, uint64_t seed, double seconds,
                  const std::string& span_path, std::string* error) {
  Outcome out;
  std::unique_ptr<World> world = SetUp(spec, seed, seconds, error);
  if (!world) return out;
  World* w = world.get();
  World* writer = spec.dynamic_main ? w : nullptr;
  const int clients = Clients(writer != nullptr);
  auto add = [&](const char* name, const char* unit, double v, int64_t n) {
    out.metrics.push_back({name, unit, v, n});
  };

  // Untraced serving at the nominal rate: queueing and service time.
  QueryServer& main_server = spec.dynamic_main ? w->dyn->server() : *w->server;
  main_server.ResetStats();
  Window nominal = RunOpenLoop(MainServe(w), w->main_requests.get(),
                               spec.nominal_qps, seconds * spec.nominal_frac,
                               clients, writer, seed + 31, false,
                               nullptr);
  const cgnp::serve::ServerStats main_stats = main_server.Stats();
  const uint64_t compactions_before = w->dyn->dynamic_stats().compactions;
  Window edits = nominal;
  if (!spec.dynamic_main) {
    w->dyn->server().ResetStats();
    edits = RunOpenLoop(DynServe(w), w->dyn_requests.get(), kDynamicQps,
                        seconds * spec.edit_frac, Clients(true), w, seed + 51,
                        false, nullptr);
  }
  const cgnp::serve::ServerStats dyn_stats = w->dyn->server().Stats();
  const uint64_t compactions = w->dyn->dynamic_stats().compactions -
                               (spec.dynamic_main ? 0 : compactions_before);
  out.attempted += nominal.queries + nominal.edits +
                   (spec.dynamic_main ? 0 : edits.queries + edits.edits);
  out.failed +=
      nominal.query_errors + nominal.edit_errors +
      (spec.dynamic_main ? 0 : edits.query_errors + edits.edit_errors);

  // The obs record path: request time with the library's telemetry off and on.
  double obs_ms[2];
  for (int on = 0; on < 2; ++on) {
    cgnp::obs::SetEnabled(on == 1);
    Window o = RunOpenLoop(MainServe(w), w->main_requests.get(),
                           spec.nominal_qps, seconds * 0.1, clients, writer,
                           seed + 61 + static_cast<uint64_t>(on), false,
                           nullptr);
    obs_ms[on] = Median(o.service_ms);
    out.attempted += o.queries + o.edits;
    out.failed += o.query_errors + o.edit_errors;
  }
  cgnp::obs::SetEnabled(true);
  int probes = 0;
  const double slo_qps = SloQps(spec, w, seconds, seed, &probes, &out);

  // Serving replay: the same requests through the server (no writer runs
  // now, so the snapshot is fixed) and through the replay, untraced and
  // traced in alternation, each pass with a fresh cache warmed like the
  // server's.
  SpanRecorder rec(true);
  const std::shared_ptr<const Graph> pinned = w->dyn->snapshot();
  std::vector<SearchRequest> replay;
  for (int64_t i = 0; i < kReplayRequests; ++i) {
    SearchRequest r = w->main_requests->Next();
    if (spec.dynamic_main) {
      r.graph = pinned.get();
      r.graph_id = 2;
    }
    replay.push_back(std::move(r));
  }
  std::vector<std::vector<NodeId>> served;
  for (const SearchRequest& r : replay) {
    served.push_back(MainServe(w)(r).members);
  }
  std::vector<double> overhead;
  double pass_ms[2] = {0, 0};
  int64_t task_nodes = 0, traced_requests = 0, mismatched = 0;
  uint64_t hits = 0, lookups = 0;
  bool ok = true;
  for (int pass = 0; pass < 2 * kReplayPairs; ++pass) {
    const bool traced = pass % 2 == 1;
    SpanRecorder off(false);
    ContextCache cache(spec.cache_capacity);
    int64_t untraced_nodes = 0;
    for (NodeId q : w->main_requests->HotSet(spec.cache_capacity)) {
      SearchRequest warm = replay.front();
      warm.query = q;
      warm.support.clear();
      ReplayRequest(*w->engine, &cache, warm, &off, &untraced_nodes, &ok);
    }
    const uint64_t hits0 = cache.hits(), misses0 = cache.misses();
    const auto t0 = Clock::now();
    for (size_t i = 0; i < replay.size(); ++i) {
      rec.BeginRequest(static_cast<int64_t>(i));
      const std::vector<NodeId> m = ReplayRequest(
          *w->engine, &cache, replay[i], traced ? &rec : &off,
          traced ? &task_nodes : &untraced_nodes, &ok);
      if (traced && m != served[i]) ++mismatched;
    }
    pass_ms[traced] = Seconds(t0, Clock::now()) * 1e3;
    if (traced) {
      overhead.push_back(pass_ms[1] / pass_ms[0] - 1.0);
      traced_requests += static_cast<int64_t>(replay.size());
      hits += cache.hits() - hits0;
      lookups += cache.hits() - hits0 + cache.misses() - misses0;
    }
  }
  std::fprintf(stderr,
               "replay: %llu cache hits / %llu lookups, %lld member "
               "mismatches\n",
               static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(lookups),
               static_cast<long long>(mismatched));
  out.attempted += traced_requests;
  out.failed += mismatched + (ok ? 0 : 1);

  // Training replay against CgnpMetaTrain, bitwise.
  {
    Rng rng(seed + 23);
    const cgnp::TaskSplit split = cgnp::MakeSingleGraphTasks(
        *w->main, cgnp::TaskRegime::kSgsc, Tasks(), kTrainReplayTasks, 0, 0,
        &rng);
    const cgnp::CgnpConfig cfg = ModelConfig(cgnp::GnnKind::kSage, seed);
    const int64_t fdim = split.train.front().graph.feature_dim();
    int64_t nonfinite = 0;
    const std::vector<float> replayed =
        ReplayTraining(split.train, cfg, fdim, &rec, &nonfinite);
    Rng init(cfg.seed);
    cgnp::CgnpModel reference(cfg, fdim, &init);
    cgnp::CgnpMetaTrain(&reference, split.train, 1, cfg.lr, cfg.seed);
    const bool same = reference.FlatParameters() == replayed;
    out.attempted += static_cast<int64_t>(split.train.size()) + 1;
    out.failed += nonfinite + (same ? 0 : 1);
    if (!same) {
      std::fprintf(stderr, "training replay differs from CgnpMetaTrain\n");
    }
  }

  // Edit replay on a fresh index over the same base: per-edit repair,
  // compaction and cache invalidation, plus the bare delta edit.
  {
    auto index = cgnp::DynamicCommunityIndex::Create(w->dyn_base);
    if (!index.ok()) {
      *error = index.status().ToString();
      return out;
    }
    cgnp::GraphDelta delta(w->dyn_base);
    ContextCache cache(kEditCacheCapacity);
    const size_t n = std::min<size_t>(w->edits.size(), 3 * kCompactEvery);
    int64_t since = 0, edit_failed = 0;
    for (size_t i = 0; i < n; ++i) {
      const cgnp::GraphEdit& e = w->edits[i];
      rec.BeginRequest(2000000 + static_cast<int64_t>(i));
      {
        SpanScope s(&rec, "edit");
        {
          SpanScope a(&rec, "index_apply");
          if (!(*index)->Apply(e).ok()) ++edit_failed;
        }
        if (++since == kCompactEvery) {
          since = 0;
          SpanScope c(&rec, "compact");
          std::vector<NodeId> dirty;
          {
            SpanScope k(&rec, "index_compact");
            dirty = (*index)->DirtyNodes();
            (*index)->Compact();
          }
          SpanScope v(&rec, "cache_invalidate");
          cache.ScopedInvalidate(2, (*index)->version(), dirty);
        }
      }
      SpanScope d(&rec, "delta_edit");
      if (!delta.Apply(e).ok()) ++edit_failed;
    }
    out.attempted += static_cast<int64_t>(2 * n);
    out.failed += edit_failed;
  }

  // Kernels at the workload's task shape and thread count (1).
  double spmm_fwd_us, spmm_bwd_us, gemm_us;
  double nnz_gcn, nnz_mean, n_rows;
  const int64_t hidden = ModelConfig(cgnp::GnnKind::kGat, seed).hidden_dim;
  {
    auto task = cgnp::BuildQueryTask(*w->main, replay.front().query, {},
                                     w->engine->options().tasks,
                                     w->engine->attribute_dim(), seed);
    if (!task.ok()) {
      *error = task.status().ToString();
      return out;
    }
    const cgnp::SparseMatrix& gcn = task->graph.GcnAdjacency();
    const cgnp::SparseMatrix& mean = task->graph.MeanAdjacency();
    n_rows = static_cast<double>(gcn.rows());
    nnz_gcn = static_cast<double>(gcn.nnz());
    nnz_mean = static_cast<double>(mean.nnz());
    Rng rng(seed + 71);
    const cgnp::Tensor x = cgnp::Tensor::Randn({gcn.rows(), hidden}, &rng);
    const cgnp::Tensor wt = cgnp::Tensor::Randn({hidden, hidden}, &rng);
    {
      cgnp::NoGradGuard no_grad;
      rec.BeginRequest(3000000);
      {
        SpanScope s(&rec, "kernel_spmm_fwd");
        spmm_fwd_us = MedianUs([&] { (void)cgnp::SpMM(gcn, x); }, 200);
      }
      SpanScope s(&rec, "kernel_gemm");
      gemm_us = MedianUs([&] { (void)cgnp::MatMul(x, wt); }, 200);
    }
    SpanScope s(&rec, "kernel_spmm_bwd");
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      cgnp::Tensor xg =
          cgnp::Tensor::Randn({mean.rows(), hidden}, &rng, 1.0f, true);
      cgnp::Tensor y = cgnp::Sum(cgnp::SpMM(mean, xg));
      const auto t0 = Clock::now();
      y.Backward();
      us.push_back(Seconds(t0, Clock::now()) * 1e6);
    }
    spmm_bwd_us = Median(us);
  }

  // The coverage gate: children cover >= 95% of every parent.
  const std::vector<std::string> uncovered = rec.UncoveredParents(0.95);
  for (const std::string& u : uncovered) {
    std::fprintf(stderr,
                 "coverage gate: span '%s' is not covered by its children\n",
                 u.c_str());
  }
  out.failed += static_cast<int64_t>(uncovered.size());
  out.attempted += 1;
  std::fprintf(stderr, "%-20s %8s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, self_ms] : rec.SelfTimeMs()) {
    const std::vector<double> ms = rec.DurationsMs(name);
    double total = 0.0;
    for (double v : ms) total += v;
    std::fprintf(stderr, "%-20s %8zu %12.3f %12.3f\n", name.c_str(),
                 ms.size(), total, self_ms);
  }
  if (!span_path.empty() && !rec.WriteJsonLines(span_path)) {
    std::fprintf(stderr, "could not write spans to %s\n", span_path.c_str());
  }

  const Tail wait50 = TailPercentile(nominal.wait_ms, 50);
  const Tail wait99 = TailPercentile(nominal.wait_ms, 99);
  const Tail svc50 = TailPercentile(nominal.service_ms, 50);
  const Tail svc99 = TailPercentile(nominal.service_ms, 99);
  const double d = static_cast<double>(hidden);
  // The median duration of a span, with its count.
  auto span = [&](const char* name, const char* span_name) {
    const std::vector<double> ms = rec.DurationsMs(span_name);
    add(name, "ms", Median(ms), static_cast<int64_t>(ms.size()));
  };
  std::vector<double> tails;
  for (const Tail& t : ChunkTails(nominal.latency_ms, 99, kTailChunk)) {
    tails.push_back(t.value);
  }
  add("query_p99_ms", "ms", Median(tails),
      static_cast<int64_t>(nominal.latency_ms.size()));
  add("slo_qps", "1/s", slo_qps, probes);
  const Tail u99 = TailPercentile(edits.update_ms, 99);
  add("update_p99_ms", "ms", u99.value, u99.count);
  add("serve.queue_wait_ms.p50", "ms", wait50.value, wait50.count);
  add("serve.queue_wait_ms.p99", "ms", wait99.value, wait99.count);
  add("serve.request_ms.p50", "ms", svc50.value, svc50.count);
  add("serve.request_ms.p99", "ms", svc99.value, svc99.count);
  add("serve.cache_hit_rate", "ratio", main_stats.cache_hit_rate,
      static_cast<int64_t>(main_stats.cache_eligible));
  add("serve.cache_eligible", "count",
      static_cast<double>(main_stats.cache_eligible), 1);
  const double swept = static_cast<double>(dyn_stats.cache_retained +
                                           dyn_stats.cache_invalidated);
  add("serve.cache_retained_frac", "ratio",
      swept > 0 ? static_cast<double>(dyn_stats.cache_retained) / swept : 0.0,
      static_cast<int64_t>(swept));
  span("core.task_build_ms", "task_build");
  span("core.encode_ms", "encode");
  span("core.decode_ms", "decode");
  add("core.task_nodes", "count",
      static_cast<double>(task_nodes) / static_cast<double>(traced_requests),
      traced_requests);
  span("core.train_forward_ms", "forward");
  span("graph.bfs_sample_ms", "bfs_sample");
  span("graph.induced_subgraph_ms", "induced_subgraph");
  span("data.task_features_ms", "task_features");
  std::vector<double> delta_us = rec.DurationsMs("delta_edit");
  for (double& v : delta_us) v *= 1e3;
  add("graph.delta_edit_us", "us", Median(delta_us),
      static_cast<int64_t>(delta_us.size()));
  span("graph.compact_ms", "index_compact");
  add("graph.compactions", "count", static_cast<double>(compactions), 1);
  span("cs.index_apply_ms", "index_apply");
  span("tensor.backward_ms", "backward");
  span("tensor.adam_ms", "adam");
  // Computed from tensor sizes (CSR: 8-byte index + 4-byte value per
  // nonzero, 8-byte row pointers; dense float32 operands read and written).
  add("tensor.spmm_fwd_us", "us", spmm_fwd_us, 200);
  add("tensor.spmm_fwd_flops", "flop", 2 * nnz_gcn * d, 1);
  add("tensor.spmm_fwd_bytes", "B",
      12 * nnz_gcn + 8 * (n_rows + 1) + 8 * n_rows * d, 1);
  add("tensor.spmm_bwd_us", "us", spmm_bwd_us, 200);
  add("tensor.spmm_bwd_flops", "flop", 2 * nnz_mean * d, 1);
  add("tensor.spmm_bwd_bytes", "B",
      12 * nnz_mean + 8 * (n_rows + 1) + 8 * n_rows * d, 1);
  add("tensor.gemm_us", "us", gemm_us, 200);
  add("tensor.gemm_flops", "flop", 2 * n_rows * d * d, 1);
  add("tensor.gemm_bytes", "B", 4 * (2 * n_rows * d + d * d), 1);
  add("obs.overhead_frac", "ratio", obs_ms[1] / obs_ms[0] - 1.0, 2);
  const Tail lag99 = TailPercentile(nominal.lag_ms, 99);
  add("bench.generator_lag_ms.p99", "ms", lag99.value, lag99.count);
  add("bench.trace_overhead_frac", "ratio", Median(overhead),
      static_cast<int64_t>(overhead.size()));
  out.correct = out.failed == 0;
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  int trace = 0;
  std::string spans;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--spans") a->spans = v;
    else if (k == "--git-sha") a->git_sha = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_main --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>] "
                 "[--git-sha <sha>]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::fprintf(stderr, "refusing to report from a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %d, \"simd\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx\": \"%s\", \"git_sha\": \"%s\"}}\n",
      spec->name, static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace, Nproc(),
      cgnp::simd::SimdLevelName(cgnp::simd::ActiveSimdLevel()),
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX, args.git_sha.c_str());
  std::fflush(stdout);
  // One kernel thread everywhere: serving is parallel across requests, and
  // on 200-node tasks a 4-thread kernel pool trained 1.3-4x slower than one
  // thread on a shared 4-vCPU host, with 5x the run-to-run spread.
  cgnp::set_num_threads(1);
  std::string error;
  const Outcome out =
      args.trace ? RunTraced(*spec, args.seed, args.seconds, args.spans, &error)
                 : RunEndToEnd(*spec, args.seed, args.seconds, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", spec->name, error.c_str());
    return 1;
  }
  PrintResult(out.metrics, out.correct, std::max<int64_t>(1, out.attempted),
              out.failed);
  return 0;
}
