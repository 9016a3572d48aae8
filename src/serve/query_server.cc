#include "serve/query_server.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <latch>
#include <memory>
#include <optional>
#include <utility>

#include "core/cgnp_searcher.h"
#include "graph/format.h"
#include "obs/log.h"
#include "tensor/workspace.h"

namespace cgnp {
namespace serve {

namespace {

double PercentileOf(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

StatusOr<std::shared_ptr<const Graph>> OpenMappedGraph(
    const std::string& path) {
  CGNP_ASSIGN_OR_RETURN(Graph g, MapGraphBinary(path));
  CGNP_LOG(kInfo, "serve_graph_mapped")
      .Str("path", path)
      .Num("num_nodes", static_cast<double>(g.num_nodes()))
      .Num("num_edges", static_cast<double>(g.num_edges()));
  return std::make_shared<const Graph>(std::move(g));
}

QueryServer::QueryServer(std::unique_ptr<CommunitySearcher> backend,
                         ServeOptions options)
    : backend_(std::move(backend)),
      backend_name_(options.backend),
      options_(std::move(options)),
      cache_(options_.cache_capacity),
      pool_(options_.num_threads),
      latency_reservoir_(static_cast<size_t>(
          std::max<int64_t>(1, options_.latency_reservoir))) {
  // Resolve the per-backend registry metrics once; recording through the
  // cached pointers is sharded and lock-free.
  auto& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels = {{"backend", backend_name_}};
  metrics_.requests = &reg.GetCounter("cgnp_serve_requests_total", labels);
  metrics_.errors = &reg.GetCounter("cgnp_serve_errors_total", labels);
  metrics_.cache_hits = &reg.GetCounter("cgnp_serve_cache_hits_total", labels);
  metrics_.updates = &reg.GetCounter("cgnp_serve_updates_total", labels);
  metrics_.cache_invalidated =
      &reg.GetCounter("cgnp_serve_cache_invalidated_total", labels);
  metrics_.cache_retained =
      &reg.GetCounter("cgnp_serve_cache_retained_total", labels);
  metrics_.latency_ms = &reg.GetHistogram("cgnp_serve_latency_ms", labels);
  metrics_.queue_depth = &reg.GetGauge("cgnp_serve_queue_depth", labels);
  // Each worker creates its thread-local tensor arena (tensor/workspace.h)
  // before it takes a request, so that construction never lands inside a
  // request's traced stages. The latch holds every worker until all have
  // arrived, so each worker runs exactly one of these tasks.
  auto warmed = std::make_shared<std::latch>(pool_.num_threads());
  for (int i = 0; i < pool_.num_threads(); ++i) {
    pool_.Submit([warmed] {
      Workspace::ThreadLocal();
      warmed->arrive_and_wait();
    });
  }
  warmed->wait();
  CGNP_LOG(kDebug, "serve_start")
      .Str("backend", backend_name_)
      .Num("num_threads", options_.num_threads)
      .Num("cache_capacity", static_cast<double>(options_.cache_capacity));
}

StatusOr<std::unique_ptr<QueryServer>> QueryServer::Create(
    const CommunitySearchEngine* engine, ServeOptions options) {
  if (options.num_threads <= 0) {
    return InvalidArgumentError("num_threads must be positive, got " +
                                std::to_string(options.num_threads));
  }
  if (options.cache_capacity < 0) {
    return InvalidArgumentError("cache_capacity must be >= 0, got " +
                                std::to_string(options.cache_capacity));
  }
  // A passed-in engine is wrapped without a checkpoint round-trip; the
  // caller keeps it alive, so the shared_ptr does not own it. Everything
  // else -- classical names, "cgnp" from searcher.checkpoint, unknown
  // names (NotFound) -- goes through the registry.
  CGNP_ASSIGN_OR_RETURN(
      std::unique_ptr<CommunitySearcher> backend,
      options.backend == "cgnp" && engine != nullptr
          ? MakeCgnpSearcher(std::shared_ptr<const CommunitySearchEngine>(
                std::shared_ptr<void>(), engine))
          : MakeSearcher(options.backend, options.searcher));
  return std::unique_ptr<QueryServer>(
      new QueryServer(std::move(backend), std::move(options)));
}

Status QueryServer::AnswerRequest(const SearchRequest& request,
                                  SearchResponse* resp) {
  if (request.graph == nullptr) {
    return InvalidArgumentError("SearchRequest without a graph");
  }
  QueryOptions query_options;
  query_options.threshold = request.threshold;
  // The cache slot: the learned backend reuses earlier answers through
  // it; the classical backends ignore it.
  query_options.cache = &cache_;
  query_options.graph_id = request.graph_id;
  query_options.graph_version = request.graph_version;
  // The backend performs the full input validation itself.
  CGNP_ASSIGN_OR_RETURN(
      QueryResult result,
      backend_->Search(*request.graph, request.query, request.support,
                       query_options));
  resp->members = std::move(result.members);
  resp->probs = std::move(result.probs);
  resp->cache_eligible = result.cache_eligible;
  resp->cache_hit = result.cache_hit;
  return Status::Ok();
}

void QueryServer::RecordStages(const std::vector<obs::StageTiming>& stages) {
  // Caller holds stats_mu_. Only depth-0 spans aggregate (children are
  // already included in their parent's elapsed time).
  for (const auto& st : stages) {
    if (st.depth != 0) continue;
    StageAccum& acc = stage_accums_[st.name];
    if (acc.global == nullptr) {
      acc.global = &obs::MetricsRegistry::Default().GetHistogram(
          "cgnp_serve_stage_ms",
          {{"backend", backend_name_}, {"stage", st.name}});
    }
    ++acc.count;
    acc.total_ms += st.ms;
    if (acc.samples.size() < latency_reservoir_) {
      acc.samples.push_back(st.ms);
    } else {
      acc.samples[acc.next] = st.ms;
      acc.next = (acc.next + 1) % latency_reservoir_;
    }
    acc.global->Record(st.ms);
  }
}

SearchResponse QueryServer::ServeOne(const SearchRequest& request) {
  metrics_.queue_depth->Set(static_cast<double>(pool_.pending()));
  const auto start = std::chrono::steady_clock::now();
  SearchResponse resp;
  resp.backend = backend_name_;
  resp.threshold = request.threshold;
#if CGNP_OBS_ENABLED
  // Capture this request's stage tree: spans fired anywhere below
  // AnswerRequest (task_build/encode/decode in the engine, search in the
  // classical adapters) land in this collector.
  std::optional<obs::TraceCollector> collector;
  if (obs::Enabled()) collector.emplace();
#endif
  {
    // One arena cycle per request: every intermediate tensor allocated
    // under AnswerRequest lands in this thread's workspace and is
    // reclaimed wholesale here. Escaping state (response vectors, cached
    // contexts) is plain heap by construction -- see tensor/workspace.h.
    WorkspaceScope workspace;
    resp.status = AnswerRequest(request, &resp);
  }
  if (!resp.status.ok()) {
    resp.members.clear();
    resp.probs.clear();
    resp.cache_hit = false;
    CGNP_LOG_EVERY(kWarn, "serve_request_failed", /*per_second=*/1.0)
        .Str("backend", backend_name_)
        .Err(resp.status);
  }
#if CGNP_OBS_ENABLED
  if (collector) resp.stages = collector->Take();
#endif
  const auto end = std::chrono::steady_clock::now();
  resp.latency_ms =
      std::chrono::duration<double, std::milli>(end - start).count();

  metrics_.requests->Increment();
  if (!resp.status.ok()) metrics_.errors->Increment();
  if (resp.cache_hit) metrics_.cache_hits->Increment();
  metrics_.latency_ms->Record(resp.latency_ms);

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (latencies_ms_.size() < latency_reservoir_) {
      latencies_ms_.push_back(resp.latency_ms);
    } else {
      latencies_ms_[latency_next_] = resp.latency_ms;
      latency_next_ = (latency_next_ + 1) % latency_reservoir_;
    }
    ++stat_requests_;
    if (!resp.status.ok()) ++stat_errors_;
    if (resp.cache_hit) ++stat_cache_hits_;
    if (resp.cache_eligible) ++stat_cache_eligible_;
    // Running extremes, independent of the bounded reservoir above.
    if (stat_requests_ == 1) {
      stat_min_ms_ = stat_max_ms_ = resp.latency_ms;
    } else {
      stat_min_ms_ = std::min(stat_min_ms_, resp.latency_ms);
      stat_max_ms_ = std::max(stat_max_ms_, resp.latency_ms);
    }
    if (!resp.stages.empty()) RecordStages(resp.stages);
    if (!window_open_) {
      window_start_ = start;
      window_open_ = true;
    }
    window_end_ = std::max(window_end_, end);
  }
  return resp;
}

SearchResponse QueryServer::Serve(const SearchRequest& request) {
  return ServeOne(request);
}

ContextCache::InvalidationResult QueryServer::NotifyGraphUpdate(
    uint64_t graph_id, uint64_t new_version,
    const std::vector<NodeId>& dirty) {
  ContextCache::InvalidationResult result;
  {
    CGNP_TRACE_SPAN("invalidate");
    result = cache_.ScopedInvalidate(graph_id, new_version, dirty);
  }
  metrics_.updates->Increment();
  metrics_.cache_invalidated->Increment(
      static_cast<uint64_t>(result.evicted));
  metrics_.cache_retained->Increment(
      static_cast<uint64_t>(result.retained));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stat_updates_;
    stat_cache_invalidated_ += static_cast<uint64_t>(result.evicted);
    stat_cache_retained_ += static_cast<uint64_t>(result.retained);
  }
  CGNP_LOG(kDebug, "serve_graph_update")
      .Num("graph_id", static_cast<double>(graph_id))
      .Num("version", static_cast<double>(new_version))
      .Num("dirty_nodes", static_cast<double>(dirty.size()))
      .Num("evicted", static_cast<double>(result.evicted))
      .Num("retained", static_cast<double>(result.retained));
  return result;
}

std::vector<SearchResponse> QueryServer::ServeBatch(
    const std::vector<SearchRequest>& batch) {
  std::vector<SearchResponse> responses(batch.size());
  if (batch.empty()) return responses;

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    pool_.Submit([this, &batch, &responses, &done_mu, &done_cv, &remaining,
                  i] {
      responses[i] = ServeOne(batch[i]);
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&remaining] { return remaining == 0; });
  return responses;
}

ServerStats QueryServer::Stats() const {
  ServerStats s;
  s.backend = backend_name_;
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.requests = stat_requests_;
    s.errors = stat_errors_;
    s.cache_hits = stat_cache_hits_;
    s.cache_eligible = stat_cache_eligible_;
    s.updates = stat_updates_;
    s.cache_invalidated = stat_cache_invalidated_;
    s.cache_retained = stat_cache_retained_;
    s.min_ms = stat_min_ms_;
    s.max_ms = stat_max_ms_;
    // The cache counts displacements over its lifetime; window against
    // the snapshot taken at the last ResetStats.
    s.cache_evictions = cache_.evictions() - cache_evictions_at_reset_;
    sorted = latencies_ms_;
    for (const auto& [stage, acc] : stage_accums_) {
      if (acc.count == 0) continue;
      StageStats ss;
      ss.stage = stage;
      ss.count = acc.count;
      ss.total_ms = acc.total_ms;
      ss.mean_ms = acc.total_ms / static_cast<double>(acc.count);
      std::vector<double> samples = acc.samples;
      std::sort(samples.begin(), samples.end());
      ss.p50_ms = PercentileOf(samples, 0.50);
      s.stages.push_back(std::move(ss));
    }
    if (window_open_ && s.requests > 0) {
      const double secs = std::chrono::duration<double>(
                              window_end_ - window_start_)
                              .count();
      s.qps = secs > 0 ? static_cast<double>(s.requests) / secs : 0.0;
    }
  }
  // Honest cache accounting: classical backends never consult the cache,
  // so they contribute neither hits nor misses.
  s.cache_misses = s.cache_eligible - s.cache_hits;
  s.cache_hit_rate = s.cache_eligible > 0
                         ? static_cast<double>(s.cache_hits) /
                               static_cast<double>(s.cache_eligible)
                         : 0.0;
  if (!sorted.empty()) {
    std::sort(sorted.begin(), sorted.end());
    double sum = 0;
    for (double v : sorted) sum += v;
    s.mean_ms = sum / static_cast<double>(sorted.size());
    s.p50_ms = PercentileOf(sorted, 0.50);
    s.p90_ms = PercentileOf(sorted, 0.90);
    s.p99_ms = PercentileOf(sorted, 0.99);
  }
  return s;
}

void QueryServer::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  latencies_ms_.clear();
  latency_next_ = 0;
  stat_requests_ = 0;
  stat_errors_ = 0;
  stat_cache_hits_ = 0;
  stat_cache_eligible_ = 0;
  stat_updates_ = 0;
  stat_cache_invalidated_ = 0;
  stat_cache_retained_ = 0;
  stat_min_ms_ = stat_max_ms_ = 0.0;
  cache_evictions_at_reset_ = cache_.evictions();
  stage_accums_.clear();
  window_open_ = false;
  window_start_ = window_end_ = std::chrono::steady_clock::time_point{};
}

bench::Json ServerStatsToJson(const ServerStats& stats) {
  bench::Json doc = bench::Json::MakeObject();
  doc.Set("backend", bench::Json::MakeString(stats.backend));
  doc.Set("requests", bench::Json::MakeNumber(
                          static_cast<double>(stats.requests)));
  doc.Set("errors",
          bench::Json::MakeNumber(static_cast<double>(stats.errors)));
  doc.Set("cache_eligible", bench::Json::MakeNumber(
                                static_cast<double>(stats.cache_eligible)));
  doc.Set("cache_hits", bench::Json::MakeNumber(
                            static_cast<double>(stats.cache_hits)));
  doc.Set("cache_misses", bench::Json::MakeNumber(
                              static_cast<double>(stats.cache_misses)));
  doc.Set("cache_evictions", bench::Json::MakeNumber(
                                 static_cast<double>(stats.cache_evictions)));
  doc.Set("cache_hit_rate", bench::Json::MakeNumber(stats.cache_hit_rate));
  doc.Set("updates", bench::Json::MakeNumber(
                         static_cast<double>(stats.updates)));
  doc.Set("cache_invalidated",
          bench::Json::MakeNumber(
              static_cast<double>(stats.cache_invalidated)));
  doc.Set("cache_retained", bench::Json::MakeNumber(
                                static_cast<double>(stats.cache_retained)));
  doc.Set("qps", bench::Json::MakeNumber(stats.qps));
  doc.Set("mean_ms", bench::Json::MakeNumber(stats.mean_ms));
  doc.Set("p50_ms", bench::Json::MakeNumber(stats.p50_ms));
  doc.Set("p90_ms", bench::Json::MakeNumber(stats.p90_ms));
  doc.Set("p99_ms", bench::Json::MakeNumber(stats.p99_ms));
  doc.Set("min_ms", bench::Json::MakeNumber(stats.min_ms));
  doc.Set("max_ms", bench::Json::MakeNumber(stats.max_ms));
  bench::Json stages = bench::Json::MakeArray();
  for (const auto& st : stats.stages) {
    bench::Json row = bench::Json::MakeObject();
    row.Set("stage", bench::Json::MakeString(st.stage));
    row.Set("count",
            bench::Json::MakeNumber(static_cast<double>(st.count)));
    row.Set("p50_ms", bench::Json::MakeNumber(st.p50_ms));
    row.Set("mean_ms", bench::Json::MakeNumber(st.mean_ms));
    row.Set("total_ms", bench::Json::MakeNumber(st.total_ms));
    stages.Append(std::move(row));
  }
  doc.Set("stages", std::move(stages));
  return doc;
}

}  // namespace serve
}  // namespace cgnp
