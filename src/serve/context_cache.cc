#include "serve/context_cache.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "tensor/workspace.h"

namespace cgnp {
namespace serve {

namespace {

// Process-wide cache-effectiveness counters (all caches aggregated; the
// per-server window view lives in ServerStats). Pointers are fetched once
// and shared -- counters themselves are sharded and lock-free.
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* invalidations;
};

const CacheMetrics& GlobalCacheMetrics() {
  static const CacheMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Default();
    return CacheMetrics{
        &reg.GetCounter("cgnp_context_cache_hits_total"),
        &reg.GetCounter("cgnp_context_cache_misses_total"),
        &reg.GetCounter("cgnp_context_cache_evictions_total"),
        &reg.GetCounter("cgnp_context_cache_invalidations_total"),
    };
  }();
  return m;
}

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001B3ull;

void HashI64(uint64_t* h, int64_t v) {
  auto u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    *h ^= (u >> (8 * i)) & 0xFFu;
    *h *= kFnvPrime;
  }
}

void HashIds(uint64_t* h, const std::vector<NodeId>& ids) {
  HashI64(h, static_cast<int64_t>(ids.size()));
  for (NodeId v : ids) HashI64(h, v);
}

// Both inputs sorted ascending.
bool SortedIntersect(const std::vector<NodeId>& a,
                     const std::vector<NodeId>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

uint64_t TaskFingerprint(const LocalQueryTask& task) {
  uint64_t h = kFnvOffset;
  HashIds(&h, task.nodes);
  HashI64(&h, task.query);
  HashI64(&h, static_cast<int64_t>(task.support.size()));
  for (const auto& ex : task.support) {
    HashI64(&h, ex.query);
    HashIds(&h, ex.pos);
    HashIds(&h, ex.neg);
  }
  return h;
}

uint64_t RequestFingerprint(int64_t num_nodes, NodeId query,
                            const std::vector<QueryExample>& support,
                            int64_t subgraph_size, uint64_t seed) {
  uint64_t h = kFnvOffset;
  HashI64(&h, num_nodes);
  HashI64(&h, query);
  HashI64(&h, static_cast<int64_t>(support.size()));
  for (const auto& ex : support) {
    HashI64(&h, ex.query);
    HashIds(&h, ex.pos);
    HashIds(&h, ex.neg);
  }
  HashI64(&h, subgraph_size);
  HashI64(&h, static_cast<int64_t>(seed));
  return h;
}

ContextCache::ContextCache(int64_t capacity) : capacity_(capacity) {
  // Resolve the process-wide metric handles now, so the first lookup does
  // not pay the registry.
  GlobalCacheMetrics();
}

const ContextCache::Entry* ContextCache::Find(const Key& key,
                                              bool want_scores) {
  auto it = index_.find(key);
  if (it == index_.end() || (it->second->scores != nullptr) != want_scores) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return &*it->second;
}

void ContextCache::Count(bool hit) {
  if (hit) {
    ++hits_;
    GlobalCacheMetrics().hits->Increment();
  } else {
    ++misses_;
    GlobalCacheMetrics().misses->Increment();
  }
}

ContextCache::Claim::~Claim() {
  if (cache_ != nullptr && owns_flight_) {
    cache_->Finish(key_, Flight::kFailed);
  }
}

void ContextCache::Finish(const Key& key, Flight::State state) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = flights_.find(key);
    it->second->state = state;
    flights_.erase(it);
  }
  flight_done_.notify_all();
}

bool ContextCache::Get(const Key& key,
                       std::shared_ptr<const MemberScores>* out,
                       Claim* claim) {
  std::unique_lock<std::mutex> lock(mu_);
  bool owns_flight = true;
  for (;;) {
    if (const Entry* entry = Find(key, /*want_scores=*/true)) {
      Count(true);
      *out = entry->scores;
      return true;
    }
    const auto it = flights_.find(key);
    if (it == flights_.end()) break;
    const std::shared_ptr<Flight> flight = it->second;
    ++waiting_;
    flight_done_.wait(lock,
                      [&] { return flight->state != Flight::kInFlight; });
    --waiting_;
    // A failed miss would fail again for every waiter: run them side by
    // side rather than hand the flight on one at a time.
    if (flight->state == Flight::kFailed) {
      owns_flight = false;
      break;
    }
    // Filled: look again (the entry may already be evicted).
  }
  Count(false);
  if (capacity_ > 0) {
    if (owns_flight) flights_.emplace(key, std::make_shared<Flight>());
    claim->cache_ = this;
    claim->key_ = key;
    claim->owns_flight_ = owns_flight;
  }
  return false;
}

bool ContextCache::Get(const Key& key, Tensor* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = Find(key, /*want_scores=*/false);
  Count(entry != nullptr);
  if (entry == nullptr) return false;
  *out = entry->context;
  return true;
}

void ContextCache::Put(Claim claim, MemberScores scores) {
  if (claim.cache_ == nullptr) return;
  std::vector<NodeId> nodes = scores.nodes;
  std::sort(nodes.begin(), nodes.end());
  Insert(Entry{claim.key_, Tensor(),
               std::make_shared<const MemberScores>(std::move(scores)),
               std::move(nodes)});
  if (std::exchange(claim.owns_flight_, false)) {
    Finish(claim.key_, Flight::kFilled);
  }
}

void ContextCache::Put(const Key& key, Tensor context) {
  Put(key, std::move(context), {});
}

void ContextCache::Put(const Key& key, Tensor context,
                       std::vector<NodeId> nodes) {
  if (capacity_ <= 0) return;
  // A cached context outlives the query that produced it. When the caller
  // is inside a WorkspaceScope the tensor lives in the per-query arena, so
  // deep-copy it into ordinary heap storage first -- this is the one
  // sanctioned escape from the workspace lifetime rules (workspace.h).
  if (Workspace::Active() != nullptr) {
    WorkspacePause heap;
    context = context.Clone();
  }
  std::sort(nodes.begin(), nodes.end());
  Insert(Entry{key, std::move(context), nullptr, std::move(nodes)});
}

void ContextCache::Insert(Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(entry.key);
  if (it != index_.end()) {
    *it->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(std::move(entry));
  index_[lru_.front().key] = lru_.begin();
  if (static_cast<int64_t>(lru_.size()) > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    GlobalCacheMetrics().evictions->Increment();
  }
}

ContextCache::InvalidationResult ContextCache::ScopedInvalidate(
    uint64_t graph_id, uint64_t new_version,
    const std::vector<NodeId>& dirty) {
  InvalidationResult result;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.graph_id != graph_id || it->key.version == new_version) {
      ++it;
      continue;
    }
    Key rekeyed = it->key;
    rekeyed.version = new_version;
    // Unknown coverage is conservatively dirty; recorded coverage survives
    // iff it avoids every edited node. A fresher entry already cached under
    // the new version wins over a re-keyed survivor.
    const bool survives = !it->nodes.empty() &&
                          !SortedIntersect(it->nodes, dirty) &&
                          index_.count(rekeyed) == 0;
    index_.erase(it->key);
    if (survives) {
      it->key = rekeyed;
      index_[rekeyed] = it;
      ++result.retained;
      ++it;
    } else {
      it = lru_.erase(it);
      ++result.evicted;
      ++invalidations_;
      GlobalCacheMetrics().invalidations->Increment();
    }
  }
  return result;
}

void ContextCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

int64_t ContextCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(lru_.size());
}

int64_t ContextCache::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_;
}

uint64_t ContextCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ContextCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t ContextCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

uint64_t ContextCache::invalidations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return invalidations_;
}

}  // namespace serve
}  // namespace cgnp
