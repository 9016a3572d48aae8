// LRU cache of decoded cgnp requests -- the serving-time expression of the
// paper's key inference asymmetry (Algorithm 2): the support set is encoded
// ONCE, after which a repeated request is answered without building its
// task or running the model at all.
//
// What an entry holds. CommunitySearchEngine::Query keys an entry on the
// request as sent -- (graph id, RequestFingerprint, graph version), where
// the fingerprint hashes every input of the deterministic BuildQueryTask
// (query, support lists in parent ids, |V|, subgraph size, seed) -- and
// stores MemberScores: the sigmoid member probability of every task node,
// in task order, with the task's node list. Those probabilities are a
// deterministic function of the task and its context for every decoder
// (inner product, MLP, GNN), so a hit is just the threshold filter over the
// stored order, and its members and probs are bitwise equal to a fresh
// decode at any threshold. Entries hold neither the context nor the task
// graph: a 200-node task's entry is about 4 KB instead of 27 KB. The key
// trusts graph_id to tell graphs apart (callers give distinct ids to
// distinct graphs).
//
// Context entries. The Tensor overloads of Get/Put keep the pre-request
// layout -- a context keyed by TaskFingerprint of the materialised task --
// for callers that replay the task-build/encode/decode pipeline step by
// step (the repository benchmark's traced run). The engine no longer uses
// them.
//
// Dynamic graphs and scoped invalidation. The version component makes the
// cache safe under graph mutation: requests against version N never see
// entries computed at version M != N. Rather than flushing everything on
// every update, ScopedInvalidate exploits the determinism of the task
// sampler: a task's subgraph is materialised by reading the adjacency of
// exactly the nodes in its node list, so an entry whose recorded node set
// is disjoint from the update's dirty region would be rebuilt bit-identical
// at the new version -- its value is still exact and the entry is RE-KEYED
// to the new version instead of evicted. Only entries touching the dirty
// region (or whose coverage was never recorded) are dropped.
//
// Thread safety: all methods are safe to call concurrently. Cached values
// (contexts produced under NoGradGuard, member scores) are immutable once
// stored.
#ifndef CGNP_SERVE_CONTEXT_CACHE_H_
#define CGNP_SERVE_CONTEXT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "tensor/tensor.h"

namespace cgnp {
namespace serve {

// 64-bit FNV-1a over the local task's identity: subgraph node list, local
// query, and every support example's (query, pos, neg) lists. Two tasks
// with equal fingerprints feed the encoder identical inputs (modulo hash
// collisions, ~2^-64 per pair). The key of context entries.
uint64_t TaskFingerprint(const LocalQueryTask& task);

// 64-bit FNV-1a over a cgnp request's task inputs as sent: |V|, the query,
// every support example's (query, pos, neg) lists in parent ids, the task
// subgraph size and the engine seed. On one graph version these determine
// BuildQueryTask's output, so two requests with equal fingerprints decode
// to the same member scores. The key of request entries.
uint64_t RequestFingerprint(int64_t num_nodes, NodeId query,
                            const std::vector<QueryExample>& support,
                            int64_t subgraph_size, uint64_t seed);

// What one cgnp request decodes to before the threshold is applied.
struct MemberScores {
  // The task's nodes in parent ids, in task order; nodes[0] is the query
  // (the BFS seed).
  std::vector<NodeId> nodes;
  // Sigmoid member probability of each node, aligned with `nodes`.
  std::vector<float> probs;
};

class ContextCache {
 public:
  struct Key {
    uint64_t graph_id = 0;
    uint64_t fingerprint = 0;
    // Graph version the context was encoded at (0 for static serving --
    // the pre-dynamic behaviour is the default).
    uint64_t version = 0;
    bool operator==(const Key& o) const {
      return graph_id == o.graph_id && fingerprint == o.fingerprint &&
             version == o.version;
    }
  };

  // Outcome of one ScopedInvalidate sweep over a graph's entries.
  struct InvalidationResult {
    int64_t evicted = 0;   // entries touching the dirty region (or with
                           // unrecorded coverage) dropped
    int64_t retained = 0;  // disjoint entries re-keyed to the new version
  };

  // `capacity` = max resident contexts; <= 0 disables caching entirely
  // (Get always misses, Put is a no-op).
  explicit ContextCache(int64_t capacity);

  // The right to fill one missed request key. While the miss that owns a
  // key's claim is in flight, Gets of that key wait for it instead of
  // missing too (single-flight), so N concurrent requests for one cold key
  // cost one miss and N - 1 hits. Put fills the key and releases the
  // claim. A claim dropped unfilled -- the miss failed -- hands the failure
  // to the Gets already waiting for it: each returns a miss at once with a
  // claim that may Put but holds nobody up, so they run their own misses
  // side by side instead of one after another.
  class Claim {
   public:
    Claim() = default;
    Claim(Claim&& other) noexcept
        : cache_(std::exchange(other.cache_, nullptr)),
          key_(other.key_),
          owns_flight_(other.owns_flight_) {}
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;
    Claim& operator=(Claim&&) = delete;
    ~Claim();

   private:
    friend class ContextCache;
    ContextCache* cache_ = nullptr;  // null: holds nothing
    Key key_;
    // Whether other Gets of the key wait for this claim.
    bool owns_flight_ = false;
  };

  // On hit, shares the stored scores into *out, promotes the entry to
  // most-recently-used, and returns true. While another caller's miss of
  // the key is in flight, waits for it to be filled or dropped first. On a
  // miss, returns false and hands the caller a claim in *claim, which must
  // be empty (and stays empty when caching is disabled); the caller fills
  // it with Put. An entry holding a context is a miss here (and a scores
  // entry is one for the Tensor overload).
  bool Get(const Key& key, std::shared_ptr<const MemberScores>* out,
           Claim* claim);
  // Inserts (or refreshes) the claimed key's request entry, evicting the
  // least-recently-used entry when over capacity, then releases the claim.
  // Its coverage is the set of `scores.nodes`. No-op for an empty claim.
  void Put(Claim claim, MemberScores scores);

  // Context entries, same LRU and counters. On hit, copies the cached
  // context into *out. `nodes` records which parent-graph nodes the
  // context depends on (the task's subgraph node list; will be sorted) --
  // the coverage ScopedInvalidate checks against. The two-arg Put records
  // no coverage, so such entries never survive a scoped invalidation of
  // their graph.
  bool Get(const Key& key, Tensor* out);
  void Put(const Key& key, Tensor context);
  void Put(const Key& key, Tensor context, std::vector<NodeId> nodes);

  // Version rollover for `graph_id` after an update touching the sorted
  // node set `dirty`: entries of other graphs are untouched; entries of
  // this graph are evicted when their recorded coverage intersects `dirty`
  // (or was never recorded), and re-keyed to `new_version` otherwise --
  // their values are provably bit-identical at the new version (the
  // deterministic sampler reads only covered nodes' adjacency). LRU order
  // is preserved across re-keying.
  InvalidationResult ScopedInvalidate(uint64_t graph_id, uint64_t new_version,
                                      const std::vector<NodeId>& dirty);

  void Clear();

  int64_t size() const;
  int64_t capacity() const { return capacity_; }
  // Gets currently waiting for another caller's miss of the same key.
  int64_t waiting() const;
  uint64_t hits() const;
  uint64_t misses() const;
  // Entries displaced by capacity pressure over the cache's lifetime
  // (Clear() does not count as eviction).
  uint64_t evictions() const;
  // Entries dropped by ScopedInvalidate over the cache's lifetime.
  uint64_t invalidations() const;

 private:
  // Holds a context or scores, never both.
  struct Entry {
    Key key;
    Tensor context;
    std::shared_ptr<const MemberScores> scores;
    // Sorted parent-graph nodes the value depends on; empty = unknown.
    std::vector<NodeId> nodes;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Fingerprints are already well-mixed; fold in graph id and version.
      return static_cast<size_t>(k.fingerprint ^
                                 (k.graph_id * 0x9E3779B97F4A7C15ull) ^
                                 (k.version * 0xC2B2AE3D27D4EB4Full));
    }
  };

  const int64_t capacity_;
  mutable std::mutex mu_;
  // Most-recently-used at the front.
  std::list<Entry> lru_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  // One miss in flight: the owning Claim's progress, shared with the Gets
  // that wait for it.
  struct Flight {
    enum State { kInFlight, kFilled, kFailed } state = kInFlight;
  };
  // Request keys whose owning Claim is alive; Gets of them wait on
  // flight_done_ until the flight leaves kInFlight.
  std::unordered_map<Key, std::shared_ptr<Flight>, KeyHash> flights_;
  std::condition_variable flight_done_;
  int64_t waiting_ = 0;

  // The entry under `key` promoted to most-recently-used, or nullptr when
  // absent or holding the other kind of value. Caller holds mu_.
  const Entry* Find(const Key& key, bool want_scores);
  // Counts one lookup's outcome. Caller holds mu_.
  void Count(bool hit);
  // Ends `key`'s flight as filled or failed and wakes the Gets waiting
  // for it. Only the owning Claim calls it, and a key has at most one
  // owning Claim, so the flight is always there.
  void Finish(const Key& key, Flight::State state);
  // Shared insert/refresh/evict step of the Put overloads.
  void Insert(Entry entry);
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace serve
}  // namespace cgnp

#endif  // CGNP_SERVE_CONTEXT_CACHE_H_
