#include "cs/dynamic.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_set>

#include "graph/algorithms.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cgnp {

namespace {

void InsertSorted(std::vector<NodeId>* row, NodeId v) {
  row->insert(std::lower_bound(row->begin(), row->end(), v), v);
}

void EraseSorted(std::vector<NodeId>* row, NodeId v) {
  const auto it = std::lower_bound(row->begin(), row->end(), v);
  if (it != row->end() && *it == v) row->erase(it);
}

// Intersection of two sorted rows: the common neighbors of an edge's
// endpoints, i.e. the third corners of its triangles.
std::vector<NodeId> CommonNeighbors(const std::vector<NodeId>& a,
                                    const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<std::vector<NodeId>> MirrorAdjacency(const GraphView& view) {
  std::vector<std::vector<NodeId>> adj(
      static_cast<size_t>(view.num_nodes()));
  for (NodeId v = 0; v < view.num_nodes(); ++v) {
    adj[v] = view.NeighborsOf(v);
  }
  return adj;
}

}  // namespace

// --- IncrementalCoreIndex ---------------------------------------------------

IncrementalCoreIndex::IncrementalCoreIndex(const GraphView& view)
    : adj_(MirrorAdjacency(view)) {
  RecomputeAll();
}

void IncrementalCoreIndex::RecomputeAll() {
  // Batagelj-Zaversnik bucket peeling over the maintained adjacency --
  // the same O(m) batch algorithm as CoreNumbers(), rerun here only at
  // construction.
  const int64_t n = static_cast<int64_t>(adj_.size());
  core_.assign(n, 0);
  if (n == 0) return;
  std::vector<int64_t> deg(n);
  int64_t maxd = 0;
  for (NodeId v = 0; v < n; ++v) {
    deg[v] = static_cast<int64_t>(adj_[v].size());
    maxd = std::max(maxd, deg[v]);
  }
  std::vector<int64_t> bin(maxd + 1, 0);
  for (NodeId v = 0; v < n; ++v) ++bin[deg[v]];
  int64_t start = 0;
  for (int64_t d = 0; d <= maxd; ++d) {
    const int64_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<int64_t> pos(n), vert(n);
  for (NodeId v = 0; v < n; ++v) {
    pos[v] = bin[deg[v]]++;
    vert[pos[v]] = v;
  }
  for (int64_t d = maxd; d >= 1; --d) bin[d] = bin[d - 1];
  bin[0] = 0;
  for (int64_t i = 0; i < n; ++i) {
    const NodeId v = vert[i];
    core_[v] = deg[v];
    for (const NodeId u : adj_[v]) {
      if (deg[u] <= deg[v]) continue;
      // Swap u to the front of its degree bucket, then shrink the bucket.
      const int64_t du = deg[u];
      const int64_t pu = pos[u];
      const int64_t pw = bin[du];
      const NodeId w = vert[pw];
      if (u != w) {
        pos[u] = pw;
        pos[w] = pu;
        vert[pu] = w;
        vert[pw] = u;
      }
      ++bin[du];
      --deg[u];
    }
  }
}

void IncrementalCoreIndex::OnInsert(NodeId u, NodeId v) {
  InsertSorted(&adj_[u], v);
  InsertSorted(&adj_[v], u);
  const int64_t K = std::min(core_[u], core_[v]);
  // Candidate region: K-class nodes reachable from the K-class endpoint(s)
  // through K-class nodes. Only these can rise, and by at most one.
  std::vector<NodeId> stack;
  std::unordered_set<NodeId> cand;
  if (core_[u] == K) {
    cand.insert(u);
    stack.push_back(u);
  }
  if (core_[v] == K && cand.insert(v).second) stack.push_back(v);
  while (!stack.empty()) {
    const NodeId w = stack.back();
    stack.pop_back();
    for (const NodeId x : adj_[w]) {
      if (core_[x] == K && cand.insert(x).second) stack.push_back(x);
    }
  }
  // cd[w]: neighbors able to support w at level K+1 -- those already above
  // K plus fellow candidates (which would sit at K+1 if they survive).
  std::unordered_map<NodeId, int64_t> cd;
  cd.reserve(cand.size());
  for (const NodeId w : cand) {
    int64_t c = 0;
    for (const NodeId x : adj_[w]) {
      if (core_[x] > K || cand.count(x) > 0) ++c;
    }
    cd[w] = c;
  }
  // Peel: a candidate with support <= K cannot reach K+1; its drop may
  // starve neighbors. Survivors rise.
  std::deque<NodeId> peel;
  std::unordered_set<NodeId> dropped;
  for (const auto& [w, c] : cd) {
    if (c <= K) peel.push_back(w);
  }
  while (!peel.empty()) {
    const NodeId w = peel.front();
    peel.pop_front();
    if (!dropped.insert(w).second) continue;
    for (const NodeId x : adj_[w]) {
      const auto it = cd.find(x);
      if (it == cd.end() || dropped.count(x) > 0) continue;
      // Crossing K exactly is the moment x becomes unsustainable; values
      // only decrease, so this fires at most once per node.
      if (--it->second == K) peel.push_back(x);
    }
  }
  for (const NodeId w : cand) {
    if (dropped.count(w) == 0) core_[w] = K + 1;
  }
}

void IncrementalCoreIndex::OnDelete(NodeId u, NodeId v) {
  EraseSorted(&adj_[u], v);
  EraseSorted(&adj_[v], u);
  const int64_t K = std::min(core_[u], core_[v]);
  if (K == 0) return;  // a 0-core endpoint cannot drop further
  // Same candidate region as insertion, computed on the post-delete
  // adjacency: only K-class nodes connected to the endpoints through the
  // K-class can fall, and only to K-1.
  std::vector<NodeId> stack;
  std::unordered_set<NodeId> cand;
  if (core_[u] == K) {
    cand.insert(u);
    stack.push_back(u);
  }
  if (core_[v] == K && cand.insert(v).second) stack.push_back(v);
  while (!stack.empty()) {
    const NodeId w = stack.back();
    stack.pop_back();
    for (const NodeId x : adj_[w]) {
      if (core_[x] == K && cand.insert(x).second) stack.push_back(x);
    }
  }
  // cd[w]: neighbors still able to support w at level K.
  std::unordered_map<NodeId, int64_t> cd;
  cd.reserve(cand.size());
  for (const NodeId w : cand) {
    int64_t c = 0;
    for (const NodeId x : adj_[w]) {
      if (core_[x] >= K) ++c;
    }
    cd[w] = c;
  }
  std::deque<NodeId> peel;
  std::unordered_set<NodeId> dropped;
  for (const auto& [w, c] : cd) {
    if (c < K) peel.push_back(w);
  }
  while (!peel.empty()) {
    const NodeId w = peel.front();
    peel.pop_front();
    if (!dropped.insert(w).second) continue;
    core_[w] = K - 1;
    for (const NodeId x : adj_[w]) {
      const auto it = cd.find(x);
      if (it == cd.end() || dropped.count(x) > 0) continue;
      if (--it->second == K - 1) peel.push_back(x);
    }
  }
}

// --- IncrementalTrussIndex --------------------------------------------------

uint64_t IncrementalTrussIndex::EdgeKey(NodeId u, NodeId v) {
  // Precondition (checked by DynamicCommunityIndex::Create): ids < 2^32.
  const uint64_t a = static_cast<uint64_t>(std::min(u, v));
  const uint64_t b = static_cast<uint64_t>(std::max(u, v));
  return (a << 32) | b;
}

std::pair<NodeId, NodeId> IncrementalTrussIndex::KeyEdge(uint64_t key) {
  return {static_cast<NodeId>(key >> 32),
          static_cast<NodeId>(key & 0xFFFFFFFFu)};
}

IncrementalTrussIndex::IncrementalTrussIndex(const GraphView& view)
    : adj_(MirrorAdjacency(view)) {
  RecomputeAll();
}

void IncrementalTrussIndex::RecomputeAll() {
  truss_.clear();
  // Reuse the proven batch peeling: materialise a Graph from the
  // maintained adjacency and run TrussNumbers on it.
  const int64_t n = static_cast<int64_t>(adj_.size());
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : adj_[v]) {
      if (u > v) b.AddEdge(v, u);
    }
  }
  const Graph g = b.Build();
  const EdgeList el = BuildEdgeList(g);
  const std::vector<int64_t> tn = TrussNumbers(g, el);
  truss_.reserve(el.edges.size());
  for (size_t i = 0; i < el.edges.size(); ++i) {
    truss_[EdgeKey(el.edges[i].first, el.edges[i].second)] = tn[i];
  }
}

int64_t IncrementalTrussIndex::TrussOf(NodeId u, NodeId v) const {
  const auto it = truss_.find(EdgeKey(u, v));
  return it == truss_.end() ? 0 : it->second;
}

int64_t IncrementalTrussIndex::SupportedLevel(NodeId a, NodeId b,
                                              int64_t cap) const {
  // Triangle levels through (a, b): each triangle supports the edge up to
  // the weaker of its two other edges. Sorted descending, the top i+1
  // triangles prove level min(levels[i], i+3) -- a level k needs k-2 of
  // them, so k <= i+3, and each must carry >= k.
  std::vector<int64_t> levels;
  for (const NodeId c : CommonNeighbors(adj_[a], adj_[b])) {
    levels.push_back(std::min(TrussOf(a, c), TrussOf(b, c)));
  }
  std::sort(levels.begin(), levels.end(), std::greater<int64_t>());
  int64_t best = 2;
  for (size_t i = 0; i < levels.size(); ++i) {
    const int64_t k =
        std::min(levels[i], static_cast<int64_t>(i) + 3);
    best = std::max(best, std::min(k, cap));
  }
  return best;
}

void IncrementalTrussIndex::DownwardFixpoint(
    std::deque<std::pair<NodeId, NodeId>>* work,
    const std::unordered_map<uint64_t, int64_t>* floor) {
  // Chaotic iteration from an upper bound: re-prove each queued edge's
  // level; on a drop, requeue the partner edges that counted it. Values
  // only move down (to >= 2, or >= their floor), so this terminates, and
  // starting from a valid upper bound it converges to the greatest
  // consistent assignment -- the true truss numbers.
  while (!work->empty()) {
    const auto [a, b] = work->front();
    work->pop_front();
    const auto it = truss_.find(EdgeKey(a, b));
    if (it == truss_.end()) continue;  // edge no longer present
    const int64_t k = it->second;
    if (k <= 2) continue;
    int64_t knew = SupportedLevel(a, b, k);
    if (floor != nullptr) {
      const auto f = floor->find(EdgeKey(a, b));
      if (f != floor->end()) knew = std::max(knew, f->second);
    }
    if (knew >= k) continue;
    it->second = knew;
    for (const NodeId c : CommonNeighbors(adj_[a], adj_[b])) {
      const std::pair<NodeId, NodeId> partners[2] = {{a, c}, {b, c}};
      for (const auto& [x, y] : partners) {
        const auto pt = truss_.find(EdgeKey(x, y));
        if (pt == truss_.end()) continue;
        // The partner counted this triangle iff its own level fits under
        // both other edges; it loses support exactly when its level lies
        // in (knew, k].
        if (pt->second <= knew || pt->second > k) continue;
        // Insertion mode repairs only the inflated candidates; everything
        // else is already consistent.
        if (floor != nullptr && floor->count(EdgeKey(x, y)) == 0) continue;
        work->emplace_back(x, y);
      }
    }
  }
}

void IncrementalTrussIndex::OnDelete(NodeId u, NodeId v) {
  // Corners of the triangles that vanish with (u, v), taken before the
  // adjacency loses the edge.
  const std::vector<NodeId> common = CommonNeighbors(adj_[u], adj_[v]);
  EraseSorted(&adj_[u], v);
  EraseSorted(&adj_[v], u);
  truss_.erase(EdgeKey(u, v));
  // Every partner edge of a vanished triangle may have lost support; the
  // old values are still a valid upper bound (deletion never raises a
  // truss number), so the downward fixpoint repairs from them.
  std::deque<std::pair<NodeId, NodeId>> work;
  for (const NodeId w : common) {
    work.emplace_back(u, w);
    work.emplace_back(v, w);
  }
  DownwardFixpoint(&work, nullptr);
}

void IncrementalTrussIndex::OnInsert(NodeId u, NodeId v) {
  InsertSorted(&adj_[u], v);
  InsertSorted(&adj_[v], u);
  const std::vector<NodeId> common = CommonNeighbors(adj_[u], adj_[v]);
  if (common.empty()) {
    truss_[EdgeKey(u, v)] = 2;  // no triangle, nothing else can move
    return;
  }
  // Ceiling for the new edge: existing partner levels may themselves rise
  // by one, so rank min-partner-level + 1 values descending.
  std::vector<int64_t> lv;
  lv.reserve(common.size());
  for (const NodeId w : common) {
    lv.push_back(std::min(TrussOf(u, w), TrussOf(v, w)) + 1);
  }
  std::sort(lv.begin(), lv.end(), std::greater<int64_t>());
  int64_t kub = 2;
  for (size_t i = 0; i < lv.size(); ++i) {
    kub = std::max(kub, std::min(lv[i], static_cast<int64_t>(i) + 3));
  }
  // Candidate edges: for each level k < kub, the k-class edges reachable
  // from the new edge's triangles through triangles whose other two edges
  // both carry >= k (PES-style triangle connectivity). Only these can
  // rise, and by at most one. `floor` records each candidate's pre-insert
  // value -- insertion never lowers an existing truss number.
  std::unordered_map<uint64_t, int64_t> floor;
  std::deque<std::pair<NodeId, NodeId>> bfs;
  const auto consider = [&](NodeId a, NodeId b) {
    const auto it = truss_.find(EdgeKey(a, b));
    if (it == truss_.end() || it->second >= kub) return;
    if (floor.emplace(EdgeKey(a, b), it->second).second) {
      bfs.emplace_back(a, b);
    }
  };
  for (const NodeId w : common) {
    consider(u, w);
    consider(v, w);
  }
  while (!bfs.empty()) {
    const auto [a, b] = bfs.front();
    bfs.pop_front();
    const int64_t k = truss_.find(EdgeKey(a, b))->second;
    for (const NodeId c : CommonNeighbors(adj_[a], adj_[b])) {
      const int64_t t1 = TrussOf(a, c);
      const int64_t t2 = TrussOf(b, c);
      if (std::min(t1, t2) < k) continue;  // triangle too weak at level k
      if (t1 == k) consider(a, c);
      if (t2 == k) consider(b, c);
    }
  }
  // Optimistic lift: candidates up one, the new edge to its ceiling; then
  // the floored downward fixpoint settles everything that over-reached.
  std::deque<std::pair<NodeId, NodeId>> work;
  for (auto& [key, old] : floor) {
    truss_[key] = old + 1;
    work.push_back(KeyEdge(key));
  }
  truss_[EdgeKey(u, v)] = kub;
  floor.emplace(EdgeKey(u, v), 2);
  work.emplace_back(u, v);
  DownwardFixpoint(&work, &floor);
}

// --- DynamicCommunityIndex --------------------------------------------------

StatusOr<std::shared_ptr<DynamicCommunityIndex>> DynamicCommunityIndex::Create(
    std::shared_ptr<const Graph> base) {
  if (base == nullptr) {
    return InvalidArgumentError(
        "DynamicCommunityIndex needs a base snapshot (got null)");
  }
  if (base->num_nodes() > (int64_t{1} << 32)) {
    return InvalidArgumentError(
        "DynamicCommunityIndex packs two node ids per edge key: graphs "
        "above 2^32 nodes are unsupported (got " +
        std::to_string(base->num_nodes()) + ")");
  }
  return std::shared_ptr<DynamicCommunityIndex>(
      new DynamicCommunityIndex(std::move(base)));
}

DynamicCommunityIndex::DynamicCommunityIndex(std::shared_ptr<const Graph> base)
    : delta_(std::make_unique<GraphDelta>(std::move(base))),
      core_(*delta_),
      truss_(*delta_) {}

Status DynamicCommunityIndex::InsertEdge(NodeId u, NodeId v) {
  std::unique_lock lock(mu_);
  const uint64_t before = delta_->version();
  CGNP_RETURN_IF_ERROR(delta_->InsertEdge(u, v));
  // Idempotent re-insert: the delta accepted it as a no-op (version
  // unchanged), so the indices must not see it either.
  if (delta_->version() == before) return Status::Ok();
  core_.OnInsert(u, v);
  truss_.OnInsert(u, v);
  return Status::Ok();
}

Status DynamicCommunityIndex::DeleteEdge(NodeId u, NodeId v) {
  std::unique_lock lock(mu_);
  CGNP_RETURN_IF_ERROR(delta_->DeleteEdge(u, v));
  core_.OnDelete(u, v);
  truss_.OnDelete(u, v);
  return Status::Ok();
}

Status DynamicCommunityIndex::Apply(const GraphEdit& edit) {
  return edit.insert ? InsertEdge(edit.u, edit.v)
                     : DeleteEdge(edit.u, edit.v);
}

Status DynamicCommunityIndex::ValidateQuery(NodeId q) const {
  if (delta_->num_nodes() == 0) {
    return InvalidArgumentError("cannot search an empty graph");
  }
  return CheckNodeId(delta_->base(), q, "query");
}

StatusOr<std::vector<NodeId>> DynamicCommunityIndex::KCoreCommunity(
    NodeId q, int64_t k) const {
  std::shared_lock lock(mu_);
  CGNP_RETURN_IF_ERROR(ValidateQuery(q));
  const std::vector<int64_t>& core = core_.core();
  const auto& adj = core_.adjacency();
  // Same contract as the batch KCoreCommunity: k = -1 means the maximal
  // feasible k for q (its core number), k = 0 is trivially {q}.
  if (k < 0) k = core[q];
  if (k == 0) return std::vector<NodeId>{q};
  if (core[q] < k) return std::vector<NodeId>{};
  // Connected k-core containing q, members in ascending id order --
  // exactly what ConnectedKCoreContaining produces.
  const int64_t n = static_cast<int64_t>(adj.size());
  std::vector<char> seen(n, 0);
  std::deque<NodeId> queue;
  seen[q] = 1;
  queue.push_back(q);
  while (!queue.empty()) {
    const NodeId w = queue.front();
    queue.pop_front();
    for (const NodeId x : adj[w]) {
      if (core[x] >= k && !seen[x]) {
        seen[x] = 1;
        queue.push_back(x);
      }
    }
  }
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n; ++v) {
    if (seen[v]) out.push_back(v);
  }
  return out;
}

StatusOr<std::vector<NodeId>> DynamicCommunityIndex::KTrussCommunity(
    NodeId q, int64_t k) const {
  std::shared_lock lock(mu_);
  CGNP_RETURN_IF_ERROR(ValidateQuery(q));
  const auto& adj = core_.adjacency();
  if (k < 0) {
    // Max feasible k for q: the strongest truss among q's incident edges
    // (2 when q has edges but no triangles, 1 when isolated) -- the
    // MaxTrussOf contract.
    int64_t best = adj[q].empty() ? 1 : 2;
    for (const NodeId x : adj[q]) {
      best = std::max(best, truss_.TrussOf(q, x));
    }
    k = best;
  }
  if (k <= 2 && adj[q].empty()) return std::vector<NodeId>{q};
  // BFS from q over edges with truss >= k, members in BFS discovery order
  // -- byte-for-byte the ConnectedKTrussContaining traversal (sorted
  // adjacency gives the same push order as the CSR).
  const int64_t n = static_cast<int64_t>(adj.size());
  std::vector<char> seen(n, 0);
  std::deque<NodeId> queue;
  std::vector<NodeId> out;
  seen[q] = 1;
  queue.push_back(q);
  bool q_has_edge = false;
  while (!queue.empty()) {
    const NodeId w = queue.front();
    queue.pop_front();
    out.push_back(w);
    for (const NodeId x : adj[w]) {
      if (truss_.TrussOf(w, x) < k) continue;
      if (w == q) q_has_edge = true;
      if (!seen[x]) {
        seen[x] = 1;
        queue.push_back(x);
      }
    }
  }
  if (!q_has_edge && k > 2) return std::vector<NodeId>{};
  return out;
}

std::vector<int64_t> DynamicCommunityIndex::CurrentCoreNumbers() const {
  std::shared_lock lock(mu_);
  return core_.core();
}

int64_t DynamicCommunityIndex::CurrentTrussOf(NodeId u, NodeId v) const {
  std::shared_lock lock(mu_);
  return truss_.TrussOf(u, v);
}

uint64_t DynamicCommunityIndex::version() const {
  std::shared_lock lock(mu_);
  return delta_->version();
}

int64_t DynamicCommunityIndex::delta_depth() const {
  std::shared_lock lock(mu_);
  return delta_->depth();
}

int64_t DynamicCommunityIndex::num_nodes() const {
  std::shared_lock lock(mu_);
  return delta_->num_nodes();
}

int64_t DynamicCommunityIndex::num_edges() const {
  std::shared_lock lock(mu_);
  return delta_->num_edges();
}

std::vector<NodeId> DynamicCommunityIndex::DirtyNodes() const {
  std::shared_lock lock(mu_);
  return delta_->DirtyNodes();
}

std::shared_ptr<const Graph> DynamicCommunityIndex::Compact() {
  std::unique_lock lock(mu_);
  auto snapshot = std::make_shared<const Graph>(delta_->Compact());
  delta_ = std::make_unique<GraphDelta>(snapshot, delta_->version());
  return snapshot;
}

// --- Registry adapters ------------------------------------------------------

namespace {

// Adapter answering from a shared DynamicCommunityIndex at its current
// version. The Graph argument of Search only names the logical graph the
// caller believes it is querying; structure comes from the index (which
// may be ahead of any compacted snapshot the caller holds).
class IncrementalSearcher : public CommunitySearcher {
 public:
  IncrementalSearcher(std::string name,
                      std::shared_ptr<DynamicCommunityIndex> index,
                      bool truss, int64_t k)
      : name_(std::move(name)),
        index_(std::move(index)),
        truss_(truss),
        k_(k),
        search_ms_(&obs::MetricsRegistry::Default().GetHistogram(
            "cgnp_backend_search_ms", {{"backend", name_}})) {}

  const std::string& name() const override { return name_; }

  StatusOr<QueryResult> Search(const Graph& g, NodeId query,
                               const std::vector<QueryExample>& labelled,
                               const QueryOptions& options) const override {
    (void)g;
    (void)labelled;  // crisp structural membership, no supervision
    (void)options;
    CGNP_TRACE_SPAN("search");
    QueryResult result;
    result.backend = name_;
    const auto start = std::chrono::steady_clock::now();
    CGNP_ASSIGN_OR_RETURN(result.members,
                          truss_ ? index_->KTrussCommunity(query, k_)
                                 : index_->KCoreCommunity(query, k_));
    const auto end = std::chrono::steady_clock::now();
    result.elapsed_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    search_ms_->Record(result.elapsed_ms);
    return result;
  }

 private:
  const std::string name_;
  const std::shared_ptr<DynamicCommunityIndex> index_;
  const bool truss_;
  const int64_t k_;
  obs::Histogram* const search_ms_;
};

StatusOr<std::unique_ptr<CommunitySearcher>> MakeIncremental(
    const std::string& name, const SearcherConfig& cfg, bool truss) {
  if (cfg.dynamic_index == nullptr) {
    return InvalidArgumentError(
        "the \"" + name +
        "\" backend needs SearcherConfig::dynamic_index (a "
        "DynamicCommunityIndex over the served graph)");
  }
  return std::unique_ptr<CommunitySearcher>(
      new IncrementalSearcher(name, cfg.dynamic_index, truss, cfg.k));
}

}  // namespace

SearcherFactory MakeIncrementalCoreSearcherFactory() {
  return [](const SearcherConfig& cfg) {
    return MakeIncremental("kcore_inc", cfg, /*truss=*/false);
  };
}

SearcherFactory MakeIncrementalTrussSearcherFactory() {
  return [](const SearcherConfig& cfg) {
    return MakeIncremental("ktruss_inc", cfg, /*truss=*/true);
  };
}

}  // namespace cgnp
