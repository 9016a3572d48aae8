#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace cgnp {

namespace {

// Attribute CSR of the sets set(0), ..., set(n - 1), in two allocations.
template <typename SetOf>
std::pair<std::vector<int64_t>, std::vector<int32_t>> FlattenAttributes(
    size_t n, SetOf set) {
  std::vector<int64_t> ptr(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    ptr[i + 1] = ptr[i] + static_cast<int64_t>(set(i).size());
  }
  std::vector<int32_t> ids;
  ids.reserve(static_cast<size_t>(ptr[n]));
  for (size_t i = 0; i < n; ++i) {
    ids.insert(ids.end(), set(i).begin(), set(i).end());
  }
  return {std::move(ptr), std::move(ids)};
}

}  // namespace

Status CheckNodeId(const Graph& g, NodeId v, const char* what) {
  if (v < 0 || v >= g.num_nodes()) {
    return OutOfRangeError(std::string(what) + " node id " +
                           std::to_string(v) + " out of range [0, " +
                           std::to_string(g.num_nodes()) + ")");
  }
  return Status::Ok();
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  auto nb = Neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

Tensor Graph::FeatureTensor() const {
  CGNP_CHECK(has_features());
  const auto f = features();
  return Tensor::FromVector({num_nodes_, feature_dim_},
                            std::vector<float>(f.begin(), f.end()));
}

int64_t Graph::num_communities() const {
  int64_t mx = -1;
  for (int64_t c : communities()) mx = std::max(mx, c);
  return mx + 1;
}

std::vector<NodeId> Graph::CommunityMembers(int64_t c) const {
  const auto comm = communities();
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (comm[v] == c) out.push_back(v);
  }
  return out;
}

const SparseMatrix& Graph::GcnAdjacency() const {
  if (gcn_adj_built_) return gcn_adj_;
  // A_hat = D^{-1/2} (A + I) D^{-1/2}, with D the degree of (A + I).
  const int64_t n = num_nodes_;
  std::vector<float> inv_sqrt_deg(n);
  ParallelFor(0, n, /*grain=*/1024, [&](int64_t lo, int64_t hi) {
    for (NodeId v = lo; v < hi; ++v) {
      inv_sqrt_deg[v] = 1.0f / std::sqrt(static_cast<float>(Degree(v) + 1));
    }
  });
  std::vector<int64_t> rp(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) rp[v + 1] = rp[v] + Degree(v) + 1;
  std::vector<int64_t> ci(rp[n]);
  std::vector<float> vals(rp[n]);
  // Each node fills its own [rp[v], rp[v+1]) slice -- disjoint per chunk.
  ParallelFor(0, n, /*grain=*/256, [&](int64_t lo, int64_t hi) {
    for (NodeId v = lo; v < hi; ++v) {
      int64_t pos = rp[v];
      bool self_placed = false;
      for (NodeId u : Neighbors(v)) {
        if (!self_placed && u > v) {
          ci[pos] = v;
          vals[pos] = inv_sqrt_deg[v] * inv_sqrt_deg[v];
          ++pos;
          self_placed = true;
        }
        ci[pos] = u;
        vals[pos] = inv_sqrt_deg[v] * inv_sqrt_deg[u];
        ++pos;
      }
      if (!self_placed) {
        ci[pos] = v;
        vals[pos] = inv_sqrt_deg[v] * inv_sqrt_deg[v];
        ++pos;
      }
      CGNP_CHECK_EQ(pos, rp[v + 1]);
    }
  });
  gcn_adj_ = SparseMatrix(n, n, std::move(rp), std::move(ci), std::move(vals));
  gcn_adj_.set_is_symmetric(true);
  gcn_adj_built_ = true;
  return gcn_adj_;
}

const SparseMatrix& Graph::MeanAdjacency() const {
  if (mean_adj_built_) return mean_adj_;
  const int64_t n = num_nodes_;
  std::vector<int64_t> rp(row_ptr().begin(), row_ptr().end());
  std::vector<int64_t> ci(col_idx().begin(), col_idx().end());
  std::vector<float> vals(ci.size());
  ParallelFor(0, n, /*grain=*/512, [&](int64_t lo, int64_t hi) {
    for (NodeId v = lo; v < hi; ++v) {
      const float inv =
          Degree(v) > 0 ? 1.0f / static_cast<float>(Degree(v)) : 0.0f;
      for (int64_t e = rp[v]; e < rp[v + 1]; ++e) vals[e] = inv;
    }
  });
  mean_adj_ = SparseMatrix(n, n, std::move(rp), std::move(ci), std::move(vals));
  // Row-normalisation breaks symmetry; backward uses the explicit transpose.
  mean_adj_.set_is_symmetric(false);
  mean_adj_built_ = true;
  return mean_adj_;
}

const Graph::EdgeIndex& Graph::AttentionEdges() const {
  if (attn_edges_built_) return attn_edges_;
  const int64_t n = num_nodes_;
  EdgeIndex idx;
  idx.seg_ptr.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) idx.seg_ptr[v + 1] = idx.seg_ptr[v] + Degree(v) + 1;
  const int64_t m = idx.seg_ptr[n];
  idx.src.resize(m);
  idx.dst.resize(m);
  // Each node fills its own segment -- disjoint per chunk.
  ParallelFor(0, n, /*grain=*/256, [&](int64_t lo, int64_t hi) {
    for (NodeId v = lo; v < hi; ++v) {
      int64_t pos = idx.seg_ptr[v];
      idx.src[pos] = v;  // self loop first
      idx.dst[pos] = v;
      ++pos;
      for (NodeId u : Neighbors(v)) {
        idx.src[pos] = u;
        idx.dst[pos] = v;
        ++pos;
      }
    }
  });
  attn_edges_ = std::move(idx);
  attn_edges_built_ = true;
  return attn_edges_;
}

Graph Graph::WithFeatures(int64_t dim, std::vector<float> features) && {
  CGNP_CHECK(!mapping_) << " WithFeatures needs a vector-backed graph";
  CGNP_CHECK_EQ(static_cast<int64_t>(features.size()), num_nodes_ * dim);
  feature_dim_ = dim;
  features_ = std::move(features);
  return std::move(*this);
}

GraphBuilder::GraphBuilder(int64_t num_nodes) : num_nodes_(num_nodes) {
  CGNP_CHECK_GE(num_nodes, 0);
}

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  CGNP_CHECK_GE(u, 0);
  CGNP_CHECK_LT(u, num_nodes_);
  CGNP_CHECK_GE(v, 0);
  CGNP_CHECK_LT(v, num_nodes_);
  edges_.emplace_back(u, v);
}

void GraphBuilder::SetFeatures(int64_t dim, std::vector<float> features) {
  CGNP_CHECK_EQ(static_cast<int64_t>(features.size()), num_nodes_ * dim);
  feature_dim_ = dim;
  features_ = std::move(features);
}

void GraphBuilder::SetAttributes(std::vector<std::vector<int32_t>> attrs) {
  auto [ptr, ids] = FlattenAttributes(
      attrs.size(), [&](size_t v) -> const auto& { return attrs[v]; });
  SetAttributes(std::move(ptr), std::move(ids));
}

void GraphBuilder::SetAttributes(std::vector<int64_t> attr_ptr,
                                 std::vector<int32_t> attr_ids) {
  CGNP_CHECK_EQ(static_cast<int64_t>(attr_ptr.size()), num_nodes_ + 1);
  CGNP_CHECK_EQ(attr_ptr.front(), 0);
  CGNP_CHECK_EQ(attr_ptr.back(), static_cast<int64_t>(attr_ids.size()));
  for (int64_t v = 0; v < num_nodes_; ++v) {
    CGNP_CHECK_LE(attr_ptr[v], attr_ptr[v + 1]);
    std::sort(attr_ids.begin() + attr_ptr[v],
              attr_ids.begin() + attr_ptr[v + 1]);
  }
  attr_ptr_ = std::move(attr_ptr);
  attr_ids_ = std::move(attr_ids);
}

void GraphBuilder::SetCommunities(std::vector<int64_t> community) {
  CGNP_CHECK_EQ(static_cast<int64_t>(community.size()), num_nodes_);
  community_ = std::move(community);
}

Graph GraphBuilder::Build() {
  // Canonicalise: drop self loops, deduplicate, emit both directions sorted.
  //
  // Parallel CSR construction. Instead of globally sorting the directed edge
  // list (O(E log E) serial), bucket edges per node with a counting pass and
  // prefix sum, then sort + dedup each node's bucket independently
  // (ParallelFor over nodes) and compact through a second prefix sum. Every
  // adjacency list ends up sorted and duplicate-free, which is exactly what
  // the global sort produced -- the CSR is identical for any thread count.
  const int64_t n = num_nodes_;
  std::vector<int64_t> deg(n, 0);
  for (auto [u, v] : edges_) {
    if (u == v) continue;
    ++deg[u];
    ++deg[v];
  }
  std::vector<int64_t> bucket_ptr(n + 1, 0);
  for (int64_t i = 0; i < n; ++i) bucket_ptr[i + 1] = bucket_ptr[i] + deg[i];
  std::vector<NodeId> bucket(bucket_ptr[n]);
  {
    std::vector<int64_t> cursor(bucket_ptr.begin(), bucket_ptr.end() - 1);
    for (auto [u, v] : edges_) {
      if (u == v) continue;
      bucket[cursor[u]++] = v;
      bucket[cursor[v]++] = u;
    }
  }
  // Per-node sort + dedup, in place within each node's disjoint slice.
  std::vector<int64_t> uniq(n, 0);
  ParallelFor(0, n, /*grain=*/256, [&](int64_t lo, int64_t hi) {
    for (int64_t v = lo; v < hi; ++v) {
      NodeId* first = bucket.data() + bucket_ptr[v];
      NodeId* last = bucket.data() + bucket_ptr[v + 1];
      std::sort(first, last);
      uniq[v] = std::unique(first, last) - first;
    }
  });

  Graph g;
  g.num_nodes_ = n;
  g.row_ptr_.assign(n + 1, 0);
  for (int64_t i = 0; i < n; ++i) g.row_ptr_[i + 1] = g.row_ptr_[i] + uniq[i];
  g.col_idx_.resize(g.row_ptr_[n]);
  ParallelFor(0, n, /*grain=*/256, [&](int64_t lo, int64_t hi) {
    for (int64_t v = lo; v < hi; ++v) {
      std::copy(bucket.begin() + bucket_ptr[v],
                bucket.begin() + bucket_ptr[v] + uniq[v],
                g.col_idx_.begin() + g.row_ptr_[v]);
    }
  });
  g.feature_dim_ = feature_dim_;
  g.features_ = std::move(features_);
  g.attr_ptr_ = std::move(attr_ptr_);
  g.attr_ids_ = std::move(attr_ids_);
  g.community_ = std::move(community_);
  return g;
}

Graph GraphBuilder::FromLocalRows(const Graph& parent,
                                  std::span<const NodeId> nodes,
                                  std::vector<int64_t> row_ptr,
                                  std::vector<NodeId> col_idx) {
  const size_t n = nodes.size();
  CGNP_CHECK_EQ(row_ptr.size(), n + 1);
  CGNP_CHECK_EQ(row_ptr.front(), 0);
  CGNP_CHECK_EQ(row_ptr.back(), static_cast<int64_t>(col_idx.size()));
  Graph g;
  g.num_nodes_ = static_cast<int64_t>(n);
  g.row_ptr_ = std::move(row_ptr);
  g.col_idx_ = std::move(col_idx);
  if (parent.has_features()) {
    const int64_t d = parent.feature_dim();
    g.feature_dim_ = d;
    g.features_.resize(n * d);
    for (size_t i = 0; i < n; ++i) {
      const float* src = parent.features().data() + nodes[i] * d;
      std::copy(src, src + d, g.features_.data() + i * d);
    }
  }
  if (parent.has_attributes()) {
    std::tie(g.attr_ptr_, g.attr_ids_) = FlattenAttributes(
        n, [&](size_t i) { return parent.Attributes(nodes[i]); });
  }
  if (parent.has_communities()) {
    g.community_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      g.community_[i] = parent.CommunityOf(nodes[i]);
    }
  }
  return g;
}

}  // namespace cgnp
