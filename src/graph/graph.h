// Immutable undirected attributed graph in CSR form.
//
// A Graph stores:
//   * structure: CSR adjacency (every undirected edge appears in both
//     directions; no self loops; no parallel edges),
//   * optional dense node features (row-major n x d floats) used as GNN
//     inputs,
//   * optional discrete attribute-id sets per node, as a second CSR
//     (attr_ptr / attr_ids; used by the attributed community-search
//     algorithms ACQ and ATC, mirroring the paper's one-hot attribute
//     vectors A(v)),
//   * optional ground-truth community labels (community id per node, -1 if
//     unlabelled) used by the dataset substrate to derive training samples.
//
// Construction goes through GraphBuilder, which deduplicates edges and
// canonicalises the CSR ordering (sorted neighbor lists), so algorithms can
// rely on sorted adjacency for O(deg) set intersections.
//
// Storage backing. A Graph is a *view over storage*: the CSR arrays (and
// the dense feature / attribute / community arrays) are exposed as spans
// backed either by owned heap vectors (GraphBuilder::Build, the loaders'
// copying path) or by a read-only memory-mapped graph container
// (graph/format.h, MapGraphBinary) -- million-node graphs then load in
// O(pages touched) without materialising vectors. Both backings satisfy
// the same invariants (the binary loader validates them before handing a
// Graph out) and every algorithm in the library runs on either. Copies of
// a mapped Graph share one mapping via shared_ptr; the pages unmap when
// the last copy dies.
#ifndef CGNP_GRAPH_GRAPH_H_
#define CGNP_GRAPH_GRAPH_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace cgnp {

using NodeId = int64_t;

class MappedFile;  // graph/storage.h; held only behind shared_ptr here

// Which storage backs a Graph's CSR spans.
enum class GraphBacking {
  kVector,  // owned heap vectors (GraphBuilder, copying loaders)
  kMapped,  // read-only mmap of a binary graph container (format.h)
};

class Graph {
 public:
  Graph() = default;

  int64_t num_nodes() const { return num_nodes_; }
  // Number of undirected edges. No precondition: a default-constructed /
  // empty graph answers 0 (row_ptr() is always at least {0}).
  int64_t num_edges() const { return static_cast<int64_t>(col_idx().size()) / 2; }

  // Precondition: v in [0, num_nodes()) -- in particular NO id is valid on
  // an empty graph. Asserted in debug builds; it is unchecked in release
  // builds (this is the hottest accessor in the library), so external
  // input must be gated through the Status-returning CheckNodeId() below
  // before reaching here. Same contract for Neighbors().
  int64_t Degree(NodeId v) const {
    assert(v >= 0 && v < num_nodes_);
    const auto rp = row_ptr();
    return rp[v + 1] - rp[v];
  }
  // Sorted neighbor list of v. Precondition: v in [0, num_nodes()), as
  // Degree() documents.
  std::span<const NodeId> Neighbors(NodeId v) const {
    assert(v >= 0 && v < num_nodes_);
    const auto rp = row_ptr();
    return col_idx().subspan(rp[v], static_cast<size_t>(rp[v + 1] - rp[v]));
  }
  bool HasEdge(NodeId u, NodeId v) const;

  // CSR arrays of the current backing. Valid as long as this Graph (or any
  // copy of it) is alive; for mapped graphs they point straight into the
  // file's pages.
  std::span<const int64_t> row_ptr() const {
    return mapping_ ? row_ptr_view_ : std::span<const int64_t>(row_ptr_);
  }
  std::span<const NodeId> col_idx() const {
    return mapping_ ? col_idx_view_ : std::span<const NodeId>(col_idx_);
  }

  // --- Storage backing ------------------------------------------------------
  GraphBacking backing() const {
    return mapping_ ? GraphBacking::kMapped : GraphBacking::kVector;
  }
  // Stable identity of the backing container for mapped graphs: an FNV-1a
  // fold of the file header and every section checksum (graph/format.h),
  // identical across processes mapping the same file -- a ready-made
  // SearchRequest::graph_id for the serving context cache. 0 for
  // vector-backed graphs (they have no durable identity).
  uint64_t storage_fingerprint() const { return storage_fingerprint_; }

  // --- Dense features -------------------------------------------------------
  bool has_features() const { return feature_dim_ > 0; }
  int64_t feature_dim() const { return feature_dim_; }
  // Feature matrix as a (non-differentiable) {n, d} tensor.
  Tensor FeatureTensor() const;
  std::span<const float> features() const {
    return mapping_ ? features_view_ : std::span<const float>(features_);
  }

  // --- Discrete attributes (for ACQ / ATC) ----------------------------------
  // Attribute CSR (the container's layout): node v's sorted ids are
  // attr_ids()[attr_ptr()[v], attr_ptr()[v + 1]); attr_ptr() is empty
  // when the graph carries no attributes.
  bool has_attributes() const { return attr_ptr().size() > 1; }
  // Sorted attribute ids of node v (empty when absent).
  std::span<const int32_t> Attributes(NodeId v) const {
    if (!has_attributes()) return {};
    const auto ap = attr_ptr();
    return attr_ids().subspan(ap[v], static_cast<size_t>(ap[v + 1] - ap[v]));
  }
  std::span<const int64_t> attr_ptr() const {
    return mapping_ ? attr_ptr_view_ : std::span<const int64_t>(attr_ptr_);
  }
  std::span<const int32_t> attr_ids() const {
    return mapping_ ? attr_ids_view_ : std::span<const int32_t>(attr_ids_);
  }

  // --- Ground-truth communities ---------------------------------------------
  bool has_communities() const { return !communities().empty(); }
  // Community id of v, or -1 when unlabelled.
  int64_t CommunityOf(NodeId v) const { return communities()[v]; }
  std::span<const int64_t> communities() const {
    return mapping_ ? community_view_ : std::span<const int64_t>(community_);
  }
  int64_t num_communities() const;
  // All members of community c.
  std::vector<NodeId> CommunityMembers(int64_t c) const;

  // --- GNN adjacency views (cached) -----------------------------------------
  // Symmetrically normalised adjacency with self loops:
  //   D^{-1/2} (A + I) D^{-1/2}       (GCN propagation matrix)
  const SparseMatrix& GcnAdjacency() const;
  // Row-normalised adjacency without self loops: mean over neighbors (SAGE).
  const SparseMatrix& MeanAdjacency() const;

  // Per-edge index with self loops for attention layers: edges grouped by
  // destination (CSR segments).
  struct EdgeIndex {
    std::vector<int64_t> seg_ptr;  // n+1; in-edges of node i in [seg_ptr[i], seg_ptr[i+1])
    std::vector<int64_t> src;      // source node per edge
    std::vector<int64_t> dst;      // destination node per edge
  };
  const EdgeIndex& AttentionEdges() const;

  // Consumes this vector-backed graph and returns it with its dense feature
  // matrix (row-major num_nodes x dim) replaced; nothing else changes.
  Graph WithFeatures(int64_t dim, std::vector<float> features) &&;

 private:
  friend class GraphBuilder;
  // Binary container load paths (graph/format.cc): the only code that may
  // hand out mapped-backed Graphs, after full validation of the file.
  friend class GraphFormatAccess;

  int64_t num_nodes_ = 0;
  std::vector<int64_t> row_ptr_{0};
  std::vector<NodeId> col_idx_;

  int64_t feature_dim_ = 0;
  std::vector<float> features_;
  std::vector<int64_t> attr_ptr_;
  std::vector<int32_t> attr_ids_;
  std::vector<int64_t> community_;

  // Mapped backing: when mapping_ is set, the *_view_ spans point into the
  // mapping and the owned vectors above stay empty. The views reference
  // the file's pages, not this object, so Graph copies stay valid and
  // cheap (they bump the mapping's refcount).
  std::shared_ptr<const MappedFile> mapping_;
  std::span<const int64_t> row_ptr_view_;
  std::span<const NodeId> col_idx_view_;
  std::span<const float> features_view_;
  std::span<const int64_t> attr_ptr_view_;
  std::span<const int32_t> attr_ids_view_;
  std::span<const int64_t> community_view_;
  uint64_t storage_fingerprint_ = 0;

  // Lazily built, cached adjacency views.
  mutable SparseMatrix gcn_adj_;
  mutable bool gcn_adj_built_ = false;
  mutable SparseMatrix mean_adj_;
  mutable bool mean_adj_built_ = false;
  mutable EdgeIndex attn_edges_;
  mutable bool attn_edges_built_ = false;
};

// Assembles a canonical CSR Graph from an edge soup. Edge semantics are an
// explicit contract (tests/graph_test.cc pins them):
//   * AddEdge(u, v) records one undirected edge; orientation is
//     irrelevant (AddEdge(u, v) and AddEdge(v, u) are the same edge).
//   * Self loops (u == v) are silently dropped at Build.
//   * Duplicate edges -- same pair added any number of times, in either
//     orientation -- collapse to a single undirected edge at Build.
//   * Node ids outside [0, num_nodes) are a programmer error (CGNP_CHECK
//     aborts; external input must be range-checked before AddEdge -- the
//     data loaders do).
class GraphBuilder {
 public:
  explicit GraphBuilder(int64_t num_nodes);

  // Adds an undirected edge; self loops and duplicates are dropped at Build
  // (see the class contract above).
  void AddEdge(NodeId u, NodeId v);

  // Dense feature matrix, row-major num_nodes x dim.
  void SetFeatures(int64_t dim, std::vector<float> features);
  // Discrete attribute ids per node (will be sorted), flattened into
  // attribute CSR at once, so the ragged input is freed before Build.
  void SetAttributes(std::vector<std::vector<int32_t>> attrs);
  // The same as CSR: attr_ptr runs from 0 to attr_ids.size() in
  // num_nodes + 1 entries.
  void SetAttributes(std::vector<int64_t> attr_ptr,
                     std::vector<int32_t> attr_ids);
  // Ground-truth community id per node (-1 = unlabelled).
  void SetCommunities(std::vector<int64_t> community);

  int64_t num_nodes() const { return num_nodes_; }

  Graph Build();

  // The subgraph of `parent` on `nodes` (position i becomes local id i)
  // from its finished CSR in local ids: every row sorted, without repeats
  // or self loops -- what Build makes of the subgraph's edges. The rows
  // are taken as given: the caller keeps them symmetric, as the rows of a
  // symmetric parent restricted to `nodes` are. Features,
  // attributes and community labels are gathered from `parent` for
  // `nodes`. No edge list, bucket or sort pass; the arrays are moved in.
  // The one assembly step of task graphs (graph/sampling.h).
  static Graph FromLocalRows(const Graph& parent,
                             std::span<const NodeId> nodes,
                             std::vector<int64_t> row_ptr,
                             std::vector<NodeId> col_idx);

 private:
  int64_t num_nodes_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  int64_t feature_dim_ = 0;
  std::vector<float> features_;
  std::vector<int64_t> attr_ptr_;
  std::vector<int32_t> attr_ids_;
  std::vector<int64_t> community_;
};

// CGNP_CHECK-free bounds gate for node ids arriving from external input:
// OutOfRange when v is outside [0, g.num_nodes()) -- which is every v when
// the graph is empty -- with `what` naming the id's role in the message
// ("query", "support", "edge endpoint"). The single validation shared by
// the delta mutation API (graph/delta.h) and the serving-side task builder
// (via ValidateQueryInput in cs/searcher.cc), so every user-reachable path
// rejects the same bad id with the same Status instead of tripping
// Degree()'s unchecked precondition.
Status CheckNodeId(const Graph& g, NodeId v, const char* what = "node");

// Induced subgraph on `nodes` (order defines new ids). Features, attributes
// and community labels are carried over. If `new_of_old` is non-null it
// receives the num_nodes-sized map old-id -> new-id (-1 when dropped) that
// the rows are built through. Each row comes from that node's own parent
// row, so `g` must be symmetric, as every GraphBuilder graph and every
// validated graph container is. Always returns a vector-backed Graph,
// whatever backs `g` -- subgraphs stay small and owned even when the
// parent graph is mapped. Task graphs come from BfsSubgraph
// (graph/sampling.h), which needs no |V|-sized map; this function is
// defined beside it.
Graph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes,
                      std::vector<NodeId>* new_of_old = nullptr);

}  // namespace cgnp

#endif  // CGNP_GRAPH_GRAPH_H_
