#include "graph/delta.h"

#include <algorithm>
#include <charconv>
#include <string>
#include <utility>

namespace cgnp {

namespace {

// Sorted-vector insert / erase, the overlay row primitives. Rows stay
// sorted so NeighborsOf is a pair of linear merges and HasEdge a binary
// search, mirroring the CSR's sorted-adjacency guarantee.
void InsertSorted(std::vector<NodeId>* row, NodeId v) {
  row->insert(std::lower_bound(row->begin(), row->end(), v), v);
}

void EraseSorted(std::vector<NodeId>* row, NodeId v) {
  const auto it = std::lower_bound(row->begin(), row->end(), v);
  if (it != row->end() && *it == v) row->erase(it);
}

bool ContainsSorted(const std::vector<NodeId>& row, NodeId v) {
  return std::binary_search(row.begin(), row.end(), v);
}

std::string EdgeName(NodeId u, NodeId v) {
  return std::to_string(u) + "-" + std::to_string(v);
}

}  // namespace

GraphDelta::GraphDelta(std::shared_ptr<const Graph> base,
                       uint64_t base_version)
    : base_(std::move(base)),
      version_(base_version),
      num_edges_(base_->num_edges()) {}

const std::vector<NodeId>* GraphDelta::RowOf(const Overlay& o, NodeId v) {
  const auto it = o.find(v);
  return it == o.end() ? nullptr : &it->second;
}

void GraphDelta::OverlayInsert(Overlay* o, NodeId u, NodeId v) {
  InsertSorted(&(*o)[u], v);
  InsertSorted(&(*o)[v], u);
}

void GraphDelta::OverlayErase(Overlay* o, NodeId u, NodeId v) {
  for (const auto& [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    const auto it = o->find(a);
    if (it == o->end()) continue;
    EraseSorted(&it->second, b);
    if (it->second.empty()) o->erase(it);
  }
}

void GraphDelta::MarkEdited(NodeId u, NodeId v) {
  dirty_.insert(u);
  dirty_.insert(v);
  ++version_;
  ++depth_;
}

int64_t GraphDelta::Degree(NodeId v) const {
  int64_t deg = base_->Degree(v);
  if (const auto* add = RowOf(added_, v)) {
    deg += static_cast<int64_t>(add->size());
  }
  if (const auto* rem = RowOf(removed_, v)) {
    deg -= static_cast<int64_t>(rem->size());
  }
  return deg;
}

bool GraphDelta::HasEdge(NodeId u, NodeId v) const {
  if (const auto* add = RowOf(added_, u)) {
    if (ContainsSorted(*add, v)) return true;
  }
  if (const auto* rem = RowOf(removed_, u)) {
    if (ContainsSorted(*rem, v)) return false;
  }
  return base_->HasEdge(u, v);
}

std::vector<NodeId> GraphDelta::NeighborsOf(NodeId v) const {
  const auto nb = base_->Neighbors(v);
  const auto* add = RowOf(added_, v);
  const auto* rem = RowOf(removed_, v);
  std::vector<NodeId> out;
  out.reserve(nb.size() + (add ? add->size() : 0));
  if (rem != nullptr) {
    std::set_difference(nb.begin(), nb.end(), rem->begin(), rem->end(),
                        std::back_inserter(out));
  } else {
    out.assign(nb.begin(), nb.end());
  }
  if (add != nullptr) {
    std::vector<NodeId> merged;
    merged.reserve(out.size() + add->size());
    std::merge(out.begin(), out.end(), add->begin(), add->end(),
               std::back_inserter(merged));
    out = std::move(merged);
  }
  return out;
}

Status GraphDelta::InsertEdge(NodeId u, NodeId v) {
  CGNP_RETURN_IF_ERROR(CheckNodeId(*base_, u, "edge endpoint"));
  CGNP_RETURN_IF_ERROR(CheckNodeId(*base_, v, "edge endpoint"));
  if (u == v) {
    return InvalidArgumentError("self loop " + EdgeName(u, v) +
                                " rejected: graphs are loop-free");
  }
  if (HasEdge(u, v)) return Status::Ok();  // idempotent, version unchanged
  if (const auto* rem = RowOf(removed_, u);
      rem != nullptr && ContainsSorted(*rem, v)) {
    // Re-inserting a tombstoned base edge revokes the tombstone.
    OverlayErase(&removed_, u, v);
    --num_removed_;
  } else {
    OverlayInsert(&added_, u, v);
    ++num_added_;
  }
  ++num_edges_;
  MarkEdited(u, v);
  return Status::Ok();
}

Status GraphDelta::DeleteEdge(NodeId u, NodeId v) {
  CGNP_RETURN_IF_ERROR(CheckNodeId(*base_, u, "edge endpoint"));
  CGNP_RETURN_IF_ERROR(CheckNodeId(*base_, v, "edge endpoint"));
  if (u == v) {
    return InvalidArgumentError("self loop " + EdgeName(u, v) +
                                " rejected: graphs are loop-free");
  }
  if (!HasEdge(u, v)) {
    return NotFoundError("edge " + EdgeName(u, v) +
                         " not present at version " +
                         std::to_string(version_));
  }
  if (const auto* add = RowOf(added_, u);
      add != nullptr && ContainsSorted(*add, v)) {
    // Deleting an overlay insert just drops it again.
    OverlayErase(&added_, u, v);
    --num_added_;
  } else {
    OverlayInsert(&removed_, u, v);
    ++num_removed_;
  }
  --num_edges_;
  MarkEdited(u, v);
  return Status::Ok();
}

Status GraphDelta::Apply(const GraphEdit& edit) {
  return edit.insert ? InsertEdge(edit.u, edit.v)
                     : DeleteEdge(edit.u, edit.v);
}

std::vector<NodeId> GraphDelta::DirtyNodes() const {
  std::vector<NodeId> out(dirty_.begin(), dirty_.end());
  std::sort(out.begin(), out.end());
  return out;
}

Graph GraphDelta::Compact() const {
  const int64_t n = base_->num_nodes();
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    // Ids come from the merged view, already validated against n, so
    // AddEdge's range invariant holds by construction.
    for (const NodeId u : NeighborsOf(v)) {
      if (u > v) b.AddEdge(v, u);
    }
  }
  if (base_->has_features()) {
    const auto f = base_->features();
    b.SetFeatures(base_->feature_dim(), std::vector<float>(f.begin(), f.end()));
  }
  if (base_->has_attributes()) {
    const auto ap = base_->attr_ptr();
    const auto ids = base_->attr_ids();
    b.SetAttributes({ap.begin(), ap.end()}, {ids.begin(), ids.end()});
  }
  if (base_->has_communities()) {
    const auto c = base_->communities();
    b.SetCommunities(std::vector<int64_t>(c.begin(), c.end()));
  }
  return b.Build();
}

namespace {

// One `[+-]u v` line; `line_no` is 1-based for the error message.
StatusOr<GraphEdit> ParseEditLine(std::string_view line, int64_t line_no) {
  const auto fail = [line_no](const std::string& why) {
    return InvalidArgumentError("edits line " + std::to_string(line_no) +
                                ": " + why);
  };
  GraphEdit edit;
  if (line[0] == '+') {
    edit.insert = true;
  } else if (line[0] == '-') {
    edit.insert = false;
  } else {
    return fail("expected '+' or '-' before the edge");
  }
  const char* p = line.data() + 1;
  const char* end = line.data() + line.size();
  NodeId* const ids[2] = {&edit.u, &edit.v};
  for (NodeId* id : ids) {
    while (p != end && (*p == ' ' || *p == '\t')) ++p;
    const auto [next, ec] = std::from_chars(p, end, *id);
    if (ec != std::errc() || next == p) {
      return fail("expected two node ids after the sign");
    }
    if (*id < 0) return fail("node ids must be non-negative");
    p = next;
  }
  while (p != end && (*p == ' ' || *p == '\t')) ++p;
  if (p != end) return fail("trailing characters after the edge");
  return edit;
}

}  // namespace

StatusOr<std::vector<GraphEdit>> ParseEditList(std::string_view text) {
  std::vector<GraphEdit> edits;
  int64_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    // Trim surrounding whitespace (CR included, for CRLF input).
    while (!line.empty() &&
           (line.front() == ' ' || line.front() == '\t' ||
            line.front() == '\r')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' ||
            line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    CGNP_ASSIGN_OR_RETURN(GraphEdit edit, ParseEditLine(line, line_no));
    edits.push_back(edit);
  }
  return edits;
}

Status ApplyEditList(GraphDelta* delta, const std::vector<GraphEdit>& edits) {
  for (size_t i = 0; i < edits.size(); ++i) {
    const GraphEdit& e = edits[i];
    if (const Status s = delta->Apply(e); !s.ok()) {
      return Status(s.code(),
                    "edit #" + std::to_string(i) + " (" +
                        (e.insert ? "+" : "-") + std::to_string(e.u) + " " +
                        std::to_string(e.v) + "): " + s.message());
    }
  }
  return Status::Ok();
}

}  // namespace cgnp
