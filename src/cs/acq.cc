#include "cs/acq.h"

#include <algorithm>

#include "common/check.h"
#include "graph/algorithms.h"

namespace cgnp {

namespace {

// Connected k-core containing q within the subgraph induced by nodes that
// carry every attribute in `attrs`. Empty when infeasible.
std::vector<NodeId> FeasibleCommunity(const Graph& g, NodeId q, int64_t k,
                                      const std::vector<int32_t>& attrs) {
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto av = g.Attributes(v);
    bool all = true;
    for (int32_t a : attrs) {
      if (!std::binary_search(av.begin(), av.end(), a)) {
        all = false;
        break;
      }
    }
    if (all) candidates.push_back(v);
  }
  if (candidates.empty()) return {};
  std::vector<NodeId> new_of_old;
  Graph sub = InducedSubgraph(g, candidates, &new_of_old);
  const NodeId local_q = new_of_old[q];
  if (local_q < 0) return {};
  std::vector<NodeId> local = ConnectedKCoreContaining(sub, local_q, k);
  std::vector<NodeId> out(local.size());
  for (size_t i = 0; i < local.size(); ++i) out[i] = candidates[local[i]];
  return out;
}

}  // namespace

std::vector<NodeId> AttributedCommunityQuery(const Graph& g, NodeId q,
                                             const AcqConfig& config) {
  CGNP_CHECK_GE(q, 0);  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  CGNP_CHECK_LT(q, g.num_nodes());  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  if (!g.has_attributes()) return {};
  const auto q_attrs = g.Attributes(q);
  if (q_attrs.empty()) return {};

  // Pass 1: feasible single attributes.
  struct Candidate {
    std::vector<int32_t> attrs;
    std::vector<NodeId> members;
  };
  std::vector<Candidate> feasible;
  for (int32_t a : q_attrs) {
    auto members = FeasibleCommunity(g, q, config.k, {a});
    if (!members.empty()) feasible.push_back({{a}, std::move(members)});
  }
  if (feasible.empty()) return {};

  Candidate best = feasible.front();
  for (const auto& c : feasible) {
    if (c.members.size() > best.members.size()) best = c;
  }

  // Pass 2+: combine feasible sets pairwise up to max_attr_set attributes.
  std::vector<Candidate> frontier = feasible;
  for (int64_t size = 2; size <= config.max_attr_set; ++size) {
    std::vector<Candidate> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      for (const auto& single : feasible) {
        const int32_t a = single.attrs[0];
        if (std::binary_search(frontier[i].attrs.begin(),
                               frontier[i].attrs.end(), a)) {
          continue;
        }
        std::vector<int32_t> attrs = frontier[i].attrs;
        attrs.push_back(a);
        std::sort(attrs.begin(), attrs.end());
        // Skip duplicates already expanded this round.
        bool dup = false;
        for (const auto& c : next) {
          if (c.attrs == attrs) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
        auto members = FeasibleCommunity(g, q, config.k, attrs);
        if (!members.empty()) next.push_back({std::move(attrs), std::move(members)});
      }
    }
    if (next.empty()) break;
    for (const auto& c : next) {
      // Larger attribute set wins; ties toward larger community.
      if (c.attrs.size() > best.attrs.size() ||
          (c.attrs.size() == best.attrs.size() &&
           c.members.size() > best.members.size())) {
        best = c;
      }
    }
    frontier = std::move(next);
  }
  return best.members;
}

}  // namespace cgnp
