#include "oms/graph/csr_graph.hpp"

#include <algorithm>

namespace oms {

CsrGraph::CsrGraph(std::vector<EdgeIndex> xadj, std::vector<NodeId> adjncy,
                   std::vector<EdgeWeight> adjwgt, std::vector<NodeWeight> vwgt)
    : xadj_(std::move(xadj)),
      adjncy_(std::move(adjncy)),
      adjwgt_(std::move(adjwgt)),
      vwgt_(std::move(vwgt)) {
  OMS_ASSERT_MSG(xadj_.size() == vwgt_.size() + 1, "xadj must have n+1 entries");
  OMS_ASSERT_MSG(xadj_.front() == 0, "xadj must start at 0");
  OMS_ASSERT_MSG(xadj_.back() == adjncy_.size(), "xadj must end at |adjncy|");
  OMS_ASSERT_MSG(adjwgt_.empty() || adjwgt_.size() == adjncy_.size(),
                 "one weight per arc");
  OMS_ASSERT_MSG(adjncy_.size() % 2 == 0, "arcs must pair up into undirected edges");

  for (const NodeWeight w : vwgt_) {
    OMS_ASSERT_MSG(w >= 0, "negative node weight");
    total_node_weight_ += w;
  }
  EdgeWeight arc_weight_sum = 0;
  bool all_unit = true;
  for (const EdgeWeight w : adjwgt_) {
    OMS_ASSERT_MSG(w > 0, "edge weights must be positive");
    arc_weight_sum += w;
    all_unit = all_unit && w == 1;
  }
  if (all_unit) {
    std::vector<EdgeWeight>().swap(adjwgt_);
    arc_weight_sum = static_cast<EdgeWeight>(adjncy_.size());
  }
  OMS_ASSERT_MSG(arc_weight_sum % 2 == 0, "asymmetric arc weights");
  total_edge_weight_ = arc_weight_sum / 2;

  for (NodeId u = 0; u < num_nodes(); ++u) {
    max_degree_ = std::max(max_degree_, degree(u));
  }
  if (all_unit) {
    unit_weights_.assign(static_cast<std::size_t>(max_degree_), EdgeWeight{1});
  }
  OMS_HEAVY_ASSERT((validate(), true));
}

bool CsrGraph::is_unit_weighted() const noexcept {
  const bool nodes_unit =
      std::all_of(vwgt_.begin(), vwgt_.end(), [](NodeWeight w) { return w == 1; });
  return nodes_unit && has_unit_edge_weights();
}

void CsrGraph::validate() const {
  for (NodeId u = 0; u < num_nodes(); ++u) {
    OMS_ASSERT_MSG(xadj_[u] <= xadj_[u + 1], "xadj must be non-decreasing");
    const auto neigh = neighbors(u);
    const auto weights = incident_weights(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      OMS_ASSERT_MSG(v < num_nodes(), "neighbor id out of range");
      OMS_ASSERT_MSG(v != u, "self-loop present");
      if (i > 0) {
        OMS_ASSERT_MSG(neigh[i - 1] < v, "adjacency not sorted / parallel edge");
      }
      // Symmetry: find u in N(v) with the same weight.
      const auto back = neighbors(v);
      const auto it = std::lower_bound(back.begin(), back.end(), u);
      OMS_ASSERT_MSG(it != back.end() && *it == u, "missing reverse arc");
      const auto back_pos = static_cast<std::size_t>(it - back.begin());
      OMS_ASSERT_MSG(incident_weights(v)[back_pos] == weights[i],
                     "asymmetric edge weight");
    }
  }
}

std::uint64_t CsrGraph::memory_footprint_bytes() const noexcept {
  return static_cast<std::uint64_t>(xadj_.capacity() * sizeof(EdgeIndex) +
                                    adjncy_.capacity() * sizeof(NodeId) +
                                    adjwgt_.capacity() * sizeof(EdgeWeight) +
                                    vwgt_.capacity() * sizeof(NodeWeight) +
                                    unit_weights_.capacity() * sizeof(EdgeWeight));
}

} // namespace oms
