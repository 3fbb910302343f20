#include "oms/graph/graph_builder.hpp"

#include <algorithm>
#include <numeric>

namespace oms {

GraphBuilder::GraphBuilder(NodeId num_nodes)
    : num_nodes_(num_nodes), node_weights_(num_nodes, NodeWeight{1}) {}

void GraphBuilder::add_edge(NodeId u, NodeId v, EdgeWeight weight) {
  OMS_ASSERT_MSG(u < num_nodes_ && v < num_nodes_, "edge endpoint out of range");
  OMS_ASSERT_MSG(weight > 0, "edge weights must be positive");
  if (u == v) {
    return; // self-loops are dropped, matching the paper's preprocessing
  }
  if (u > v) {
    std::swap(u, v);
  }
  edges_.push_back({u, v, weight});
}

void GraphBuilder::set_node_weight(NodeId u, NodeWeight weight) {
  OMS_ASSERT_MSG(u < num_nodes_, "node id out of range");
  OMS_ASSERT_MSG(weight >= 0, "node weights must be non-negative");
  node_weights_[u] = weight;
}

CsrGraph GraphBuilder::build() && {
  // Canonicalize: sort (u, v) pairs, merge duplicates by summing weights.
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::size_t out = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (out > 0 && edges_[out - 1].u == edges_[i].u && edges_[out - 1].v == edges_[i].v) {
      edges_[out - 1].w += edges_[i].w;
    } else {
      edges_[out++] = edges_[i];
    }
  }
  edges_.resize(out);

  // Counting pass for CSR offsets (each undirected edge -> two arcs).
  std::vector<EdgeIndex> xadj(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (const Edge& e : edges_) {
    ++xadj[e.u + 1];
    ++xadj[e.v + 1];
  }
  std::partial_sum(xadj.begin(), xadj.end(), xadj.begin());

  // Emitting in sorted (u, v) order leaves every list sorted: node x first
  // receives its lower neighbours (edges (w, x), ascending w), and only then
  // its higher ones (edges (x, v), ascending v) — the groups never interleave.
  std::vector<NodeId> adjncy(edges_.size() * 2);
  std::vector<EdgeWeight> adjwgt(edges_.size() * 2);
  std::vector<EdgeIndex> cursor(xadj.begin(), xadj.end() - 1);
  for (const Edge& e : edges_) {
    adjncy[cursor[e.u]] = e.v;
    adjwgt[cursor[e.u]] = e.w;
    ++cursor[e.u];
    adjncy[cursor[e.v]] = e.u;
    adjwgt[cursor[e.v]] = e.w;
    ++cursor[e.v];
  }

  return CsrGraph(std::move(xadj), std::move(adjncy), std::move(adjwgt),
                  std::move(node_weights_));
}

} // namespace oms
