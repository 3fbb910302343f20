/// \file csr_graph.hpp
/// \brief Immutable undirected graph in compressed sparse row form.
///
/// This is the in-memory substrate every algorithm in the library consumes:
/// the streaming drivers iterate its adjacency arrays in node order (the
/// paper's "natural order" stream), the multilevel baselines contract it,
/// and the metrics evaluate partitions against it.
///
/// Invariants (checked by validate(), heavy parts under OMS_HEAVY_ASSERTS):
///  * no self-loops, no parallel edges;
///  * adjacency is symmetric: v in N(u)  <=>  u in N(v), with equal weights;
///  * each adjacency list is sorted by neighbor id;
///  * all node weights >= 0 and all edge weights > 0;
///  * raw_adjwgt() is empty  <=>  every edge weight is 1. Unweighted graphs
///    (the common case) store no 2m-entry weight array; incident_weights()
///    then returns a span into one shared run of max_degree() ones, so
///    callers see the same values either way.
#pragma once

#include <span>
#include <vector>

#include "oms/types.hpp"
#include "oms/util/assert.hpp"

namespace oms {

class CsrGraph {
public:
  CsrGraph() = default;

  /// Assemble from raw CSR arrays. Prefer GraphBuilder, which establishes the
  /// invariants; this constructor only spot-checks shapes. \p adjwgt holds
  /// one weight per arc or is empty (every edge weight 1); an all-ones array
  /// is dropped, so both spellings build the same graph.
  CsrGraph(std::vector<EdgeIndex> xadj, std::vector<NodeId> adjncy,
           std::vector<EdgeWeight> adjwgt, std::vector<NodeWeight> vwgt);

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(vwgt_.size());
  }

  /// Number of undirected edges (each stored twice internally).
  [[nodiscard]] EdgeIndex num_edges() const noexcept {
    return static_cast<EdgeIndex>(adjncy_.size() / 2);
  }

  /// Number of directed arcs (2 * num_edges()); the size of the CSR arrays.
  [[nodiscard]] EdgeIndex num_arcs() const noexcept {
    return static_cast<EdgeIndex>(adjncy_.size());
  }

  [[nodiscard]] EdgeIndex degree(NodeId u) const noexcept {
    OMS_HEAVY_ASSERT(u < num_nodes());
    return xadj_[u + 1] - xadj_[u];
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    OMS_HEAVY_ASSERT(u < num_nodes());
    return {adjncy_.data() + xadj_[u], static_cast<std::size_t>(degree(u))};
  }

  [[nodiscard]] std::span<const EdgeWeight> incident_weights(NodeId u) const noexcept {
    OMS_HEAVY_ASSERT(u < num_nodes());
    const EdgeWeight* first =
        adjwgt_.empty() ? unit_weights_.data() : adjwgt_.data() + xadj_[u];
    return {first, static_cast<std::size_t>(degree(u))};
  }

  [[nodiscard]] NodeWeight node_weight(NodeId u) const noexcept {
    OMS_HEAVY_ASSERT(u < num_nodes());
    return vwgt_[u];
  }

  [[nodiscard]] NodeWeight total_node_weight() const noexcept {
    return total_node_weight_;
  }

  /// Sum of weights over undirected edges.
  [[nodiscard]] EdgeWeight total_edge_weight() const noexcept {
    return total_edge_weight_;
  }

  [[nodiscard]] EdgeIndex max_degree() const noexcept { return max_degree_; }

  /// True if every edge weight is 1 (then raw_adjwgt() is empty).
  [[nodiscard]] bool has_unit_edge_weights() const noexcept { return adjwgt_.empty(); }

  /// Raw arrays, for I/O and contraction kernels. raw_adjwgt() is empty
  /// when has_unit_edge_weights(); index incident_weights() instead.
  [[nodiscard]] std::span<const EdgeIndex> raw_xadj() const noexcept { return xadj_; }
  [[nodiscard]] std::span<const NodeId> raw_adjncy() const noexcept { return adjncy_; }
  [[nodiscard]] std::span<const EdgeWeight> raw_adjwgt() const noexcept { return adjwgt_; }
  [[nodiscard]] std::span<const NodeWeight> raw_vwgt() const noexcept { return vwgt_; }

  /// True if every node weight is 1 and every edge weight is 1.
  [[nodiscard]] bool is_unit_weighted() const noexcept;

  /// Full invariant scan (O(n + m log d)); aborts with a diagnostic on
  /// violation. Used by tests and by GraphBuilder in heavy-assert builds.
  void validate() const;

  /// Heap footprint in bytes (for the memory experiment): the CSR arrays'
  /// capacities, plus the run of max_degree() ones that stands in for the
  /// weight array of a unit-weight graph.
  [[nodiscard]] std::uint64_t memory_footprint_bytes() const noexcept;

private:
  std::vector<EdgeIndex> xadj_;     // size n+1
  std::vector<NodeId> adjncy_;      // size 2m
  std::vector<EdgeWeight> adjwgt_;  // size 2m, or empty: every weight is 1
  std::vector<NodeWeight> vwgt_;    // size n
  std::vector<EdgeWeight> unit_weights_; // max_degree ones when adjwgt_ is empty
  NodeWeight total_node_weight_ = 0;
  EdgeWeight total_edge_weight_ = 0;
  EdgeIndex max_degree_ = 0;
};

} // namespace oms
