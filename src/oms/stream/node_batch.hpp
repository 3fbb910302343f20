/// \file node_batch.hpp
/// \brief A contiguous run of parsed stream nodes, stored flat so one batch
///        is one allocation set that the pipeline recycles forever.
///
/// The pipelined disk reader hands these across the producer/consumer
/// boundary instead of single StreamedNodes: batching amortizes the queue
/// synchronization over thousands of nodes and keeps the adjacency data of a
/// work unit cache-resident for the assigning thread. Node ids inside a
/// batch are consecutive (stream order), so only the first id is stored.
/// A batch parsed from an unweighted file stores no edge weights: like
/// CsrGraph, its nodes' weight spans point into one run of ones.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "oms/stream/streamed_node.hpp"
#include "oms/types.hpp"
#include "oms/util/assert.hpp"

namespace oms {

class NodeBatch {
public:
  /// Reset to empty, keeping capacity. \p first_id is the stream id of the
  /// first node that will be appended.
  void reset(NodeId first_id) {
    first_id_ = first_id;
    weights_.clear();
    offsets_.assign(1, 0);
    neighbors_.clear();
    edge_weights_.clear();
  }

  /// The parser appends one node's adjacency directly into these sinks (no
  /// intermediate copy), then seals the slot with commit_node(). Edge
  /// weights go to their sink for every arc of the batch or for none (unit
  /// weights).
  std::vector<NodeId>& neighbor_sink() noexcept { return neighbors_; }
  std::vector<EdgeWeight>& edge_weight_sink() noexcept { return edge_weights_; }
  void commit_node(NodeWeight weight) {
    OMS_HEAVY_ASSERT(edge_weights_.empty() || edge_weights_.size() == neighbors_.size());
    const std::size_t degree = neighbors_.size() - offsets_.back();
    if (edge_weights_.empty() && degree > unit_weights_.size()) {
      unit_weights_.resize(degree, EdgeWeight{1});
    }
    weights_.push_back(weight);
    offsets_.push_back(neighbors_.size());
  }

  [[nodiscard]] std::size_t size() const noexcept { return weights_.size(); }
  [[nodiscard]] bool empty() const noexcept { return weights_.empty(); }
  [[nodiscard]] NodeId first_id() const noexcept { return first_id_; }

  /// Total adjacency entries buffered (used by the reader to bound batch
  /// growth by arcs, not just node count, so hub nodes don't balloon memory).
  [[nodiscard]] std::size_t num_arcs() const noexcept { return neighbors_.size(); }

  /// True if every buffered edge weight is 1 (then none is stored).
  [[nodiscard]] bool has_unit_edge_weights() const noexcept {
    return edge_weights_.empty();
  }

  /// Every stored edge weight in one contiguous span; empty when
  /// has_unit_edge_weights().
  [[nodiscard]] std::span<const EdgeWeight> all_edge_weights() const noexcept {
    return edge_weights_;
  }

  /// The i-th node as the streaming-model unit. Spans borrow the batch and
  /// stay valid until the next reset().
  [[nodiscard]] StreamedNode node(std::size_t i) const {
    OMS_HEAVY_ASSERT(i < size());
    const std::size_t begin = offsets_[i];
    const std::size_t end = offsets_[i + 1];
    const EdgeWeight* edge_weights = edge_weights_.empty()
                                         ? unit_weights_.data()
                                         : edge_weights_.data() + begin;
    return StreamedNode{
        static_cast<NodeId>(first_id_ + i), weights_[i],
        std::span<const NodeId>(neighbors_.data() + begin, end - begin),
        std::span<const EdgeWeight>(edge_weights, end - begin)};
  }

private:
  NodeId first_id_ = 0;
  std::vector<NodeWeight> weights_;
  std::vector<std::size_t> offsets_ = {0};
  std::vector<NodeId> neighbors_;
  std::vector<EdgeWeight> edge_weights_;
  std::vector<EdgeWeight> unit_weights_; ///< ones, as many as the widest node
};

} // namespace oms
