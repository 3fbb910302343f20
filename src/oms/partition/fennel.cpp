#include "oms/partition/fennel.hpp"

#include "oms/stream/checkpoint.hpp"

#include <cstdint>

#include "oms/partition/sparse_select.hpp"

namespace oms {

FennelPartitioner::FennelPartitioner(NodeId num_nodes, EdgeIndex num_edges,
                                     NodeWeight total_node_weight,
                                     const PartitionConfig& config)
    : FennelPartitioner(num_nodes, total_node_weight, config,
                        FennelParams::standard(num_nodes, num_edges, config.k)) {}

FennelPartitioner::FennelPartitioner(NodeId num_nodes, NodeWeight total_node_weight,
                                     const PartitionConfig& config,
                                     const FennelParams& params)
    : config_(config),
      params_(params),
      max_block_weight_(max_block_weight(total_node_weight, config.k, config.epsilon)),
      penalty_factor_(params.alpha * params.gamma),
      tuned_gamma_(params.gamma == 1.5),
      // The sparse-candidate scan needs a strictly increasing penalty (its
      // untouched-block ordering collapses when alpha == 0) and weights that
      // fit the 32-bit half of its scan key.
      sparse_scan_(tuned_gamma_ && params.alpha > 0 &&
                   max_block_weight_ < (NodeWeight{1} << 31)),
      assignment_(num_nodes),
      weights_(static_cast<std::size_t>(config.k)),
      sqrt_(tuned_gamma_ ? max_block_weight_ : NodeWeight{-1}) {
  OMS_ASSERT(config.k >= 1);
}

void FennelPartitioner::prepare(int num_threads) {
  scratch_.resize(static_cast<std::size_t>(num_threads));
  for (auto& s : scratch_) {
    s.neighbor_weight.assign(static_cast<std::size_t>(config_.k), 0);
    s.touched.clear();
    s.candidates.assign(static_cast<std::size_t>(config_.k), 0);
  }
}

BlockId FennelPartitioner::assign(const StreamedNode& node, int thread_id,
                                  WorkCounters& counters) {
  auto& scratch = scratch_[static_cast<std::size_t>(thread_id)];

  for (std::size_t i = 0; i < node.neighbors.size(); ++i) {
    counters.neighbor_visits += 1;
    const BlockId nb = assignment_.load(node.neighbors[i]);
    if (nb == kInvalidBlock) {
      continue;
    }
    if (scratch.neighbor_weight[static_cast<std::size_t>(nb)] == 0) {
      scratch.touched.push_back(nb);
    }
    scratch.neighbor_weight[static_cast<std::size_t>(nb)] += node.edge_weights[i];
  }

  // The per-block work is still Theorem-shaped O(k) (every block's weight is
  // inspected once); count it as such regardless of which scan runs below.
  counters.score_evaluations += static_cast<std::uint64_t>(config_.k);
  BlockId best = kInvalidBlock;
  double best_score = 0.0;
  NodeWeight best_weight = 0;
  const EdgeWeight* const neighbor_weight = scratch.neighbor_weight.data();
  // Flat partitioners always keep the dense layout: a compile-time unit
  // stride and a cached sqrt keep the k-wide scan at a multiply per block.
  const auto weights = weights_.view<BlockWeights::Layout::kDense>();
  const auto consider = [&](BlockId b, NodeWeight w, double penalty) {
    const double score =
        static_cast<double>(neighbor_weight[static_cast<std::size_t>(b)]) - penalty;
    if (best == kInvalidBlock || score > best_score ||
        (score == best_score && w < best_weight)) {
      best = b;
      best_score = score;
      best_weight = w;
    }
  };
  if (sparse_scan_) {
    // Exact sparse-candidate scan (see sparse_select.hpp for the dominance
    // argument): bit-identical winner, O(k) integer ops + O(deg) double ops
    // instead of O(k) double ops. sparse_scan_ guarantees 0 <= w <=
    // max_block_weight_ < 2^31 and a strictly increasing penalty.
    best = sparse_fennel_select(
        config_.k, node.weight, max_block_weight_, penalty_factor_, sqrt_,
        [&](std::int32_t b) { return weights.load(static_cast<std::size_t>(b)); },
        [&](std::int32_t b) {
          return neighbor_weight[static_cast<std::size_t>(b)];
        },
        scratch.candidates.data());
  } else if (tuned_gamma_) {
    for (BlockId b = 0; b < config_.k; ++b) {
      const NodeWeight w = weights.load(static_cast<std::size_t>(b));
      if (w + node.weight > max_block_weight_) {
        continue;
      }
      consider(b, w, penalty_factor_ * sqrt_(w));
    }
  } else {
    for (BlockId b = 0; b < config_.k; ++b) {
      const NodeWeight w = weights.load(static_cast<std::size_t>(b));
      if (w + node.weight > max_block_weight_) {
        continue;
      }
      consider(b, w, fennel_penalty(params_.alpha, params_.gamma, w));
    }
  }
  if (best == kInvalidBlock) {
    best = 0;
    for (BlockId b = 1; b < config_.k; ++b) {
      if (weights_.load(static_cast<std::size_t>(b)) <
          weights_.load(static_cast<std::size_t>(best))) {
        best = b;
      }
    }
  }

  for (const BlockId b : scratch.touched) {
    scratch.neighbor_weight[static_cast<std::size_t>(b)] = 0;
  }
  scratch.touched.clear();

  weights_.add(static_cast<std::size_t>(best), node.weight);
  assignment_.store(node.id, best);
  counters.layers_traversed += 1;
  return best;
}

void FennelPartitioner::unassign(NodeId u, NodeWeight weight) {
  const BlockId b = assignment_.load(u);
  OMS_ASSERT_MSG(b != kInvalidBlock, "unassign of a never-assigned node");
  weights_.add(static_cast<std::size_t>(b), -weight);
  assignment_.store(u, kInvalidBlock);
}

std::uint64_t FennelPartitioner::state_bytes() const noexcept {
  return assignment_.footprint_bytes() +
         static_cast<std::uint64_t>(weights_.size() * sizeof(NodeWeight));
}

void FennelPartitioner::save_assignment_slots(CheckpointWriter& w, NodeId begin,
                                              NodeId end) const {
  oms::save_assignment_slots(w, assignment_, begin, end);
}

bool FennelPartitioner::save_stream_extras(CheckpointWriter& w) const {
  save_block_weights(w, weights_);
  return true;
}

bool FennelPartitioner::save_stream_state(CheckpointWriter& w) const {
  save_full_state(w, *this, static_cast<NodeId>(assignment_.size()));
  return true;
}

bool FennelPartitioner::load_stream_state(CheckpointReader& r) {
  load_assignment(r, assignment_);
  load_block_weights(r, weights_);
  return true;
}

} // namespace oms
