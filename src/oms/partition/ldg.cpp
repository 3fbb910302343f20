#include "oms/partition/ldg.hpp"

#include "oms/stream/checkpoint.hpp"

namespace oms {

LdgPartitioner::LdgPartitioner(NodeId num_nodes, NodeWeight total_node_weight,
                               const PartitionConfig& config)
    : config_(config),
      max_block_weight_(max_block_weight(total_node_weight, config.k, config.epsilon)),
      assignment_(num_nodes),
      weights_(static_cast<std::size_t>(config.k)) {
  OMS_ASSERT(config.k >= 1);
}

void LdgPartitioner::prepare(int num_threads) {
  scratch_.resize(static_cast<std::size_t>(num_threads));
  for (auto& s : scratch_) {
    s.neighbor_weight.assign(static_cast<std::size_t>(config_.k), 0);
    s.touched.clear();
  }
}

BlockId LdgPartitioner::assign(const StreamedNode& node, int thread_id,
                               WorkCounters& counters) {
  auto& scratch = scratch_[static_cast<std::size_t>(thread_id)];

  // Gather the weight of already-assigned neighbors per block.
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

  // Score all k blocks: attraction * remaining-capacity penalty. The dense
  // view gives the k-wide scan a compile-time unit stride.
  const auto weights = weights_.view<BlockWeights::Layout::kDense>();
  const EdgeWeight* const neighbor_weight = scratch.neighbor_weight.data();
  const NodeWeight max_weight = max_block_weight_;
  counters.score_evaluations += static_cast<std::uint64_t>(config_.k);
  BlockId best = kInvalidBlock;
  double best_score = -1.0;
  NodeWeight best_weight = 0;
  for (BlockId b = 0; b < config_.k; ++b) {
    const NodeWeight w = weights.load(static_cast<std::size_t>(b));
    if (w + node.weight > max_weight) {
      continue;
    }
    const double penalty =
        1.0 - static_cast<double>(w) / static_cast<double>(max_weight);
    const double score =
        static_cast<double>(neighbor_weight[static_cast<std::size_t>(b)]) * penalty;
    // Tie-break towards the lighter block (paper / Stanton-Kliot rule).
    if (best == kInvalidBlock || score > best_score ||
        (score == best_score && w < best_weight)) {
      best = b;
      best_score = score;
      best_weight = w;
    }
  }
  if (best == kInvalidBlock) {
    // All blocks momentarily at capacity (possible only transiently under
    // parallel overshoot): fall back to the globally lightest block.
    best = 0;
    for (BlockId b = 1; b < config_.k; ++b) {
      if (weights.load(static_cast<std::size_t>(b)) <
          weights.load(static_cast<std::size_t>(best))) {
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

std::uint64_t LdgPartitioner::state_bytes() const noexcept {
  return assignment_.footprint_bytes() +
         static_cast<std::uint64_t>(weights_.size() * sizeof(NodeWeight));
}

void LdgPartitioner::save_assignment_slots(CheckpointWriter& w, NodeId begin,
                                           NodeId end) const {
  oms::save_assignment_slots(w, assignment_, begin, end);
}

bool LdgPartitioner::save_stream_extras(CheckpointWriter& w) const {
  save_block_weights(w, weights_);
  return true;
}

bool LdgPartitioner::save_stream_state(CheckpointWriter& w) const {
  save_full_state(w, *this, static_cast<NodeId>(assignment_.size()));
  return true;
}

bool LdgPartitioner::load_stream_state(CheckpointReader& r) {
  load_assignment(r, assignment_);
  load_block_weights(r, weights_);
  return true;
}

} // namespace oms
