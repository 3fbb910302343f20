/// \file one_pass_driver.hpp
/// \brief The streaming loop shared by every one-pass algorithm: iterate the
///        nodes in stream order and ask an assigner for a permanent block.
///
/// Sequential and shared-memory parallel (vertex-centric, static-chunked
/// OpenMP — paper Section 3.4) drivers are provided. Assigners must be
/// thread-compatible: assign() may be called concurrently for different
/// nodes; all shared state they keep must be atomic (see BlockWeights).
#pragma once

#include <optional>
#include <vector>

#include "oms/graph/csr_graph.hpp"
#include "oms/stream/streamed_node.hpp"
#include "oms/types.hpp"
#include "oms/util/work_counters.hpp"

namespace oms {

class CheckpointWriter;
class CheckpointReader;

/// Edge cut and mapping objective J of a pass, as counted while streaming.
/// Both equal the offline edge_cut() / mapping_cost() of the assignment.
struct StreamQuality {
  Cost edge_cut = 0;
  Cost mapping_j = -1; ///< -1 when the assigner maps onto no topology
};

/// Interface implemented by Hashing, LDG, Fennel and the online recursive
/// multi-section. One instance handles one pass over one graph.
class OnePassAssigner {
public:
  virtual ~OnePassAssigner() = default;

  /// Called once before the pass with the number of worker threads, so the
  /// assigner can size per-thread scratch buffers.
  virtual void prepare(int num_threads) = 0;

  /// Permanently place \p node; thread_id indexes the scratch buffers.
  /// Returns the chosen block in [0, k).
  virtual BlockId assign(const StreamedNode& node, int thread_id,
                         WorkCounters& counters) = 0;

  /// Current assignment of a node (kInvalidBlock if not yet streamed).
  [[nodiscard]] virtual BlockId block_of(NodeId u) const = 0;

  /// Number of target blocks k.
  [[nodiscard]] virtual BlockId num_blocks() const = 0;

  /// Release the final assignment vector (assigner is done afterwards).
  [[nodiscard]] virtual std::vector<BlockId> take_assignment() = 0;

  /// Checkpoint support (stream/checkpoint.hpp): serialize / restore every
  /// piece of state that is not derivable from the construction config, so a
  /// resumed pass continues bit-identically. Both default to "unsupported"
  /// (return false); the snapshot schedule turns that into a clean IoError.
  /// load_stream_state is called after prepare() on a freshly constructed
  /// assigner with identical config.
  [[nodiscard]] virtual bool save_stream_state(CheckpointWriter& /*writer*/) const {
    return false;
  }
  [[nodiscard]] virtual bool load_stream_state(CheckpointReader& /*reader*/) {
    return false;
  }

  /// Quality of the pass so far, counted during the descent instead of by a
  /// second scan of the graph. Only assigners that can count it exactly for
  /// the pass since prepare() return a value; the default returns none.
  [[nodiscard]] virtual std::optional<StreamQuality> stream_quality() const {
    return std::nullopt;
  }
};

/// Result of a streaming pass.
struct StreamResult {
  std::vector<BlockId> assignment;
  double elapsed_s = 0.0;
  WorkCounters work;
  /// The assigner's stream_quality() of a sequential pass; none otherwise.
  std::optional<StreamQuality> quality;
};

/// Stream \p graph in node-id order through \p assigner.
/// \param num_threads 1 = sequential (deterministic); 0 = all hardware
///        threads; >1 = that many OpenMP threads (vertex-centric chunks).
/// \param chunk_size granularity of the parallel decomposition: 0 = one
///        maximal contiguous chunk per thread (the paper's setup); a
///        positive value deals chunks of that many nodes to threads
///        round-robin, smoothing degree skew on hub-heavy streams.
[[nodiscard]] StreamResult run_one_pass(const CsrGraph& graph, OnePassAssigner& assigner,
                                        int num_threads = 1,
                                        std::size_t chunk_size = 0);

} // namespace oms
