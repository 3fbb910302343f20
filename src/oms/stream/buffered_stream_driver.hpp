/// \file buffered_stream_driver.hpp
/// \brief Disk-native buffered streaming partitioning: drive the
///        BufferedPartitioner core from METIS files via MetisNodeStream
///        batches, never materializing the graph — O(buffer + k) state
///        beyond the assignment vector.
///
/// The driver is one fill step (parse the next buffer) and one consume step
/// (BufferedPartitioner::process_buffer) handed to run_batched_pipeline, so
/// it runs every StreamPlan: sequential, with snapshots at buffer boundaries,
/// or pipelined, where a reader thread parses the next buffers while the
/// single consumer builds and refines the current model. Buffers are always
/// committed in stream order, so every plan — and the in-memory
/// buffered_partition() — produces bit-identical partitions on the same file.
///
/// The driver honors config.engine: the default lp engine or the multilevel
/// inner engine (contract / initial-partition / refine per buffer). The
/// multilevel engine keys its per-buffer seed off the buffer index alone, so
/// it too is deterministic across plans.
#pragma once

#include <string>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/stream/pipeline.hpp"

namespace oms {

/// Algorithm id stamped into buffered checkpoints; resume validation refuses
/// a checkpoint written by the other inner engine.
[[nodiscard]] inline const char* buffered_checkpoint_algo_id(
    const BufferedConfig& config) noexcept {
  return config.engine == BufferedEngine::kMultilevel ? "buffered:multilevel"
                                                      : "buffered:lp";
}

/// Stream \p path buffer by buffer through the buffered partitioner as
/// \p plan says. Buffers hold config.buffer_size nodes (plan.batch_nodes,
/// batch_arcs and assign_threads do not apply: the model build is inherently
/// sequential, so there is always one consumer). A checkpointing plan
/// snapshots at the first buffer boundary at or past each multiple of
/// plan.checkpoint_every, stamped with plan.checkpoint_algo (normally
/// buffered_checkpoint_algo_id(config)) and plan.checkpoint_seed.
/// Requires unit node weights (the balance bound Lmax must be known before
/// the pass; the header only reveals n); throws oms::IoError otherwise, and
/// for any malformed content, like every disk driver.
[[nodiscard]] BufferedResult buffered_partition_from_file(
    const std::string& path, BlockId k, const BufferedConfig& config,
    const StreamPlan& plan = {});

} // namespace oms
