/// \file driver.hpp
/// \brief The edge-streaming drivers: an edge-list file through a
///        StreamingEdgePartitioner by any StreamPlan (one fill and one
///        consume step handed to run_batched_pipeline, like the node
///        drivers), and the in-memory pass over an edge span.
///
/// Vertex-cut assigners are order-dependent sequential algorithms (partial
/// degrees, min/max load tracking), so a pipelined plan always runs one
/// consumer: the reader thread parses ahead into recycled EdgeBatch buffers
/// while the calling thread assigns — the output is bit-identical to the
/// sequential plan, only the parse latency is hidden.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "oms/edgepart/edge_partitioner.hpp"
#include "oms/stream/edge_list_stream.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/types.hpp"

namespace oms {

/// What the stream revealed about the graph (edge lists carry no header).
struct EdgeStreamStats {
  EdgeIndex num_edges = 0;
  EdgeIndex self_loops_skipped = 0;
  /// One past the largest endpoint id (0 when no edge streamed).
  NodeId num_vertices = 0;
};

/// Result of a streaming edge-partition pass.
struct EdgePartitionResult {
  std::vector<BlockId> edge_assignment; ///< block per edge, stream order
  double elapsed_s = 0.0;
  EdgeStreamStats stats;
};

/// Stream the edge-list file through \p partitioner as \p plan says (disk
/// order is the edge order). plan.batch_nodes caps the edges per batch;
/// assign_threads and the checkpoint fields do not apply (edge streams are
/// not checkpointable).
[[nodiscard]] EdgePartitionResult run_edge_partition_from_file(
    const std::string& path, StreamingEdgePartitioner& partitioner,
    const StreamPlan& plan = {});

/// In-memory pass over an already-materialized edge sequence (tests,
/// benchmarks, restreaming experiments). Self-loops are skipped like the
/// file reader does.
[[nodiscard]] EdgePartitionResult run_edge_partition(
    std::span<const StreamedEdge> edges, StreamingEdgePartitioner& partitioner);

} // namespace oms
