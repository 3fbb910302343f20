#include "oms/edgepart/driver.hpp"

#include "oms/stream/pipeline_core.hpp"
#include "oms/telemetry/metrics.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/timer.hpp"

namespace oms {
namespace {

EdgeStreamStats stats_of(const EdgeListStream& stream) {
  EdgeStreamStats stats;
  stats.num_edges = stream.edges_delivered();
  stats.self_loops_skipped = stream.self_loops_skipped();
  stats.num_vertices =
      stream.edges_delivered() > 0 ? stream.max_vertex_id() + 1 : 0;
  return stats;
}

} // namespace

EdgePartitionResult run_edge_partition_from_file(
    const std::string& path, StreamingEdgePartitioner& partitioner,
    const StreamPlan& plan) {
  OMS_ASSERT_MSG(plan.checkpoint_path.empty() && plan.resume == nullptr,
                 "edge streams are not checkpointable");
  EdgeListStream stream(path, plan.reader_buffer_bytes);
  EdgePartitionResult result;
  Timer timer;
  run_batched_pipeline<EdgeBatch>(
      stream, plan, /*consumers=*/1,
      [&](EdgeBatch& batch) { return stream.fill_batch(batch, plan.batch_nodes); },
      [&](const EdgeBatch& batch, int /*thread_id*/) {
        const std::size_t count = batch.size();
        for (std::size_t i = 0; i < count; ++i) {
          partitioner.assign(batch.edge(i));
        }
        telemetry::metric_add(telemetry::Counter::kStreamEdges, count);
      },
      [](const EdgeBatch& /*batch*/) {});
  result.elapsed_s = timer.elapsed_s();
  // Any reader thread has joined inside run_batched_pipeline, so reading the
  // stream counters here is race-free.
  result.stats = stats_of(stream);
  result.edge_assignment = partitioner.take_edge_assignment();
  return result;
}

EdgePartitionResult run_edge_partition(std::span<const StreamedEdge> edges,
                                       StreamingEdgePartitioner& partitioner) {
  EdgePartitionResult result;
  Timer timer;
  NodeId max_id = 0;
  for (const StreamedEdge& edge : edges) {
    if (edge.u == edge.v) {
      ++result.stats.self_loops_skipped;
      continue;
    }
    partitioner.assign(edge);
    ++result.stats.num_edges;
    max_id = edge.u > max_id ? edge.u : max_id;
    max_id = edge.v > max_id ? edge.v : max_id;
  }
  result.elapsed_s = timer.elapsed_s();
  result.stats.num_vertices = result.stats.num_edges > 0 ? max_id + 1 : 0;
  result.edge_assignment = partitioner.take_edge_assignment();
  return result;
}

} // namespace oms
