#include "oms/stream/buffered_stream_driver.hpp"

#include "oms/stream/checkpoint.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/node_batch.hpp"
#include "oms/stream/pipeline_core.hpp"
#include "oms/util/io_error.hpp"
#include "oms/util/timer.hpp"

namespace oms {

BufferedResult buffered_partition_from_file(const std::string& path, BlockId k,
                                            const BufferedConfig& config,
                                            const StreamPlan& plan) {
  MetisNodeStream stream(path, plan.reader_buffer_bytes);
  // The balance bound needs the total node weight before any node arrives;
  // the METIS header only carries n, so weighted files cannot be streamed.
  if (stream.header().has_node_weights) {
    throw IoError(path + ": buffered disk streaming assumes unit node weights "
                         "(load the graph in memory instead)");
  }

  Timer timer;
  BufferedPartitioner core(stream.header().num_nodes,
                           static_cast<NodeWeight>(stream.header().num_nodes), k,
                           config);
  SnapshotSchedule snapshots(
      plan, stream, k,
      [&](CheckpointWriter& w, NodeId begin, NodeId end) {
        core.save_assignment_slots(w, begin, end);
      },
      [&](CheckpointWriter& w) {
        core.save_stream_extras(w);
        return true;
      },
      [&](CheckpointReader& r) {
        core.load_stream_state(r);
        return true;
      });
  // One consumer: buffers are optimized strictly in stream order, whether or
  // not a reader parses ahead (bounded by the ring — backpressure, not
  // buildup).
  run_batched_pipeline<NodeBatch>(
      stream, plan, /*consumers=*/1,
      [&](NodeBatch& batch) { return stream.fill_batch(batch, config.buffer_size); },
      [&](const NodeBatch& batch, int /*thread_id*/) { core.process_buffer(batch); },
      [&](const NodeBatch& batch) { snapshots.at_boundary(batch.size()); });

  BufferedResult result;
  result.buffers_processed = core.buffers_processed();
  result.assignment = core.take_assignment();
  result.elapsed_s = timer.elapsed_s();
  return result;
}

} // namespace oms
