#include "oms/stream/pipeline.hpp"

#include <vector>

#include "oms/stream/checkpoint.hpp"
#include "oms/stream/node_batch.hpp"
#include "oms/stream/pipeline_core.hpp"
#include "oms/util/parallel.hpp"
#include "oms/util/timer.hpp"

namespace oms {

StreamResult run_one_pass_from_file(const std::string& path,
                                    OnePassAssigner& assigner,
                                    const StreamPlan& plan) {
  const int consumers = plan.pipelined ? resolve_threads(plan.assign_threads) : 1;
  MetisNodeStream stream(path, plan.reader_buffer_bytes);
  // prepare() first: it may re-layout the block weights, and a resumed
  // state must land in the final layout.
  assigner.prepare(consumers);
  SnapshotSchedule snapshots(
      plan, stream, assigner.num_blocks(),
      [&](CheckpointWriter& w, NodeId begin, NodeId end) {
        assigner.save_assignment_slots(w, begin, end);
      },
      [&](CheckpointWriter& w) { return assigner.save_stream_extras(w); },
      [&](CheckpointReader& r) { return assigner.load_stream_state(r); });

  StreamResult result;
  Timer timer;

  // Per-thread counter slots merged after the join; each consumer accumulates
  // into a stack-local inside the batch loop so the shared vector is written
  // once per batch, not once per node (no false sharing on the hot path).
  std::vector<WorkCounters> counters(static_cast<std::size_t>(consumers));
  run_batched_pipeline<NodeBatch>(
      stream, plan, consumers,
      [&](NodeBatch& batch) {
        return stream.fill_batch(batch, snapshots.cap(plan.batch_nodes),
                                 plan.batch_arcs);
      },
      [&](const NodeBatch& batch, int thread_id) {
        WorkCounters local;
        const std::size_t count = batch.size();
        for (std::size_t i = 0; i < count; ++i) {
          assigner.assign(batch.node(i), thread_id, local);
        }
        counters[static_cast<std::size_t>(thread_id)] += local;
      },
      [&](const NodeBatch& batch) { snapshots.at_boundary(batch.size()); });
  for (const WorkCounters& c : counters) {
    result.work += c;
  }
  telemetry::publish_work(result.work);

  result.elapsed_s = timer.elapsed_s();
  result.assignment = assigner.take_assignment();
  return result;
}

} // namespace oms
