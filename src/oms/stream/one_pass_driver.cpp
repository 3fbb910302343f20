#include "oms/stream/one_pass_driver.hpp"

#include <mutex>

#include "oms/telemetry/metrics.hpp"
#include "oms/util/parallel.hpp"
#include "oms/util/timer.hpp"

namespace oms {

StreamResult run_one_pass(const CsrGraph& graph, OnePassAssigner& assigner,
                          int num_threads, std::size_t chunk_size) {
  const int threads = resolve_threads(num_threads);
  assigner.prepare(threads);

  StreamResult result;
  Timer timer;

  if (threads == 1) {
    WorkCounters counters;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      const StreamedNode node{u, graph.node_weight(u), graph.neighbors(u),
                              graph.incident_weights(u)};
      assigner.assign(node, 0, counters);
    }
    result.work = counters;
    result.quality = assigner.stream_quality();
  } else {
    std::mutex merge_mutex;
    parallel_chunks(graph.num_nodes(), threads, chunk_size,
                    [&](std::size_t begin, std::size_t end, int thread_id) {
                      WorkCounters counters;
                      for (std::size_t i = begin; i < end; ++i) {
                        const auto u = static_cast<NodeId>(i);
                        const StreamedNode node{u, graph.node_weight(u),
                                                graph.neighbors(u),
                                                graph.incident_weights(u)};
                        assigner.assign(node, thread_id, counters);
                      }
                      const std::lock_guard<std::mutex> lock(merge_mutex);
                      result.work += counters;
                    });
  }

  // One end-of-run publish; the in-memory assign loop itself stays free of
  // hooks (it is the BM_Stream* surface the regression gate pins).
  telemetry::metric_add(telemetry::Counter::kStreamNodes, graph.num_nodes());
  telemetry::publish_work(result.work);
  result.elapsed_s = timer.elapsed_s();
  result.assignment = assigner.take_assignment();
  return result;
}

} // namespace oms
