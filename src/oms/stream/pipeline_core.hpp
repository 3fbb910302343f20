/// \file pipeline_core.hpp
/// \brief The one disk-stream executor: run_batched_pipeline runs a stream's
///        fill step and a consumer's consume step per a StreamPlan, either
///        sequentially on the calling thread or as a producer/consumer ring.
///
/// Every file driver (one-pass, buffered, edge) is a fill callback, a
/// consume callback and a batch-boundary hook handed to this function, so
/// the error policy, stage spans, batch counters, fault sites and the
/// shutdown protocol are written once for all of them.
///
///  * Sequential plan: fill and consume alternate on the calling thread over
///    one reused batch; after each consumed batch the boundary hook runs
///    (the checkpoint schedule lives there — no reader thread exists, so the
///    stream position is exactly the batch end).
///  * Pipelined plan: a reader thread fills recycled batch buffers, consumer
///    threads drain them. Two bounded queues close the loop, ring_batches
///    bounds the parse-ahead (backpressure on both sides), and after warm-up
///    no allocation happens on either path. The boundary hook never runs.
///
/// Failure hardening: an optional watchdog bounds every queue wait so a dead
/// peer thread surfaces as IoError instead of a hang; a consumer error
/// aborts (close + discard) both queues so siblings and the producer stop at
/// their next queue operation; and when the reader thread cannot be spawned
/// at all, a pipelined plan degrades to the sequential loop — same results,
/// no parallelism.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "oms/stream/pipeline.hpp"
#include "oms/telemetry/metrics.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/io_error.hpp"
#include "oms/util/parallel.hpp"

namespace oms {

namespace detail {

/// The sequential plan, and the fallback of a pipelined one whose reader
/// thread could not be spawned: fill, consume, hook, on the calling thread.
template <typename Batch, typename Fill, typename Consume, typename AtBoundary>
void run_batches_sequentially(Fill& fill, Consume& consume,
                              AtBoundary& at_boundary) {
  Batch batch;
  while (true) {
    fault_sleep(FaultSite::kFillDelay);
    {
      const telemetry::TraceSpan span(telemetry::Hist::kStageParse);
      if (fill(batch) == 0) {
        return;
      }
    }
    if (fault_fires(FaultSite::kConsumeThrow)) {
      throw IoError("injected consumer fault");
    }
    {
      const telemetry::TraceSpan span(telemetry::Hist::kStageAssign);
      consume(batch, 0);
    }
    telemetry::metric_add(telemetry::Counter::kPipelineBatches);
    at_boundary(batch);
  }
}

template <typename Batch, typename Fill, typename Consume, typename AtBoundary>
void run_batches(const StreamPlan& plan, int consumers, Fill& fill,
                 Consume& consume, AtBoundary& at_boundary) {
  if (!plan.pipelined) {
    run_batches_sequentially<Batch>(fill, consume, at_boundary);
    return;
  }
  using BatchPtr = std::unique_ptr<Batch>;
  BoundedQueue<BatchPtr> free_q(plan.ring_batches);
  BoundedQueue<BatchPtr> filled_q(plan.ring_batches);
  if (plan.watchdog_ms != 0) {
    free_q.set_watchdog(std::chrono::milliseconds(plan.watchdog_ms));
    filled_q.set_watchdog(std::chrono::milliseconds(plan.watchdog_ms));
  }
  for (std::size_t i = 0; i < plan.ring_batches; ++i) {
    (void)free_q.push(std::make_unique<Batch>());
  }

  std::mutex error_mutex;
  std::exception_ptr fill_error;
  std::exception_ptr consume_error;

  const auto producer_loop = [&] {
    try {
      BatchPtr batch;
      while (true) {
        // Telemetry: the time spent waiting for a recycled batch is exactly
        // the backpressure the consumers exert on the reader. Clock reads
        // happen only with a registry armed.
        if (telemetry::enabled()) [[unlikely]] {
          const std::uint64_t t0 = telemetry::now_ns();
          const bool ok = free_q.pop(batch);
          telemetry::metric_add(telemetry::Counter::kPipelineProducerStallNs,
                                telemetry::now_ns() - t0);
          if (!ok) {
            break;
          }
        } else if (!free_q.pop(batch)) {
          break;
        }
        fault_sleep(FaultSite::kFillDelay);
        {
          const telemetry::TraceSpan span(telemetry::Hist::kStageParse);
          if (fill(*batch) == 0) {
            break; // stream exhausted
          }
        }
        if (!filled_q.push(std::move(batch))) {
          break; // a consumer failed and closed the queues
        }
        if (telemetry::enabled()) [[unlikely]] {
          telemetry::gauge_max(telemetry::Gauge::kPipelineQueueDepthMax,
                               filled_q.size());
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      fill_error = std::current_exception();
    }
    // Wakes the consumers; they drain what was parsed, then stop. An IoError
    // therefore surfaces on the caller, never as a deadlocked pipeline.
    filled_q.close();
  };

  // Graceful degradation: if the OS refuses the producer thread (or the
  // injected thread.spawn fault simulates that), run the whole stream
  // sequentially on the calling thread. Identical results, no parallelism —
  // strictly better than failing a multi-hour run over a transient
  // resource limit.
  std::thread producer;
  if (!fault_fires(FaultSite::kThreadSpawn)) {
    try {
      producer = std::thread(producer_loop);
    } catch (const std::system_error&) {
    }
  }
  if (!producer.joinable()) {
    run_batches_sequentially<Batch>(fill, consume, at_boundary);
    return;
  }

  const auto consume_loop = [&](int thread_id) {
    try {
      BatchPtr batch;
      while (true) {
        // Telemetry mirror of the producer side: waits on the filled queue
        // measure reader-bound (or sibling-starved) consumers.
        if (telemetry::enabled()) [[unlikely]] {
          const std::uint64_t t0 = telemetry::now_ns();
          const bool ok = filled_q.pop(batch);
          const std::uint64_t waited = telemetry::now_ns() - t0;
          telemetry::metric_add(telemetry::Counter::kPipelineConsumerWaitNs,
                                waited);
          telemetry::hist_record(telemetry::Hist::kPipelineQueueWait, waited);
          if (!ok) {
            break;
          }
        } else if (!filled_q.pop(batch)) {
          break;
        }
        if (fault_fires(FaultSite::kConsumeThrow)) {
          throw IoError("injected consumer fault");
        }
        {
          const telemetry::TraceSpan span(telemetry::Hist::kStageAssign);
          consume(*batch, thread_id);
        }
        telemetry::metric_add(telemetry::Counter::kPipelineBatches);
        if (!free_q.push(std::move(batch))) {
          break;
        }
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (consume_error == nullptr) {
          consume_error = std::current_exception();
        }
      }
      // abort(), not close(): discard the parsed backlog so sibling
      // consumers stop at their next pop instead of draining batches whose
      // results will be thrown away, and the producer's push/pop unblock
      // immediately. The first error recorded above is the one rethrown.
      filled_q.abort();
      free_q.abort();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(consumers) - 1);
  for (int t = 1; t < consumers; ++t) {
    // A failed worker spawn degrades to fewer consumers (the calling thread
    // is always consumer 0); correctness never depends on the count.
    if (fault_fires(FaultSite::kThreadSpawn)) {
      break;
    }
    try {
      workers.emplace_back(consume_loop, t);
    } catch (const std::system_error&) {
      break;
    }
  }
  consume_loop(0);
  for (std::thread& w : workers) {
    w.join();
  }
  free_q.close(); // producer may still be waiting for a recycled batch
  producer.join();

  if (fill_error != nullptr) {
    std::rethrow_exception(fill_error);
  }
  if (consume_error != nullptr) {
    std::rethrow_exception(consume_error);
  }
}

} // namespace detail

/// Run \p stream to exhaustion as \p plan says.
///
/// \param consumers   consumer threads of a pipelined plan; the calling
///                    thread is consumer 0, so the pipeline costs exactly
///                    `consumers` extra threads minus one plus the reader.
///                    A sequential plan has one consumer (thread id 0).
/// \param fill        fill(batch) parses the next chunk of \p stream into
///                    \p batch and returns the element count; 0 means the
///                    stream is exhausted. Runs on the reader thread of a
///                    pipelined plan.
/// \param consume     consume(batch, thread_id) processes one batch.
/// \param at_boundary at_boundary(batch) runs after each consumed batch of
///                    a sequential run, when the stream sits exactly at the
///                    batch end (the checkpoint hook).
///
/// The plan's error policy is applied to \p stream first and its skip
/// accounting copied to plan.error_stats_out at the end. An exception thrown
/// by \p fill wakes the consumers (they drain what was parsed, then stop)
/// and is rethrown here after all threads joined; an exception from
/// \p consume stops the siblings and the producer the same way. Fill errors
/// take precedence, matching "the parse failed first".
template <typename Batch, typename Stream, typename Fill, typename Consume,
          typename AtBoundary>
void run_batched_pipeline(Stream& stream, const StreamPlan& plan, int consumers,
                          Fill&& fill, Consume&& consume, AtBoundary&& at_boundary) {
  stream.set_error_policy(plan.error_policy);
  detail::run_batches<Batch>(plan, consumers, fill, consume, at_boundary);
  if (plan.error_stats_out != nullptr) {
    *plan.error_stats_out = stream.error_stats();
  }
}

} // namespace oms
