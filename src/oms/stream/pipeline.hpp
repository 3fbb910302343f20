/// \file pipeline.hpp
/// \brief StreamPlan — how a disk stream is executed — and the one-pass file
///        driver that runs a METIS file through a OnePassAssigner by it.
///
/// Every disk driver (run_one_pass_from_file here, buffered_partition_from_file
/// and run_edge_partition_from_file) hands its fill and consume steps to the
/// one executor, run_batched_pipeline (pipeline_core.hpp). A plan is either
/// sequential — fill and consume alternate on the calling thread, with
/// checkpoint snapshots at batch boundaries — or pipelined: a reader thread
/// parses ahead into recycled batches while consumer threads assign. That is
/// the producer/consumer structure of buffered streaming partitioning (Faraj
/// & Schulz, "Buffered Streaming Graph Partitioning") applied to ingest: the
/// pipeline pays max(parse, assign) plus one batch handoff per few thousand
/// nodes instead of parse + assign.
///
/// Ordering contract: parse-ahead reorders *work*, never *decisions*. With
/// one assign thread, batches are consumed strictly in stream order, so a
/// pipelined run is bit-identical to a sequential one (pinned by the
/// golden-hash suite). With several assign threads, whole batches are dealt
/// to threads like the chunked in-memory parallel driver, with the same
/// Section 3.4 overshoot semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "oms/stream/error_policy.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/one_pass_driver.hpp"

namespace oms {

struct CheckpointState;

/// Everything about *how* a disk stream runs, shared by the three file
/// drivers. The default plan is sequential, unchecked and abort-on-error.
struct StreamPlan {
  /// true: a reader thread parses ahead of the consumers. false: fill and
  /// consume alternate on the calling thread (the only mode that can
  /// checkpoint, since no batch is parsed past a snapshot point).
  bool pipelined = false;

  /// Consumer (assignment) threads of a pipelined one-pass run. 1 keeps
  /// stream order exactly and is bit-identical to the sequential plan; >1
  /// trades determinism for throughput exactly like run_one_pass(...,
  /// num_threads > 1). The buffered and edge drivers always use one.
  int assign_threads = 1;

  /// Max nodes (edges, for edge lists) per batch. Also the parallel
  /// decomposition grain when assign_threads > 1 (one batch = one chunk).
  /// The buffered driver batches by BufferedConfig::buffer_size instead.
  std::size_t batch_nodes = 4096;

  /// Max adjacency entries per one-pass batch: hub-heavy regions close a
  /// batch early so its memory stays bounded by arcs, not by the degree
  /// distribution. 0 = no arc cap.
  std::size_t batch_arcs = 1 << 18;

  /// Batches circulating between the reader and the consumers. Bounds the
  /// parse-ahead: the reader blocks once this many batches are parsed but
  /// not yet consumed (backpressure).
  std::size_t ring_batches = 4;

  /// Raw read chunk of the underlying stream reader.
  std::size_t reader_buffer_bytes = MetisNodeStream::kDefaultBufferBytes;

  /// Watchdog on every pipeline queue wait, in milliseconds; 0 disables. A
  /// timeout means a peer thread died without closing its queue and surfaces
  /// as oms::IoError instead of a hang.
  std::uint64_t watchdog_ms = 0;

  /// Malformed-line policy applied to the stream (--on-error).
  StreamErrorPolicy error_policy;

  /// When non-null, receives the end-of-run skip accounting (only meaningful
  /// under StreamErrorPolicy::Action::kSkip). Not owned.
  StreamErrorStats* error_stats_out = nullptr;

  // --- checkpoint/resume (sequential METIS node streams only) -------------

  /// Snapshot file; empty = no snapshots.
  std::string checkpoint_path;
  /// Snapshot cadence in streamed nodes (see SnapshotSchedule).
  std::uint64_t checkpoint_every = 65536;
  /// Algorithm id and seed stamped into each snapshot; validate_resume
  /// compares them when the snapshot is resumed.
  std::string checkpoint_algo;
  std::uint64_t checkpoint_seed = 0;
  /// Snapshot to continue from, already checked by validate_resume. Not
  /// owned, but consumed: the run takes its payload (leaving it empty, its
  /// memory freed) as soon as the state is loaded.
  CheckpointState* resume = nullptr;
};

/// Stream \p path through \p assigner as \p plan says. Total memory beyond
/// the assigner's own state is O(ring_batches * batch size). IoError raised
/// by the parser mid-stream is rethrown here, on the calling thread, after
/// all pipeline threads have been joined. A checkpointing plan cuts batches
/// at each checkpoint_every multiple, so snapshots land on exact multiples.
[[nodiscard]] StreamResult run_one_pass_from_file(const std::string& path,
                                                  OnePassAssigner& assigner,
                                                  const StreamPlan& plan = {});

} // namespace oms
