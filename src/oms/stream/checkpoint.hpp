/// \file checkpoint.hpp
/// \brief Crash-safe checkpoint/resume for streaming partitioning runs.
///
/// A checkpoint is a binary snapshot of everything a streaming pass needs to
/// continue as if it had never stopped: the input position (byte offset +
/// line number of the next unparsed line), the stream progress (nodes
/// delivered), and the partitioner's cross-node state (assignment prefix,
/// block weights, algorithm-specific extras). Because every supported
/// algorithm derives all remaining state deterministically from its config,
/// a killed-and-resumed run is bit-identical to an uninterrupted one — the
/// chaos suite pins that with golden hashes.
///
/// Two file formats share the magic and the version field (little-endian,
/// all integers fixed-width). Version 1 is one full snapshot:
///
///     u64  magic   "OMSCKPT1"
///     u32  version 1
///     meta: u32 len + algo id bytes, then u64 k, seed, num_nodes,
///           nodes_streamed, input_offset, input_line_no
///     u64  payload length + payload bytes (partitioner-specific)
///     u32  CRC-32 (IEEE) over every preceding byte
///
/// Version 2, the journal that runs write, appends one segment per snapshot.
/// Every supported algorithm commits nodes in stream order and never revisits
/// them, and its payload is the assignment (u64 n, then n u32 slots) followed
/// by O(k) extras, so a segment only has to carry the slots committed since
/// the previous one:
///
///     u64  magic   "OMSCKPT1"
///     u32  version 2
///     u32 len + algo id bytes, then u64 k, seed, num_nodes
///     u32  CRC-32 over the header bytes above
///     segment*:
///       u64  nodes_streamed, input_offset, input_line_no
///       u32  slots [previous nodes_streamed, nodes_streamed)
///       u64  extras length + extras bytes (the payload after the assignment)
///       u32  CRC-32 over the segment bytes above
///
/// A run's first snapshot writes the header and a base segment covering
/// [0, nodes_streamed) to `<path>.tmp` and renames it into place, so a crash
/// during it leaves the previous file intact. Later snapshots append a
/// segment in place; a crash during an append leaves a torn tail segment.
/// Readers validate magic, version and the header CRC and raise oms::IoError
/// on any mismatch. A journal replays up to the first short or CRC-failing
/// segment and yields exactly the version-1 payload of the last intact one;
/// only a journal with no intact segment at all is an error. A corrupt or
/// truncated checkpoint can never silently resume wrong state.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "oms/stream/pipeline.hpp"
#include "oms/types.hpp"

namespace oms {

class AssignmentArray;
class BlockWeights;

/// Append-only byte buffer with typed put_* helpers; the payload side of a
/// partitioner's save_stream_state().
class CheckpointWriter {
public:
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof v); }
  void put_f64(double v) { put_raw(&v, sizeof v); }
  void put_string(const std::string& s);
  void put_raw(const void* data, std::size_t bytes);
  /// Append \p bytes zeroed bytes and return where they start, for callers
  /// that fill a large field in place.
  [[nodiscard]] char* grow(std::size_t bytes);
  /// Make room for \p bytes more, so a caller that knows its final size
  /// grows the buffer once instead of reallocating (and copying) it.
  void make_room(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }
  /// Drop the contents but keep the capacity, so a writer reused across
  /// snapshots allocates (and page-faults) its buffer once.
  void clear() noexcept { buf_.clear(); }

  [[nodiscard]] const std::vector<char>& bytes() const noexcept { return buf_; }

private:
  std::vector<char> buf_;
};

/// Bounds-checked cursor over a checkpoint payload. Every get_* throws
/// oms::IoError when the payload is shorter than the reader expects, so a
/// payload/algorithm mismatch surfaces as a clean error.
class CheckpointReader {
public:
  CheckpointReader(const char* data, std::size_t size) : cur_(data), end_(data + size) {}
  explicit CheckpointReader(const std::vector<char>& bytes)
      : CheckpointReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint32_t get_u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t get_u64() { return get<std::uint64_t>(); }
  [[nodiscard]] std::int64_t get_i64() { return get<std::int64_t>(); }
  [[nodiscard]] double get_f64() { return get<double>(); }
  [[nodiscard]] std::string get_string();
  void get_raw(void* out, std::size_t bytes);
  /// Consume the next \p bytes and return where they start, for callers that
  /// decode a large field in place.
  [[nodiscard]] const char* take(std::size_t bytes);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - cur_);
  }
  /// Throws unless the payload was consumed exactly — trailing bytes mean the
  /// payload belongs to a different (likely newer) serialization.
  void expect_end() const;

private:
  template <typename T>
  [[nodiscard]] T get() {
    T v;
    get_raw(&v, sizeof v);
    return v;
  }

  const char* cur_;
  const char* end_;
};

/// The validated header fields of a checkpoint file.
struct CheckpointMeta {
  std::string algo;                 ///< "oms", "fennel", "ldg", "hashing", "buffered:lp", ...
  std::uint64_t k = 0;
  std::uint64_t seed = 0;
  std::uint64_t num_nodes = 0;      ///< header node count of the input graph
  std::uint64_t nodes_streamed = 0; ///< nodes fully assigned before the snapshot
  std::uint64_t input_offset = 0;   ///< byte offset of the next unparsed line
  std::uint64_t input_line_no = 0;  ///< 1-based line number matching input_offset
};

struct CheckpointState {
  CheckpointMeta meta;
  /// The full (version-1) payload: the assignment with its length, then the
  /// partitioner's extras.
  std::vector<char> payload;
  /// Bytes past the last intact journal segment: a snapshot torn by a crash
  /// mid-append (or corrupted) that the state falls back from. 0 for a
  /// version-1 file.
  std::uint64_t ignored_tail_bytes = 0;
};

/// Atomically (write-then-rename) persist a checkpoint: the header, then
/// \p payload straight from the caller's buffer, CRC'd as they are written.
/// Throws IoError on any filesystem failure.
void write_checkpoint_file(const std::string& path, const CheckpointMeta& meta,
                           const std::vector<char>& payload);

/// Load and fully validate (magic, version, CRC, structure) a checkpoint of
/// either version; a journal yields the state of its last intact segment.
/// Throws IoError naming the defect otherwise.
[[nodiscard]] CheckpointState read_checkpoint_file(const std::string& path);

/// Throws IoError unless \p meta matches the run being resumed: same
/// algorithm id, k, seed and input node count. Callers decide the exit
/// policy (the CLI maps this to a usage error, exit 2).
void validate_resume(const CheckpointMeta& meta, const std::string& algo,
                     std::uint64_t k, std::uint64_t seed, std::uint64_t num_nodes);

// --- serialization helpers shared by the partitioners' save/load ----------

/// Slots [begin, end) of an assignment, without a length: what a journal
/// segment stores.
void save_assignment_slots(CheckpointWriter& w, const AssignmentArray& assignment,
                           NodeId begin, NodeId end);
void save_assignment_slots(CheckpointWriter& w, const std::vector<BlockId>& assignment,
                           NodeId begin, NodeId end);
void load_assignment(CheckpointReader& r, AssignmentArray& assignment);
void load_assignment(CheckpointReader& r, std::vector<BlockId>& assignment);
void save_block_weights(CheckpointWriter& w, const BlockWeights& weights);
void load_block_weights(CheckpointReader& r, BlockWeights& weights);

/// The full (version-1) payload of a stream state: the \p num_nodes slot
/// assignment with its length, then the extras, in a buffer grown once to
/// its final size. \p state has the two parts a journal segment stores:
/// save_assignment_slots(w, begin, end) and save_stream_extras(w).
template <typename State>
void save_full_state(CheckpointWriter& w, const State& state, NodeId num_nodes) {
  CheckpointWriter extras;
  (void)state.save_stream_extras(extras);
  w.make_room(sizeof(std::uint64_t) + std::size_t{num_nodes} * sizeof(BlockId) +
              extras.bytes().size());
  w.put_u64(num_nodes);
  state.save_assignment_slots(w, 0, num_nodes);
  w.put_raw(extras.bytes().data(), extras.bytes().size());
}

// --- the snapshot schedule of a sequential disk run -----------------------

/// Checkpoint/resume for one disk run, used as the batch-boundary hook of
/// run_batched_pipeline by every node-stream driver. Construction resumes
/// plan.resume, if set: its payload goes to \p load and is freed right
/// after, and \p stream jumps to the recorded position. at_boundary() then
/// snapshots at the first batch boundary at or past each multiple of
/// plan.checkpoint_every, so resuming re-enters the stream exactly between
/// two batches and the result is bit-identical to an uninterrupted run.
/// Drivers that cut their batches with cap() get snapshots on the exact
/// multiples.
///
/// Snapshots go to a version-2 journal: the run's first one writes the
/// header and a base segment through tmp + rename (which also replaces the
/// file a resumed run read, torn tail included), every later one appends
/// the slots committed since the previous one plus the extras. So a run
/// writes its n slots once, not once per snapshot.
/// FaultSite::kCheckpointDie fires right after a snapshot is durably on disk
/// — the chaos harness uses it as a deterministic stand-in for kill -9.
/// FaultSite::kCheckpointTorn writes half a snapshot, then dies.
class SnapshotSchedule {
public:
  /// Serialize the consumer's cross-node state in the journal's two parts:
  /// the assignment slots [begin, end) and the extras. SaveExtras returning
  /// false means the algorithm cannot checkpoint, reported as IoError.
  using SaveSlots = std::function<void(CheckpointWriter&, NodeId begin, NodeId end)>;
  using SaveExtras = std::function<bool(CheckpointWriter&)>;
  /// Restore it from a full (version-1) payload; false means unsupported.
  using Load = std::function<bool(CheckpointReader&)>;

  /// \p k is stamped into the snapshots. A plan with a checkpoint path must
  /// be sequential (asserted): a reader thread would have parsed past the
  /// boundary, so the stream position would not match the snapshot.
  SnapshotSchedule(const StreamPlan& plan, MetisNodeStream& stream, BlockId k,
                   SaveSlots save_slots, SaveExtras save_extras, const Load& load);

  /// \p batch_nodes, shortened so the batch ends on the next snapshot point.
  [[nodiscard]] std::size_t cap(std::size_t batch_nodes) const noexcept;

  /// The boundary hook: \p nodes more were consumed; snapshot if due.
  void at_boundary(std::size_t nodes);

private:
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept { std::fclose(f); }
  };

  const StreamPlan& plan_;
  MetisNodeStream& stream_;
  BlockId k_;
  SaveSlots save_slots_;
  SaveExtras save_extras_;
  CheckpointWriter writer_; ///< one snapshot's bytes, reused by every snapshot
  CheckpointWriter extras_; ///< one snapshot's extras, reused likewise
  std::unique_ptr<std::FILE, FileCloser> journal_; ///< open after the first snapshot
  std::uint64_t streamed_ = 0;
  std::uint64_t journaled_ = 0; ///< nodes the journal's segments cover
  std::uint64_t next_snapshot_;
};

} // namespace oms
