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
/// File format (little-endian, all integers fixed-width):
///
///     u64  magic   "OMSCKPT1"
///     u32  version (currently 1)
///     meta: u32 len + algo id bytes, then u64 k, seed, num_nodes,
///           nodes_streamed, input_offset, input_line_no
///     u64  payload length + payload bytes (partitioner-specific)
///     u32  CRC-32 (IEEE) over every preceding byte
///
/// Files are written to `<path>.tmp` and renamed into place, so a crash
/// *during* a checkpoint write leaves the previous snapshot intact. Readers
/// validate magic, version and CRC before touching any field and raise
/// oms::IoError on any mismatch — a corrupt or truncated checkpoint can
/// never silently resume wrong state.
#pragma once

#include <cstdint>
#include <functional>
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
  std::vector<char> payload;
};

/// Atomically (write-then-rename) persist a checkpoint: the header, then
/// \p payload straight from the caller's buffer, CRC'd as they are written.
/// Throws IoError on any filesystem failure.
void write_checkpoint_file(const std::string& path, const CheckpointMeta& meta,
                           const std::vector<char>& payload);

/// Load and fully validate (magic, version, CRC, structure) a checkpoint.
/// Throws IoError naming the defect otherwise.
[[nodiscard]] CheckpointState read_checkpoint_file(const std::string& path);

/// Throws IoError unless \p meta matches the run being resumed: same
/// algorithm id, k, seed and input node count. Callers decide the exit
/// policy (the CLI maps this to a usage error, exit 2).
void validate_resume(const CheckpointMeta& meta, const std::string& algo,
                     std::uint64_t k, std::uint64_t seed, std::uint64_t num_nodes);

// --- serialization helpers shared by the partitioners' save/load ----------

void save_assignment(CheckpointWriter& w, const AssignmentArray& assignment);
void load_assignment(CheckpointReader& r, AssignmentArray& assignment);
void save_assignment(CheckpointWriter& w, const std::vector<BlockId>& assignment);
void load_assignment(CheckpointReader& r, std::vector<BlockId>& assignment);
void save_block_weights(CheckpointWriter& w, const BlockWeights& weights);
void load_block_weights(CheckpointReader& r, BlockWeights& weights);

// --- the snapshot schedule of a sequential disk run -----------------------

/// Checkpoint/resume for one disk run, used as the batch-boundary hook of
/// run_batched_pipeline by every node-stream driver. Construction resumes
/// plan.resume, if set: its payload goes to \p load and \p stream jumps to
/// the recorded position. at_boundary() then writes a snapshot at the first
/// batch boundary at or past each multiple of plan.checkpoint_every, so
/// resuming re-enters the stream exactly between two batches and the result
/// is bit-identical to an uninterrupted run. Drivers that cut their batches
/// with cap() get snapshots on the exact multiples.
/// FaultSite::kCheckpointDie fires right after a snapshot is durably on disk
/// — the chaos harness uses it as a deterministic stand-in for kill -9.
class SnapshotSchedule {
public:
  /// Serialize / restore the consumer's cross-node state. Returning false
  /// means the algorithm cannot checkpoint, reported as IoError.
  using Save = std::function<bool(CheckpointWriter&)>;
  using Load = std::function<bool(CheckpointReader&)>;

  /// \p k is stamped into the snapshots. A plan with a checkpoint path must
  /// be sequential (asserted): a reader thread would have parsed past the
  /// boundary, so the stream position would not match the snapshot.
  SnapshotSchedule(const StreamPlan& plan, MetisNodeStream& stream, BlockId k,
                   Save save, const Load& load);

  /// \p batch_nodes, shortened so the batch ends on the next snapshot point.
  [[nodiscard]] std::size_t cap(std::size_t batch_nodes) const noexcept;

  /// The boundary hook: \p nodes more were consumed; snapshot if due.
  void at_boundary(std::size_t nodes);

private:
  const StreamPlan& plan_;
  MetisNodeStream& stream_;
  BlockId k_;
  Save save_;
  CheckpointWriter writer_; ///< reused by every snapshot of the run
  std::uint64_t streamed_ = 0;
  std::uint64_t next_snapshot_;
};

} // namespace oms
