#include "oms/stream/checkpoint.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <system_error>
#include <utility>

#include "oms/stream/block_weights.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/telemetry/metrics.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/assignment_array.hpp"
#include "oms/util/crc32.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/io_error.hpp"

namespace oms {

namespace {

/// "OMSCKPT1" little-endian.
constexpr std::uint64_t kCheckpointMagic = 0x3154504B43534D4FULL;
constexpr std::uint32_t kSnapshotVersion = 1; ///< one full snapshot
constexpr std::uint32_t kJournalVersion = 2;  ///< header + appended segments
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
/// A segment's fixed fields: nodes_streamed, input_offset, input_line_no.
constexpr std::size_t kSegmentFields = 3 * sizeof(std::uint64_t);
/// What a segment adds around its slots and extras: the fixed fields, the
/// extras length and the CRC.
constexpr std::size_t kSegmentOverhead =
    kSegmentFields + sizeof(std::uint64_t) + sizeof(std::uint32_t);

struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void put_meta(CheckpointWriter& w, const CheckpointMeta& meta) {
  w.put_string(meta.algo);
  w.put_u64(meta.k);
  w.put_u64(meta.seed);
  w.put_u64(meta.num_nodes);
  w.put_u64(meta.nodes_streamed);
  w.put_u64(meta.input_offset);
  w.put_u64(meta.input_line_no);
}

[[nodiscard]] CheckpointMeta get_meta(CheckpointReader& r) {
  CheckpointMeta meta;
  meta.algo = r.get_string();
  meta.k = r.get_u64();
  meta.seed = r.get_u64();
  meta.num_nodes = r.get_u64();
  meta.nodes_streamed = r.get_u64();
  meta.input_offset = r.get_u64();
  meta.input_line_no = r.get_u64();
  return meta;
}

[[nodiscard]] IoError unsupported(const std::string& algo) {
  return IoError("algorithm '" + algo + "' does not support checkpoint/resume");
}

/// Write the first \p bytes of \p data to \p file (named \p name), flushed.
void write_flushed(std::FILE* file, const std::string& name,
                   const std::vector<char>& data, std::size_t bytes) {
  if (std::fwrite(data.data(), 1, bytes, file) != bytes || std::fflush(file) != 0) {
    throw IoError("write error on checkpoint file '" + name + "'");
  }
}

/// The state of the last intact segment of the journal in \p bytes, whose
/// magic and version the caller checked: the version-1 payload it stands
/// for, with every slot no segment reached still unassigned.
[[nodiscard]] CheckpointState replay_journal(const std::string& path,
                                             const std::vector<char>& bytes) {
  CheckpointState state;
  CheckpointReader r(bytes);
  std::size_t header_len = 0;
  std::uint32_t header_crc = 0;
  try {
    (void)r.get_u64();
    (void)r.get_u32();
    state.meta.algo = r.get_string();
    state.meta.k = r.get_u64();
    state.meta.seed = r.get_u64();
    state.meta.num_nodes = r.get_u64();
    header_len = bytes.size() - r.remaining();
    header_crc = r.get_u32();
  } catch (const IoError&) {
    throw IoError("checkpoint '" + path + "': truncated journal header");
  }
  if (crc32(bytes.data(), header_len) != header_crc) {
    throw IoError("checkpoint '" + path + "': journal header CRC mismatch");
  }
  const std::uint64_t n = state.meta.num_nodes;
  if (n > std::numeric_limits<NodeId>::max()) {
    throw IoError("checkpoint '" + path + "': node count out of range");
  }

  // Validate every segment before copying anything: the slots of each intact
  // one land at [previous nodes_streamed, nodes_streamed).
  struct Slots {
    const char* from;
    std::uint64_t begin;
    std::uint64_t count;
  };
  std::vector<Slots> slots;
  const char* extras = nullptr;
  std::uint64_t extras_len = 0;
  std::uint64_t covered = 0;
  std::size_t intact_end = bytes.size() - r.remaining();
  while (r.remaining() >= kSegmentOverhead) {
    const char* segment = bytes.data() + intact_end;
    const std::uint64_t streamed = r.get_u64();
    const std::uint64_t offset = r.get_u64();
    const std::uint64_t line_no = r.get_u64();
    if (streamed < covered || streamed > n) {
      break;
    }
    const std::uint64_t slot_bytes = (streamed - covered) * sizeof(BlockId);
    if (r.remaining() < slot_bytes + kSegmentOverhead - kSegmentFields) {
      break;
    }
    const char* from = r.take(slot_bytes);
    const std::uint64_t len = r.get_u64();
    if (r.remaining() < sizeof(std::uint32_t) ||
        len > r.remaining() - sizeof(std::uint32_t)) {
      break;
    }
    const char* segment_extras = r.take(len);
    const std::size_t segment_len = kSegmentFields + slot_bytes + sizeof len + len;
    if (crc32(segment, segment_len) != r.get_u32()) {
      break;
    }
    slots.push_back({from, covered, streamed - covered});
    extras = segment_extras;
    extras_len = len;
    covered = streamed;
    state.meta.nodes_streamed = streamed;
    state.meta.input_offset = offset;
    state.meta.input_line_no = line_no;
    intact_end = bytes.size() - r.remaining();
  }
  if (slots.empty()) {
    throw IoError("checkpoint '" + path +
                  "': no intact snapshot segment (truncated or corrupt)");
  }
  state.ignored_tail_bytes = bytes.size() - intact_end;

  static_assert(kInvalidBlock == -1, "unassigned slots are all-ones bytes");
  const std::size_t assignment_bytes = static_cast<std::size_t>(n) * sizeof(BlockId);
  state.payload.resize(sizeof n + assignment_bytes + extras_len);
  char* out = state.payload.data();
  std::memcpy(out, &n, sizeof n);
  out += sizeof n;
  std::memset(out + covered * sizeof(BlockId), 0xFF,
              assignment_bytes - covered * sizeof(BlockId));
  for (const Slots& s : slots) {
    std::memcpy(out + s.begin * sizeof(BlockId), s.from, s.count * sizeof(BlockId));
  }
  std::memcpy(out + assignment_bytes, extras, extras_len);
  return state;
}

} // namespace

void CheckpointWriter::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_raw(s.data(), s.size());
}

void CheckpointWriter::put_raw(const void* data, std::size_t bytes) {
  const char* p = static_cast<const char*>(data);
  buf_.insert(buf_.end(), p, p + bytes);
}

char* CheckpointWriter::grow(std::size_t bytes) {
  const std::size_t at = buf_.size();
  buf_.resize(at + bytes);
  return buf_.data() + at;
}

std::string CheckpointReader::get_string() {
  const std::uint32_t len = get_u32();
  if (len > remaining()) {
    throw IoError("checkpoint: truncated string field");
  }
  std::string s(cur_, len);
  cur_ += len;
  return s;
}

void CheckpointReader::get_raw(void* out, std::size_t bytes) {
  const char* from = take(bytes);
  if (bytes == 0) {
    return; // an empty payload's data() may be null, which memcpy forbids
  }
  std::memcpy(out, from, bytes);
}

const char* CheckpointReader::take(std::size_t bytes) {
  if (bytes > remaining()) {
    throw IoError("checkpoint: truncated payload");
  }
  const char* at = cur_;
  cur_ += bytes;
  return at;
}

void CheckpointReader::expect_end() const {
  if (cur_ != end_) {
    throw IoError("checkpoint: " + std::to_string(remaining()) +
                  " unexpected trailing payload bytes");
  }
}

void write_checkpoint_file(const std::string& path, const CheckpointMeta& meta,
                           const std::vector<char>& payload) {
  const telemetry::TraceSpan span(telemetry::Hist::kStageCheckpointWrite);
  CheckpointWriter header;
  header.put_u64(kCheckpointMagic);
  header.put_u32(kSnapshotVersion);
  put_meta(header, meta);
  header.put_u64(payload.size());

  // tmp + rename: a crash mid-write can only lose the snapshot in progress,
  // never corrupt the previous one.
  const std::string tmp = path + ".tmp";
  {
    const FilePtr file(std::fopen(tmp.c_str(), "wb"));
    if (file == nullptr) {
      throw IoError("cannot open checkpoint file '" + tmp + "' for writing");
    }
    std::uint32_t crc = crc32_init();
    const auto write_raw = [&file, &crc](const std::vector<char>& bytes) {
      crc = crc32_update(crc, bytes.data(), bytes.size());
      // An empty vector's data() may be null, which fwrite forbids.
      return bytes.empty() ||
             std::fwrite(bytes.data(), 1, bytes.size(), file.get()) == bytes.size();
    };
    const bool ok = write_raw(header.bytes()) && write_raw(payload);
    crc = crc32_final(crc);
    if (!ok || std::fwrite(&crc, 1, sizeof crc, file.get()) != sizeof crc ||
        std::fflush(file.get()) != 0) {
      throw IoError("write error on checkpoint file '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError("cannot move checkpoint into place at '" + path + "'");
  }
  telemetry::metric_add(telemetry::Counter::kCheckpointSnapshots);
  telemetry::metric_add(telemetry::Counter::kCheckpointBytes,
                        header.bytes().size() + payload.size() + sizeof(std::uint32_t));
}

CheckpointState read_checkpoint_file(const std::string& path) {
  const FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    throw IoError("cannot open checkpoint file '" + path + "'");
  }
  // One read into a buffer sized from the file's length (an error for
  // anything but a regular file, e.g. a directory).
  std::error_code size_error;
  const std::uintmax_t length = std::filesystem::file_size(path, size_error);
  if (size_error) {
    throw IoError("read error on checkpoint file '" + path + "'");
  }
  std::vector<char> bytes(static_cast<std::size_t>(length));
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), file.get()) != bytes.size()) {
    throw IoError("read error on checkpoint file '" + path + "'");
  }

  if (bytes.size() < sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t)) {
    throw IoError("checkpoint '" + path + "': file too short to be a checkpoint");
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof stored_crc,
              sizeof stored_crc);
  const std::size_t body = bytes.size() - sizeof stored_crc;

  CheckpointReader r(bytes.data(), body);
  if (r.get_u64() != kCheckpointMagic) {
    throw IoError("checkpoint '" + path + "': bad magic (not a checkpoint file)");
  }
  const std::uint32_t version = r.get_u32();
  if (version == kJournalVersion) {
    return replay_journal(path, bytes);
  }
  if (version != kSnapshotVersion) {
    throw IoError("checkpoint '" + path + "': unsupported version " +
                  std::to_string(version) + " (expected " +
                  std::to_string(kSnapshotVersion) + " or " +
                  std::to_string(kJournalVersion) + ")");
  }
  if (crc32(bytes.data(), body) != stored_crc) {
    throw IoError("checkpoint '" + path + "': CRC mismatch (truncated or corrupt)");
  }

  CheckpointState state;
  state.meta = get_meta(r);
  const std::uint64_t payload_len = r.get_u64();
  if (payload_len != r.remaining()) {
    throw IoError("checkpoint '" + path + "': payload length mismatch");
  }
  // The payload is the file's tail minus the CRC: shift it down in place
  // rather than copying it into a second buffer.
  const auto header_len = static_cast<std::ptrdiff_t>(body - payload_len);
  bytes.erase(bytes.begin(), bytes.begin() + header_len);
  bytes.resize(payload_len);
  state.payload = std::move(bytes);
  return state;
}

void validate_resume(const CheckpointMeta& meta, const std::string& algo,
                     std::uint64_t k, std::uint64_t seed, std::uint64_t num_nodes) {
  if (meta.algo != algo) {
    throw IoError("checkpoint was written by algorithm '" + meta.algo +
                  "', this run uses '" + algo + "'");
  }
  if (meta.k != k) {
    throw IoError("checkpoint has k=" + std::to_string(meta.k) +
                  ", this run uses k=" + std::to_string(k));
  }
  if (meta.seed != seed) {
    throw IoError("checkpoint has seed=" + std::to_string(meta.seed) +
                  ", this run uses seed=" + std::to_string(seed));
  }
  if (meta.num_nodes != num_nodes) {
    throw IoError("checkpoint input has " + std::to_string(meta.num_nodes) +
                  " nodes, this input has " + std::to_string(num_nodes));
  }
}

void save_assignment_slots(CheckpointWriter& w, const AssignmentArray& assignment,
                           NodeId begin, NodeId end) {
  OMS_ASSERT(begin <= end && end <= assignment.size());
  char* out = w.grow(std::size_t{end - begin} * sizeof(BlockId));
  for (NodeId u = begin; u < end; ++u, out += sizeof(BlockId)) {
    const BlockId b = assignment.load(u);
    std::memcpy(out, &b, sizeof b);
  }
}

void load_assignment(CheckpointReader& r, AssignmentArray& assignment) {
  if (r.get_u64() != assignment.size()) {
    throw IoError("checkpoint: assignment size mismatch");
  }
  const char* in = r.take(assignment.size() * sizeof(BlockId));
  for (std::size_t u = 0; u < assignment.size(); ++u, in += sizeof(BlockId)) {
    BlockId b = kInvalidBlock;
    std::memcpy(&b, in, sizeof b);
    assignment.store(static_cast<NodeId>(u), b);
  }
}

void save_assignment_slots(CheckpointWriter& w, const std::vector<BlockId>& assignment,
                           NodeId begin, NodeId end) {
  OMS_ASSERT(begin <= end && end <= assignment.size());
  w.put_raw(assignment.data() + begin, std::size_t{end - begin} * sizeof(BlockId));
}

void load_assignment(CheckpointReader& r, std::vector<BlockId>& assignment) {
  if (r.get_u64() != assignment.size()) {
    throw IoError("checkpoint: assignment size mismatch");
  }
  r.get_raw(assignment.data(), assignment.size() * sizeof(BlockId));
}

void save_block_weights(CheckpointWriter& w, const BlockWeights& weights) {
  w.put_u64(weights.size());
  for (std::size_t b = 0; b < weights.size(); ++b) {
    w.put_i64(weights.load(b));
  }
}

void load_block_weights(CheckpointReader& r, BlockWeights& weights) {
  if (r.get_u64() != weights.size()) {
    throw IoError("checkpoint: block weight count mismatch");
  }
  weights.reset();
  for (std::size_t b = 0; b < weights.size(); ++b) {
    weights.add(b, r.get_i64());
  }
}

SnapshotSchedule::SnapshotSchedule(const StreamPlan& plan, MetisNodeStream& stream,
                                   BlockId k, SaveSlots save_slots,
                                   SaveExtras save_extras, const Load& load)
    : plan_(plan), stream_(stream), k_(k), save_slots_(std::move(save_slots)),
      save_extras_(std::move(save_extras)), next_snapshot_(kNever) {
  if (plan.resume != nullptr) {
    // The payload (4n bytes and up) has no reader after the load, so it is
    // freed here rather than held for the rest of the resumed run.
    const std::vector<char> payload = std::move(plan.resume->payload);
    CheckpointReader r(payload);
    if (!load(r)) {
      throw unsupported(plan.checkpoint_algo);
    }
    r.expect_end();
    streamed_ = plan.resume->meta.nodes_streamed;
    stream.resume_at(plan.resume->meta.input_offset,
                     plan.resume->meta.input_line_no,
                     static_cast<NodeId>(streamed_));
  }
  if (!plan.checkpoint_path.empty() && plan.checkpoint_every != 0) {
    OMS_ASSERT_MSG(!plan.pipelined,
                   "snapshots need a sequential plan: a reader thread parses "
                   "past every batch boundary");
    next_snapshot_ = (streamed_ / plan.checkpoint_every + 1) * plan.checkpoint_every;
  }
}

std::size_t SnapshotSchedule::cap(std::size_t batch_nodes) const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(batch_nodes, next_snapshot_ - streamed_));
}

void SnapshotSchedule::at_boundary(std::size_t nodes) {
  streamed_ += nodes;
  if (streamed_ < next_snapshot_) {
    return;
  }
  const telemetry::TraceSpan span(telemetry::Hist::kStageCheckpointWrite);
  extras_.clear();
  if (!save_extras_(extras_)) {
    throw unsupported(plan_.checkpoint_algo);
  }
  const bool first = journal_ == nullptr;
  CheckpointWriter header;
  if (first) {
    header.put_u64(kCheckpointMagic);
    header.put_u32(kJournalVersion);
    header.put_string(plan_.checkpoint_algo);
    header.put_u64(static_cast<std::uint64_t>(k_));
    header.put_u64(plan_.checkpoint_seed);
    header.put_u64(stream_.header().num_nodes);
    header.put_u32(crc32(header.bytes().data(), header.bytes().size()));
  }
  writer_.clear();
  writer_.make_room(header.bytes().size() + kSegmentOverhead +
                    (streamed_ - journaled_) * sizeof(BlockId) + extras_.bytes().size());
  writer_.put_raw(header.bytes().data(), header.bytes().size());
  const std::size_t segment_at = writer_.bytes().size();
  writer_.put_u64(streamed_);
  writer_.put_u64(stream_.next_offset());
  writer_.put_u64(stream_.line_no());
  save_slots_(writer_, static_cast<NodeId>(journaled_), static_cast<NodeId>(streamed_));
  writer_.put_u64(extras_.bytes().size());
  writer_.put_raw(extras_.bytes().data(), extras_.bytes().size());
  writer_.put_u32(crc32(writer_.bytes().data() + segment_at,
                        writer_.bytes().size() - segment_at));

  // tmp + rename for the first snapshot: a crash mid-write can only lose the
  // snapshot in progress, never corrupt the file in place (which a resumed
  // run may have read). Later segments append through the same handle.
  const std::string tmp = plan_.checkpoint_path + ".tmp";
  if (first) {
    journal_.reset(std::fopen(tmp.c_str(), "wb"));
    if (journal_ == nullptr) {
      throw IoError("cannot open checkpoint file '" + tmp + "' for writing");
    }
  }
  // The deterministic stand-in for a crash mid-write: half the snapshot
  // lands, then the process dies.
  const bool torn = fault_fires(FaultSite::kCheckpointTorn);
  const std::size_t bytes = torn ? writer_.bytes().size() / 2 : writer_.bytes().size();
  write_flushed(journal_.get(), first ? tmp : plan_.checkpoint_path, writer_.bytes(),
                bytes);
  if (torn) {
    throw IoError("injected crash during checkpoint at node " +
                  std::to_string(streamed_));
  }
  if (first && std::rename(tmp.c_str(), plan_.checkpoint_path.c_str()) != 0) {
    throw IoError("cannot move checkpoint into place at '" + plan_.checkpoint_path +
                  "'");
  }
  journaled_ = streamed_;
  telemetry::metric_add(telemetry::Counter::kCheckpointSnapshots);
  telemetry::metric_add(telemetry::Counter::kCheckpointBytes, bytes);
  // The deterministic stand-in for kill -9: the snapshot is durable, the
  // process dies before consuming another batch.
  if (fault_fires(FaultSite::kCheckpointDie)) {
    throw IoError("injected crash after checkpoint at node " +
                  std::to_string(streamed_));
  }
  // One batch can cross several cadence points; snapshot once per boundary,
  // then catch the schedule up.
  while (next_snapshot_ <= streamed_) {
    next_snapshot_ += plan_.checkpoint_every;
  }
}

} // namespace oms
