/// \file test_checkpoint.cpp
/// \brief Crash-safe checkpoint/resume: serialization round-trips, corrupt
///        and truncated checkpoint files, resume validation, and the central
///        guarantee — a run killed right after a snapshot (the deterministic
///        checkpoint.die fault) or halfway through one (checkpoint.torn)
///        resumes bit-identically to an uninterrupted run, for every
///        checkpointable algorithm including both buffered inner engines.
///        The snapshot journal is checked against the full payloads it
///        stands for, at every snapshot and under every truncation and
///        single-byte corruption of its tail.
#include "oms/stream/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/hashing.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/stream/buffered_stream_driver.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/stream/window_partitioner.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/io_error.hpp"

namespace oms {
namespace {

constexpr BlockId kK = 4;
constexpr std::uint64_t kSeed = 3;

class CheckpointTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    graph_ = new CsrGraph(gen::barabasi_albert(1500, 3, 11));
    graph_path_ = new std::string(::testing::TempDir() + "/oms_ckpt.graph");
    write_metis(*graph_, *graph_path_);
    num_nodes_ = graph_->num_nodes();
    num_edges_ = graph_->num_edges();
  }

  static void TearDownTestSuite() {
    std::remove(graph_path_->c_str());
    delete graph_path_;
    delete graph_;
  }

  void SetUp() override { FaultPlan::disarm(); }
  void TearDown() override { FaultPlan::disarm(); }

  std::string temp_path(const char* name) {
    return ::testing::TempDir() + "/oms_ckpt_" + name;
  }

  static std::unique_ptr<OnePassAssigner> make_assigner(const std::string& algo) {
    const auto total = static_cast<NodeWeight>(num_nodes_);
    PartitionConfig pc;
    pc.k = kK;
    pc.seed = kSeed;
    if (algo == "fennel") {
      return std::make_unique<FennelPartitioner>(num_nodes_, num_edges_, total, pc);
    }
    if (algo == "ldg") {
      return std::make_unique<LdgPartitioner>(num_nodes_, total, pc);
    }
    if (algo == "hashing") {
      return std::make_unique<HashingPartitioner>(num_nodes_, total, pc);
    }
    OmsConfig config;
    config.seed = kSeed;
    return std::make_unique<OnlineMultisection>(num_nodes_, num_edges_, total,
                                                kK, config);
  }

  /// A sequential plan snapshotting to \p path every \p every nodes,
  /// stamped with \p algo and kSeed.
  static StreamPlan snapshot_plan(const std::string& algo, const std::string& path,
                                  std::uint64_t every) {
    StreamPlan plan;
    plan.checkpoint_path = path;
    plan.checkpoint_every = every;
    plan.checkpoint_algo = algo;
    plan.checkpoint_seed = kSeed;
    return plan;
  }

  /// One sequential pass, optionally checkpointing and/or resuming.
  static std::vector<BlockId> run_algo(const std::string& algo,
                                       const StreamPlan& plan = {}) {
    auto assigner = make_assigner(algo);
    return run_one_pass_from_file(*graph_path_, *assigner, plan).assignment;
  }

  static BufferedConfig buffered_config(bool multilevel) {
    BufferedConfig config;
    config.buffer_size = 200;
    config.seed = kSeed;
    if (multilevel) {
      config.engine = BufferedEngine::kMultilevel;
    }
    return config;
  }

  /// A run of \p algo ("buffered:lp" and "buffered:multilevel" included)
  /// with \p plan, on the suite's graph.
  static std::vector<BlockId> run_any(const std::string& algo,
                                      const StreamPlan& plan = {}) {
    if (algo.rfind("buffered:", 0) == 0) {
      return buffered_partition_from_file(
                 *graph_path_, kK, buffered_config(algo == "buffered:multilevel"),
                 plan)
          .assignment;
    }
    return run_algo(algo, plan);
  }

  static CsrGraph* graph_;
  static std::string* graph_path_;
  static NodeId num_nodes_;
  static EdgeIndex num_edges_;
};

CsrGraph* CheckpointTest::graph_ = nullptr;
std::string* CheckpointTest::graph_path_ = nullptr;
NodeId CheckpointTest::num_nodes_ = 0;
EdgeIndex CheckpointTest::num_edges_ = 0;

// --- serialization primitives ----------------------------------------------

TEST_F(CheckpointTest, WriterReaderRoundTrip) {
  CheckpointWriter w;
  w.put_u32(7);
  w.put_u64(1ULL << 40);
  w.put_i64(-12345);
  w.put_f64(2.5);
  w.put_string("hello checkpoint");
  CheckpointReader r(w.bytes());
  EXPECT_EQ(r.get_u32(), 7u);
  EXPECT_EQ(r.get_u64(), 1ULL << 40);
  EXPECT_EQ(r.get_i64(), -12345);
  EXPECT_EQ(r.get_f64(), 2.5);
  EXPECT_EQ(r.get_string(), "hello checkpoint");
  EXPECT_NO_THROW(r.expect_end());
}

TEST_F(CheckpointTest, ReaderThrowsOnShortPayloadAndTrailingBytes) {
  CheckpointWriter w;
  w.put_u32(1);
  {
    CheckpointReader r(w.bytes());
    (void)r.get_u32();
    EXPECT_THROW((void)r.get_u64(), IoError); // past the end
  }
  {
    CheckpointReader r(w.bytes());
    EXPECT_THROW(r.expect_end(), IoError); // unread trailing bytes
  }
}

TEST_F(CheckpointTest, FileRoundTripPreservesMetaAndPayload) {
  CheckpointMeta meta;
  meta.algo = "fennel";
  meta.k = kK;
  meta.seed = kSeed;
  meta.num_nodes = 123;
  meta.nodes_streamed = 64;
  meta.input_offset = 4096;
  meta.input_line_no = 65;
  const std::vector<char> payload{'a', 'b', 'c', '\0', 'x'};
  const std::string path = temp_path("roundtrip.bin");
  write_checkpoint_file(path, meta, payload);
  const CheckpointState state = read_checkpoint_file(path);
  EXPECT_EQ(state.meta.algo, meta.algo);
  EXPECT_EQ(state.meta.k, meta.k);
  EXPECT_EQ(state.meta.seed, meta.seed);
  EXPECT_EQ(state.meta.num_nodes, meta.num_nodes);
  EXPECT_EQ(state.meta.nodes_streamed, meta.nodes_streamed);
  EXPECT_EQ(state.meta.input_offset, meta.input_offset);
  EXPECT_EQ(state.meta.input_line_no, meta.input_line_no);
  EXPECT_EQ(state.payload, payload);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, CorruptTruncatedAndForeignFilesAllThrow) {
  CheckpointMeta meta;
  meta.algo = "oms";
  meta.k = kK;
  meta.seed = kSeed;
  meta.num_nodes = 99;
  const std::vector<char> payload(64, 'p');
  const std::string good = temp_path("good.bin");
  write_checkpoint_file(good, meta, payload);
  std::ifstream in(good, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  const std::string path = temp_path("broken.bin");
  const auto rewrite = [&](const std::vector<char>& data) {
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // Flip one byte everywhere: magic, version, meta, payload, CRC.
  for (std::size_t at = 0; at < bytes.size(); at += 7) {
    std::vector<char> corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x20);
    rewrite(corrupt);
    EXPECT_THROW((void)read_checkpoint_file(path), IoError) << "byte " << at;
  }
  // Truncate at several depths.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    rewrite(std::vector<char>(bytes.begin(),
                              bytes.begin() + static_cast<std::ptrdiff_t>(keep)));
    EXPECT_THROW((void)read_checkpoint_file(path), IoError) << "keep " << keep;
  }
  // A file that was never a checkpoint.
  rewrite(std::vector<char>(100, 'z'));
  EXPECT_THROW((void)read_checkpoint_file(path), IoError);
  // Missing entirely.
  std::remove(path.c_str());
  EXPECT_THROW((void)read_checkpoint_file(path), IoError);
  // A directory: opens fine on Linux but has no readable length.
  EXPECT_THROW((void)read_checkpoint_file(::testing::TempDir()), IoError);
  std::remove(good.c_str());
}

TEST_F(CheckpointTest, ValidateResumeRefusesEveryMismatch) {
  CheckpointMeta meta;
  meta.algo = "oms";
  meta.k = kK;
  meta.seed = kSeed;
  meta.num_nodes = num_nodes_;
  EXPECT_NO_THROW(validate_resume(meta, "oms", kK, kSeed, num_nodes_));
  EXPECT_THROW(validate_resume(meta, "fennel", kK, kSeed, num_nodes_), IoError);
  EXPECT_THROW(validate_resume(meta, "oms", kK + 1, kSeed, num_nodes_), IoError);
  EXPECT_THROW(validate_resume(meta, "oms", kK, kSeed + 1, num_nodes_), IoError);
  EXPECT_THROW(validate_resume(meta, "oms", kK, kSeed, num_nodes_ + 1), IoError);
}

// --- kill/resume bit-identity ----------------------------------------------

TEST_F(CheckpointTest, KilledRunResumesBitIdenticallyForEveryOnePassAlgo) {
  for (const std::string algo : {"oms", "fennel", "ldg", "hashing"}) {
    const std::vector<BlockId> golden = run_algo(algo);

    const std::string ckpt_path = temp_path((algo + "_kill.bin").c_str());
    StreamPlan ckpt = snapshot_plan(algo, ckpt_path, 400);

    // Phase 1: die right after the second snapshot lands (kill -9 stand-in).
    FaultPlan::arm(FaultPlan::parse("checkpoint.die@2"));
    EXPECT_THROW((void)run_algo(algo, ckpt), IoError) << algo;
    FaultPlan::disarm();

    // Phase 2: load, validate, resume — and keep checkpointing, so the resumed
    // run exercises the snapshot path too.
    CheckpointState state = read_checkpoint_file(ckpt_path);
    EXPECT_EQ(state.meta.nodes_streamed, 800u) << algo;
    EXPECT_NO_THROW(
        validate_resume(state.meta, algo, kK, kSeed, num_nodes_));
    ckpt.resume = &state;
    const std::vector<BlockId> resumed = run_algo(algo, ckpt);
    EXPECT_EQ(resumed, golden) << algo << ": resumed run diverged";
    std::remove(ckpt_path.c_str());
  }
}

TEST_F(CheckpointTest, KilledBufferedRunResumesBitIdenticallyForBothEngines) {
  for (const bool multilevel : {false, true}) {
    BufferedConfig config;
    config.buffer_size = 200;
    config.seed = kSeed;
    if (multilevel) {
      config.engine = BufferedEngine::kMultilevel;
    }
    const std::string algo = buffered_checkpoint_algo_id(config);
    const std::vector<BlockId> golden =
        buffered_partition_from_file(*graph_path_, kK, config).assignment;

    const std::string ckpt_path = temp_path((algo + "_kill.bin").c_str());
    // Lands on the first buffer boundary >= 500.
    StreamPlan ckpt = snapshot_plan(algo, ckpt_path, 500);

    FaultPlan::arm(FaultPlan::parse("checkpoint.die@1"));
    EXPECT_THROW((void)buffered_partition_from_file(*graph_path_, kK, config, ckpt),
                 IoError)
        << algo;
    FaultPlan::disarm();

    CheckpointState state = read_checkpoint_file(ckpt_path);
    EXPECT_EQ(state.meta.nodes_streamed, 600u) << algo;
    EXPECT_NO_THROW(validate_resume(state.meta, algo, kK, kSeed, num_nodes_));
    ckpt.resume = &state;
    const std::vector<BlockId> resumed =
        buffered_partition_from_file(*graph_path_, kK, config, ckpt).assignment;
    EXPECT_EQ(resumed, golden) << algo << ": resumed run diverged";
    std::remove(ckpt_path.c_str());
  }
}

TEST_F(CheckpointTest, ResumeFromEverySnapshotMatchesGolden) {
  // Resume bit-identity must hold from *any* cadence point, not just one:
  // snapshot at each multiple of 300 nodes, resume from each in turn.
  const std::string algo = "fennel";
  const std::vector<BlockId> golden = run_algo(algo);
  for (std::uint64_t die = 1; die <= 4; ++die) {
    const std::string ckpt_path = temp_path("sweep.bin");
    StreamPlan ckpt = snapshot_plan(algo, ckpt_path, 300);
    FaultPlan::arm(
        FaultPlan::parse("checkpoint.die@" + std::to_string(die)));
    EXPECT_THROW((void)run_algo(algo, ckpt), IoError);
    FaultPlan::disarm();
    CheckpointState state = read_checkpoint_file(ckpt_path);
    EXPECT_EQ(state.meta.nodes_streamed, die * 300) << "die " << die;
    ckpt.resume = &state;
    const std::vector<BlockId> resumed = run_algo(algo, ckpt);
    EXPECT_EQ(resumed, golden) << "resumed from snapshot " << die;
    std::remove(ckpt_path.c_str());
  }
}

TEST_F(CheckpointTest, ResumeFreesThePayloadOnceLoaded) {
  // The payload's only reader is the load at the start of a resumed run, so
  // the run takes it and frees it there instead of holding 4n bytes to the
  // end; the meta stays for the caller. Same for both driver families.
  for (const std::string algo : {"fennel", "buffered:lp"}) {
    const bool buffered = algo == "buffered:lp";
    const std::string ckpt_path = temp_path("release.bin");
    StreamPlan ckpt = snapshot_plan(algo, ckpt_path, 500);
    FaultPlan::arm(FaultPlan::parse("checkpoint.die@1"));
    EXPECT_THROW((void)run_any(algo, ckpt), IoError) << algo;
    FaultPlan::disarm();
    CheckpointState state = read_checkpoint_file(ckpt_path);
    ASSERT_GE(state.payload.size(), num_nodes_ * sizeof(BlockId)) << algo;
    ckpt.resume = &state;
    EXPECT_EQ(run_any(algo, ckpt), run_any(algo)) << algo;
    EXPECT_TRUE(state.payload.empty()) << algo;
    EXPECT_EQ(state.payload.capacity(), 0u) << algo;
    EXPECT_EQ(state.meta.nodes_streamed, buffered ? 600u : 500u) << algo;
    std::remove(ckpt_path.c_str());
  }
}

TEST_F(CheckpointTest, PayloadAlgorithmMismatchSurfacesCleanly) {
  // A checkpoint whose payload belongs to a different algorithm family (here:
  // a buffered payload fed to a one-pass assigner) must raise IoError through
  // the bounds-checked reader, never misload state.
  BufferedConfig config;
  config.buffer_size = 200;
  config.seed = kSeed;
  const std::string ckpt_path = temp_path("mismatch.bin");
  const StreamPlan ckpt =
      snapshot_plan(buffered_checkpoint_algo_id(config), ckpt_path, 500);
  FaultPlan::arm(FaultPlan::parse("checkpoint.die@1"));
  EXPECT_THROW((void)buffered_partition_from_file(*graph_path_, kK, config, ckpt),
               IoError);
  FaultPlan::disarm();
  CheckpointState state = read_checkpoint_file(ckpt_path);
  // Skip validate_resume on purpose (its algo check would already refuse) to
  // prove the payload layer alone cannot be tricked into silent corruption.
  StreamPlan resume;
  resume.resume = &state;
  EXPECT_THROW((void)run_algo("fennel", resume), IoError);
  std::remove(ckpt_path.c_str());
}

// --- format pins -------------------------------------------------------------

/// FNV-1a over a whole file's bytes.
[[nodiscard]] std::uint64_t file_fnv1a(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    h ^= static_cast<unsigned char>(*it);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST_F(CheckpointTest, SnapshotFileBytesArePinned) {
  // A full checkpointing run's journal, hashed byte for byte, and the
  // version-1 file its final state re-encodes to: header, segment and
  // payload layout and every CRC cannot drift without this failing. The
  // version-1 pins are the files the rewrite-per-snapshot writer left for
  // the same runs, so the journal replays to exactly their state.
  const std::string path = temp_path("pin.bin");
  const std::string full_path = temp_path("pin_full.bin");
  const auto pins_of = [&](const std::string& algo, std::uint64_t every) {
    std::remove(path.c_str());
    (void)run_any(algo, snapshot_plan(algo, path, every));
    const CheckpointState state = read_checkpoint_file(path);
    write_checkpoint_file(full_path, state.meta, state.payload);
    const std::pair<std::uint64_t, std::uint64_t> pins{file_fnv1a(path),
                                                       file_fnv1a(full_path)};
    std::remove(path.c_str());
    std::remove(full_path.c_str());
    return pins;
  };
  const struct {
    const char* algo;
    std::uint64_t every;
    std::uint64_t journal;
    std::uint64_t full;
  } cases[] = {
      {"buffered:lp", 500, 0x7cf33ce94ff44db5ULL, 0xdd968ab3b18d83deULL},
      {"buffered:multilevel", 500, 0x579020cf57351eeaULL, 0x78d7c5159800df34ULL},
      {"oms", 400, 0x66ed9e4cc1248f4cULL, 0x0de858b029def951ULL},
  };
  for (const auto& c : cases) {
    const auto [journal, full] = pins_of(c.algo, c.every);
    EXPECT_EQ(journal, c.journal) << c.algo << " journal" << std::hex << " 0x"
                                  << journal;
    EXPECT_EQ(full, c.full) << c.algo << " re-encoded" << std::hex << " 0x" << full;
  }
}

// --- the journal against the full payloads ----------------------------------

TEST_F(CheckpointTest, JournalReplaysTheFullPayloadOfEverySnapshot) {
  // Oracle: after snapshot i, the payload replayed from the journal equals
  // the full save_stream_state payload of the state snapshot i recorded,
  // byte for byte. The checkpoint.die crash leaves a one-pass assigner in
  // exactly that state; the buffered state is rebuilt in memory, one buffer
  // at a time, up to the snapshot's node.
  const std::string path = temp_path("oracle.bin");
  for (const std::string algo : {"oms", "fennel", "ldg", "hashing"}) {
    for (std::uint64_t die = 1;; ++die) {
      auto assigner = make_assigner(algo);
      FaultPlan::arm(FaultPlan::parse("checkpoint.die@" + std::to_string(die)));
      bool died = false;
      try {
        (void)run_one_pass_from_file(*graph_path_, *assigner,
                                     snapshot_plan(algo, path, 300));
      } catch (const IoError&) {
        died = true;
      }
      FaultPlan::disarm();
      if (!died) {
        EXPECT_EQ(die, 6u) << algo << ": 1500 nodes snapshot at 5 multiples of 300";
        break;
      }
      CheckpointWriter full;
      ASSERT_TRUE(assigner->save_stream_state(full));
      const CheckpointState state = read_checkpoint_file(path);
      EXPECT_EQ(state.meta.nodes_streamed, die * 300) << algo;
      EXPECT_EQ(state.ignored_tail_bytes, 0u) << algo;
      EXPECT_TRUE(state.payload == full.bytes()) << algo << " snapshot " << die;
    }
  }
  for (const bool multilevel : {false, true}) {
    const BufferedConfig config = buffered_config(multilevel);
    const std::string algo = buffered_checkpoint_algo_id(config);
    // Buffers of 200 nodes: the first boundaries at or past 500, 1000, 1500.
    const NodeId snapshot_at[] = {600, 1000, 1500};
    for (std::uint64_t die = 1; die <= 3; ++die) {
      FaultPlan::arm(FaultPlan::parse("checkpoint.die@" + std::to_string(die)));
      EXPECT_THROW((void)run_any(algo, snapshot_plan(algo, path, 500)), IoError);
      FaultPlan::disarm();
      const CheckpointState state = read_checkpoint_file(path);
      BufferedPartitioner core(num_nodes_, static_cast<NodeWeight>(num_nodes_), kK,
                               config);
      const NodeId upto = snapshot_at[die - 1];
      ASSERT_EQ(state.meta.nodes_streamed, upto) << algo;
      for (NodeId begin = 0; begin < upto; begin += config.buffer_size) {
        core.process_graph_range(*graph_, begin,
                                 std::min<NodeId>(begin + config.buffer_size, upto));
      }
      CheckpointWriter full;
      core.save_stream_state(full);
      EXPECT_TRUE(state.payload == full.bytes()) << algo << " snapshot " << die;
    }
  }
  std::remove(path.c_str());
}

/// The journal after each of the first three snapshots of a fennel run
/// snapshotting every 400 nodes: each file is a prefix of the next.
struct ThreeSegments {
  std::vector<char> bytes;  ///< the journal after snapshot 3
  std::size_t end[3] = {};  ///< where segment i + 1 ends
  CheckpointState state[3]; ///< the journal's state after each
};

[[nodiscard]] std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const char* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data, static_cast<std::streamsize>(size));
}

void expect_same_state(const CheckpointState& got, const CheckpointState& want,
                       const std::string& where) {
  EXPECT_EQ(got.meta.nodes_streamed, want.meta.nodes_streamed) << where;
  EXPECT_EQ(got.meta.input_offset, want.meta.input_offset) << where;
  EXPECT_EQ(got.meta.input_line_no, want.meta.input_line_no) << where;
  EXPECT_EQ(got.meta.algo, want.meta.algo) << where;
  EXPECT_EQ(got.meta.num_nodes, want.meta.num_nodes) << where;
  EXPECT_TRUE(got.payload == want.payload) << where;
}

TEST_F(CheckpointTest, TornOrCorruptJournalTailFallsBackToLastIntactSegment) {
  const std::string path = temp_path("tail.bin");
  ThreeSegments j;
  for (int die = 1; die <= 3; ++die) {
    FaultPlan::arm(FaultPlan::parse("checkpoint.die@" + std::to_string(die)));
    EXPECT_THROW((void)run_algo("fennel", snapshot_plan("fennel", path, 400)),
                 IoError);
    FaultPlan::disarm();
    const std::vector<char> bytes = file_bytes(path);
    j.end[die - 1] = bytes.size();
    j.state[die - 1] = read_checkpoint_file(path);
    // Append-only: every snapshot keeps the earlier bytes as they were.
    ASSERT_TRUE(j.bytes.size() <= bytes.size() &&
                std::equal(j.bytes.begin(), j.bytes.end(), bytes.begin()))
        << "snapshot " << die << " rewrote earlier bytes";
    j.bytes = bytes;
  }
  ASSERT_EQ(j.state[2].meta.nodes_streamed, 1200u);

  // The intact segment a reader must fall back to when the journal is good
  // only up to byte \p good: -1 for none.
  const auto last_intact = [&](std::size_t good) {
    int i = -1;
    while (i < 2 && j.end[i + 1] <= good) {
      ++i;
    }
    return i;
  };
  const auto expect_state = [&](std::size_t good, std::size_t size,
                                const std::string& where) {
    const int i = last_intact(good);
    if (i < 0) {
      EXPECT_THROW((void)read_checkpoint_file(path), IoError) << where;
      return;
    }
    try {
      const CheckpointState state = read_checkpoint_file(path);
      expect_same_state(state, j.state[i], where);
      EXPECT_EQ(state.ignored_tail_bytes, size - j.end[i]) << where;
    } catch (const IoError& e) {
      ADD_FAILURE() << where << ": " << e.what();
    }
  };

  // Truncation at every byte offset: the intact prefix is what is left.
  for (std::size_t keep = 0; keep <= j.bytes.size(); ++keep) {
    write_bytes(path, j.bytes.data(), keep);
    expect_state(keep, keep, "truncated to " + std::to_string(keep));
  }
  // One flipped byte anywhere: the header or the first segment leaves no
  // intact snapshot; inside a later segment, the one before it stands.
  for (std::size_t at = 0; at < j.bytes.size(); ++at) {
    std::vector<char> corrupt = j.bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x5A);
    write_bytes(path, corrupt.data(), corrupt.size());
    const int segment = at < j.end[0] ? 0 : at < j.end[1] ? 1 : 2;
    expect_state(segment == 0 ? 0 : j.end[segment - 1], corrupt.size(),
                 "byte " + std::to_string(at) + " flipped");
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, TornSnapshotResumesBitIdenticallyForEveryAlgo) {
  // checkpoint.torn writes half of the third snapshot's segment and dies:
  // the resume falls back to the second snapshot and still ends bit-identical
  // to an uninterrupted run.
  for (const std::string algo : {"oms", "fennel", "ldg", "hashing", "buffered:lp",
                                 "buffered:multilevel"}) {
    const std::vector<BlockId> golden = run_any(algo);
    const std::string ckpt_path = temp_path((algo + "_torn.bin").c_str());
    // Snapshots at 400/800/1200 nodes, or at the 200-node buffer boundaries
    // 600/1000/1500 for buffered.
    const bool buffered = algo.rfind("buffered:", 0) == 0;
    StreamPlan ckpt = snapshot_plan(algo, ckpt_path, buffered ? 500 : 400);

    FaultPlan::arm(FaultPlan::parse("checkpoint.torn@3"));
    EXPECT_THROW((void)run_any(algo, ckpt), IoError) << algo;
    FaultPlan::disarm();

    CheckpointState state = read_checkpoint_file(ckpt_path);
    EXPECT_EQ(state.meta.nodes_streamed, buffered ? 1000u : 800u) << algo;
    EXPECT_GT(state.ignored_tail_bytes, 0u) << algo;
    ckpt.resume = &state;
    EXPECT_EQ(run_any(algo, ckpt), golden) << algo << ": resumed run diverged";
    std::remove(ckpt_path.c_str());
  }
  // A torn first snapshot never reaches the checkpoint path: it is written
  // beside it and renamed into place only once complete.
  const std::string path = temp_path("torn_first.bin");
  std::remove(path.c_str());
  FaultPlan::arm(FaultPlan::parse("checkpoint.torn@1"));
  EXPECT_THROW((void)run_algo("fennel", snapshot_plan("fennel", path, 400)),
               IoError);
  FaultPlan::disarm();
  EXPECT_THROW((void)read_checkpoint_file(path), IoError);
  std::remove((path + ".tmp").c_str());
}

TEST_F(CheckpointTest, WindowRefusesCheckpointingWithCleanError) {
  // WindowPartitioner keeps delayed in-flight nodes and does not serialize;
  // asking it to checkpoint must fail with IoError at the first snapshot.
  const StreamPlan ckpt = snapshot_plan("window", temp_path("window.bin"), 100);
  WindowConfig wc;
  wc.window_size = 32;
  wc.seed = kSeed;
  WindowPartitioner window(num_nodes_, static_cast<NodeWeight>(num_nodes_), wc,
                           kK);
  try {
    (void)run_one_pass_from_file(*graph_path_, window, ckpt);
    FAIL() << "window checkpointing did not fail";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint"), std::string::npos)
        << e.what();
  }
  std::remove(ckpt.checkpoint_path.c_str());
}

} // namespace
} // namespace oms
