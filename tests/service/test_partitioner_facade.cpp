/// \file test_partitioner_facade.cpp
/// \brief The facade parity wall: oms::Partitioner::partition() must be
///        bit-identical to calling each legacy driver family directly —
///        pinned with the same golden fingerprints the core/buffered suites
///        use, across the in-memory, from-disk and pipelined routes — plus
///        the artifact snapshot round trip and normalize()'s error contract.
#include "oms/oms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/edgepart/driver.hpp"
#include "oms/edgepart/hdrf.hpp"
#include "oms/graph/generators.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "oms/stream/window_partitioner.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

using testing::fnv1a;
using testing::weighted_graph;

class TempFile {
public:
  TempFile(const std::string& contents, const std::string& tag,
           const std::string& ext) {
    path_ = ::testing::TempDir() + "/oms_facade_" + tag + ext;
    std::ofstream out(path_);
    out << contents;
  }
  TempFile(const CsrGraph& graph, const std::string& tag) {
    path_ = ::testing::TempDir() + "/oms_facade_" + tag + ".graph";
    write_metis(graph, path_);
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
};

[[nodiscard]] PartitionRequest request_for(const std::string& algo, BlockId k) {
  PartitionRequest req;
  req.algo = algo;
  req.k = k;
  return req;
}

/// Run one request through every node-stream route the facade dispatches —
/// in-memory overload, path-based in-memory, --from-disk sequential,
/// --pipeline and (except for window, which cannot checkpoint) --from-disk
/// with snapshots — and require one identical assignment from all of them.
[[nodiscard]] std::uint64_t all_routes_hash(const CsrGraph& graph,
                                            PartitionRequest req,
                                            const std::string& tag) {
  const Partitioner partitioner;
  const PartitionArtifact in_memory = partitioner.partition(graph, req);
  EXPECT_EQ(in_memory.assignment.size(), graph.num_nodes()) << tag;

  const TempFile file(graph, tag);
  req.graph_path = file.path();
  EXPECT_EQ(partitioner.partition(req).assignment, in_memory.assignment)
      << tag << ": loaded-from-path route diverged";

  req.from_disk = true;
  EXPECT_EQ(partitioner.partition(req).assignment, in_memory.assignment)
      << tag << ": from-disk route diverged";

  req.pipeline = true;
  EXPECT_EQ(partitioner.partition(req).assignment, in_memory.assignment)
      << tag << ": pipelined route diverged";

  if (req.algo != "window") {
    req.pipeline = false;
    req.checkpoint = ::testing::TempDir() + "/oms_facade_" + tag + ".ckpt";
    req.checkpoint_every = std::max<std::uint64_t>(1, graph.num_nodes() / 4);
    EXPECT_EQ(partitioner.partition(req).assignment, in_memory.assignment)
        << tag << ": checkpointing route diverged";
    // The cadence fired several times, and the last snapshot names this run.
    const CheckpointState state = read_checkpoint_file(req.checkpoint);
    EXPECT_GE(state.meta.nodes_streamed, 3 * req.checkpoint_every) << tag;
    EXPECT_NO_THROW(validate_resume(state.meta, in_memory.algo,
                                    static_cast<std::uint64_t>(req.k), req.seed,
                                    graph.num_nodes()))
        << tag;
    std::remove(req.checkpoint.c_str());
  }

  return fnv1a(in_memory.assignment);
}

// ---------------------------------------------------------------------------
// Golden parity: the facade must reproduce the exact fingerprints the legacy
// drivers are pinned to in core/test_golden_equivalence and
// buffered/test_buffered_stream. A mismatch means the facade changed a
// decision somewhere on the way to the driver.
// ---------------------------------------------------------------------------

TEST(FacadeGolden, OmsDefaults) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  EXPECT_EQ(all_routes_hash(ba, request_for("oms", 24), "oms24"),
            0xdf5910a0b8af5c66ULL);
}

TEST(FacadeGolden, FlatFennel) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  EXPECT_EQ(all_routes_hash(ba, request_for("fennel", 96), "fennel96"),
            0x2d45a97b4c53b8eeULL);
}

TEST(FacadeGolden, FlatLdg) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  EXPECT_EQ(all_routes_hash(ba, request_for("ldg", 33), "ldg33"),
            0xee67e2db8124ef7dULL);
}

TEST(FacadeGolden, FlatHashing) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  PartitionRequest req = request_for("hashing", 77);
  req.seed = 5;
  EXPECT_EQ(all_routes_hash(ba, req, "hashing77"), 0x33d0cc2987716cf5ULL);
}

TEST(FacadeGolden, BufferedLpDefaults) {
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  PartitionRequest req = request_for("buffered", 24);
  EXPECT_EQ(all_routes_hash(ba, req, "buffered24"), 0xcc49cbb6a1fc4da2ULL);
  EXPECT_EQ(Partitioner().partition(ba, req).algo, "buffered:lp");
}

TEST(FacadeGolden, BufferedMultilevel) {
  // Small buffers at k = 64: an instance where the V-cycle beats the lp
  // refinement, so the fingerprint differs from the lp engine's.
  const CsrGraph ba = gen::barabasi_albert(5000, 5, 11);
  PartitionRequest req = request_for("buffered", 64);
  req.buffered_engine = "multilevel";
  req.buffer_size = 1024;
  EXPECT_EQ(all_routes_hash(ba, req, "bufferedml64"), 0xdc0b24a0bd281655ULL);
  EXPECT_EQ(Partitioner().partition(ba, req).algo, "buffered:multilevel");
}

TEST(FacadeGolden, OmsMappingOnWeightedGraph) {
  PartitionRequest req;
  req.algo = "oms";
  req.hierarchy = "4:16:2";
  const CsrGraph g = weighted_graph();
  const PartitionArtifact artifact = Partitioner().partition(g, req);
  EXPECT_EQ(fnv1a(artifact.assignment), 0x18f8feb794389b1cULL);
  EXPECT_EQ(artifact.k, 128); // 4 * 16 * 2 PEs, derived from the hierarchy
  ASSERT_TRUE(artifact.hierarchy.has_value());
  // Sequential OMS reports the cut and J its descent counted; they must be
  // exactly the offline values.
  EXPECT_EQ(artifact.metrics.edge_cut,
            static_cast<double>(edge_cut(g, artifact.assignment)));
  EXPECT_EQ(artifact.metrics.mapping_j,
            static_cast<double>(
                mapping_cost(g, *artifact.hierarchy, artifact.assignment)));
  EXPECT_GT(artifact.metrics.mapping_j, 0.0);
  // rank_of answers through the *regular* tree of the topology.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(artifact.rank_of(v),
              artifact.tree().leaf_block_id(artifact.where(v)));
  }
}

// ---------------------------------------------------------------------------
// Quality metrics on the runs whose descent does not count them: the facade
// falls back to the offline edge_cut / mapping_cost scans.
// ---------------------------------------------------------------------------

void expect_recomputed_metrics(const CsrGraph& g, const PartitionRequest& req,
                               const std::string& tag) {
  const PartitionArtifact artifact = Partitioner().partition(g, req);
  ASSERT_EQ(artifact.assignment.size(), g.num_nodes()) << tag;
  EXPECT_EQ(artifact.metrics.edge_cut,
            static_cast<double>(edge_cut(g, artifact.assignment)))
      << tag;
  EXPECT_GT(artifact.metrics.edge_cut, 0.0) << tag;
  if (req.hierarchy.has_value()) {
    ASSERT_TRUE(artifact.hierarchy.has_value()) << tag;
    EXPECT_EQ(artifact.metrics.mapping_j,
              static_cast<double>(
                  mapping_cost(g, *artifact.hierarchy, artifact.assignment)))
        << tag;
  } else {
    EXPECT_EQ(artifact.metrics.mapping_j, -1.0) << tag;
  }
}

TEST(FacadeMetrics, FallbackRoutesMatchRecomputation) {
  const CsrGraph g = weighted_graph();
  PartitionRequest threaded = request_for("oms", 0);
  threaded.hierarchy = "4:16:2";
  threaded.threads = 4;
  expect_recomputed_metrics(g, threaded, "oms threads=4");

  PartitionRequest fennel = request_for("fennel", 128);
  fennel.hierarchy = "4:16:2";
  expect_recomputed_metrics(g, fennel, "fennel --hierarchy");

  PartitionRequest window = request_for("window", 16);
  window.window_size = 64;
  expect_recomputed_metrics(g, window, "window");

  PartitionRequest buffered = request_for("buffered", 128);
  buffered.hierarchy = "4:16:2";
  buffered.buffer_size = 256;
  expect_recomputed_metrics(g, buffered, "buffered --hierarchy");

  expect_recomputed_metrics(g, request_for("oms", 24), "nh-oms");
}

// ---------------------------------------------------------------------------
// Driver-equality parity for the families without public golden pins.
// ---------------------------------------------------------------------------

TEST(FacadeParity, WindowMatchesDriver) {
  const CsrGraph grid = gen::grid_2d(40, 40);
  PartitionRequest req = request_for("window", 8);
  req.window_size = 64;

  WindowConfig wc;
  wc.window_size = 64;
  wc.epsilon = req.epsilon;
  wc.seed = req.seed;
  WindowPartitioner window(grid.num_nodes(), grid.total_node_weight(), wc, 8);
  const std::vector<BlockId> direct = run_one_pass(grid, window, 1).assignment;

  EXPECT_EQ(Partitioner().partition(grid, req).assignment, direct);
}

TEST(FacadeParity, BufferedMultilevelMatchesDriver) {
  const CsrGraph ba = gen::barabasi_albert(2000, 4, 3);
  PartitionRequest req = request_for("buffered", 16);
  req.buffered_engine = "multilevel";
  req.buffer_size = 512;

  BufferedConfig bc;
  bc.buffer_size = 512;
  bc.engine = BufferedEngine::kMultilevel;
  const std::vector<BlockId> direct =
      buffered_partition(ba, 16, bc).assignment;

  const PartitionArtifact artifact = Partitioner().partition(ba, req);
  EXPECT_EQ(artifact.assignment, direct);
  EXPECT_EQ(artifact.algo, "buffered:multilevel");
}

TEST(FacadeParity, EdgePartitionMatchesDriver) {
  // A deterministic edge list; .edgelist makes format autodetection pick the
  // vertex-cut route with the hdrf default.
  Rng rng(4242);
  std::string lines = "# facade parity edge list\n";
  for (int i = 0; i < 4000; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(900));
    const auto v = static_cast<NodeId>(rng.next_below(900));
    lines += std::to_string(u) + " " + std::to_string(v) + "\n";
  }
  const TempFile file(lines, "edges", ".edgelist");

  PartitionRequest req;
  req.graph_path = file.path();
  req.k = 12;

  EdgePartConfig config;
  config.k = 12;
  config.lambda = req.lambda;
  config.epsilon = req.epsilon;
  config.seed = req.seed;
  HdrfPartitioner direct(config);
  const EdgePartitionResult reference =
      run_edge_partition_from_file(file.path(), direct);

  const PartitionArtifact artifact = Partitioner().partition(req);
  EXPECT_TRUE(artifact.edge_partition);
  EXPECT_EQ(artifact.algo, "hdrf");
  EXPECT_EQ(artifact.assignment, reference.edge_assignment);
  EXPECT_EQ(artifact.num_edges, reference.stats.num_edges);
  EXPECT_EQ(artifact.num_nodes, reference.stats.num_vertices);
  EXPECT_DOUBLE_EQ(artifact.metrics.replication_factor,
                   replication_factor(direct.replicas()));
  // where() on an edge-partition artifact answers per *edge index*.
  EXPECT_EQ(artifact.where(0), reference.edge_assignment[0]);
  EXPECT_EQ(artifact.where(artifact.assignment.size()), kInvalidBlock);
}

TEST(FacadeStream, BufferedSkipsMalformedLineOnEveryPlan) {
  // A 200-node ring whose node 100 is garbage: under --on-error skip it
  // becomes an isolated node and the run still assigns every node.
  std::string text = "200 200\n";
  for (int i = 1; i <= 200; ++i) {
    if (i == 100) {
      text += "xyz\n";
      continue;
    }
    text += std::to_string(i == 1 ? 200 : i - 1) + " " +
            std::to_string(i == 200 ? 1 : i + 1) + "\n";
  }
  const TempFile file(text, "oneline", ".graph");
  PartitionRequest req = request_for("buffered", 2);
  req.graph_path = file.path();
  req.on_error = "skip";
  for (const bool pipeline : {false, true}) {
    req.from_disk = true;
    req.pipeline = pipeline;
    const PartitionArtifact artifact = Partitioner().partition(req);
    EXPECT_EQ(artifact.skip_stats.lines_skipped, 1u) << pipeline;
    EXPECT_EQ(artifact.skip_stats.first_line, 101u) << pipeline;
    ASSERT_EQ(artifact.assignment.size(), 200u) << pipeline;
    for (const BlockId b : artifact.assignment) {
      EXPECT_LT(b, 2) << pipeline;
    }
  }
  // The policy acts on a stream, so an in-memory run still rejects it.
  req.from_disk = false;
  req.pipeline = false;
  EXPECT_THROW((void)Partitioner::normalize(req), InvalidRequest);
}

// ---------------------------------------------------------------------------
// The artifact snapshot round trip (the format oms_serve SNAPSHOT/--artifact
// rides): every serialized field must survive, lookups must answer the same,
// and corrupt bytes must surface as IoError.
// ---------------------------------------------------------------------------

TEST(FacadeArtifact, SnapshotRoundTripPreservesAnswers) {
  const CsrGraph ba = gen::barabasi_albert(1500, 4, 9);
  PartitionRequest req;
  req.algo = "oms";
  req.hierarchy = "4:4:2";
  const PartitionArtifact artifact = Partitioner().partition(ba, req);

  const std::string path = ::testing::TempDir() + "/oms_facade_artifact.part";
  write_artifact(artifact, path);
  const PartitionArtifact restored = read_artifact(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored.algo, artifact.algo);
  EXPECT_EQ(restored.k, artifact.k);
  EXPECT_EQ(restored.seed, artifact.seed);
  EXPECT_EQ(restored.num_nodes, artifact.num_nodes);
  EXPECT_EQ(restored.num_edges, artifact.num_edges);
  EXPECT_EQ(restored.assignment, artifact.assignment);
  EXPECT_DOUBLE_EQ(restored.metrics.edge_cut, artifact.metrics.edge_cut);
  EXPECT_DOUBLE_EQ(restored.metrics.mapping_j, artifact.metrics.mapping_j);
  ASSERT_TRUE(restored.hierarchy.has_value());
  EXPECT_EQ(restored.hierarchy->extents(), artifact.hierarchy->extents());
  for (std::uint64_t v = 0; v < restored.num_nodes; ++v) {
    ASSERT_EQ(restored.where(v), artifact.where(v)) << "node " << v;
    ASSERT_EQ(restored.rank_of(v), artifact.rank_of(v)) << "node " << v;
  }
}

TEST(FacadeArtifact, CorruptionIsIoError) {
  PartitionArtifact artifact;
  artifact.algo = "oms";
  artifact.k = 3;
  artifact.assignment = {0, 1, 2, 0};
  artifact.rebuild_tree();
  const std::string path = ::testing::TempDir() + "/oms_facade_corrupt.part";
  write_artifact(artifact, path);

  // Flip one payload byte: the CRC must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('\x7f');
  }
  EXPECT_THROW((void)read_artifact(path), IoError);

  // Truncate: strict length discipline.
  write_artifact(artifact, path);
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> all((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size() - 3));
  }
  EXPECT_THROW((void)read_artifact(path), IoError);

  EXPECT_THROW((void)read_artifact(path + ".does-not-exist"), IoError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// normalize(): the error contract the CLIs map to exit 2.
// ---------------------------------------------------------------------------

TEST(FacadeNormalize, RejectsContradictoryRequests) {
  const auto reject = [](PartitionRequest req) {
    req.graph_path = req.graph_path.empty() ? "/dev/null" : req.graph_path;
    EXPECT_THROW((void)Partitioner::normalize(req), InvalidRequest);
  };
  reject({}); // no k, no hierarchy

  PartitionRequest req;
  req.k = 4;
  req.algo = "does-not-exist";
  reject(req);

  req = {};
  req.k = 4;
  req.algo = "hdrf"; // edge algorithm on the default metis format
  reject(req);

  req = {};
  req.k = 4;
  req.epsilon = -0.5;
  reject(req);

  req = {};
  req.k = 4;
  req.algo = "window";
  req.pipeline = true;
  req.io_threads = 4; // window commits in stream order
  reject(req);

  req = {};
  req.k = 4;
  req.buffered_engine = "turbo";
  reject(req);

  req = {};
  req.k = 4;
  req.checkpoint = "ckpt.bin";
  req.pipeline = true; // the checkpointing driver is sequential
  reject(req);

  req = {};
  req.k = 4;
  req.graph_path = "/no/such/file.graph";
  EXPECT_THROW((void)Partitioner::normalize(req), InvalidRequest);
}

TEST(FacadeNormalize, ResolvesDefaultsAndFormat) {
  PartitionRequest req;
  req.graph_path = "/dev/null";
  req.k = 4;
  const PartitionRequest metis = Partitioner::normalize(req);
  EXPECT_EQ(metis.format, "metis");
  EXPECT_EQ(metis.algo, "oms");

  req.graph_path = "/dev/null"; // extension sniffing is on the path only
  req.format = "edgelist";
  const PartitionRequest edges = Partitioner::normalize(req);
  EXPECT_EQ(edges.algo, "hdrf");

  req = {};
  req.graph_path = "/dev/null";
  req.hierarchy = "2:3:4";
  EXPECT_EQ(Partitioner::normalize(req).k, 24);
}

TEST(FacadeNormalize, ResumeMismatchIsInvalidRequest) {
  const CsrGraph g = testing::path_graph(64);
  const TempFile file(g, "resume");
  // A checkpoint stamped with different parameters than the run.
  CheckpointMeta meta;
  meta.algo = "fennel";
  meta.k = 8;
  meta.seed = 99;
  meta.num_nodes = 64;
  const std::string ckpt = ::testing::TempDir() + "/oms_facade_resume.ckpt";
  write_checkpoint_file(ckpt, meta, {});

  PartitionRequest req;
  req.graph_path = file.path();
  req.algo = "fennel";
  req.k = 8;
  req.seed = 1; // checkpoint says 99
  req.resume = ckpt;
  EXPECT_THROW((void)Partitioner().partition(req), InvalidRequest);
  std::remove(ckpt.c_str());
}

} // namespace
} // namespace oms
