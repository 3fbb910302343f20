/// \file bench_micro.cpp
/// \brief google-benchmark microbenchmarks for the hot paths: tree
///        construction, leaf location, per-node assignment throughput of all
///        streaming algorithms, and the mapping-objective evaluation.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>

#include "oms/api/partitioner.hpp"
#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/core/multisection_tree.hpp"
#include "oms/core/online_multisection.hpp"
#include "oms/edgepart/dbh.hpp"
#include "oms/edgepart/driver.hpp"
#include "oms/edgepart/hdrf.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/graph/io.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/hashing.hpp"
#include "oms/partition/ldg.hpp"
#include "oms/service/protocol.hpp"
#include "oms/service/service.hpp"
#include "oms/stream/buffered_stream_driver.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "oms/stream/pipeline.hpp"
#include "oms/stream/window_partitioner.hpp"
#include "oms/telemetry/metrics.hpp"

namespace {

using namespace oms;

const CsrGraph& shared_graph() {
  static const CsrGraph graph = gen::barabasi_albert(1u << 15, 6, 7);
  return graph;
}

void BM_TreeBuildBSection(benchmark::State& state) {
  const auto k = static_cast<BlockId>(state.range(0));
  for (auto _ : state) {
    MultisectionTree tree = MultisectionTree::b_section(k, 4);
    benchmark::DoNotOptimize(tree.num_blocks());
  }
}
BENCHMARK(BM_TreeBuildBSection)->Arg(64)->Arg(1024)->Arg(8192)->Arg(1 << 16);

void BM_ChildIndexOfLeaf(benchmark::State& state) {
  const MultisectionTree tree = MultisectionTree::b_section(8191, 4);
  const auto& root = tree.root();
  BlockId leaf = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.child_index_of_leaf(root, leaf));
    leaf = (leaf + 37) % 8191;
  }
}
BENCHMARK(BM_ChildIndexOfLeaf);

void BM_LeafBlockId(benchmark::State& state) {
  const MultisectionTree tree = MultisectionTree::b_section(8191, 4);
  BlockId leaf = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.leaf_block_id(leaf));
    leaf = (leaf + 37) % 8191;
  }
}
BENCHMARK(BM_LeafBlockId);

template <typename MakeAssigner>
void stream_throughput(benchmark::State& state, MakeAssigner&& make) {
  const CsrGraph& graph = shared_graph();
  for (auto _ : state) {
    auto assigner = make(graph);
    const StreamResult r = run_one_pass(graph, *assigner, 1);
    benchmark::DoNotOptimize(r.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_nodes()));
}

void BM_StreamHashing(benchmark::State& state) {
  const auto k = static_cast<BlockId>(state.range(0));
  stream_throughput(state, [k](const CsrGraph& g) {
    PartitionConfig pc;
    pc.k = k;
    return std::make_unique<HashingPartitioner>(g.num_nodes(), g.total_node_weight(),
                                                pc);
  });
}
BENCHMARK(BM_StreamHashing)->Arg(256)->Arg(4096);

void BM_StreamLdg(benchmark::State& state) {
  const auto k = static_cast<BlockId>(state.range(0));
  stream_throughput(state, [k](const CsrGraph& g) {
    PartitionConfig pc;
    pc.k = k;
    return std::make_unique<LdgPartitioner>(g.num_nodes(), g.total_node_weight(), pc);
  });
}
BENCHMARK(BM_StreamLdg)->Arg(256)->Arg(4096);

void BM_StreamFennel(benchmark::State& state) {
  const auto k = static_cast<BlockId>(state.range(0));
  stream_throughput(state, [k](const CsrGraph& g) {
    PartitionConfig pc;
    pc.k = k;
    return std::make_unique<FennelPartitioner>(g.num_nodes(), g.num_edges(),
                                               g.total_node_weight(), pc);
  });
}
BENCHMARK(BM_StreamFennel)->Arg(256)->Arg(4096);

void BM_StreamNhOms(benchmark::State& state) {
  const auto k = static_cast<BlockId>(state.range(0));
  stream_throughput(state, [k](const CsrGraph& g) {
    OmsConfig config;
    return std::make_unique<OnlineMultisection>(g.num_nodes(), g.num_edges(),
                                                g.total_node_weight(), k, config);
  });
}
BENCHMARK(BM_StreamNhOms)->Arg(256)->Arg(4096);

void BM_StreamOmsMapping(benchmark::State& state) {
  const auto r = state.range(0);
  stream_throughput(state, [r](const CsrGraph& g) {
    const SystemHierarchy topo({4, 16, r}, {1, 10, 100});
    OmsConfig config;
    return std::make_unique<OnlineMultisection>(g.num_nodes(), g.num_edges(),
                                                g.total_node_weight(), topo, config);
  });
}
BENCHMARK(BM_StreamOmsMapping)->Arg(4)->Arg(64);

/// The whole in-memory facade route of a sequential process mapping:
/// assignment plus the edge cut and J the artifact reports.
void BM_StreamFacadeOmsMapping(benchmark::State& state) {
  const CsrGraph& graph = shared_graph();
  PartitionRequest request;
  request.algo = "oms";
  request.hierarchy = "4:16:4";
  request.distances = "1:10:100";
  request.threads = 1;
  const Partitioner partitioner;
  for (auto _ : state) {
    const PartitionArtifact artifact = partitioner.partition(graph, request);
    benchmark::DoNotOptimize(artifact.metrics.mapping_j);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_nodes()));
}
BENCHMARK(BM_StreamFacadeOmsMapping);

void BM_MetisStreamRead(benchmark::State& state) {
  // Disk ingest throughput: parse the shared graph's METIS file node by node
  // (the buffered raw-read + in-place from_chars path). PID-unique path so
  // concurrent bench runs on a shared machine cannot clobber each other.
  const std::string path = "/tmp/oms_bench_micro_stream." +
                           std::to_string(::getpid()) + ".graph";
  write_metis(shared_graph(), path);
  EdgeIndex arcs = 0;
  for (auto _ : state) {
    MetisNodeStream stream(path);
    StreamedNode node{};
    arcs = 0;
    while (stream.next(node)) {
      arcs += node.neighbors.size();
    }
    benchmark::DoNotOptimize(arcs);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(arcs));
  std::remove(path.c_str());
}
BENCHMARK(BM_MetisStreamRead);

/// The shared graph with edge weights 1..4, so its METIS file carries them.
const CsrGraph& shared_weighted_graph() {
  static const CsrGraph graph = [] {
    const CsrGraph& unit = shared_graph();
    GraphBuilder builder(unit.num_nodes());
    for (NodeId u = 0; u < unit.num_nodes(); ++u) {
      for (const NodeId v : unit.neighbors(u)) {
        if (u < v) {
          builder.add_edge(u, v, 1 + static_cast<EdgeWeight>((u ^ v) % 4));
        }
      }
    }
    return std::move(builder).build();
  }();
  return graph;
}

/// In-memory load of \p source's METIS file: read_metis parses through the
/// stream straight into the CSR arrays and proves them canonical in one
/// pass, so this should stay a small constant above BM_MetisStreamRead.
void load_metis(benchmark::State& state, const CsrGraph& source, const char* tag) {
  const std::string path = std::string("/tmp/oms_bench_micro_") + tag + "." +
                           std::to_string(::getpid()) + ".graph";
  write_metis(source, path);
  EdgeIndex arcs = 0;
  for (auto _ : state) {
    const CsrGraph graph = read_metis(path);
    arcs = graph.num_arcs();
    benchmark::DoNotOptimize(arcs);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(arcs));
  std::remove(path.c_str());
}

void BM_LoadMetis(benchmark::State& state) {
  // Unit weights: the loader stores no weight array.
  load_metis(state, shared_graph(), "load");
}
BENCHMARK(BM_LoadMetis);

void BM_LoadMetisWeighted(benchmark::State& state) {
  // The same graph with explicit edge weights: the 2m-entry array path.
  load_metis(state, shared_weighted_graph(), "load_weighted");
}
BENCHMARK(BM_LoadMetisWeighted);

/// Disk-backed end-to-end partition runs: the sequential driver interleaves
/// parse and assign on one core; the pipelined driver overlaps them with a
/// dedicated reader thread. Same file, same assigner, same decisions — the
/// gap between the two entries is the parse/assign overlap win.
template <bool kPipelined>
void metis_stream_partition(benchmark::State& state) {
  const std::string path = "/tmp/oms_bench_micro_partition." +
                           std::to_string(::getpid()) + ".graph";
  const CsrGraph& graph = shared_graph();
  write_metis(graph, path);
  for (auto _ : state) {
    PartitionConfig pc;
    pc.k = 256;
    FennelPartitioner fennel(graph.num_nodes(), graph.num_edges(),
                             graph.total_node_weight(), pc);
    StreamResult r;
    if constexpr (kPipelined) {
      StreamPlan config; // 1 assign thread: bit-identical to sequential
      config.pipelined = true;
      r = run_one_pass_from_file(path, fennel, config);
    } else {
      r = run_one_pass_from_file(path, fennel);
    }
    benchmark::DoNotOptimize(r.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_nodes()));
  std::remove(path.c_str());
}

void BM_MetisStreamPartitionSeq(benchmark::State& state) {
  metis_stream_partition<false>(state);
}
BENCHMARK(BM_MetisStreamPartitionSeq);

void BM_MetisStreamPartitionPipelined(benchmark::State& state) {
  metis_stream_partition<true>(state);
}
BENCHMARK(BM_MetisStreamPartitionPipelined);

void BM_TelemetryOverhead(benchmark::State& state) {
  // The cost of the permanently compiled telemetry hooks on the densest
  // instrumented surface, the sequential disk-stream partition (per-line
  // reader hooks + per-4096-node flushes). Arg(0) runs disarmed — the
  // production default, where every hook is one relaxed load and the /0
  // entry must stay within noise of BM_MetisStreamPartitionSeq — and Arg(1)
  // runs with a registry armed, pinning the full instrumentation cost.
  const std::string path = "/tmp/oms_bench_micro_telemetry." +
                           std::to_string(::getpid()) + ".graph";
  const CsrGraph& graph = shared_graph();
  write_metis(graph, path);
  std::optional<telemetry::MetricsRegistry> registry;
  if (state.range(0) != 0) {
    registry.emplace(); // the destructor disarms
    telemetry::MetricsRegistry::arm(*registry);
  }
  for (auto _ : state) {
    PartitionConfig pc;
    pc.k = 256;
    FennelPartitioner fennel(graph.num_nodes(), graph.num_edges(),
                             graph.total_node_weight(), pc);
    const StreamResult r = run_one_pass_from_file(path, fennel);
    benchmark::DoNotOptimize(r.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_nodes()));
  std::remove(path.c_str());
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1);

void BM_BufferedPartition(benchmark::State& state) {
  // Buffered (HeiStream-style) model build + refinement throughput on the
  // in-memory entry point; the disk-native driver runs the same core.
  const auto buffer = static_cast<NodeId>(state.range(0));
  const CsrGraph& graph = shared_graph();
  for (auto _ : state) {
    BufferedConfig config;
    config.buffer_size = buffer;
    const BufferedResult r = buffered_partition(graph, 64, config);
    benchmark::DoNotOptimize(r.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_nodes()));
}
BENCHMARK(BM_BufferedPartition)->Arg(4096)->Arg(16384);

void BM_BufferedMultilevel(benchmark::State& state) {
  // Same buffered core with the multilevel inner engine: contract the
  // buffer-local model, partition the coarsest level, refine back up.
  const auto buffer = static_cast<NodeId>(state.range(0));
  const CsrGraph& graph = shared_graph();
  for (auto _ : state) {
    BufferedConfig config;
    config.buffer_size = buffer;
    config.engine = BufferedEngine::kMultilevel;
    const BufferedResult r = buffered_partition(graph, 64, config);
    benchmark::DoNotOptimize(r.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_nodes()));
}
BENCHMARK(BM_BufferedMultilevel)->Arg(4096)->Arg(16384);

void BM_BufferedCheckpoint(benchmark::State& state) {
  // The disk-native buffered driver snapshotting after every buffer: the
  // snapshot path (state save, CRC, file write + rename) against a cheap
  // buffered core, so checkpoint overhead dominates the entry.
  const std::string stem = "/tmp/oms_bench_micro_ckpt." + std::to_string(::getpid());
  const std::string path = stem + ".graph";
  const CsrGraph& graph = shared_graph();
  write_metis(graph, path);
  BufferedConfig config;
  config.buffer_size = 1024;
  StreamPlan plan;
  plan.checkpoint_path = stem + ".ckpt";
  plan.checkpoint_every = config.buffer_size;
  plan.checkpoint_algo = buffered_checkpoint_algo_id(config);
  for (auto _ : state) {
    const BufferedResult r = buffered_partition_from_file(path, 64, config, plan);
    benchmark::DoNotOptimize(r.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_nodes()));
  std::remove(plan.checkpoint_path.c_str());
  std::remove(path.c_str());
}
BENCHMARK(BM_BufferedCheckpoint);

void BM_WindowPartition(benchmark::State& state) {
  // Sliding-window assignment throughput (delayed decisions, k-wide scan).
  const auto k = static_cast<BlockId>(state.range(0));
  const CsrGraph& graph = shared_graph();
  for (auto _ : state) {
    WindowConfig config;
    WindowPartitioner window(graph.num_nodes(), graph.total_node_weight(), config,
                             k);
    const StreamResult r = run_one_pass(graph, window, 1);
    benchmark::DoNotOptimize(r.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_nodes()));
}
BENCHMARK(BM_WindowPartition)->Arg(256);

/// Shared edge sequence for the vertex-cut assignment-throughput benches
/// (each undirected edge of the shared graph once, stream order).
const std::vector<StreamedEdge>& shared_edges() {
  static const std::vector<StreamedEdge> edges = [] {
    const CsrGraph& graph = shared_graph();
    std::vector<StreamedEdge> result;
    result.reserve(graph.num_edges());
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      for (const NodeId v : graph.neighbors(u)) {
        if (v > u) {
          result.push_back(StreamedEdge{u, v, 1});
        }
      }
    }
    return result;
  }();
  return edges;
}

template <typename MakePartitioner>
void edge_stream_throughput(benchmark::State& state, MakePartitioner&& make) {
  const std::vector<StreamedEdge>& edges = shared_edges();
  for (auto _ : state) {
    auto partitioner = make();
    const EdgePartitionResult r = run_edge_partition(edges, *partitioner);
    benchmark::DoNotOptimize(r.edge_assignment.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}

void BM_EdgeStreamHdrf(benchmark::State& state) {
  const auto k = static_cast<BlockId>(state.range(0));
  edge_stream_throughput(state, [k] {
    EdgePartConfig config;
    config.k = k;
    return std::make_unique<HdrfPartitioner>(config);
  });
}
BENCHMARK(BM_EdgeStreamHdrf)->Arg(32)->Arg(256);

void BM_EdgeStreamDbh(benchmark::State& state) {
  const auto k = static_cast<BlockId>(state.range(0));
  edge_stream_throughput(state, [k] {
    EdgePartConfig config;
    config.k = k;
    return std::make_unique<DbhPartitioner>(config);
  });
}
BENCHMARK(BM_EdgeStreamDbh)->Arg(32)->Arg(256);

void BM_EdgeListStreamRead(benchmark::State& state) {
  // Edge-list ingest throughput: the buffered raw-read + in-place from_chars
  // path of EdgeListStream, without any assignment work.
  const std::string path = "/tmp/oms_bench_micro_edges." +
                           std::to_string(::getpid()) + ".edgelist";
  write_edge_list(shared_graph(), path);
  EdgeIndex edges = 0;
  for (auto _ : state) {
    EdgeListStream stream(path);
    StreamedEdge edge;
    edges = 0;
    while (stream.next(edge)) {
      ++edges;
    }
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(edges));
  std::remove(path.c_str());
}
BENCHMARK(BM_EdgeListStreamRead);

void BM_MappingCost(benchmark::State& state) {
  const CsrGraph& graph = shared_graph();
  const SystemHierarchy topo({4, 16, 4}, {1, 10, 100});
  std::vector<BlockId> mapping(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    mapping[u] = static_cast<BlockId>(u % static_cast<NodeId>(topo.num_pes()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapping_cost(graph, topo, mapping, 1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_arcs()));
}
BENCHMARK(BM_MappingCost);

void BM_PeDistance(benchmark::State& state) {
  const SystemHierarchy topo({4, 16, 32}, {1, 10, 100});
  BlockId x = 0;
  BlockId y = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.distance(x, y));
    x = (x + 13) % topo.num_pes();
    y = (y + 29) % topo.num_pes();
  }
}
BENCHMARK(BM_PeDistance);

/// One immutable artifact shared by the service benchmarks: partitioning the
/// shared graph once keeps the setup out of every timed region.
const service::PartitionService& shared_service() {
  static const service::PartitionService instance = [] {
    PartitionRequest request;
    request.algo = "oms";
    request.k = 256;
    return service::PartitionService(
        Partitioner().partition(shared_graph(), request));
  }();
  return instance;
}

void BM_ServiceWhere(benchmark::State& state) {
  const service::PartitionService& service = shared_service();
  const std::uint64_t items = service.artifact().assignment.size();
  // Pre-encoded request bodies: the benchmark measures the server-side
  // decode -> lookup -> encode path, not the client's encoder.
  constexpr std::uint64_t kPool = 1024;
  std::vector<std::vector<char>> pool;
  pool.reserve(kPool);
  for (std::uint64_t i = 0; i < kPool; ++i) {
    pool.push_back(service::encode_where((i * 2654435761u) % items));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::vector<char>& body = pool[i++ & (kPool - 1)];
    benchmark::DoNotOptimize(service.handle(body.data(), body.size()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceWhere);

void BM_ServiceBatch(benchmark::State& state) {
  const service::PartitionService& service = shared_service();
  const std::uint64_t items = service.artifact().assignment.size();
  const auto count = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::uint64_t> ids(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ids[i] = (i * 48271u) % items;
  }
  const std::vector<char> body = service::encode_batch(ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.handle(body.data(), body.size()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ServiceBatch)->Arg(16)->Arg(256)->Arg(4096);

} // namespace

BENCHMARK_MAIN();
