// Unit edge weights are implicit: a graph, a loaded METIS file or a parsed
// batch whose edge weights are all 1 stores no weight array. These tests pin
// that the implicit form is indistinguishable from spelled-out ones: same
// weights, totals and validation, same partitions for every node algorithm,
// same OMSGRAP2 bytes. Weighted inputs keep their arrays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "oms/api/partitioner.hpp"
#include "oms/graph/csr_graph.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/graph/io.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/stream/node_batch.hpp"
#include "oms/util/crc32.hpp"

namespace oms {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/oms_unit_" + name;
}

/// The graph rebuilt through GraphBuilder with every weight passed explicitly.
CsrGraph rebuild_with_explicit_ones(const CsrGraph& graph) {
  GraphBuilder builder(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    builder.set_node_weight(u, graph.node_weight(u));
    for (const NodeId v : graph.neighbors(u)) {
      if (u < v) {
        builder.add_edge(u, v, EdgeWeight{1});
      }
    }
  }
  return std::move(builder).build();
}

/// The graph assembled from raw arrays with a 2m-entry array of ones.
CsrGraph assemble_with_explicit_ones(const CsrGraph& graph) {
  return CsrGraph({graph.raw_xadj().begin(), graph.raw_xadj().end()},
                  {graph.raw_adjncy().begin(), graph.raw_adjncy().end()},
                  std::vector<EdgeWeight>(graph.num_arcs(), 1),
                  {graph.raw_vwgt().begin(), graph.raw_vwgt().end()});
}

/// METIS text of a unit-weight graph; with \p spell_weights the header says
/// fmt 1 and every arc carries an explicit " 1".
void write_unit_metis(const CsrGraph& graph, const std::string& path,
                      bool spell_weights) {
  std::ofstream out(path);
  out << graph.num_nodes() << ' ' << graph.num_edges()
      << (spell_weights ? " 1" : "") << '\n';
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const char* sep = "";
    for (const NodeId v : graph.neighbors(u)) {
      out << sep << v + 1 << (spell_weights ? " 1" : "");
      sep = " ";
    }
    out << '\n';
  }
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void expect_same_weights(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.total_edge_weight(), b.total_edge_weight());
  EXPECT_EQ(a.has_unit_edge_weights(), b.has_unit_edge_weights());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    const auto wa = a.incident_weights(u);
    const auto wb = b.incident_weights(u);
    ASSERT_EQ(wa.size(), a.degree(u));
    ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end())) << "node " << u;
  }
}

TEST(UnitWeights, ExplicitOnesBuildTheImplicitGraph) {
  const CsrGraph graph = gen::barabasi_albert(600, 4, 7);
  ASSERT_TRUE(graph.has_unit_edge_weights());
  EXPECT_TRUE(graph.raw_adjwgt().empty());
  EXPECT_EQ(graph.total_edge_weight(), static_cast<EdgeWeight>(graph.num_edges()));
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto weights = graph.incident_weights(u);
    ASSERT_EQ(weights.size(), graph.degree(u));
    EXPECT_TRUE(std::all_of(weights.begin(), weights.end(),
                            [](EdgeWeight w) { return w == 1; }));
  }
  for (const CsrGraph& spelled :
       {rebuild_with_explicit_ones(graph), assemble_with_explicit_ones(graph)}) {
    spelled.validate();
    EXPECT_TRUE(spelled.raw_adjwgt().empty());
    EXPECT_TRUE(spelled.is_unit_weighted());
    EXPECT_EQ(spelled.memory_footprint_bytes(), graph.memory_footprint_bytes());
    expect_same_weights(spelled, graph);
  }
  graph.validate();
}

TEST(UnitWeights, OneHeavierEdgeKeepsExplicitWeights) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2, 2);
  builder.add_edge(2, 3);
  const CsrGraph graph = std::move(builder).build();
  graph.validate();
  EXPECT_FALSE(graph.has_unit_edge_weights());
  EXPECT_FALSE(graph.is_unit_weighted());
  ASSERT_EQ(graph.raw_adjwgt().size(), graph.num_arcs());
  EXPECT_EQ(graph.total_edge_weight(), 4);
  EXPECT_EQ(graph.incident_weights(1)[0], 1); // (1, 0)
  EXPECT_EQ(graph.incident_weights(1)[1], 2); // (1, 2)
  EXPECT_EQ(graph.incident_weights(2)[0], 2); // (2, 1)
  // Duplicates summing to 2 make a weighted graph too.
  GraphBuilder merged(2);
  merged.add_edge(0, 1);
  merged.add_edge(1, 0);
  EXPECT_FALSE(std::move(merged).build().has_unit_edge_weights());
}

TEST(UnitWeights, EveryNodeAlgorithmPartitionsIdentically) {
  // Explicit side: a METIS file spelling out every weight 1, streamed from
  // disk, so each batch stores its ones. Implicit side: the in-memory graph
  // and the same file without weights, streamed from disk.
  const CsrGraph graph = gen::barabasi_albert(3000, 3, 11);
  const std::string spelled = temp_path("spelled.metis");
  const std::string bare = temp_path("bare.metis");
  write_unit_metis(graph, spelled, true);
  write_unit_metis(graph, bare, false);
  expect_same_weights(read_metis(spelled), graph);
  EXPECT_TRUE(read_metis(spelled).raw_adjwgt().empty());

  const Partitioner partitioner;
  for (const std::string algo :
       {"oms", "fennel", "ldg", "window", "buffered:lp", "buffered:multilevel"}) {
    PartitionRequest req;
    req.k = 16;
    req.algo = algo.substr(0, algo.find(':'));
    if (req.algo == "buffered") {
      req.buffered_engine = algo.substr(algo.find(':') + 1);
      req.buffer_size = 500;
    }
    req.window_size = 64;
    const std::vector<BlockId> in_memory = partitioner.partition(graph, req).assignment;
    req.from_disk = true;
    req.graph_path = spelled;
    const std::vector<BlockId> explicit_disk = partitioner.partition(req).assignment;
    req.graph_path = bare;
    const std::vector<BlockId> implicit_disk = partitioner.partition(req).assignment;
    ASSERT_EQ(in_memory.size(), graph.num_nodes()) << algo;
    EXPECT_EQ(in_memory, explicit_disk) << algo;
    EXPECT_EQ(implicit_disk, explicit_disk) << algo;
  }
  std::remove(spelled.c_str());
  std::remove(bare.c_str());
}

TEST(UnitWeights, BatchesOfUnweightedFilesStoreNoWeights) {
  const CsrGraph graph = gen::barabasi_albert(300, 3, 5);
  for (const bool spell : {false, true}) {
    const std::string path = temp_path("batch.metis");
    write_unit_metis(graph, path, spell);
    MetisNodeStream stream(path);
    NodeBatch batch;
    ASSERT_EQ(stream.fill_batch(batch, graph.num_nodes()), graph.num_nodes());
    EXPECT_EQ(batch.has_unit_edge_weights(), !spell);
    EXPECT_EQ(batch.all_edge_weights().size(), spell ? graph.num_arcs() : 0u);
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      const StreamedNode node = batch.node(u);
      ASSERT_EQ(node.edge_weights.size(), graph.degree(u));
      EXPECT_TRUE(std::all_of(node.edge_weights.begin(), node.edge_weights.end(),
                              [](EdgeWeight w) { return w == 1; }));
    }
    std::remove(path.c_str());
  }
}

TEST(UnitWeights, BinaryCacheSpellsOutTheOnes) {
  const CsrGraph graph = gen::barabasi_albert(500, 3, 3);
  ASSERT_TRUE(graph.has_unit_edge_weights());
  const std::string path = temp_path("graph.bin");
  write_binary(graph, path);

  // OMSGRAP2: magic, n, arcs, xadj, adjncy, 2m weights, vwgt, CRC-32.
  std::vector<char> expected;
  const auto put = [&expected](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const char*>(data);
    expected.insert(expected.end(), p, p + bytes);
  };
  const std::uint64_t header[3] = {0x4f4d5347'52415032ULL, graph.num_nodes(),
                                   graph.num_arcs()};
  put(header, sizeof header);
  put(graph.raw_xadj().data(), graph.raw_xadj().size_bytes());
  put(graph.raw_adjncy().data(), graph.raw_adjncy().size_bytes());
  const std::vector<EdgeWeight> ones(graph.num_arcs(), 1);
  put(ones.data(), ones.size() * sizeof(EdgeWeight));
  put(graph.raw_vwgt().data(), graph.raw_vwgt().size_bytes());
  const std::uint32_t crc = crc32(expected.data(), expected.size());
  put(&crc, sizeof crc);
  EXPECT_EQ(file_bytes(path), expected);

  const CsrGraph back = read_binary(path);
  EXPECT_TRUE(back.raw_adjwgt().empty());
  expect_same_weights(back, graph);
  EXPECT_EQ(back.memory_footprint_bytes(), graph.memory_footprint_bytes());
  std::remove(path.c_str());
}

TEST(UnitWeights, WeightedMetisFileKeepsItsWeights) {
  const std::string path = temp_path("weighted.metis");
  {
    std::ofstream out(path);
    out << "4 4 1\n"
           "2 3 4 1\n"
           "1 3 3 5\n"
           "2 5 4 1\n"
           "3 1 1 1\n";
  }
  const CsrGraph graph = read_metis(path);
  graph.validate();
  EXPECT_FALSE(graph.has_unit_edge_weights());
  ASSERT_EQ(graph.raw_adjwgt().size(), 8u);
  EXPECT_EQ(graph.total_edge_weight(), 3 + 5 + 1 + 1);
  EXPECT_EQ(graph.incident_weights(1)[1], 5); // (2, 3) in 1-based ids

  MetisNodeStream stream(path);
  NodeBatch batch;
  ASSERT_EQ(stream.fill_batch(batch, 4), 4u);
  EXPECT_FALSE(batch.has_unit_edge_weights());
  EXPECT_EQ(batch.node(2).edge_weights[0], 5);
  std::remove(path.c_str());
}

} // namespace
} // namespace oms
