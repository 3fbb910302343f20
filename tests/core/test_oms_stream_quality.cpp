/// \file test_oms_stream_quality.cpp
/// \brief Streaming quality accounting of the online multi-section: the edge
///        cut and mapping objective J counted during a sequential descent
///        must equal the offline edge_cut() / mapping_cost() of the finished
///        assignment bit for bit, and the assigner must report nothing
///        whenever its count cannot be exact.
#include "oms/core/online_multisection.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "oms/core/remapping.hpp"
#include "oms/graph/generators.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/partition/fennel.hpp"
#include "oms/partition/metrics.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/stream/one_pass_driver.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

using testing::weighted_graph;

/// Nodes 0..n-1 where only every third node has edges (a ring over them);
/// the rest stay isolated and stream with an empty neighborhood.
[[nodiscard]] CsrGraph graph_with_isolated_nodes(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId u = 0; u + 3 < n; u += 3) {
    builder.add_edge(u, u + 3, 1 + static_cast<EdgeWeight>(u % 4));
  }
  builder.add_edge(0, 3 * ((n - 1) / 3));
  return std::move(builder).build();
}

/// Stream \p g sequentially through \p oms. The driver hands the count out
/// on one thread, and it must be the assigner's own answer.
[[nodiscard]] StreamResult sequential_pass(const CsrGraph& g, OnlineMultisection& oms) {
  StreamResult result = run_one_pass(g, oms, 1);
  const std::optional<StreamQuality> own = oms.stream_quality();
  EXPECT_TRUE(result.quality.has_value());
  EXPECT_TRUE(own.has_value());
  if (result.quality.has_value() && own.has_value()) {
    EXPECT_EQ(own->edge_cut, result.quality->edge_cut);
    EXPECT_EQ(own->mapping_j, result.quality->mapping_j);
  }
  return result;
}

void expect_oms_oracle(const CsrGraph& g, const std::string& extents,
                       const std::string& distances) {
  const SystemHierarchy topo = SystemHierarchy::parse(extents, distances);
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                         OmsConfig{});
  const StreamResult r = sequential_pass(g, oms);
  ASSERT_TRUE(r.quality.has_value()) << extents;
  EXPECT_EQ(r.quality->edge_cut, edge_cut(g, r.assignment)) << extents;
  EXPECT_EQ(r.quality->mapping_j, mapping_cost(g, topo, r.assignment)) << extents;
  EXPECT_GT(r.quality->edge_cut, 0) << extents;
}

void expect_nh_oracle(const CsrGraph& g, BlockId k, int base) {
  OmsConfig config;
  config.base = base;
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), k,
                         config);
  const StreamResult r = sequential_pass(g, oms);
  ASSERT_TRUE(r.quality.has_value()) << "k=" << k << " b=" << base;
  EXPECT_EQ(r.quality->edge_cut, edge_cut(g, r.assignment))
      << "k=" << k << " b=" << base;
  EXPECT_EQ(r.quality->mapping_j, -1) << "nh-OMS maps onto no topology";
}

TEST(OmsStreamQuality, MatchesOfflineOnHierarchies) {
  const CsrGraph ba = gen::barabasi_albert(3000, 5, 17);
  expect_oms_oracle(ba, "4:16:2", "1:10:100");
  expect_oms_oracle(ba, "4:16:1", "1:10:100"); // pass-through top layer
  expect_oms_oracle(ba, "3:5:7", "2:7:30");
  expect_oms_oracle(gen::grid_2d(40, 40), "4:16:2", "1:10:100");
}

TEST(OmsStreamQuality, MatchesOfflineOnNhOms) {
  const CsrGraph ba = gen::barabasi_albert(3000, 5, 17);
  for (const int base : {2, 4}) {
    for (const BlockId k : {2, 7, 64, 1000}) {
      expect_nh_oracle(ba, k, base);
    }
  }
}

TEST(OmsStreamQuality, MatchesOfflineOnWeightedGraph) {
  const CsrGraph g = weighted_graph();
  expect_oms_oracle(g, "4:16:2", "1:10:100");
  expect_oms_oracle(g, "3:5:7", "2:7:30");
  expect_nh_oracle(g, 24, 4);
  expect_nh_oracle(g, 1000, 2);
}

TEST(OmsStreamQuality, MatchesOfflineWithIsolatedNodes) {
  const CsrGraph g = graph_with_isolated_nodes(900);
  expect_oms_oracle(g, "4:16:2", "1:10:100");
  expect_nh_oracle(g, 7, 4);
}

TEST(OmsStreamQuality, NoneWhenPreparedForThreads) {
  const CsrGraph g = gen::barabasi_albert(2000, 4, 3);
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                         BlockId{64}, OmsConfig{});
  const StreamResult result = run_one_pass(g, oms, 4);
  EXPECT_FALSE(result.quality.has_value());
  EXPECT_FALSE(oms.stream_quality().has_value());
}

TEST(OmsStreamQuality, NoneWithHashedLayers) {
  const CsrGraph g = gen::barabasi_albert(2000, 4, 3);
  OmsConfig config;
  config.quality_layers = 1;
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                         SystemHierarchy::parse("4:16:2", "1:10:100"), config);
  EXPECT_FALSE(run_one_pass(g, oms, 1).quality.has_value());
  EXPECT_FALSE(oms.stream_quality().has_value());
}

TEST(OmsStreamQuality, NoneAfterUnassign) {
  const CsrGraph g = gen::random_geometric(1500, 3);
  const SystemHierarchy topo = SystemHierarchy::parse("4:4", "1:10");
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(), topo,
                         OmsConfig{});
  (void)remap_multisection(g, oms, 2); // the remapping path unassigns every node
  EXPECT_FALSE(oms.stream_quality().has_value());
}

TEST(OmsStreamQuality, NoneAfterLoadStreamState) {
  const CsrGraph g = gen::barabasi_albert(2000, 4, 3);
  OnlineMultisection first(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                           BlockId{16}, OmsConfig{});
  first.prepare(1);
  WorkCounters counters;
  for (NodeId u = 0; u < g.num_nodes() / 2; ++u) {
    (void)first.assign(
        StreamedNode{u, g.node_weight(u), g.neighbors(u), g.incident_weights(u)}, 0,
        counters);
  }
  ASSERT_TRUE(first.stream_quality().has_value());
  CheckpointWriter writer;
  ASSERT_TRUE(first.save_stream_state(writer));

  OnlineMultisection resumed(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                             BlockId{16}, OmsConfig{});
  resumed.prepare(1);
  CheckpointReader reader(writer.bytes());
  ASSERT_TRUE(resumed.load_stream_state(reader));
  EXPECT_FALSE(resumed.stream_quality().has_value());
}

TEST(OmsStreamQuality, NoneAfterOfflineMultipass) {
  const CsrGraph g = gen::barabasi_albert(2000, 4, 3);
  OnlineMultisection oms(g.num_nodes(), g.num_edges(), g.total_node_weight(),
                         BlockId{16}, OmsConfig{});
  (void)oms.run_offline_multipass(g);
  EXPECT_FALSE(oms.stream_quality().has_value());
}

TEST(OmsStreamQuality, FlatBaselinesReportNone) {
  const CsrGraph g = gen::barabasi_albert(2000, 4, 3);
  PartitionConfig pc;
  pc.k = 16;
  FennelPartitioner fennel(g.num_nodes(), g.num_edges(), g.total_node_weight(), pc);
  EXPECT_FALSE(run_one_pass(g, fennel, 1).quality.has_value());
}

} // namespace
} // namespace oms
