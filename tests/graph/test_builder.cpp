#include "oms/graph/graph_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "tests/test_support.hpp"

namespace oms {
namespace {

TEST(GraphBuilder, BuildsSimpleTriangle) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(g.degree(u), 2u);
  }
  g.validate();
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder builder(2);
  builder.add_edge(0, 0);
  builder.add_edge(1, 1);
  builder.add_edge(0, 1);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, MergesParallelEdgesSummingWeights) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 3);
  builder.add_edge(1, 0, 4); // reversed direction, same edge
  builder.add_edge(0, 1, 5);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.total_edge_weight(), 12);
  EXPECT_EQ(g.incident_weights(0)[0], 12);
  EXPECT_EQ(g.incident_weights(1)[0], 12);
}

TEST(GraphBuilder, AdjacencyIsSorted) {
  GraphBuilder builder(5);
  builder.add_edge(2, 4);
  builder.add_edge(2, 0);
  builder.add_edge(2, 3);
  builder.add_edge(2, 1);
  const CsrGraph g = std::move(builder).build();
  const auto neigh = g.neighbors(2);
  ASSERT_EQ(neigh.size(), 4u);
  EXPECT_TRUE(std::is_sorted(neigh.begin(), neigh.end()));
}

TEST(GraphBuilder, RandomInsertionOrderWithDuplicatesBuildsAValidGraph) {
  // build() emits each list as lower neighbours then higher ones, both
  // ascending, with no per-node sort; any insertion order (either
  // direction, parallel copies) must still come out sorted and symmetric.
  Rng rng(oms::testing::draw_seed(0xb1d));
  constexpr NodeId kNodes = 200;
  GraphBuilder builder(kNodes);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int i = 0; i < 1500; ++i) {
    edges.emplace_back(static_cast<NodeId>(rng.next_below(kNodes)),
                       static_cast<NodeId>(rng.next_below(kNodes)));
  }
  for (int i = 0; i < 300; ++i) { // parallel copies, reversed or not
    const auto [u, v] = edges[rng.next_below(edges.size())];
    edges.emplace_back(rng.next_below(2) == 0 ? std::pair{u, v} : std::pair{v, u});
  }
  rng.shuffle(edges);
  for (const auto& [u, v] : edges) {
    builder.add_edge(u, v, 1 + static_cast<EdgeWeight>(rng.next_below(5)));
  }
  const CsrGraph g = std::move(builder).build();
  g.validate();
  for (NodeId u = 0; u < kNodes; ++u) {
    const auto neigh = g.neighbors(u);
    EXPECT_TRUE(std::is_sorted(neigh.begin(), neigh.end())) << "node " << u;
  }
}

TEST(GraphBuilder, NodeWeightsDefaultToOne) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.total_node_weight(), 4);
  EXPECT_TRUE(g.is_unit_weighted());
}

TEST(GraphBuilder, CustomNodeWeights) {
  GraphBuilder builder(3);
  builder.set_node_weight(0, 5);
  builder.set_node_weight(2, 7);
  builder.add_edge(0, 1);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.node_weight(0), 5);
  EXPECT_EQ(g.node_weight(1), 1);
  EXPECT_EQ(g.node_weight(2), 7);
  EXPECT_EQ(g.total_node_weight(), 13);
  EXPECT_FALSE(g.is_unit_weighted());
}

TEST(GraphBuilder, IsolatedNodesSurvive) {
  GraphBuilder builder(10);
  builder.add_edge(0, 1);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.num_nodes(), 10u);
  for (NodeId u = 2; u < 10; ++u) {
    EXPECT_EQ(g.degree(u), 0u);
  }
  g.validate();
}

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder builder(3);
  const CsrGraph g = std::move(builder).build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(GraphBuilderDeath, RejectsOutOfRangeEndpoint) {
  GraphBuilder builder(2);
  EXPECT_DEATH(builder.add_edge(0, 2), "out of range");
}

TEST(GraphBuilderDeath, RejectsNonPositiveWeight) {
  GraphBuilder builder(2);
  EXPECT_DEATH(builder.add_edge(0, 1, 0), "positive");
}

TEST(TestSupport, CliqueChainShape) {
  const CsrGraph g = testing::clique_chain(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  // 4 cliques of C(5,2)=10 edges plus 3 bridges.
  EXPECT_EQ(g.num_edges(), 43u);
  g.validate();
}

TEST(TestSupport, TwoCliquesBridgeHasSingleBridge) {
  const CsrGraph g = testing::two_cliques_bridge(6);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 2u * 15u + 1u);
}

} // namespace
} // namespace oms
