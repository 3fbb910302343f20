#include "oms/graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include "oms/graph/graph_builder.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

TEST(CsrGraph, DegreeAndNeighbors) {
  const CsrGraph g = testing::path_graph(5);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.degree(4), 1u);
  const auto n2 = g.neighbors(2);
  ASSERT_EQ(n2.size(), 2u);
  EXPECT_EQ(n2[0], 1u);
  EXPECT_EQ(n2[1], 3u);
}

TEST(CsrGraph, ArcAndEdgeCounts) {
  const CsrGraph g = testing::cycle_graph(7);
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_EQ(g.num_arcs(), 14u);
}

TEST(CsrGraph, MaxDegree) {
  const CsrGraph star = testing::star_graph(9);
  EXPECT_EQ(star.max_degree(), 8u);
  const CsrGraph path = testing::path_graph(9);
  EXPECT_EQ(path.max_degree(), 2u);
}

TEST(CsrGraph, TotalWeights) {
  const CsrGraph g = testing::complete_graph(4);
  EXPECT_EQ(g.total_node_weight(), 4);
  EXPECT_EQ(g.total_edge_weight(), 6);
}

TEST(CsrGraph, ValidatePassesOnWellFormedGraphs) {
  testing::path_graph(10).validate();
  testing::cycle_graph(10).validate();
  testing::complete_graph(6).validate();
  testing::star_graph(12).validate();
}

TEST(CsrGraph, MemoryFootprintGrowsWithSize) {
  const CsrGraph small = testing::path_graph(10);
  const CsrGraph large = testing::path_graph(1000);
  EXPECT_GT(large.memory_footprint_bytes(), small.memory_footprint_bytes());
  EXPECT_GT(small.memory_footprint_bytes(), 0u);
}

TEST(CsrGraph, MemoryFootprintOfAUnitGraphHoldsOneRunOfOnes) {
  // A unit-weight graph stores xadj, adjncy and vwgt, plus max_degree ones
  // in place of the 2m-entry weight array: 8(n+1) + 4*2m + 8n + 8*max_degree.
  const CsrGraph star = testing::star_graph(9); // n = 9, m = 8, max degree 8
  ASSERT_TRUE(star.has_unit_edge_weights());
  EXPECT_EQ(star.memory_footprint_bytes(), 8u * 10 + 4u * 16 + 8u * 9 + 8u * 8);
  const CsrGraph cliques = testing::two_cliques_bridge(5);
  const std::uint64_t n = cliques.num_nodes();
  const std::uint64_t m = cliques.num_edges();
  EXPECT_EQ(cliques.memory_footprint_bytes(),
            8 * (n + 1) + 4 * 2 * m + 8 * n + 8 * cliques.max_degree());
  // Explicit weights cost 8 bytes per arc instead, and no run of ones.
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 2);
  builder.add_edge(1, 2);
  const CsrGraph weighted = std::move(builder).build();
  EXPECT_EQ(weighted.memory_footprint_bytes(), 8u * 4 + 4u * 4 + 8u * 4 + 8u * 3);
}

TEST(CsrGraphDeath, ConstructorRejectsBadShapes) {
  // xadj must have n+1 entries.
  EXPECT_DEATH(CsrGraph({0}, {}, {}, {NodeWeight{1}}), "n\\+1");
  // weights must match arcs.
  EXPECT_DEATH(CsrGraph({0, 1, 2}, {1, 0}, {1}, {1, 1}), "weight per arc");
}

TEST(CsrGraphDeath, ConstructorRejectsNegativeEdgeWeight) {
  EXPECT_DEATH(CsrGraph({0, 1, 2}, {1, 0}, {-1, -1}, {1, 1}), "positive");
}

} // namespace
} // namespace oms
