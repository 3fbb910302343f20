#include "oms/mapping/hierarchy.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace oms {
namespace {

TEST(Hierarchy, PaperConfiguration) {
  const SystemHierarchy h = SystemHierarchy::parse("4:16:2", "1:10:100");
  EXPECT_EQ(h.num_levels(), 3u);
  EXPECT_EQ(h.num_pes(), 128); // 4 * 16 * 2
  EXPECT_EQ(h.module_size(0), 1);
  EXPECT_EQ(h.module_size(1), 4);   // a processor
  EXPECT_EQ(h.module_size(2), 64);  // a node
  EXPECT_EQ(h.module_size(3), 128); // the machine
}

TEST(Hierarchy, DistanceCases) {
  const SystemHierarchy h = SystemHierarchy::parse("4:16:2", "1:10:100");
  EXPECT_EQ(h.distance(0, 0), 0);    // same PE
  EXPECT_EQ(h.distance(0, 1), 1);    // same processor (cores 0,1 of proc 0)
  EXPECT_EQ(h.distance(0, 3), 1);
  EXPECT_EQ(h.distance(0, 4), 10);   // different processor, same node
  EXPECT_EQ(h.distance(3, 4), 10);
  EXPECT_EQ(h.distance(0, 63), 10);  // last core of the same node
  EXPECT_EQ(h.distance(0, 64), 100); // other node
  EXPECT_EQ(h.distance(63, 64), 100);
  EXPECT_EQ(h.distance(127, 0), 100);
}

TEST(Hierarchy, DistanceIsSymmetric) {
  const SystemHierarchy h = SystemHierarchy::parse("2:3:4", "1:7:50");
  for (BlockId x = 0; x < h.num_pes(); ++x) {
    for (BlockId y = 0; y < h.num_pes(); ++y) {
      EXPECT_EQ(h.distance(x, y), h.distance(y, x));
    }
  }
}

TEST(Hierarchy, SingleLevel) {
  const SystemHierarchy h = SystemHierarchy::parse("8", "5");
  EXPECT_EQ(h.num_pes(), 8);
  EXPECT_EQ(h.distance(0, 0), 0);
  for (BlockId x = 0; x < 8; ++x) {
    for (BlockId y = 0; y < 8; ++y) {
      if (x != y) {
        EXPECT_EQ(h.distance(x, y), 5);
      }
    }
  }
}

TEST(Hierarchy, TrailingExtentOne) {
  // The paper's sweep S = 4:16:r includes r = 1.
  const SystemHierarchy h = SystemHierarchy::parse("4:16:1", "1:10:100");
  EXPECT_EQ(h.num_pes(), 64);
  EXPECT_EQ(h.distance(0, 63), 10); // all PEs share the single "rack"
}

TEST(Hierarchy, ExtentsTopDownReverses) {
  const SystemHierarchy h = SystemHierarchy::parse("4:16:2", "1:10:100");
  const auto td = h.extents_top_down();
  ASSERT_EQ(td.size(), 3u);
  EXPECT_EQ(td[0], 2);
  EXPECT_EQ(td[1], 16);
  EXPECT_EQ(td[2], 4);
}

TEST(Hierarchy, ToStringRoundTrip) {
  const SystemHierarchy h = SystemHierarchy::parse("4:16:2", "1:10:100");
  EXPECT_EQ(h.to_string(), "S=4:16:2 D=1:10:100");
}

TEST(Hierarchy, DistanceIsMonotoneInHierarchyLevel) {
  // For D with increasing distances, farther separation costs more.
  const SystemHierarchy h = SystemHierarchy::parse("2:2:2:2", "1:2:4:8");
  EXPECT_LT(h.distance(0, 1), h.distance(0, 2));
  EXPECT_LT(h.distance(0, 2), h.distance(0, 4));
  EXPECT_LT(h.distance(0, 4), h.distance(0, 8));
  EXPECT_EQ(h.distance(0, 15), 8);
}

/// The definition, evaluated the slow way: d_j of the smallest level j whose
/// module (a block of module_size(j) consecutive PEs) holds both PEs.
[[nodiscard]] std::int64_t reference_distance(const SystemHierarchy& h, BlockId x,
                                              BlockId y) {
  if (x == y) {
    return 0;
  }
  for (std::size_t level = 1; level <= h.num_levels(); ++level) {
    if (x / h.module_size(level) == y / h.module_size(level)) {
      return h.distances()[level - 1];
    }
  }
  return -1;
}

TEST(Hierarchy, DistanceMatchesDefinitionOnEveryPair) {
  const std::pair<const char*, const char*> cases[] = {
      {"3:5:7", "1:10:100"},         {"4:16:1", "1:10:100"},
      {"2:2:2:2:2:2", "1:2:3:4:5:6"}, {"4:16:64", "1:10:100"},
      {"7", "5"},                    {"1:6:5", "3:7:11"},
  };
  for (const auto& [extents, distances] : cases) {
    const SystemHierarchy h = SystemHierarchy::parse(extents, distances);
    std::int64_t mismatches = 0;
    for (BlockId x = 0; x < h.num_pes(); ++x) {
      for (BlockId y = 0; y < h.num_pes(); ++y) {
        mismatches += h.distance(x, y) != reference_distance(h, x, y) ? 1 : 0;
      }
    }
    EXPECT_EQ(mismatches, 0) << extents;
  }
}

TEST(HierarchyDeath, MismatchedLengthsRejected) {
  EXPECT_DEATH(SystemHierarchy::parse("4:16", "1:10:100"), "one distance per");
}

} // namespace
} // namespace oms
