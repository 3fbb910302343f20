/// Telemetry registry unit tests: histogram bucket math, per-thread shard
/// merge under real contention, arm/disarm hook semantics, span nesting,
/// gauge high-watermarks, and the "oms.metrics.v1" JSON writer.
#include "oms/telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>


namespace oms::telemetry {
namespace {

/// Every test arms its own scoped registry; the fixture guarantees disarm
/// even on failure so suites cannot leak an armed pointer into each other.
class MetricsTest : public ::testing::Test {
protected:
  void TearDown() override { MetricsRegistry::disarm(); }
  MetricsRegistry registry;
};

TEST_F(MetricsTest, BucketBoundariesAreLog2) {
  EXPECT_EQ(histogram_bucket(0), 0);
  EXPECT_EQ(histogram_bucket(1), 0);
  EXPECT_EQ(histogram_bucket(2), 1);
  EXPECT_EQ(histogram_bucket(3), 1);
  EXPECT_EQ(histogram_bucket(4), 2);
  EXPECT_EQ(histogram_bucket(7), 2);
  EXPECT_EQ(histogram_bucket(8), 3);
  EXPECT_EQ(histogram_bucket((1ULL << 39) - 1), 38);
  EXPECT_EQ(histogram_bucket(1ULL << 39), 39);
  // The last bucket is open-ended: anything huge lands there, never OOB.
  EXPECT_EQ(histogram_bucket(~0ULL), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket_floor(0), 0u);
  EXPECT_EQ(histogram_bucket_floor(1), 2u);
  EXPECT_EQ(histogram_bucket_floor(10), 1024u);
}

TEST_F(MetricsTest, DisarmedHooksAreNoOps) {
  ASSERT_EQ(MetricsRegistry::armed(), nullptr);
  EXPECT_FALSE(enabled());
  metric_add(Counter::kStreamNodes, 7);
  gauge_set(Gauge::kProgressTotalItems, 9);
  hist_record(Hist::kStageParse, 100);
  { const TraceSpan span(Hist::kStageAssign); }
  MetricsRegistry::arm(registry);
  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.counter(Counter::kStreamNodes), 0u);
  EXPECT_EQ(snap.gauge(Gauge::kProgressTotalItems), 0u);
  EXPECT_EQ(snap.histogram(Hist::kStageParse).count, 0u);
  EXPECT_EQ(snap.histogram(Hist::kStageAssign).count, 0u);
}

TEST_F(MetricsTest, ArmedHooksLandInTheRegistry) {
  MetricsRegistry::arm(registry);
  EXPECT_TRUE(enabled());
  metric_add(Counter::kStreamNodes, 5);
  metric_add(Counter::kStreamNodes);
  gauge_set(Gauge::kProgressTotalItems, 42);
  hist_record(Hist::kStageParse, 1000);
  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.counter(Counter::kStreamNodes), 6u);
  EXPECT_EQ(snap.gauge(Gauge::kProgressTotalItems), 42u);
  EXPECT_EQ(snap.histogram(Hist::kStageParse).count, 1u);
  EXPECT_EQ(snap.histogram(Hist::kStageParse).sum, 1000u);
  EXPECT_EQ(snap.histogram(Hist::kStageParse).buckets[histogram_bucket(1000)],
            1u);
}

TEST_F(MetricsTest, DestructorDisarmsItself) {
  {
    MetricsRegistry scoped;
    MetricsRegistry::arm(scoped);
    ASSERT_EQ(MetricsRegistry::armed(), &scoped);
  }
  // The scoped registry died armed; the global pointer must not dangle.
  EXPECT_EQ(MetricsRegistry::armed(), nullptr);
}

TEST_F(MetricsTest, GaugeMaxKeepsTheHighWatermark) {
  MetricsRegistry::arm(registry);
  gauge_max(Gauge::kPipelineQueueDepthMax, 3);
  gauge_max(Gauge::kPipelineQueueDepthMax, 9);
  gauge_max(Gauge::kPipelineQueueDepthMax, 5);
  EXPECT_EQ(registry.scrape().gauge(Gauge::kPipelineQueueDepthMax), 9u);
}

TEST_F(MetricsTest, TraceSpansRecordAndNest) {
  MetricsRegistry::arm(registry);
  {
    const TraceSpan outer(Hist::kStageBufferBuild);
    {
      const TraceSpan inner(Hist::kStageBufferRefine);
    }
    { const TraceSpan sibling(Hist::kStageBufferRefine); }
  }
  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.histogram(Hist::kStageBufferBuild).count, 1u);
  EXPECT_EQ(snap.histogram(Hist::kStageBufferRefine).count, 2u);
  // Outer span wall time covers both inner spans.
  EXPECT_GE(snap.histogram(Hist::kStageBufferBuild).sum,
            snap.histogram(Hist::kStageBufferRefine).sum);
}

TEST_F(MetricsTest, SpanStartedWhileDisarmedRecordsNothing) {
  std::optional<TraceSpan> span;
  span.emplace(Hist::kStageParse);
  // Arming mid-span must not produce a bogus sample from a zero start time.
  MetricsRegistry::arm(registry);
  span.reset();
  EXPECT_EQ(registry.scrape().histogram(Hist::kStageParse).count, 0u);
}

TEST_F(MetricsTest, ShardedCountersMergeExactlyUnderContention) {
  MetricsRegistry::arm(registry);
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        metric_add(Counter::kStreamNodes);
        hist_record(Hist::kServiceRequest, static_cast<std::uint64_t>(i));
        if (i % 4096 == 0) {
          // Concurrent scrape while writers run: must be data-race free
          // (TSan leg) and internally sane even if mid-update.
          MetricsRegistry* reg = MetricsRegistry::armed();
          ASSERT_NE(reg, nullptr);
          (void)reg->scrape();
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const MetricsSnapshot snap = registry.scrape();
  constexpr std::uint64_t kTotal =
      std::uint64_t{kThreads} * std::uint64_t{kAddsPerThread};
  EXPECT_EQ(snap.counter(Counter::kStreamNodes), kTotal);
  EXPECT_EQ(snap.histogram(Hist::kServiceRequest).count, kTotal);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.histogram(Hist::kServiceRequest).buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, kTotal);
}

TEST_F(MetricsTest, ResetZeroesEverything) {
  MetricsRegistry::arm(registry);
  metric_add(Counter::kStreamEdges, 3);
  gauge_set(Gauge::kProgressTotalItems, 5);
  hist_record(Hist::kStageAssign, 7);
  registry.reset();
  EXPECT_EQ(registry.scrape(), MetricsSnapshot{});
}

TEST_F(MetricsTest, PublishWorkMapsOntoWorkCounters) {
  MetricsRegistry::arm(registry);
  WorkCounters work;
  work.score_evaluations = 11;
  work.neighbor_visits = 22;
  work.layers_traversed = 33;
  publish_work(work);
  publish_work(work);
  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.counter(Counter::kWorkScoreEvaluations), 22u);
  EXPECT_EQ(snap.counter(Counter::kWorkNeighborVisits), 44u);
  EXPECT_EQ(snap.counter(Counter::kWorkLayersTraversed), 66u);
}

TEST_F(MetricsTest, JsonEmitsEveryValueUnderItsName) {
  MetricsRegistry::arm(registry);
  for (int c = 0; c < kNumCounters; ++c) {
    registry.add(static_cast<Counter>(c), static_cast<std::uint64_t>(c) * 31 + 1);
  }
  for (int g = 0; g < kNumGauges; ++g) {
    registry.gauge_set(static_cast<Gauge>(g), static_cast<std::uint64_t>(g) + 5);
  }
  for (int h = 0; h < kNumHists; ++h) {
    registry.record(static_cast<Hist>(h), std::uint64_t{1} << (h + 2));
    registry.record(static_cast<Hist>(h), 0);
  }
  const MetricsSnapshot snap = registry.scrape();
  const std::string json = snap.to_json();
  EXPECT_EQ(json.rfind("{\"schema\":\"oms.metrics.v1\",", 0), 0u);
  const auto key = [](const char* name) { return "\"" + std::string(name) + "\":"; };
  for (int c = 0; c < kNumCounters; ++c) {
    const auto id = static_cast<Counter>(c);
    EXPECT_NE(json.find(key(counter_name(id)) + std::to_string(snap.counter(id))),
              std::string::npos)
        << counter_name(id);
  }
  for (int g = 0; g < kNumGauges; ++g) {
    const auto id = static_cast<Gauge>(g);
    EXPECT_NE(json.find(key(gauge_name(id)) + std::to_string(snap.gauge(id))),
              std::string::npos)
        << gauge_name(id);
  }
  for (int h = 0; h < kNumHists; ++h) {
    const auto id = static_cast<Hist>(h);
    const HistogramSnapshot& hist = snap.histogram(id);
    EXPECT_EQ(hist.count, 2u);
    std::string expected = key(hist_name(id)) + "{\"count\":" +
                           std::to_string(hist.count) + ",\"sum\":" +
                           std::to_string(hist.sum) + ",\"buckets\":[";
    for (int b = 0; b < kHistogramBuckets; ++b) {
      expected += (b == 0 ? "" : ",") +
                  std::to_string(hist.buckets[static_cast<std::size_t>(b)]);
    }
    expected += "]}";
    EXPECT_NE(json.find(expected), std::string::npos) << hist_name(id);
  }
  // Serialization is canonical: same snapshot, same bytes.
  EXPECT_EQ(registry.scrape().to_json(), json);
}

TEST_F(MetricsTest, MetricNamesAreUniqueAndStable) {
  std::vector<std::string> names;
  for (int c = 0; c < kNumCounters; ++c) {
    names.emplace_back(counter_name(static_cast<Counter>(c)));
  }
  for (int g = 0; g < kNumGauges; ++g) {
    names.emplace_back(gauge_name(static_cast<Gauge>(g)));
  }
  for (int h = 0; h < kNumHists; ++h) {
    names.emplace_back(hist_name(static_cast<Hist>(h)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]) << "duplicate metric name";
    }
  }
  EXPECT_STREQ(counter_name(Counter::kStreamNodes), "stream.nodes");
  EXPECT_STREQ(gauge_name(Gauge::kProgressTotalItems), "progress.total_items");
  EXPECT_STREQ(hist_name(Hist::kServiceRequest), "service.request_ns");
}

} // namespace
} // namespace oms::telemetry
