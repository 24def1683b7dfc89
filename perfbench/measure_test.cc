// Tests of the benchmark's own arithmetic (measure.h).

#include "measure.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Stats, MedianAndPercentile) {
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 95), 95);
  EXPECT_EQ(Percentile(hundred, 99), 99);
  EXPECT_EQ(Percentile(hundred, 100), 100);
  EXPECT_EQ(Percentile({7}, 95), 7);
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond) {
  // 200 samples: p95 leaves exactly 10 above it, p99 only 2.
  EXPECT_EQ(TailPercentileFor(200), 95);
  EXPECT_EQ(TailPercentileFor(199), 90);
  EXPECT_EQ(TailPercentileFor(1000), 99);
  EXPECT_EQ(TailPercentileFor(10000), 99.9);
  EXPECT_EQ(TailPercentileFor(20), 50);
  // Too few samples for any tail: not reportable.
  EXPECT_EQ(TailPercentileFor(19), 0);
  EXPECT_EQ(TailPercentileFor(5), 0);
  // The rule holds for every count: the chosen rank leaves >= 10 above.
  for (size_t n = 20; n < 3000; ++n) {
    const double pct = TailPercentileFor(n);
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) values.push_back(static_cast<double>(i));
    const double cut = Percentile(values, pct);
    EXPECT_GE(static_cast<double>(n) - 1 - cut, 10) << n;
  }
}

TEST(Stats, RatioReportsZeroOnEmptyBase) {
  EXPECT_EQ(Ratio(3, 4), 0.75);
  EXPECT_EQ(Ratio(5, 0), 0);
}

TEST(Registry, CounterAndHistogramDeltasAcrossASpan) {
  tgpp::obs::Registry registry;
  tgpp::obs::Counter bytes0, bytes1;
  tgpp::obs::LatencyHistogram lat0, lat1;
  auto r0 = registry.Register("disk.read_bytes", 0, &bytes0);
  auto r1 = registry.Register("disk.read_bytes", 1, &bytes1);
  auto r2 = registry.Register("disk.read_latency_ns", 0, &lat0);
  auto r3 = registry.Register("disk.read_latency_ns", 1, &lat1);
  ASSERT_TRUE(r0.ok() && r1.ok() && r2.ok() && r3.ok());

  bytes0.Add(100);
  for (int i = 0; i < 50; ++i) lat0.Record(1000);  // before the span
  const Snapshot before = Capture(registry);

  bytes0.Add(7);
  bytes1.Add(5);
  for (int i = 0; i < 10; ++i) lat1.Record(100);
  for (int i = 0; i < 10; ++i) lat0.Record(100000);
  tgpp::obs::Counter late;  // registered inside the span
  auto r4 = registry.Register("fabric.drops", 2, &late);
  ASSERT_TRUE(r4.ok());
  late.Add(3);
  const Snapshot after = Capture(registry);

  const Delta delta(before, after);
  EXPECT_EQ(delta.Count("disk.read_bytes"), 12u);  // summed over machines
  EXPECT_EQ(delta.Count("fabric.drops"), 3u);
  EXPECT_EQ(delta.Count("absent"), 0u);
  const Buckets& lat = delta.Histogram("disk.read_latency_ns");
  EXPECT_EQ(lat.total(), 20u);  // the 50 earlier samples are excluded
  // Half the span's samples sit in [64,127], half in [65536,131071].
  EXPECT_LE(lat.Quantile(0.25), 127);
  EXPECT_GE(lat.Quantile(0.99), 65536);
  EXPECT_EQ(delta.Quantile("disk.read_latency_ns", 0.99, 1000),
            lat.Quantile(0.99) / 1000);
  EXPECT_EQ(delta.Histogram("absent").total(), 0u);
}

TEST(Registry, ResetInsideSpanReadsAsAfterValue) {
  Snapshot before, after;
  before.counters["c"] = 100;
  after.counters["c"] = 4;  // the owner reset it mid-span
  EXPECT_EQ(Delta(before, after).Count("c"), 4u);
}

TEST(Registry, BucketsOfMatchesLiveQuantiles) {
  tgpp::obs::LatencyHistogram h;
  for (uint64_t v = 1; v < 5000; v += 7) h.Record(v);
  const Buckets b = BucketsOf(h);
  EXPECT_EQ(b.total(), h.count());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(b.Quantile(q), static_cast<double>(h.Quantile(q))) << q;
  }
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  const std::vector<Span> spans = {
      {"query", 1, 0, 100},
      {"superstep", 1, 10, 30},
      {"superstep", 1, 40, 60},
      {"scatter", 1, 45, 50},  // grandchild: only charged to its parent
      // Another thread: overlaps in time but is nobody's child.
      {"gather", 2, 0, 80},
  };
  const auto self = SelfTimeNanos(spans);
  EXPECT_EQ(self.at("query"), 60);      // 100 - 20 - 20
  EXPECT_EQ(self.at("superstep"), 35);  // 20 + (20 - 5)
  EXPECT_EQ(self.at("scatter"), 5);
  EXPECT_EQ(self.at("gather"), 80);
}

TEST(Spans, ChildOutlivingParentIsClipped) {
  const auto self = SelfTimeNanos({{"a", 0, 0, 10}, {"b", 0, 5, 20}});
  EXPECT_EQ(self.at("a"), 5);
  EXPECT_EQ(self.at("b"), 15);
}

TEST(Spans, SiblingsAfterAParentEndsAreNotItsChildren) {
  const auto self = SelfTimeNanos(
      {{"a", 0, 0, 10}, {"b", 0, 10, 15}, {"c", 0, 20, 30}});
  EXPECT_EQ(self.at("a"), 10);
  EXPECT_EQ(self.at("b"), 5);
  EXPECT_EQ(self.at("c"), 10);
}

TEST(Spans, SpansOfDropsInstants) {
  tgpp::trace::TraceEvent span;
  span.name = "scatter";
  span.ts_nanos = 5;
  span.dur_nanos = 10;
  span.tid = 3;
  tgpp::trace::TraceEvent instant;
  instant.name = "fabric.send";
  const auto spans = SpansOf({span, instant});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "scatter");
  EXPECT_EQ(spans[0].end_ns, 15);
  EXPECT_EQ(spans[0].thread, 3);
}

}  // namespace
}  // namespace perfbench
