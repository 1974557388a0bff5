#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

namespace cfpm::metrics {
namespace {

TEST(Metrics, ConcurrentCounterSumsExactly) {
  reset_for_testing();
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      // Each thread constructs its own handle; interning maps them all to
      // the same slot.
      const Counter c("test.concurrent.add");
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  // Exactness: sharding may relax visibility *during* the run, but after
  // every writer has exited nothing may be lost.
  EXPECT_EQ(snapshot().counter("test.concurrent.add"), kThreads * kPerThread);
}

TEST(Metrics, ConcurrentHistogramCountsExactly) {
  reset_for_testing();
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      const Histogram h("test.concurrent.hist");
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.observe(t + 1);
    });
  }
  for (auto& w : workers) w.join();
  const Snapshot s = snapshot();
  const auto* h = s.histogram("test.concurrent.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kPerThread);
  EXPECT_EQ(h->sum, kPerThread * (1 + 2 + 3 + 4));
}

TEST(Metrics, SnapshotIsDeterministicAndSorted) {
  const Counter b("test.order.b");
  const Counter a("test.order.a");
  a.add(1);
  b.add(2);
  const Snapshot first = snapshot();
  const Snapshot second = snapshot();
  ASSERT_EQ(first.counters.size(), second.counters.size());
  for (std::size_t i = 0; i < first.counters.size(); ++i) {
    EXPECT_EQ(first.counters[i].name, second.counters[i].name);
    EXPECT_EQ(first.counters[i].value, second.counters[i].value);
    if (i > 0) {
      EXPECT_LT(first.counters[i - 1].name, first.counters[i].name);
    }
  }
}

TEST(Metrics, HistogramBucketBoundaries) {
  reset_for_testing();
  const Histogram h("test.buckets");
  h.observe(0);  // bucket 0: the zero bucket
  h.observe(1);  // bucket 1: [1, 1]
  h.observe(2);  // bucket 2: [2, 3]
  h.observe(3);
  h.observe(4);  // bucket 3: [4, 7]
  h.observe(7);
  h.observe(8);  // bucket 4: [8, 15]
  h.observe(std::numeric_limits<std::uint64_t>::max());  // last bucket
  const Snapshot s = snapshot();  // `v` points into it
  const auto* v = s.histogram("test.buckets");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->buckets[0], 1u);
  EXPECT_EQ(v->buckets[1], 1u);
  EXPECT_EQ(v->buckets[2], 2u);
  EXPECT_EQ(v->buckets[3], 2u);
  EXPECT_EQ(v->buckets[4], 1u);
  EXPECT_EQ(v->buckets[kHistogramBuckets - 1], 1u);
  EXPECT_EQ(v->count, 8u);
}

TEST(Metrics, GaugeKeepsLastWrite) {
  reset_for_testing();
  const Gauge g("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  const Snapshot s = snapshot();
  bool found = false;
  for (const auto& gv : s.gauges) {
    if (gv.name == "test.gauge") {
      found = true;
      EXPECT_DOUBLE_EQ(gv.value, -2.25);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Metrics, ResetZeroesButKeepsRegistrations) {
  const Counter c("test.reset");
  c.add(17);
  reset_for_testing();
  const Snapshot s = snapshot();
  // The name is still listed (registrations survive), its value is zero.
  bool found = false;
  for (const auto& cv : s.counters) {
    if (cv.name == "test.reset") {
      found = true;
      EXPECT_EQ(cv.value, 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Metrics, AbsentNamesReadAsEmpty) {
  EXPECT_EQ(snapshot().counter("test.never.registered"), 0u);
  EXPECT_EQ(snapshot().histogram("test.never.registered"), nullptr);
}

TEST(Metrics, WriteJsonEmitsAllSections) {
  const Counter c("test.json.counter");
  c.add(3);
  std::ostringstream os;
  snapshot().write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
}

}  // namespace
}  // namespace cfpm::metrics
