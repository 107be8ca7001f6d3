// Unit tests of the benchmark's own statistics, span accounting and
// failure counters.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Stats, P99OfHundredAndOneSamples) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99.0);
}

TEST(Stats, GeomeanAndMean) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-12);
  EXPECT_TRUE(std::isnan(geomean({1.0, 0.0})));
  EXPECT_TRUE(std::isnan(geomean({})));
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(Stats, KindSamplesGeomeanOfPerKindPercentiles) {
  KindSamples s;
  for (double v : {1.0, 2.0, 3.0}) s.add("a", v);
  for (double v : {8.0, 8.0, 8.0, 8.0, 8.0}) s.add("b", v);
  EXPECT_EQ(s.seen("a"), 3u);
  EXPECT_EQ(s.seen("b"), 5u);
  EXPECT_DOUBLE_EQ(s.geomean_percentile(50), 4.0);  // sqrt(2 * 8)
  EXPECT_EQ(s.values("a"), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_THROW((void)s.values("c"), std::out_of_range);
}

TEST(Stats, ReservoirKeepsCapSamplesSpreadOverTheStream) {
  KindSamples s(1000);
  for (int i = 0; i < 100000; ++i) s.add("n64", i);
  const std::vector<double>& kept = s.values("n64");
  EXPECT_EQ(kept.size(), 1000u);
  EXPECT_EQ(s.seen("n64"), 100000u);
  // A uniform sample of 0..99999: its median is near 50000.
  EXPECT_NEAR(median(kept), 50000.0, 5000.0);
  EXPECT_GT(percentile(kept, 99), 95000.0);
}

TEST(Stats, MedianOverWindows) {
  std::vector<Window> ws(3);
  ws[0].ops = 10;
  ws[0].busy_s = 1;
  ws[1].ops = 30;
  ws[1].busy_s = 1;
  ws[2].ops = 1000;  // one disturbed window does not move the median
  ws[2].busy_s = 1;
  EXPECT_DOUBLE_EQ(
      median_over(ws, [](const Window& w) { return w.ops / w.busy_s; }), 30.0);
}

TEST(Failures, LedgerCountsAttemptsFailuresAndCauses) {
  FailureLedger l;
  l.check(true, "wrong-output");
  l.check(false, "wrong-output");
  l.attempt(3);
  l.fail("ticket-failed");
  EXPECT_EQ(l.attempted(), 5u);
  EXPECT_EQ(l.failed(), 2u);
  EXPECT_EQ(l.causes().at("wrong-output"), 1u);
  EXPECT_EQ(l.causes().at("ticket-failed"), 1u);
}

void busy_wait(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(Trace, SelfTimeExcludesChildren) {
  Tracer t(true);
  {
    auto outer = t.span("core.plan_dft");
    busy_wait(std::chrono::microseconds(2000));
    {
      auto child = t.span("rewrite.expand_dfts");
      busy_wait(std::chrono::microseconds(3000));
      auto grandchild = t.span("search.choose");
      busy_wait(std::chrono::microseconds(1000));
    }
    auto child2 = t.span("backend.lower_fused");
    busy_wait(std::chrono::microseconds(1000));
  }
  ASSERT_EQ(t.spans().size(), 4u);
  // Self times partition the root span exactly.
  const double total = t.total_ms("core.plan_dft");
  const double selves = t.self_ms("core.plan_dft") +
                        t.self_ms("rewrite.expand_dfts") +
                        t.self_ms("search.choose") +
                        t.self_ms("backend.lower_fused");
  EXPECT_NEAR(total, selves, 1e-9);
  // A span's self time is its duration minus its children's durations.
  EXPECT_NEAR(t.self_ms("rewrite.expand_dfts"),
              t.total_ms("rewrite.expand_dfts") - t.total_ms("search.choose"),
              1e-9);
  EXPECT_NEAR(t.self_ms("core.plan_dft"),
              total - t.total_ms("rewrite.expand_dfts") -
                  t.total_ms("backend.lower_fused"),
              1e-9);
  EXPECT_DOUBLE_EQ(t.self_ms("search.choose"), t.total_ms("search.choose"));
  EXPECT_GE(t.self_ms("rewrite.expand_dfts"), 3.0);
  // Parent links: the grandchild points at the child, roots at -1.
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 1);
  EXPECT_EQ(t.spans()[3].parent, 0);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer t(false);
  {
    auto s = t.span("core.execute");
  }
  EXPECT_TRUE(t.spans().empty());
  EXPECT_TRUE(t.totals().empty());
}

TEST(Trace, CapKeepsTotalsExact) {
  Tracer t(true, 2);
  t.set_request(7);
  for (int i = 0; i < 5; ++i) {
    auto s = t.span("core.execute");
  }
  EXPECT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.dropped(), 3u);
  EXPECT_EQ(t.totals().at("core.execute").count, 5u);
  EXPECT_EQ(t.spans()[1].request, 7);
}

}  // namespace
}  // namespace perfbench
