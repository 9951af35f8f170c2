#include "ledger.h"

#include <gtest/gtest.h>

namespace pcxbench {
namespace {

TEST(TailPercentileTest, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(100000), 99.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);  // 10 beyond p99
  EXPECT_EQ(TailPercentile(999), 95.0);   // only 9 beyond p99
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(199), 90.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(40), 75.0);
  EXPECT_EQ(TailPercentile(39), 50.0);
  EXPECT_EQ(TailPercentile(0), 50.0);
}

TEST(TailPercentileTest, CapLimitsTheChoice) {
  EXPECT_EQ(TailPercentile(100000, 90.0), 90.0);
  EXPECT_EQ(TailPercentile(99, 90.0), 75.0);  // 9 beyond p90
  EXPECT_EQ(TailPercentile(100000, 50.0), 50.0);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  std::vector<double> empty;
  EXPECT_EQ(Percentile(empty, 50.0), 0.0);
}

TEST(SummarizeTest, ReportsTheChosenTail) {
  std::vector<double> v;
  for (int i = 1; i <= 500; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 500u);
  EXPECT_EQ(s.p50, 250.0);
  EXPECT_EQ(s.tail_percentile, 95.0);
  EXPECT_EQ(s.tail, 475.0);
  EXPECT_DOUBLE_EQ(s.mean, 250.5);
  const Summary capped = Summarize(v, 90.0);
  EXPECT_EQ(capped.tail_percentile, 90.0);
  EXPECT_EQ(capped.tail, 450.0);
}

constexpr char kBefore[] =
    "# HELP pcx_request_latency_us Request latency\n"
    "# TYPE pcx_request_latency_us histogram\n"
    "pcx_request_latency_us_bucket{verb=\"BOUND\",le=\"1\"} 3\n"
    "pcx_request_latency_us_sum{verb=\"BOUND\"} 100\n"
    "pcx_request_latency_us_count{verb=\"BOUND\"} 4\n"
    "pcx_request_latency_us_sum{verb=\"LOAD\"} 5000\n"
    "pcx_request_latency_us_count{verb=\"LOAD\"} 1\n"
    "pcx_shard_solve_latency_us_sum{shard=\"0\"} 10\n"
    "pcx_shard_solve_latency_us_count{shard=\"0\"} 1\n"
    "pcx_shard_solve_latency_us_sum{shard=\"union\"} 20\n"
    "pcx_shard_solve_latency_us_count{shard=\"union\"} 1\n"
    "pcx_overload_rejections_total 2\n";
constexpr char kAfter[] =
    "pcx_request_latency_us_bucket{verb=\"BOUND\",le=\"1\"} 9\n"
    "pcx_request_latency_us_sum{verb=\"BOUND\"} 400\n"
    "pcx_request_latency_us_count{verb=\"BOUND\"} 10\n"
    "pcx_request_latency_us_sum{verb=\"LOAD\"} 9000\n"
    "pcx_request_latency_us_count{verb=\"LOAD\"} 2\n"
    "pcx_shard_solve_latency_us_sum{shard=\"0\"} 40\n"
    "pcx_shard_solve_latency_us_count{shard=\"0\"} 3\n"
    "pcx_shard_solve_latency_us_sum{shard=\"union\"} 80\n"
    "pcx_shard_solve_latency_us_count{shard=\"union\"} 3\n"
    "pcx_overload_rejections_total 7\n";

TEST(ExpositionTest, SkipsCommentsAndBuckets) {
  const Scrape s = ParseExposition(kBefore);
  EXPECT_EQ(s.count("pcx_request_latency_us_sum{verb=\"BOUND\"}"), 1u);
  EXPECT_EQ(s.at("pcx_overload_rejections_total"), 2.0);
  for (const auto& [key, value] : s) {
    EXPECT_EQ(key.find("_bucket"), std::string::npos) << key;
    EXPECT_NE(key[0], '#');
  }
}

TEST(ExpositionTest, HistogramDeltaFiltersByLabel) {
  const Scrape before = ParseExposition(kBefore);
  const Scrape after = ParseExposition(kAfter);
  const HistogramDelta bound = DeltaOfHistogram(
      before, after, "pcx_request_latency_us", "verb=\"BOUND\"");
  EXPECT_EQ(bound.sum, 300.0);
  EXPECT_EQ(bound.count, 6.0);
  EXPECT_EQ(bound.mean(), 50.0);
  // No filter: every series of the family.
  const HistogramDelta shards =
      DeltaOfHistogram(before, after, "pcx_shard_solve_latency_us");
  EXPECT_EQ(shards.sum, 90.0);
  EXPECT_EQ(shards.count, 4.0);
  EXPECT_EQ(DeltaOfCounter(before, after, "pcx_overload_rejections_total"),
            5.0);
}

TEST(ExpositionTest, FamilyNameMustMatchExactly) {
  const Scrape before;
  const Scrape after = ParseExposition(
      "pcx_a_us_sum 10\npcx_a_us_count 2\n"
      "pcx_a_us_extra_sum 99\npcx_a_us_extra_count 1\n");
  const HistogramDelta d = DeltaOfHistogram(before, after, "pcx_a_us");
  EXPECT_EQ(d.sum, 10.0);
  EXPECT_EQ(d.count, 2.0);
  EXPECT_EQ(DeltaOfHistogram(before, after, "pcx_missing").mean(), 0.0);
}

TEST(StatsLineTest, ParsesNumericFields) {
  const auto s = ParseStatsLine(
      "STATS epoch=3 shards=8 queries=120 multi_shard=30 imbalance=1.004 "
      "route_mode=index");
  EXPECT_EQ(s.at("epoch"), 3.0);
  EXPECT_EQ(s.at("queries"), 120.0);
  EXPECT_EQ(s.at("imbalance"), 1.004);
  EXPECT_EQ(s.count("route_mode"), 0u);
  EXPECT_EQ(s.count("STATS"), 0u);
}

TEST(AttributionTest, SelfTimesBySubtraction) {
  const LatencyAttribution a = AttributeLatency(1900.0, 60.0, 45.0);
  EXPECT_EQ(a.client_us, 1900.0);
  EXPECT_EQ(a.event_loop_self_us, 1840.0);
  EXPECT_EQ(a.server_self_us, 15.0);
  EXPECT_EQ(a.sharded_us, 45.0);
}

// The server saw 500 BOUNDs at a 1500us mean; the client timed the same
// 500 at a 1600us mean.
constexpr HistogramDelta kServer{750000.0, 500.0};

TEST(AccountingTest, HoldsWhenTheServerViewFitsInsideTheClients) {
  EXPECT_EQ(CheckAccounting(AttributeLatency(1900.0, 60.0, 45.0), 500,
                            1600.0, kServer, 0.05),
            "");
  // A part slightly negative, within the tolerance, still holds.
  EXPECT_EQ(CheckAccounting(AttributeLatency(100.0, 50.0, 53.0), 500, 1600.0,
                            kServer, 0.05),
            "");
}

TEST(AccountingTest, ChildLongerThanParentFails) {
  // The in-process solve took longer than the whole client round trip:
  // the parts no longer describe one request.
  EXPECT_NE(CheckAccounting(AttributeLatency(100.0, 50.0, 80.0), 500, 1600.0,
                            kServer, 0.05),
            "");
  EXPECT_NE(CheckAccounting(AttributeLatency(100.0, 130.0, 20.0), 500,
                            1600.0, kServer, 0.05),
            "");
  EXPECT_NE(CheckAccounting(AttributeLatency(0.0, 0.0, 0.0), 500, 1600.0,
                            kServer, 0.05),
            "");
}

TEST(AccountingTest, ServerCountMustMatchTheClients) {
  EXPECT_NE(CheckAccounting(AttributeLatency(1900.0, 60.0, 45.0), 499,
                            1600.0, kServer, 0.05),
            "");
}

TEST(AccountingTest, ServerMeanMustNotExceedTheClients) {
  // 1500us on the server against 1400us seen by the client is more than
  // 5% over: the two clocks are not timing the same requests.
  EXPECT_NE(CheckAccounting(AttributeLatency(1900.0, 60.0, 45.0), 500,
                            1400.0, kServer, 0.05),
            "");
  EXPECT_EQ(CheckAccounting(AttributeLatency(1900.0, 60.0, 45.0), 500,
                            1450.0, kServer, 0.05),
            "");
}

TEST(ResultJsonTest, ExactKeysAndFullDigits) {
  const std::string json =
      ResultJson(true, 1000, 0, {{"latency_ms", 1.2034, "ms"},
                                 {"setup_s", 0.1 + 0.2, "s"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.30000000000000004, "
            "\"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace pcxbench
