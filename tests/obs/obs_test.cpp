#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "audit/streaming_auditor.h"
#include "obs/export.h"
#include "obs/instrument.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace adlp::obs {
namespace {

// --- Counter ---------------------------------------------------------------

TEST(CounterTest, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentAddsConvergeToExactCount) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// --- Gauge -----------------------------------------------------------------

TEST(GaugeTest, SetAddSubMax) {
  Gauge g;
  g.Set(10);
  g.Add(5);
  g.Sub(3);
  EXPECT_EQ(g.Value(), 12);
  g.SetMax(7);  // below current: no-op
  EXPECT_EQ(g.Value(), 12);
  g.SetMax(99);
  EXPECT_EQ(g.Value(), 99);
  g.Sub(100);
  EXPECT_EQ(g.Value(), -1);  // gauges may go negative transiently
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({10, 100, 1000});
  h.Record(0);     // <= 10
  h.Record(10);    // <= 10 (boundary value lands in its own bucket)
  h.Record(11);    // <= 100
  h.Record(100);   // <= 100
  h.Record(101);   // <= 1000
  h.Record(1000);  // <= 1000

  const Histogram::Snapshot snap = h.Snap();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 2u);
  EXPECT_EQ(snap.counts[3], 0u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, 0u + 10 + 11 + 100 + 101 + 1000);
}

TEST(HistogramTest, OverflowBucketCatchesEverythingAboveLastBound) {
  Histogram h({10, 100});
  h.Record(101);
  h.Record(1u << 30);
  const Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.counts[0], 0u);
  EXPECT_EQ(snap.counts[1], 0u);
  EXPECT_EQ(snap.counts[2], 2u);
  EXPECT_EQ(snap.count, 2u);
}

TEST(HistogramTest, RejectsEmptyAndUnsortedBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({10, 5}), std::invalid_argument);
  EXPECT_THROW(Histogram({10, 10}), std::invalid_argument);
}

TEST(HistogramTest, ConcurrentRecordingConvergesToExactCount) {
  Histogram h({100, 10000});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      // Each thread hits a different bucket mix.
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<std::uint64_t>((i + t) % 3) * 1000);
      }
    });
  }
  for (auto& t : threads) t.join();
  const Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(HistogramTest, DefaultLatencyBucketsAreAscending) {
  const auto& bounds = DefaultLatencyBucketsNs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 100u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, SameNameAndLabelsYieldSameHandle) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("requests_total", {{"code", "200"}});
  Counter& b = reg.GetCounter("requests_total", {{"code", "200"}});
  Counter& other = reg.GetCounter("requests_total", {{"code", "500"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("zeta_total").Add(1);
  reg.GetCounter("alpha_total").Add(2);
  reg.GetGauge("depth").Set(7);
  reg.GetHistogram("lat_ns", {}, {10, 100}).Record(50);

  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha_total");
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_EQ(snap.counters[1].name, "zeta_total");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 7);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].data.count, 1u);
}

TEST(MetricsRegistryTest, ResetZeroesInPlaceKeepingHandles) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("n_total");
  Histogram& h = reg.GetHistogram("lat_ns", {}, {10});
  c.Add(5);
  h.Record(3);
  reg.Reset();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Snap().count, 0u);
  c.Add(1);  // handle still live
  EXPECT_EQ(reg.Snapshot().counters[0].value, 1u);
}

// --- Streaming auditor gauges ----------------------------------------------

TEST(StreamingGaugeTest, OpenPairsAndShardsSumAcrossAuditors) {
  Gauge& open_pairs = metric::StreamingOpenPairs();
  Gauge& open_shards = metric::StreamingOpenShards();
  const std::int64_t pairs_before = open_pairs.Value();
  const std::int64_t shards_before = open_shards.Value();

  const proto::NodeIdentity& pub = test::TestIdentity("gauge-pub");
  const proto::NodeIdentity& sub = test::TestIdentity("gauge-sub");
  crypto::KeyStore keys;
  keys.Register(pub.id, pub.keys.pub);
  keys.Register(sub.id, sub.keys.pub);
  audit::Topology topology;
  topology["a"] = pubsub::Master::TopicInfo{pub.id, {sub.id}};
  topology["b"] = pubsub::Master::TopicInfo{pub.id, {sub.id}};
  // Two auditors, each holding its pairs open (nothing sealed yet).
  std::optional<audit::StreamingAuditor> a(std::in_place, keys, topology);
  std::optional<audit::StreamingAuditor> b(std::in_place, keys, topology);
  const auto feed = [&](audit::StreamingAuditor& auditor,
                        const std::string& topic, std::uint64_t seqs) {
    for (std::uint64_t s = 1; s <= seqs; ++s) {
      const auto pair = test::MakeFaithfulPair(pub, sub, topic, s, {1, 2});
      auditor.OnEntry(pair.publisher_entry);
      auditor.OnEntry(pair.subscriber_entry);
    }
  };
  feed(*a, "a", 3);
  feed(*b, "b", 2);
  const auto open_of = [](const audit::StreamingAuditor& auditor) {
    const audit::StreamingStats stats = auditor.Stats();
    return std::pair<std::int64_t, std::int64_t>(
        static_cast<std::int64_t>(stats.open_pairs),
        static_cast<std::int64_t>(stats.open_shards));
  };
  ASSERT_EQ(open_of(*a).first, 3);
  ASSERT_EQ(open_of(*b).first, 2);
  EXPECT_EQ(open_pairs.Value() - pairs_before,
            open_of(*a).first + open_of(*b).first);
  EXPECT_EQ(open_shards.Value() - shards_before,
            open_of(*a).second + open_of(*b).second);

  // Finalizing one auditor leaves the survivor's count, not zero.
  a->Finalize();
  EXPECT_EQ(open_pairs.Value() - pairs_before, open_of(*b).first);
  EXPECT_EQ(open_shards.Value() - shards_before, open_of(*b).second);

  // Destroying an auditor gives back what it still held open.
  b.reset();
  a.reset();
  EXPECT_EQ(open_pairs.Value(), pairs_before);
  EXPECT_EQ(open_shards.Value(), shards_before);
}

// --- Exporters -------------------------------------------------------------

TEST(PrometheusExportTest, EscapesLabelValues) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(EscapeLabelValue("mix\\\"\n"), "mix\\\\\\\"\\n");
}

TEST(PrometheusExportTest, EscapedValuesSurviveRendering) {
  MetricsRegistry reg;
  reg.GetCounter("odd_total", {{"topic", "a\"b\\c\nd"}}).Add(1);
  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("odd_total{topic=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
  // The rendered line must stay a single line: raw newlines would corrupt
  // the exposition format.
  EXPECT_EQ(text.find("a\"b"), std::string::npos);
}

TEST(PrometheusExportTest, RendersFamiliesAndHistogramSeries) {
  MetricsRegistry reg;
  reg.GetCounter("reqs_total", {}, "Total requests").Add(4);
  Histogram& h = reg.GetHistogram("lat_ns", {{"op", "sign"}}, {10, 100},
                                  "Latency");
  h.Record(5);
  h.Record(50);
  h.Record(5000);

  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# HELP reqs_total Total requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("reqs_total 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ns histogram"), std::string::npos);
  // Cumulative buckets: 1 at le=10, 2 at le=100, 3 at +Inf.
  EXPECT_NE(text.find("lat_ns_bucket{op=\"sign\",le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{op=\"sign\",le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{op=\"sign\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum{op=\"sign\"} 5055"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count{op=\"sign\"} 3"), std::string::npos);
}

TEST(JsonExportTest, RendersAllMetricKindsAndEscapes) {
  MetricsRegistry reg;
  reg.GetCounter("c_total", {{"k", "v\"w"}}).Add(2);
  reg.GetGauge("g").Set(-3);
  reg.GetHistogram("h_ns", {}, {10}).Record(4);

  const std::string json = ToJson(reg.Snapshot());
  EXPECT_NE(json.find("\"name\": \"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": \"v\\\"w\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": -3"), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [1, 0]"), std::string::npos);
}

// --- TraceLog --------------------------------------------------------------

TEST(TraceLogTest, RecordsInOrderAndTruncatesDetail) {
  TraceLog log(8);
  log.Record(TraceKind::kPublish, "topic-a", 1);
  log.Record(TraceKind::kAckReceived,
             "a-very-long-detail-string-that-exceeds-capacity", 2);
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceKind::kPublish);
  EXPECT_EQ(events[0].Detail(), "topic-a");
  EXPECT_EQ(events[0].value, 1u);
  EXPECT_EQ(events[1].Detail().size(), TraceEvent::kDetailCapacity);
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
}

TEST(TraceLogTest, RingOverwritesOldestFirst) {
  TraceLog log(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    log.Record(TraceKind::kFlush, "", i);
  }
  EXPECT_EQ(log.RecordedCount(), 10u);
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].value, 6u + i);  // the last 4, oldest first
  }
}

TEST(TraceLogTest, ConcurrentRecordingKeepsTotalExact) {
  TraceLog log(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Record(TraceKind::kSpool, "x", i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.RecordedCount(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.Snapshot().size(), 64u);
}

}  // namespace
}  // namespace adlp::obs
