// Observability layer: registry instruments, label canonicalization,
// collectors, span tracer, and byte-determinism of both exporters.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace sdt;
using namespace sdt::obs;

TEST(Counter, IncAndSyncToAreMonotonic) {
  Registry reg;
  Counter& c = reg.counter("sdt_test_total");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // syncTo adopts a larger snapshot...
  c.syncTo(100);
  EXPECT_EQ(c.value(), 100u);
  // ...but never regresses below what it already saw.
  c.syncTo(7);
  EXPECT_EQ(c.value(), 100u);
}

TEST(Gauge, SetAndAdd) {
  Registry reg;
  Gauge& g = reg.gauge("sdt_test_gauge");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  // A gauge moves both ways: each set overwrites the last reading.
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(RingSeries, WrapsKeepingNewestSamples) {
  Registry reg;
  RingSeries& s = reg.series("sdt_test_series", 4);
  EXPECT_EQ(s.capacity(), 4u);
  for (int i = 0; i < 7; ++i) {
    s.record(static_cast<TimeNs>(i * 1000), static_cast<double>(i));
  }
  EXPECT_EQ(s.recorded(), 7u);
  EXPECT_EQ(s.dropped(), 3u);
  const auto samples = s.samples();
  ASSERT_EQ(samples.size(), 4u);
  // Oldest -> newest, the last `capacity` records survive.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].first, static_cast<TimeNs>((i + 3) * 1000));
    EXPECT_DOUBLE_EQ(samples[i].second, static_cast<double>(i + 3));
  }
}

TEST(Registry, LabelOrderDoesNotSplitCells) {
  Registry reg;
  Counter& a = reg.counter("sdt_labeled_total", {{"sw", "0"}, {"port", "1"}});
  Counter& b = reg.counter("sdt_labeled_total", {{"port", "1"}, {"sw", "0"}});
  EXPECT_EQ(&a, &b);  // canonicalized to the same cell
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(labelKey({{"sw", "0"}, {"port", "1"}}), "port=1,sw=0");
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.counter("sdt_shape_total");
  EXPECT_THROW(reg.gauge("sdt_shape_total"), std::logic_error);
  EXPECT_THROW(reg.series("sdt_shape_total", 8), std::logic_error);
}

TEST(Registry, CollectorsRunAtCollectTime) {
  Registry reg;
  std::uint64_t source = 0;
  reg.addCollector([&reg, &source]() {
    reg.counter("sdt_pulled_total").syncTo(source);
  });
  source = 17;
  reg.collect();
  EXPECT_EQ(reg.counter("sdt_pulled_total").value(), 17u);
  source = 25;
  reg.collect();
  EXPECT_EQ(reg.counter("sdt_pulled_total").value(), 25u);
}

TEST(Registry, CellCapReroutesUnboundedLabelSetsToOverflow) {
  // A per-flow label leak (e.g. flow id as a label value) must not grow the
  // registry without bound: past the per-family cap, *new* label sets land
  // in one shared {overflow="true"} cell; existing cells keep their identity.
  Registry reg;
  reg.setCellLimitPerFamily(8);
  EXPECT_EQ(reg.cellLimitPerFamily(), 8u);
  std::vector<Counter*> early;
  for (int i = 0; i < 7; ++i) {
    early.push_back(&reg.counter("sdt_leak_total", {{"flow", std::to_string(i)}}));
  }
  for (int i = 0; i < 100000; ++i) {
    reg.counter("sdt_leak_total", {{"flow", std::to_string(i)}}).inc();
  }
  // 8 regular cells (flow=0..7) plus the one shared overflow cell.
  EXPECT_LE(reg.cellCount(), 9u);
  EXPECT_EQ(reg.overflowCells(), 100000u - 8u);
  // Pre-cap cells survive, stay addressable, and kept their own counts.
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(&reg.counter("sdt_leak_total", {{"flow", std::to_string(i)}}),
              early[static_cast<std::size_t>(i)]);
    EXPECT_EQ(early[static_cast<std::size_t>(i)]->value(), 1u);
  }
  // Everything rerouted accumulated in the single overflow cell.
  EXPECT_EQ(reg.counter("sdt_leak_total", {{"overflow", "true"}}).value(),
            100000u - 8u);
}

TEST(Registry, FootprintStaysBoundedUnderLabelChurn) {
  // One million distinct label sets against a small cap: memory must track
  // the cap, not the churn. approxBytes() is an estimate, so the bound is
  // generous — without the cap this registry would be hundreds of MB.
  Registry reg;
  reg.setCellLimitPerFamily(64);
  for (int i = 0; i < 1000000; ++i) {
    reg.counter("sdt_churn_total", {{"id", std::to_string(i)}}).inc();
  }
  EXPECT_LE(reg.cellCount(), 65u);  // 64 regular + 1 overflow
  EXPECT_EQ(reg.overflowCells(), 1000000u - 64u);
  EXPECT_LT(reg.approxBytes(), 256u * 1024u);
}

TEST(Registry, ConcurrentIncrementsAreLossless) {
  Registry reg;
  Counter& c = reg.counter("sdt_racy_total");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c]() {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Tracer, SpansNestAndAnnotate) {
  Tracer tracer;
  const SpanId root = tracer.begin("deploy", 100);
  const SpanId child = tracer.begin("deploy.install", 150, root);
  tracer.annotate(child, "rules", "12");
  tracer.end(child, 400);
  tracer.annotate(root, "outcome", "ok");
  tracer.end(root, 500);

  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "deploy");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_TRUE(spans[0].closed);
  EXPECT_EQ(spans[0].duration(), 400);
  EXPECT_EQ(spans[1].name, "deploy.install");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].duration(), 250);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].first, "rules");
  EXPECT_EQ(spans[1].attrs[0].second, "12");
}

TEST(Tracer, DoubleEndAndBadIdsAreHarmless) {
  Tracer tracer;
  const SpanId id = tracer.begin("op", 0);
  tracer.end(id, 10);
  tracer.end(id, 99);  // second close ignored
  tracer.end(12345, 1);  // out of range ignored
  tracer.annotate(9999, "k", "v");  // out of range ignored
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end, 10);
  // An open span reports zero duration until closed.
  Tracer t2;
  const SpanId open = t2.begin("open", 5);
  EXPECT_EQ(t2.spans()[open].duration(), 0);
}

namespace {

/// Populate a registry with a representative mix of instruments. `reversed`
/// flips the creation order — the export must not care.
void populate(Registry& reg, bool reversed) {
  const auto counters = [&reg]() {
    reg.counter("sdt_z_total", {{"sw", "1"}}).inc(5);
    reg.counter("sdt_z_total", {{"sw", "0"}}).inc(3);
  };
  const auto rest = [&reg]() {
    reg.gauge("sdt_a_gauge").set(1.5);
    RingSeries& s = reg.series("sdt_q_series", 4, {{"port", "2"}});
    s.record(1000, 0.5);
    s.record(2000, 1.5);
  };
  if (reversed) {
    rest();
    counters();
  } else {
    counters();
    rest();
  }
}

}  // namespace

TEST(Export, JsonAndPrometheusAreCreationOrderInvariant) {
  Registry a;
  Registry b;
  populate(a, /*reversed=*/false);
  populate(b, /*reversed=*/true);
  EXPECT_EQ(metricsToJson(a).dump(2), metricsToJson(b).dump(2));
  EXPECT_EQ(metricsToPrometheus(a), metricsToPrometheus(b));
}

TEST(Export, JsonShapeCarriesKindAndValues) {
  Registry reg;
  populate(reg, false);
  const json::Value v = metricsToJson(reg);
  const std::string text = v.dump(2);
  EXPECT_NE(text.find("\"sdt_z_total\""), std::string::npos);
  EXPECT_NE(text.find("\"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"gauge\""), std::string::npos);
  EXPECT_NE(text.find("\"series\""), std::string::npos);
}

TEST(Export, TextMatchesRecordedValues) {
  // Both exporters' exact bytes: help lines, label sets passed in
  // non-canonical key order, an unlabelled gauge, and a wrapped ring series
  // (capacity 2, three records) whose Prometheus form adds _dropped_total.
  Registry reg;
  reg.counter("sdt_mods_total", {{"sw", "1"}, {"op", "add"}}, "Flow-table mutations")
      .inc(5);
  reg.counter("sdt_mods_total", {{"sw", "0"}, {"op", "remove"}}).inc(3);
  reg.gauge("sdt_load", {}, "Offered load").set(1.5);
  RingSeries& s =
      reg.series("sdt_queue_bytes", 2, {{"sw", "0"}, {"port", "3"}}, "Queue depth");
  s.record(1000, 0.5);
  s.record(2000, 1.5);
  s.record(3000, 2.5);
  EXPECT_EQ(metricsToPrometheus(reg),
            "# HELP sdt_load Offered load\n"
            "# TYPE sdt_load gauge\n"
            "sdt_load 1.5\n"
            "# HELP sdt_mods_total Flow-table mutations\n"
            "# TYPE sdt_mods_total counter\n"
            "sdt_mods_total{op=\"add\",sw=\"1\"} 5\n"
            "sdt_mods_total{op=\"remove\",sw=\"0\"} 3\n"
            "# HELP sdt_queue_bytes Queue depth\n"
            "# TYPE sdt_queue_bytes gauge\n"
            "sdt_queue_bytes{port=\"3\",sw=\"0\"} 2.5\n"
            "sdt_queue_bytes_dropped_total{port=\"3\",sw=\"0\"} 1\n");
  EXPECT_EQ(metricsToJson(reg).dump(2), R"({
  "sdt_load": {
    "help": "Offered load",
    "kind": "gauge",
    "values": [
      {
        "labels": {},
        "value": 1.5
      }
    ]
  },
  "sdt_mods_total": {
    "help": "Flow-table mutations",
    "kind": "counter",
    "values": [
      {
        "labels": {
          "op": "add",
          "sw": "1"
        },
        "value": 5
      },
      {
        "labels": {
          "op": "remove",
          "sw": "0"
        },
        "value": 3
      }
    ]
  },
  "sdt_queue_bytes": {
    "help": "Queue depth",
    "kind": "series",
    "values": [
      {
        "capacity": 2,
        "dropped": 1,
        "labels": {
          "port": "3",
          "sw": "0"
        },
        "recorded": 3,
        "samples": [
          [
            2000,
            1.5
          ],
          [
            3000,
            2.5
          ]
        ]
      }
    ]
  }
})");
}

TEST(Export, TracerJsonPreservesOrderAndAttrs) {
  Tracer tracer;
  const SpanId root = tracer.begin("reconfigure", 10);
  const SpanId phase = tracer.begin("reconfigure.install", 20, root);
  tracer.annotate(phase, "attempt", "1");
  tracer.annotate(phase, "attempt", "2");  // keys may repeat
  tracer.end(phase, 30);
  tracer.end(root, 40);
  const std::string text = tracerToJson(tracer).dump(2);
  EXPECT_NE(text.find("\"reconfigure\""), std::string::npos);
  EXPECT_NE(text.find("\"reconfigure.install\""), std::string::npos);
  const auto first = text.find("\"attempt\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(text.find("\"attempt\"", first + 1), std::string::npos);
}
