// Metrics layer (obs/): instrument semantics, registry registration rules,
// concurrent updates, Prometheus/JSONL exporters, and agreement with both
// the legacy ClusterSnapshot view and the fault injector's own counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "algos/pagerank.h"
#include "common/fault_injector.h"
#include "core/system.h"
#include "graph/rmat.h"
#include "net/fabric.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

// --- instruments -----------------------------------------------------------

TEST(Instruments, CounterGaugeBasics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge g;
  g.Set(7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(Instruments, LatencyHistogramQuantilesMatchSnapshot) {
  obs::LatencyHistogram h;
  for (int i = 0; i < 900; ++i) h.Record(100);     // bucket [64, 128)
  for (int i = 0; i < 100; ++i) h.Record(100000);  // bucket [2^16, 2^17)
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 900u * 100 + 100u * 100000);

  // p50 falls in the small mode's bucket, p99 in the large mode's.
  EXPECT_GE(h.Quantile(0.5), 64u);
  EXPECT_LT(h.Quantile(0.5), 128u);
  EXPECT_GE(h.Quantile(0.99), 1u << 16);
  EXPECT_LT(h.Quantile(0.99), 1u << 17);

  // The Histogram snapshot replays the same buckets, so its quantile
  // estimates agree with the lock-free histogram's (modulo the snapshot's
  // clamp to its own observed extrema, which are bucket lower bounds).
  Histogram snap = h.SnapshotHistogram();
  EXPECT_EQ(snap.count(), h.count());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(snap.Quantile(q),
              std::clamp(h.Quantile(q), snap.min(), snap.max()))
        << "q=" << q;
  }

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
}

TEST(Instruments, ConcurrentUpdatesFromManyThreadsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIters = 50000;
  obs::Counter counter;
  obs::Gauge gauge;
  obs::LatencyHistogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        counter.Add(2);
        gauge.Add(1);
        hist.Record(static_cast<uint64_t>(i) & 0xff);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), 2ull * kThreads * kIters);
  EXPECT_EQ(gauge.value(), int64_t{kThreads} * kIters);
  EXPECT_EQ(hist.count(), uint64_t{kThreads} * kIters);
  // Every recorded value landed in exactly one bucket.
  EXPECT_EQ(hist.SnapshotHistogram().count(), uint64_t{kThreads} * kIters);
}

// --- registry --------------------------------------------------------------

TEST(Registry, RegisterVisitAndOrdering) {
  obs::Registry registry;
  obs::Counter c0, c1;
  obs::Gauge g;
  obs::LatencyHistogram h;
  c0.Add(10);
  c1.Add(20);
  g.Set(-4);

  auto r1 = registry.Register("b.counter", 1, &c1);
  auto r2 = registry.Register("b.counter", 0, &c0);
  auto r3 = registry.Register("a.gauge", -1, &g);
  auto r4 = registry.Register("c.hist", 2, &h);
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok() && r4.ok());
  EXPECT_EQ(registry.size(), 4u);

  std::vector<std::pair<std::string, int>> seen;
  registry.Visit([&](const obs::InstrumentInfo& info) {
    seen.emplace_back(info.name, info.machine);
    if (info.name == "b.counter" && info.machine == 0) {
      ASSERT_EQ(info.kind, obs::Kind::kCounter);
      EXPECT_EQ(info.counter->value(), 10u);
    }
    if (info.name == "a.gauge") {
      ASSERT_EQ(info.kind, obs::Kind::kGauge);
      EXPECT_EQ(info.gauge->value(), -4);
    }
  });
  const std::vector<std::pair<std::string, int>> expected = {
      {"a.gauge", -1}, {"b.counter", 0}, {"b.counter", 1}, {"c.hist", 2}};
  EXPECT_EQ(seen, expected);
}

TEST(Registry, DuplicateNameMachineIsRejected) {
  obs::Registry registry;
  obs::Counter a, b;
  auto first = registry.Register("dup.name", 3, &a);
  ASSERT_TRUE(first.ok());

  auto second = registry.Register("dup.name", 3, &b);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);

  // Same name on a different machine is a different series.
  auto other_machine = registry.Register("dup.name", 4, &b);
  EXPECT_TRUE(other_machine.ok());

  // Destroying the first registration frees the slot.
  *first = obs::Registration();
  auto again = registry.Register("dup.name", 3, &b);
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Registry, RegistrationUnregistersOnDestruction) {
  obs::Registry registry;
  obs::Counter c;
  {
    auto reg = registry.Register("scoped.counter", 0, &c);
    ASSERT_TRUE(reg.ok());
    EXPECT_EQ(registry.size(), 1u);

    // Moving keeps exactly one live handle.
    obs::Registration moved = std::move(*reg);
    EXPECT_TRUE(moved.valid());
    EXPECT_EQ(registry.size(), 1u);
  }
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Registry, ResetAllZeroesEveryInstrument) {
  obs::Registry registry;
  obs::Counter c;
  obs::Gauge g;
  obs::LatencyHistogram h;
  c.Add(5);
  g.Set(6);
  h.Record(7);
  auto r1 = registry.Register("x.c", 0, &c);
  auto r2 = registry.Register("x.g", 0, &g);
  auto r3 = registry.Register("x.h", 0, &h);
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  registry.ResetAll();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

// --- exporters -------------------------------------------------------------

TEST(Export, PrometheusNameMangling) {
  EXPECT_EQ(obs::PrometheusName("disk.read_bytes"), "tgpp_disk_read_bytes");
  EXPECT_EQ(obs::PrometheusName("a-b.c/d"), "tgpp_a_b_c_d");
}

TEST(Export, PrometheusGoldenOutput) {
  obs::Registry registry;
  obs::Counter reads0, reads1;
  obs::Gauge resident;
  obs::LatencyHistogram latency;
  reads0.Add(123);
  reads1.Add(456);
  resident.Set(-5);
  for (int i = 0; i < 4; ++i) latency.Record(1);  // bucket [1, 2)

  auto r1 = registry.Register("disk.read_bytes", 0, &reads0);
  auto r2 = registry.Register("disk.read_bytes", 1, &reads1);
  auto r3 = registry.Register("pool.resident", -1, &resident);
  auto r4 = registry.Register("op.latency_ns", -1, &latency);
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok() && r4.ok());

  const std::string expected =
      "# TYPE tgpp_disk_read_bytes counter\n"
      "tgpp_disk_read_bytes{machine=\"0\"} 123\n"
      "tgpp_disk_read_bytes{machine=\"1\"} 456\n"
      "# TYPE tgpp_op_latency_ns summary\n"
      "tgpp_op_latency_ns{quantile=\"0.5\"} 1\n"
      "tgpp_op_latency_ns{quantile=\"0.95\"} 1\n"
      "tgpp_op_latency_ns{quantile=\"0.99\"} 1\n"
      "tgpp_op_latency_ns_sum 4\n"
      "tgpp_op_latency_ns_count 4\n"
      "# TYPE tgpp_pool_resident gauge\n"
      "tgpp_pool_resident -5\n";
  EXPECT_EQ(obs::RenderPrometheus(registry), expected);
}

TEST(Export, WritePrometheusFileIsAtomic) {
  obs::Registry registry;
  obs::Counter c;
  c.Add(9);
  auto reg = registry.Register("file.counter", 0, &c);
  ASSERT_TRUE(reg.ok());

  const std::string path = ScratchPath("metrics.prom");
  std::filesystem::remove(path);
  ASSERT_TRUE(obs::WritePrometheusFile(registry, path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n),
            "# TYPE tgpp_file_counter counter\n"
            "tgpp_file_counter{machine=\"0\"} 9\n");
  std::filesystem::remove(path);
}

TEST(Export, SuperstepRowJsonAndProgressLine) {
  obs::SuperstepRow row;
  row.superstep = 2;
  row.active_vertices = 100;
  row.updates_generated = 400;
  row.updates_sent = 300;
  row.updates_spilled = 5;
  row.disk_bytes = 4096;
  row.net_bytes = 2048;
  row.buffer_hit_rate = 0.5;
  row.superstep_seconds = 0.25;
  row.elapsed_seconds = 1.5;

  const std::string json = row.ToJson();
  EXPECT_NE(json.find("\"type\":\"superstep\""), std::string::npos);
  EXPECT_NE(json.find("\"superstep\":2"), std::string::npos);
  EXPECT_NE(json.find("\"active_vertices\":100"), std::string::npos);
  EXPECT_NE(json.find("\"updates_sent\":300"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  const std::string line = row.ToProgressLine();
  EXPECT_NE(line.find("superstep   2"), std::string::npos);
  EXPECT_NE(line.find("hit  50.0%"), std::string::npos);
}

// Validates Prometheus text exposition line shape: every non-comment line
// must parse as `name{labels} value`.
void ExpectValidPrometheus(const std::string& text) {
  const std::regex type_re(
      R"(# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|summary))");
  const std::regex sample_re(
      R"([a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
  size_t start = 0;
  int samples = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.rfind("# TYPE ", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_re)) << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
      ++samples;
    }
  }
  EXPECT_GT(samples, 0);
}

// --- end to end ------------------------------------------------------------

ClusterConfig SmallCluster(const std::string& name) {
  ClusterConfig config;
  config.num_machines = 2;
  config.memory_budget_bytes = 32ull << 20;
  config.root_dir = ScratchPath(name);
  std::filesystem::remove_all(config.root_dir);
  return config;
}

TEST(EndToEnd, RegistryAgreesWithClusterSnapshotExactly) {
  fault::Disarm();
  const EdgeList graph = GenerateRmatX(12, 31);
  TurboGraphSystem system(SmallCluster("snapshot"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  system.cluster()->ResetCountersAndCaches();

  auto app = MakePageRankApp(system.partition(), /*iterations=*/3);
  auto stats = system.RunQuery(app);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  uint64_t disk_bytes = 0;
  uint64_t net_bytes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  obs::Registry::Global().Visit([&](const obs::InstrumentInfo& info) {
    if (info.name == "disk.read_bytes" || info.name == "disk.write_bytes") {
      disk_bytes += info.counter->value();
    } else if (info.name == "fabric.bytes_sent") {
      net_bytes += info.counter->value();
    } else if (info.name == "bufferpool.hits") {
      pool_hits += info.counter->value();
    } else if (info.name == "bufferpool.misses") {
      pool_misses += info.counter->value();
    }
  });

  const ClusterSnapshot snap = system.cluster()->Snapshot();
  EXPECT_GT(snap.disk_bytes, 0u);
  EXPECT_GT(snap.net_bytes, 0u);
  EXPECT_EQ(disk_bytes, snap.disk_bytes);
  EXPECT_EQ(net_bytes, snap.net_bytes);
  ASSERT_GT(pool_hits + pool_misses, 0u);
  EXPECT_DOUBLE_EQ(system.cluster()->BufferPoolHitRate(),
                   static_cast<double>(pool_hits) /
                       static_cast<double>(pool_hits + pool_misses));

  // The live registry renders as valid Prometheus exposition.
  ExpectValidPrometheus(obs::RenderPrometheus(obs::Registry::Global()));
}

TEST(EndToEnd, SuperstepObserverEmitsOneRowPerSuperstep) {
  fault::Disarm();
  const EdgeList graph = GenerateRmatX(12, 32);
  TurboGraphSystem system(SmallCluster("observer"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  system.cluster()->ResetCountersAndCaches();

  std::vector<obs::SuperstepRow> rows;
  EngineOptions options;
  options.superstep_observer = [&rows](const obs::SuperstepRow& row) {
    rows.push_back(row);
  };
  auto app = MakePageRankApp(system.partition(), /*iterations=*/4);
  auto stats = system.RunQuery(app, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  ASSERT_EQ(static_cast<int>(rows.size()), stats->supersteps);
  uint64_t generated = 0;
  double prev_elapsed = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].superstep, static_cast<int>(i));
    EXPECT_GE(rows[i].elapsed_seconds, prev_elapsed);
    prev_elapsed = rows[i].elapsed_seconds;
    generated += rows[i].updates_generated;
  }

  // The per-superstep deltas add up to the engine's cumulative counters
  // (counters were zeroed right before the run).
  uint64_t total = 0;
  for (int m = 0; m < system.cluster()->num_machines(); ++m) {
    total += system.cluster()->machine(m)->metrics()->updates_generated
                 .value();
  }
  EXPECT_EQ(generated, total);
  EXPECT_GT(generated, 0u);
}

// The engine adds its update counters once per sub-chunk, task or
// received message instead of once per update; at the barrier they must
// still be exact, with local gather on and off.
TEST(EndToEnd, UpdateCountersAreExactAtTheBarrier) {
  fault::Disarm();
  const EdgeList graph = GenerateRmatX(12, 33);
  TurboGraphSystem system(SmallCluster("exact"));
  ASSERT_TRUE(system.LoadGraph(graph, PartitionScheme::kBbp, /*q=*/2).ok());
  const uint64_t edges = system.partition()->num_edges;
  ASSERT_GT(edges, 0u);

  for (const bool local_gather : {true, false}) {
    SCOPED_TRACE(local_gather ? "local gather on" : "local gather off");
    system.cluster()->ResetCountersAndCaches();
    std::vector<obs::SuperstepRow> rows;
    EngineOptions options;
    options.in_memory_local_gather = local_gather;
    options.superstep_observer = [&rows](const obs::SuperstepRow& row) {
      rows.push_back(row);
    };
    auto app = MakePageRankApp(system.partition(), /*iterations=*/3);
    auto stats = system.RunQuery(app, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->q_used, 2);
    ASSERT_EQ(stats->supersteps, 3);

    uint64_t generated = 0;
    uint64_t sent = 0;
    uint64_t gathered = 0;
    uint64_t spilled = 0;
    for (int m = 0; m < system.cluster()->num_machines(); ++m) {
      const MachineMetrics& metrics = *system.cluster()->machine(m)->metrics();
      generated += metrics.updates_generated.value();
      sent += metrics.updates_sent.value();
      gathered += metrics.updates_local_gathered.value();
      spilled += metrics.updates_spilled.value();
    }
    // PageRank updates every out-edge of every vertex each superstep.
    EXPECT_EQ(generated, edges * static_cast<uint64_t>(stats->supersteps));
    // Every update sent is received once: gathered in memory or spilled.
    EXPECT_EQ(gathered + spilled, sent);
    EXPECT_GT(spilled, 0u);  // q = 2: the non-resident chunk spills
    if (!local_gather) {
      EXPECT_EQ(sent, generated);
    }

    ASSERT_EQ(static_cast<int>(rows.size()), stats->supersteps);
    uint64_t row_generated = 0;
    uint64_t row_sent = 0;
    uint64_t row_spilled = 0;
    for (const obs::SuperstepRow& row : rows) {
      row_generated += row.updates_generated;
      row_sent += row.updates_sent;
      row_spilled += row.updates_spilled;
    }
    EXPECT_EQ(row_generated, generated);
    EXPECT_EQ(row_sent, sent);
    EXPECT_EQ(row_spilled, spilled);
  }
}

// --- chaos integration -----------------------------------------------------

class MetricsChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Disarm(); }
};

TEST_F(MetricsChaosTest, DiskCountersMatchInjector) {
  fault::Disarm();
  ASSERT_TRUE(fault::Configure("disk.read:io_error@p=0.05", 5).ok());

  const EdgeList graph = GenerateRmatX(12, 33);
  TurboGraphSystem system(SmallCluster("disk_chaos"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  auto app = MakePageRankApp(system.partition(), /*iterations=*/3);
  auto stats = system.RunQuery(app);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Every firing of the disk.read rule was counted by exactly one
  // device's injected_faults instrument, and surfaced as a retry.
  uint64_t injected = 0;
  uint64_t retries = 0;
  uint64_t accessor_retries = 0;
  obs::Registry::Global().Visit([&](const obs::InstrumentInfo& info) {
    if (info.name == "disk.injected_faults") {
      injected += info.counter->value();
    } else if (info.name == "disk.retries") {
      retries += info.counter->value();
    }
  });
  for (int m = 0; m < system.cluster()->num_machines(); ++m) {
    accessor_retries += system.cluster()->machine(m)->disk()->io_retries();
  }
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(injected, fault::InjectedCount());
  EXPECT_GT(retries, 0u);
  EXPECT_EQ(retries, accessor_retries);
}

TEST_F(MetricsChaosTest, FabricDropCounterMatchesInjector) {
  fault::Disarm();
  ASSERT_TRUE(fault::Configure("fabric.send:drop@p=0.5", 6).ok());

  Fabric fabric(2, kInfinibandQdr);
  std::vector<obs::Registration> regs;
  fabric.RegisterMetrics(&obs::Registry::Global(), &regs);

  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    fabric.Send(0, 1, /*tag=*/0, std::vector<uint8_t>(8, 0x5a));
  }
  int received = 0;
  Message msg;
  while (fabric.TryRecv(1, 0, &msg)) ++received;

  EXPECT_GT(fabric.messages_dropped(), 0u);
  EXPECT_EQ(fabric.messages_dropped(), fault::InjectedCount());
  EXPECT_EQ(received + static_cast<int>(fabric.messages_dropped()),
            kMessages);

  // The registry sees the same drop count as the object accessor.
  uint64_t registry_drops = 0;
  obs::Registry::Global().Visit([&](const obs::InstrumentInfo& info) {
    if (info.name == "fabric.drops") registry_drops += info.counter->value();
  });
  EXPECT_EQ(registry_drops, fabric.messages_dropped());
}

}  // namespace
}  // namespace tgpp
