// Chaos tests: the engine under injected faults (docs/FAULTS.md).
//
// The headline guarantee: with superstep-boundary checkpointing and
// deterministic execution, a run that loses a machine mid-query and eats
// random transient disk errors produces *bit-identical* results to a
// fault-free run.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "algos/pagerank.h"
#include "algos/reference.h"
#include "common/fault_injector.h"
#include "core/system.h"
#include "graph/rmat.h"
#include "service/job_manager.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

ClusterConfig ChaosCluster(const std::string& name) {
  ClusterConfig config;
  config.num_machines = 4;
  config.memory_budget_bytes = 32ull << 20;  // roomy: keep q=1
  config.buffer_pool_frames = 4;  // small pool: supersteps re-read pages
  config.root_dir = ScratchPath(name);
  std::filesystem::remove_all(config.root_dir);
  return config;
}

// Runs deterministic PageRank and returns the final attributes.
Result<QueryStats> RunPr(const std::string& name, const EdgeList& graph,
                         int checkpoint_every,
                         std::vector<PageRankAttr>* ranks) {
  TurboGraphSystem system(ChaosCluster(name));
  Status s = system.LoadGraph(graph);
  if (!s.ok()) return s;
  EngineOptions options;
  options.deterministic = true;
  options.checkpoint_every = checkpoint_every;
  options.recv_timeout_ms = 10000;
  auto app = MakePageRankApp(system.partition(), /*iterations=*/6);
  return system.RunQuery(app, ranks, options);
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Disarm(); }
};

TEST_F(ChaosTest, CrashPlusDiskErrorsMatchFaultFreeBitForBit) {
  const EdgeList graph = GenerateRmatX(13, 21);

  fault::Disarm();
  std::vector<PageRankAttr> clean;
  auto clean_stats = RunPr("clean", graph, /*checkpoint_every=*/0, &clean);
  ASSERT_TRUE(clean_stats.ok()) << clean_stats.status().ToString();

  // Machine 2 dies at superstep 3 and every disk read fails with 5%
  // probability; checkpoints every 2 supersteps let the crash roll back
  // to epoch 2 and replay.
  ASSERT_TRUE(fault::Configure(
                  "machine2:crash@superstep=3; disk.read:io_error@p=0.05",
                  /*seed=*/7)
                  .ok());
  std::vector<PageRankAttr> chaotic;
  auto stats = RunPr("chaos", graph, /*checkpoint_every=*/2, &chaotic);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_GE(stats->recoveries, 1);
  EXPECT_GE(stats->checkpoints, 2);
  EXPECT_GE(fault::InjectedCount(), 2u);  // the crash plus disk errors
  EXPECT_EQ(stats->supersteps, clean_stats->supersteps);

  // Bit-identical, not approximately equal: deterministic mode pins the
  // floating-point accumulation order, and recovery replays it.
  ASSERT_EQ(chaotic.size(), clean.size());
  for (size_t v = 0; v < clean.size(); ++v) {
    ASSERT_EQ(std::memcmp(&chaotic[v].pr, &clean[v].pr, sizeof(double)), 0)
        << "rank diverged at vertex " << v;
  }
}

TEST_F(ChaosTest, TransientDiskErrorsAbsorbedByRetriesAlone) {
  const EdgeList graph = GenerateRmatX(12, 22);

  ASSERT_TRUE(fault::Configure("disk.read:io_error@p=0.02", 3).ok());
  TurboGraphSystem system(ChaosCluster("retries"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  EngineOptions options;
  options.deterministic = true;  // no checkpoints: retries must carry it
  auto app = MakePageRankApp(system.partition(), 4);
  std::vector<PageRankAttr> ranks;
  auto stats = system.RunQuery(app, &ranks, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->recoveries, 0);

  uint64_t retries = 0;
  uint64_t injected = 0;
  for (int m = 0; m < system.cluster()->num_machines(); ++m) {
    retries += system.cluster()->machine(m)->disk()->io_retries();
    injected += system.cluster()->machine(m)->disk()->injected_faults();
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(retries, 0u);
}

TEST_F(ChaosTest, PersistentMessageLossFailsWithTimeoutNotHang) {
  const EdgeList graph = GenerateRmatX(12, 23);

  // Machine 1 drops every message it sends: its done markers never reach
  // the peers' gather loops, so each attempt times out, and after
  // max_recovery_attempts rollbacks the run must fail cleanly (rather
  // than hanging a barrier or aborting the process).
  ASSERT_TRUE(fault::Configure("machine1:fabric.send:drop").ok());
  TurboGraphSystem system(ChaosCluster("msgloss"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  EngineOptions options;
  options.checkpoint_every = 1;
  options.recv_timeout_ms = 300;
  options.max_recovery_attempts = 2;
  auto app = MakePageRankApp(system.partition(), 4);
  auto stats = system.RunQuery(app, options);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsTimeout()) << stats.status().ToString();
}

TEST_F(ChaosTest, ServiceDeadlineUnderFabricDelayTimesOutCleanly) {
  const EdgeList graph = GenerateRmatX(12, 25);

  // Every fabric send stalls 50 ms, so supersteps crawl and the job's
  // 300 ms deadline fires mid-run. The service must surface Timeout at
  // the next superstep boundary — no hung barrier, no leaked reservation.
  ASSERT_TRUE(fault::Configure("fabric.send:delay@ms=50", /*seed=*/9).ok());
  TurboGraphSystem system(ChaosCluster("svc_deadline"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  service::JobManager manager(system.cluster(), system.partition());
  service::JobSpec spec;
  spec.query = "pr";
  spec.iterations = 1000;
  spec.deadline_ms = 300;
  auto id = manager.Submit(spec);
  ASSERT_TRUE(id.ok());

  auto record = manager.Wait(*id, /*timeout_ms=*/60000);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->state, service::JobState::kFailed);
  EXPECT_EQ(record->status_code, "Timeout");
  EXPECT_EQ(record->reserved_bytes, 0u);
  EXPECT_EQ(manager.ledger().reserved(), 0u);
  EXPECT_GT(fault::InjectedCount(), 0u);
}

TEST_F(ChaosTest, CrashWithoutCheckpointsFailsCleanly) {
  const EdgeList graph = GenerateRmatX(12, 24);

  ASSERT_TRUE(fault::Configure("machine0:crash@superstep=1").ok());
  TurboGraphSystem system(ChaosCluster("nockpt"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  auto app = MakePageRankApp(system.partition(), 4);
  auto stats = system.RunQuery(app, EngineOptions{});  // no checkpoints
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsAborted()) << stats.status().ToString();
}

}  // namespace
}  // namespace tgpp
