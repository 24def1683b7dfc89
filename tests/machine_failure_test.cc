// Machine-failure chaos tests (docs/FAULTS.md "Failure model & recovery").
//
// The headline guarantees:
//  - A fail-stop machine (`machine.kill`) is DETECTED within the
//    configured heartbeat timeout — never a wedged barrier — and surfaces
//    as a structured Status::MachineLost carrying the machine id.
//  - With checkpoints, the engine revives the machine, restores the last
//    epoch on every machine, re-executes, and (in deterministic mode)
//    produces *bit-identical* results to a fault-free run, across a
//    matrix of kill supersteps × checkpoint cadences × machine counts ×
//    queries.
//  - Without checkpoints the run fails cleanly with MachineLost.
//  - The job service retries a lost job with backoff, resuming from the
//    job's latest checkpoint, and reports attempts / retries_exhausted.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "common/fault_injector.h"
#include "core/system.h"
#include "graph/rmat.h"
#include "service/job_manager.h"
#include "util/crc32.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

ClusterConfig KillCluster(const std::string& name, int p) {
  ClusterConfig config;
  config.num_machines = p;
  config.memory_budget_bytes = 32ull << 20;  // roomy: keep q=1
  config.root_dir = ScratchPath(name);
  std::filesystem::remove_all(config.root_dir);
  return config;
}

// Fast-detection settings shared by the chaos runs: a dead machine is
// declared lost after ~100 ms, while the ordinary receive deadline stays
// far larger so any bounded runtime is attributable to the heartbeats.
EngineOptions DetectingOptions(int checkpoint_every) {
  EngineOptions options;
  options.deterministic = true;
  options.checkpoint_every = checkpoint_every;
  options.recv_timeout_ms = 20000;
  options.heartbeat_interval_ms = 5;
  options.heartbeat_timeout_ms = 100;
  return options;
}

// Runs `query` (pr | sssp | wcc) and returns the CRC32 of the final
// attribute vector; `stats_out` receives the run's QueryStats.
Result<uint32_t> RunQueryCrc(const std::string& name,
                             const std::string& query,
                             const EdgeList& graph, int p,
                             const EngineOptions& options,
                             QueryStats* stats_out) {
  TurboGraphSystem system(KillCluster(name, p));
  TGPP_RETURN_IF_ERROR(system.LoadGraph(graph));
  Result<QueryStats> stats = Status::InvalidArgument("unknown: " + query);
  uint32_t crc = 0;
  if (query == "pr") {
    auto app = MakePageRankApp(system.partition(), /*iterations=*/6);
    std::vector<PageRankAttr> attrs;
    stats = system.RunQuery(app, &attrs, options);
    crc = Crc32(attrs.data(), attrs.size() * sizeof(PageRankAttr));
  } else if (query == "sssp") {
    auto app = MakeSsspApp(system.partition(), /*source=*/0);
    std::vector<SsspAttr> attrs;
    stats = system.RunQuery(app, &attrs, options);
    crc = Crc32(attrs.data(), attrs.size() * sizeof(SsspAttr));
  } else if (query == "wcc") {
    auto app = MakeWccApp(system.partition());
    std::vector<WccAttr> attrs;
    stats = system.RunQuery(app, &attrs, options);
    crc = Crc32(attrs.data(), attrs.size() * sizeof(WccAttr));
  }
  TGPP_RETURN_IF_ERROR(stats.status());
  *stats_out = *stats;
  return crc;
}

class MachineFailureTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Disarm(); }
};

TEST_F(MachineFailureTest, KillRecoveryMatrixIsBitIdentical) {
  const EdgeList graph = GenerateRmatX(11, 33);
  int point = 0;
  for (int p : {2, 4}) {
    for (const char* query : {"pr", "sssp", "wcc"}) {
      fault::Disarm();
      QueryStats clean_stats;
      auto clean = RunQueryCrc("clean" + std::to_string(point), query,
                               graph, p, DetectingOptions(0), &clean_stats);
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      ASSERT_GE(clean_stats.supersteps, 3)
          << query << ": graph too small to kill mid-run";

      for (int kill_step : {1, 2}) {
        for (int ckpt : {1, 2}) {
          SCOPED_TRACE(std::string(query) + " p=" + std::to_string(p) +
                       " kill@" + std::to_string(kill_step) +
                       " ckpt=" + std::to_string(ckpt));
          ASSERT_TRUE(
              fault::Configure("machine1:machine.kill@superstep=" +
                                   std::to_string(kill_step),
                               /*seed=*/5)
                  .ok());
          QueryStats stats;
          auto crc = RunQueryCrc("chaos" + std::to_string(point++), query,
                                 graph, p, DetectingOptions(ckpt), &stats);
          ASSERT_TRUE(crc.ok()) << crc.status().ToString();
          EXPECT_GE(stats.recoveries, 1);
          EXPECT_EQ(stats.supersteps, clean_stats.supersteps);
          // Bit-identical recovered result, not approximately equal.
          EXPECT_EQ(*crc, *clean);
          fault::Disarm();
        }
      }
    }
  }
}

TEST_F(MachineFailureTest, KillWithoutCheckpointFailsWithinTimeout) {
  const EdgeList graph = GenerateRmatX(11, 34);
  ASSERT_TRUE(fault::Configure("machine1:machine.kill@superstep=1").ok());

  TurboGraphSystem system(KillCluster("nockpt", 4));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  // A one-minute receive deadline: if detection leaned on the recv
  // timeout instead of the heartbeats, this test would take a minute.
  EngineOptions options = DetectingOptions(/*checkpoint_every=*/0);
  options.recv_timeout_ms = 60000;
  options.heartbeat_timeout_ms = 200;
  auto app = MakePageRankApp(system.partition(), 6);
  const auto t0 = std::chrono::steady_clock::now();
  auto stats = system.RunQuery(app, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsMachineLost()) << stats.status().ToString();
  EXPECT_EQ(stats.status().machine_id(), 1);
  EXPECT_LT(elapsed, 10.0) << "detection not bounded by the heartbeat "
                              "timeout";
  EXPECT_GT(system.cluster()->fabric()->heartbeat_misses(), 0u);
  EXPECT_EQ(system.cluster()->machine(0)->metrics()->recoveries.value(), 0u);
  // The machine stays down until the caller revives it.
  EXPECT_FALSE(system.cluster()->machine(1)->alive());
  system.cluster()->ReviveAllMachines();
  EXPECT_TRUE(system.cluster()->machine(1)->alive());
}

TEST_F(MachineFailureTest, ArmedKillSpecAutoEnablesDetection) {
  const EdgeList graph = GenerateRmatX(11, 35);
  // No heartbeat options set: the armed machine.kill rule must
  // auto-enable detection (default 1 s timeout) rather than wedge.
  ASSERT_TRUE(fault::Configure("machine2:machine.kill@superstep=1").ok());
  TurboGraphSystem system(KillCluster("autodetect", 4));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  EngineOptions options;
  options.deterministic = true;
  options.recv_timeout_ms = 60000;
  auto app = MakePageRankApp(system.partition(), 4);
  const auto t0 = std::chrono::steady_clock::now();
  auto stats = system.RunQuery(app, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsMachineLost()) << stats.status().ToString();
  EXPECT_EQ(stats.status().machine_id(), 2);
  EXPECT_LT(elapsed, 15.0);
}

TEST_F(MachineFailureTest, RecoveryDecompositionIsPopulated) {
  const EdgeList graph = GenerateRmatX(11, 36);
  // Kill at superstep 3 with checkpoints every 2: recovery restores
  // epoch 2 and re-executes superstep 2 — so all three phases of the
  // detect / restore / re-execute decomposition are non-trivial.
  ASSERT_TRUE(
      fault::Configure("machine1:machine.kill@superstep=3", /*seed=*/5)
          .ok());
  TurboGraphSystem system(KillCluster("decomp", 4));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  EngineOptions options = DetectingOptions(/*checkpoint_every=*/2);
  auto app = MakePageRankApp(system.partition(), 6);
  auto stats = system.RunQuery(app, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->recoveries, 1);
  EXPECT_EQ(stats->recovered_superstep_distance, 1);  // step 3 -> epoch 2
  EXPECT_GT(stats->recovery_detect_seconds, 0.0);
  EXPECT_GE(stats->recovery_restore_seconds, 0.0);
  EXPECT_GT(stats->recovery_replay_seconds, 0.0);
  EXPECT_EQ(system.cluster()->machine(0)->metrics()->recoveries.value(),
            1u);
  EXPECT_EQ(system.cluster()
                ->machine(0)
                ->metrics()
                ->recovery_replay_supersteps.value(),
            1u);
}

// --- Job-level retry in the service ---

service::JobSpec PrJob() {
  service::JobSpec spec;
  spec.query = "pr";
  spec.iterations = 6;
  return spec;
}

TEST_F(MachineFailureTest, ServiceRetryResumesFromCheckpointAndMatches) {
  const EdgeList graph = GenerateRmatX(11, 37);

  // Clean reference CRC through the same service path.
  uint32_t clean_crc = 0;
  {
    TurboGraphSystem system(KillCluster("svc_clean", 4));
    ASSERT_TRUE(system.LoadGraph(graph).ok());
    service::JobManager manager(system.cluster(), system.partition());
    auto id = manager.Submit(PrJob());
    ASSERT_TRUE(id.ok());
    auto record = manager.Wait(*id, 60000);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    ASSERT_EQ(record->state, service::JobState::kDone);
    EXPECT_EQ(record->attempts, 1);
    EXPECT_FALSE(record->retries_exhausted);
    clean_crc = record->result_crc;
  }

  // Machine 1 dies at superstep 2 of the first attempt (the rule is
  // superstep-gated, so it fires exactly once); the retry must drain the
  // job's tags, revive the machine, resume from the last checkpoint and
  // finish with the clean CRC.
  ASSERT_TRUE(
      fault::Configure("machine1:machine.kill@superstep=2", /*seed=*/5)
          .ok());
  TurboGraphSystem system(KillCluster("svc_retry", 4));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  service::JobServiceOptions svc;
  svc.max_retries = 2;
  svc.retry_backoff_ms = 10;
  svc.checkpoint_every = 1;
  svc.heartbeat_interval_ms = 5;
  svc.heartbeat_timeout_ms = 100;
  svc.recv_timeout_ms = 20000;
  service::JobManager manager(system.cluster(), system.partition(), svc);
  auto id = manager.Submit(PrJob());
  ASSERT_TRUE(id.ok());
  auto record = manager.Wait(*id, 60000);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->state, service::JobState::kDone)
      << record->error << " (" << record->status_code << ")";
  EXPECT_EQ(record->attempts, 2);
  EXPECT_FALSE(record->retries_exhausted);
  EXPECT_EQ(record->result_crc, clean_crc);
  EXPECT_EQ(manager.ledger().reserved(), 0u);
}

TEST_F(MachineFailureTest, ServiceRetriesExhaustedSurfacesDistinctly) {
  const EdgeList graph = GenerateRmatX(11, 38);
  // No superstep gate: machine 1 dies at the start of EVERY attempt, so
  // the retry budget (1) runs out and the job must drain as failed +
  // retries_exhausted with the MachineLost code — the state `tgpp jobs`
  // maps to exit code 6.
  ASSERT_TRUE(fault::Configure("machine1:machine.kill").ok());
  TurboGraphSystem system(KillCluster("svc_exhaust", 4));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  service::JobServiceOptions svc;
  svc.max_retries = 1;
  svc.retry_backoff_ms = 10;
  svc.checkpoint_every = 1;
  svc.heartbeat_interval_ms = 5;
  svc.heartbeat_timeout_ms = 100;
  svc.recv_timeout_ms = 20000;
  service::JobManager manager(system.cluster(), system.partition(), svc);
  auto id = manager.Submit(PrJob());
  ASSERT_TRUE(id.ok());
  auto record = manager.Wait(*id, 60000);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->state, service::JobState::kFailed);
  EXPECT_EQ(record->attempts, 2);  // first run + one retry
  EXPECT_TRUE(record->retries_exhausted);
  EXPECT_EQ(record->status_code, "MachineLost");
  EXPECT_EQ(manager.ledger().reserved(), 0u);
}

}  // namespace
}  // namespace tgpp
