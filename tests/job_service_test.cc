// Job service behaviour (docs/SERVICE.md): concurrent results match
// serial runs bit-for-bit, admission control blocks on the reservation
// ledger, cancellation releases budget and unblocks the queue, deadlines
// surface as Timeout, and the CLI exit-code table holds.

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/system.h"
#include "graph/rmat.h"
#include "service/job_manager.h"
#include "service/wire.h"
#include "util/crc32.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

using service::JobManager;
using service::JobRecord;
using service::JobServiceOptions;
using service::JobSpec;
using service::JobState;

ClusterConfig ServiceCluster(const std::string& name) {
  ClusterConfig config;
  config.num_machines = 2;
  config.memory_budget_bytes = 32ull << 20;
  config.buffer_pool_frames = 16;
  config.root_dir = ScratchPath(name);
  std::filesystem::remove_all(config.root_dir);
  return config;
}

template <typename V>
uint32_t DigestOf(const std::vector<V>& attrs) {
  return Crc32(attrs.data(), attrs.size() * sizeof(V));
}

JobSpec Spec(const std::string& query, int iterations = 5) {
  JobSpec spec;
  spec.query = query;
  spec.iterations = iterations;
  return spec;
}

// A spec that keeps a runner busy until cancelled (PageRank converges
// only at the iteration cap, and the cap is effectively unreachable).
JobSpec LongSpec() { return Spec("pr", /*iterations=*/1000000); }

TEST(JobService, ConcurrentResultsMatchSerialBitForBit) {
  const EdgeList graph = GenerateRmatX(13, 31);
  TurboGraphSystem system(ServiceCluster("concurrent"));
  ASSERT_TRUE(system.LoadGraph(graph, PartitionScheme::kBbp, /*q=*/2).ok());

  // Serial baselines through the same deterministic path `tgpp run
  // --deterministic` uses.
  EngineOptions det;
  det.deterministic = true;
  auto pr = MakePageRankApp(system.partition(), 5);
  std::vector<PageRankAttr> pr_attrs;
  ASSERT_TRUE(system.RunQuery(pr, &pr_attrs, det).ok());
  auto sssp = MakeSsspApp(system.partition(), /*source_old_id=*/0);
  std::vector<SsspAttr> sssp_attrs;
  ASSERT_TRUE(system.RunQuery(sssp, &sssp_attrs, det).ok());
  auto wcc = MakeWccApp(system.partition());
  std::vector<WccAttr> wcc_attrs;
  ASSERT_TRUE(system.RunQuery(wcc, &wcc_attrs, det).ok());

  JobServiceOptions options;
  options.max_running = 3;
  JobManager manager(system.cluster(), system.partition(), options);
  auto pr_id = manager.Submit(Spec("pr", 5));
  auto sssp_id = manager.Submit(Spec("sssp"));
  auto wcc_id = manager.Submit(Spec("wcc"));
  ASSERT_TRUE(pr_id.ok() && sssp_id.ok() && wcc_id.ok());

  auto pr_job = manager.Wait(*pr_id, 120000);
  auto sssp_job = manager.Wait(*sssp_id, 120000);
  auto wcc_job = manager.Wait(*wcc_id, 120000);
  ASSERT_TRUE(pr_job.ok()) << pr_job.status().ToString();
  ASSERT_TRUE(sssp_job.ok()) << sssp_job.status().ToString();
  ASSERT_TRUE(wcc_job.ok()) << wcc_job.status().ToString();
  EXPECT_EQ(pr_job->state, JobState::kDone) << pr_job->error;
  EXPECT_EQ(sssp_job->state, JobState::kDone) << sssp_job->error;
  EXPECT_EQ(wcc_job->state, JobState::kDone) << wcc_job->error;

  EXPECT_EQ(pr_job->result_crc, DigestOf(pr_attrs));
  EXPECT_EQ(sssp_job->result_crc, DigestOf(sssp_attrs));
  EXPECT_EQ(wcc_job->result_crc, DigestOf(wcc_attrs));
  EXPECT_EQ(manager.ledger().reserved(), 0u);
}

// A finished job leaves none of its spill partitions behind: any of the
// q vertex chunks may spill, whichever one the GGB keeps.
TEST(JobService, FinishedJobLeavesNoSpillFiles) {
  const EdgeList graph = GenerateRmatX(12, 34);
  TurboGraphSystem system(ServiceCluster("spill_cleanup"));
  ASSERT_TRUE(system.LoadGraph(graph, PartitionScheme::kBbp, /*q=*/2).ok());
  system.cluster()->ResetCountersAndCaches();

  JobManager manager(system.cluster(), system.partition(), {});
  auto id = manager.Submit(Spec("pr", 3));
  ASSERT_TRUE(id.ok());
  auto job = manager.Wait(*id, 120000);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(job->state, JobState::kDone) << job->error;

  const std::string spill_prefix = "job" + std::to_string(*id) + "_spill_";
  uint64_t spilled = 0;
  for (int m = 0; m < system.cluster()->num_machines(); ++m) {
    Machine* machine = system.cluster()->machine(m);
    spilled += machine->metrics()->updates_spilled.value();
    for (const auto& entry :
         std::filesystem::directory_iterator(machine->disk()->dir())) {
      const std::string name = entry.path().filename().string();
      EXPECT_NE(name.rfind(spill_prefix, 0), 0u)
          << "machine " << m << " kept " << name;
    }
  }
  EXPECT_GT(spilled, 0u);
}

TEST(JobService, AdmissionBlocksUntilBudgetFrees) {
  const EdgeList graph = GenerateRmatX(12, 32);
  TurboGraphSystem system(ServiceCluster("admission"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  JobServiceOptions options;
  options.max_running = 2;  // slots would allow 2; the ledger allows 1
  options.ledger_capacity_override = 1000;
  options.reservation_override = 600;
  JobManager manager(system.cluster(), system.partition(), options);

  auto first = manager.Submit(Spec("pr", 3));
  ASSERT_TRUE(first.ok());
  auto second = manager.Submit(Spec("wcc"));
  ASSERT_TRUE(second.ok());

  // Admission is synchronous inside Submit: the first job holds 600 of
  // 1000 bytes, so the second must still be queued right now.
  auto blocked = manager.GetJob(*second);
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->state, JobState::kQueued);
  EXPECT_EQ(manager.ledger().reserved(), 600u);

  // Once the first job releases its reservation the queue drains.
  auto done_first = manager.Wait(*first, 120000);
  ASSERT_TRUE(done_first.ok());
  EXPECT_EQ(done_first->state, JobState::kDone) << done_first->error;
  auto done_second = manager.Wait(*second, 120000);
  ASSERT_TRUE(done_second.ok());
  EXPECT_EQ(done_second->state, JobState::kDone) << done_second->error;
  EXPECT_EQ(manager.ledger().reserved(), 0u);
}

TEST(JobService, CancelMidRunReleasesBudgetAndAdmitsQueued) {
  const EdgeList graph = GenerateRmatX(12, 33);
  TurboGraphSystem system(ServiceCluster("cancel"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  JobServiceOptions options;
  options.max_running = 2;
  options.ledger_capacity_override = 600;  // one job at a time
  options.reservation_override = 600;
  JobManager manager(system.cluster(), system.partition(), options);

  auto victim = manager.Submit(LongSpec());
  ASSERT_TRUE(victim.ok());
  auto queued = manager.Submit(Spec("wcc"));
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(manager.GetJob(*queued)->state, JobState::kQueued);

  // Let the victim get into its superstep loop, then cancel it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(manager.Cancel(*victim).ok());
  auto cancelled = manager.Wait(*victim, 120000);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->state, JobState::kCancelled);
  EXPECT_EQ(cancelled->status_code, "Cancelled");
  EXPECT_EQ(cancelled->reserved_bytes, 0u);

  // Its reservation freed the queued job.
  auto finished = manager.Wait(*queued, 120000);
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished->state, JobState::kDone) << finished->error;
  EXPECT_EQ(manager.ledger().reserved(), 0u);

  // Cancelling a terminal job is a no-op; unknown ids are NotFound.
  EXPECT_TRUE(manager.Cancel(*victim).ok());
  EXPECT_TRUE(manager.Cancel(99999).IsNotFound());
}

TEST(JobService, CancelQueuedJobNeverRuns) {
  const EdgeList graph = GenerateRmatX(12, 34);
  TurboGraphSystem system(ServiceCluster("cancelqueued"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  JobServiceOptions options;
  options.max_running = 1;
  JobManager manager(system.cluster(), system.partition(), options);
  auto runner = manager.Submit(LongSpec());
  auto queued = manager.Submit(Spec("pr", 2));
  ASSERT_TRUE(runner.ok() && queued.ok());

  ASSERT_TRUE(manager.Cancel(*queued).ok());
  auto record = manager.GetJob(*queued);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, JobState::kCancelled);
  EXPECT_EQ(record->supersteps, 0);

  ASSERT_TRUE(manager.Cancel(*runner).ok());
  EXPECT_EQ(manager.Wait(*runner, 120000)->state, JobState::kCancelled);
}

TEST(JobService, PriorityOrdersTheQueueFifoWithinBand) {
  const EdgeList graph = GenerateRmatX(12, 35);
  TurboGraphSystem system(ServiceCluster("priority"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  JobServiceOptions options;
  options.max_running = 1;
  JobManager manager(system.cluster(), system.partition(), options);
  auto runner = manager.Submit(LongSpec());
  ASSERT_TRUE(runner.ok());
  auto low = manager.Submit(Spec("wcc"));  // submitted first...
  JobSpec urgent = Spec("pr", 2);
  urgent.priority = 5;
  auto high = manager.Submit(urgent);      // ...but outranked
  ASSERT_TRUE(low.ok() && high.ok());

  ASSERT_TRUE(manager.Cancel(*runner).ok());
  auto high_job = manager.Wait(*high, 120000);
  auto low_job = manager.Wait(*low, 120000);
  ASSERT_TRUE(high_job.ok() && low_job.ok());
  EXPECT_EQ(high_job->state, JobState::kDone) << high_job->error;
  EXPECT_EQ(low_job->state, JobState::kDone) << low_job->error;
  // The low-priority job was submitted EARLIER yet admitted LATER, so it
  // waited strictly longer — admission order inverted by priority.
  EXPECT_GT(low_job->queue_wait_seconds, high_job->queue_wait_seconds);
}

TEST(JobService, DeadlineSurfacesAsTimeout) {
  const EdgeList graph = GenerateRmatX(12, 36);
  TurboGraphSystem system(ServiceCluster("deadline"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  JobManager manager(system.cluster(), system.partition());
  JobSpec spec = LongSpec();
  spec.deadline_ms = 150;
  auto id = manager.Submit(spec);
  ASSERT_TRUE(id.ok());
  auto record = manager.Wait(*id, 120000);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, JobState::kFailed);
  EXPECT_EQ(record->status_code, "Timeout");
  EXPECT_EQ(manager.ledger().reserved(), 0u);
}

TEST(JobService, WaitTimeoutLeavesJobRunning) {
  const EdgeList graph = GenerateRmatX(12, 37);
  TurboGraphSystem system(ServiceCluster("waittimeout"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  JobManager manager(system.cluster(), system.partition());
  auto id = manager.Submit(LongSpec());
  ASSERT_TRUE(id.ok());
  auto waited = manager.Wait(*id, 50);
  EXPECT_TRUE(waited.status().IsTimeout()) << waited.status().ToString();
  auto record = manager.GetJob(*id);
  ASSERT_TRUE(record.ok());
  EXPECT_FALSE(service::IsTerminal(record->state));
  ASSERT_TRUE(manager.Cancel(*id).ok());
  EXPECT_EQ(manager.Wait(*id, 120000)->state, JobState::kCancelled);
}

TEST(JobService, RejectsUnknownQueriesAndSubmitAfterShutdown) {
  const EdgeList graph = GenerateRmatX(12, 38);
  TurboGraphSystem system(ServiceCluster("reject"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  JobManager manager(system.cluster(), system.partition());
  EXPECT_TRUE(manager.Submit(Spec("nope")).status().IsInvalidArgument());
  manager.Shutdown();
  EXPECT_TRUE(manager.Submit(Spec("pr")).status().IsAborted());
}

TEST(JobService, ShutdownCancelsEverything) {
  const EdgeList graph = GenerateRmatX(12, 39);
  TurboGraphSystem system(ServiceCluster("shutdown"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  JobServiceOptions options;
  options.max_running = 1;
  auto manager = std::make_unique<JobManager>(system.cluster(),
                                              system.partition(), options);
  auto running = manager->Submit(LongSpec());
  auto queued = manager->Submit(Spec("wcc"));
  ASSERT_TRUE(running.ok() && queued.ok());
  manager->Shutdown();
  EXPECT_EQ(manager->GetJob(*running)->state, JobState::kCancelled);
  EXPECT_EQ(manager->GetJob(*queued)->state, JobState::kCancelled);
  EXPECT_EQ(manager->ledger().reserved(), 0u);
}

TEST(JobService, ExitCodeTable) {
  EXPECT_EQ(ExitCodeForStatus(Status::OK()), 0);
  EXPECT_EQ(ExitCodeForStatus(Status::Timeout("t")), 3);
  EXPECT_EQ(ExitCodeForStatus(Status::Cancelled("c")), 4);
  EXPECT_EQ(ExitCodeForStatus(Status::Internal("i")), 5);
  EXPECT_EQ(ExitCodeForStatus(Status::InvalidArgument("a")), 5);
  EXPECT_EQ(ExitCodeForStatus(Status::OutOfMemory("m")), 5);
}

TEST(JobService, WireCodecRoundTrips) {
  auto request = service::JsonObject::Parse(
      R"({"cmd":"submit","query":"sssp","iterations":3,"source":7,)"
      R"("priority":2,"deadline_ms":500,"deterministic":false})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  auto spec = service::ParseJobSpec(*request);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->query, "sssp");
  EXPECT_EQ(spec->iterations, 3);
  EXPECT_EQ(spec->source, 7u);
  EXPECT_EQ(spec->priority, 2);
  EXPECT_EQ(spec->deadline_ms, 500);
  EXPECT_FALSE(spec->deterministic);

  JobRecord record;
  record.id = 12;
  record.spec.query = "sssp";
  record.state = JobState::kFailed;
  record.error = "boom \"quoted\"";
  record.status_code = "Timeout";
  record.result_crc = 0xdeadbeef;
  auto round = service::JsonObject::Parse(service::JobRecordToJson(record));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(*round->GetInt("id"), 12);
  EXPECT_EQ(*round->GetString("state"), "failed");
  EXPECT_EQ(*round->GetString("crc32"), "deadbeef");
  EXPECT_EQ(*round->GetString("error"), "boom \"quoted\"");
  EXPECT_EQ(*round->GetString("code"), "Timeout");

  // Nested arrays survive as raw slices.
  auto list = service::JsonObject::Parse(
      R"({"ok":true,"jobs":[{"id":1},{"id":2}]})");
  ASSERT_TRUE(list.ok());
  auto jobs = list->GetArray("jobs");
  ASSERT_TRUE(jobs.ok());
  ASSERT_EQ(jobs->size(), 2u);
  EXPECT_EQ(*service::JsonObject::Parse((*jobs)[1])->GetInt("id"), 2);

  EXPECT_FALSE(service::JsonObject::Parse("{bad json").ok());
  EXPECT_FALSE(service::JsonObject::Parse(R"({"a":})").ok());
}

}  // namespace
}  // namespace tgpp
