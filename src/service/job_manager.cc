#include "service/job_manager.h"

#include <algorithm>
#include <utility>

#include "algos/bfs.h"
#include "algos/clique4.h"
#include "algos/kcore.h"
#include "algos/label_propagation.h"
#include "algos/lcc.h"
#include "algos/mis.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/triangle_counting.h"
#include "algos/wcc.h"
#include "common/logging.h"
#include "core/engine.h"
#include "obs/events.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/trace.h"

namespace tgpp::service {
namespace {

// (k, per-vertex attribute bytes) per supported query, for the admission
// estimate. Unknown names are rejected at Submit.
struct QueryShape {
  int k;
  uint64_t attr_bytes;
};

Result<QueryShape> ShapeOf(const std::string& query) {
  if (query == "pr") return QueryShape{1, sizeof(PageRankAttr)};
  if (query == "bfs") return QueryShape{1, sizeof(BfsAttr)};
  if (query == "sssp") return QueryShape{1, sizeof(SsspAttr)};
  if (query == "sssp-delta") return QueryShape{1, sizeof(SsspDeltaAttr)};
  if (query == "wcc") return QueryShape{1, sizeof(WccAttr)};
  if (query == "wcc-sampled") return QueryShape{1, sizeof(WccSampledAttr)};
  if (query == "kcore") return QueryShape{1, sizeof(KcoreAttr)};
  if (query == "lp") return QueryShape{1, sizeof(LpAttr)};
  if (query == "mis") return QueryShape{1, sizeof(MisAttr)};
  if (query == "tc") return QueryShape{2, sizeof(TcAttr)};
  if (query == "lcc") return QueryShape{2, sizeof(LccAttr)};
  if (query == "clique4") return QueryShape{3, sizeof(Clique4Attr)};
  return Status::InvalidArgument("unknown query: " + query);
}

struct Outcome {
  QueryStats stats;
  uint32_t crc = 0;
};

// Upper bound on the epoch index scanned when removing a finished job's
// checkpoint files (no service query runs longer than this).
constexpr int kMaxEpochScan = 4096;

// Runs one query over the shared cluster with the given (job-isolated)
// engine options and digests the final attributes in ORIGINAL vertex-id
// order, so a serial `tgpp run` of the same query produces the same CRC.
template <typename V, typename U>
Status RunTyped(Cluster* cluster, const PartitionedGraph* pg,
                KWalkApp<V, U>& app, const EngineOptions& options,
                Outcome* out) {
  NwsmEngine<V, U> engine(cluster, pg, options);
  TGPP_RETURN_IF_ERROR(engine.Initialize(app));
  TGPP_ASSIGN_OR_RETURN(out->stats, engine.Run(app));
  std::vector<V> by_new;
  TGPP_RETURN_IF_ERROR(engine.ReadAttributes(&by_new));
  std::vector<V> by_old(by_new.size());
  for (VertexId new_id = 0; new_id < by_new.size(); ++new_id) {
    by_old[pg->new_to_old[new_id]] = by_new[new_id];
  }
  out->crc = Crc32(by_old.data(), by_old.size() * sizeof(V));
  return Status::OK();
}

Status RunForSpec(Cluster* cluster, const PartitionedGraph* pg,
                  const JobSpec& spec, const EngineOptions& options,
                  Outcome* out) {
  if (spec.query == "pr") {
    auto app = MakePageRankApp(pg, spec.iterations);
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "sssp") {
    if (spec.source >= pg->num_vertices) {
      return Status::InvalidArgument("sssp source out of range");
    }
    auto app = MakeSsspApp(pg, spec.source);
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "bfs") {
    if (spec.source >= pg->num_vertices) {
      return Status::InvalidArgument("bfs source out of range");
    }
    auto app = MakeBfsApp(pg, spec.source);
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "sssp-delta") {
    if (spec.source >= pg->num_vertices) {
      return Status::InvalidArgument("sssp-delta source out of range");
    }
    auto app = MakeSsspDeltaApp(pg, spec.source);
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "wcc") {
    auto app = MakeWccApp(pg);
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "wcc-sampled") {
    auto app = MakeWccSampledApp(pg);
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "kcore") {
    auto app = MakeKcoreApp(pg);
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "lp") {
    // Reuses the `iterations` field as the round count.
    auto app = MakeLabelPropagationApp(pg, std::max(1, spec.iterations));
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "mis") {
    auto app = MakeMisApp(pg);
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "tc") {
    auto app = MakeTriangleCountingApp();
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "lcc") {
    auto app = MakeLccApp(pg);
    return RunTyped(cluster, pg, app, options, out);
  }
  if (spec.query == "clique4") {
    auto app = MakeFourCliqueApp();
    return RunTyped(cluster, pg, app, options, out);
  }
  return Status::InvalidArgument("unknown query: " + spec.query);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Result<int> RequiredQForService(Cluster& cluster, uint64_t num_vertices,
                                int max_running) {
  MemoryModelInput in;
  in.k = 1;
  in.p = cluster.num_machines();
  in.num_vertices = num_vertices;
  in.vertex_attr_bytes = sizeof(PageRankAttr);  // widest k=1 attribute
  in.page_size = kPageSize;
  in.total_budget_bytes =
      cluster.machine(0)->WindowMemoryBytes() /
      static_cast<uint64_t>(std::max(1, max_running));
  return ComputeQMin(in);
}

JobManager::JobManager(Cluster* cluster, const PartitionedGraph* pg,
                       JobServiceOptions options, dyn::DynamicGraph* dynamic)
    : cluster_(cluster), pg_(pg), options_(options), dynamic_(dynamic) {
  TGPP_CHECK(dynamic_ == nullptr || dynamic_->pg() == pg_)
      << "DynamicGraph must wrap the manager's partitioned graph";
  TGPP_CHECK(options_.max_running >= 1);
  const uint64_t capacity =
      options_.ledger_capacity_override != 0
          ? options_.ledger_capacity_override
          : cluster_->machine(0)->WindowMemoryBytes();
  ledger_ = std::make_unique<ReservationLedger>(capacity);
  slot_taken_.assign(static_cast<size_t>(options_.max_running), false);

  obs::Registry& reg = obs::Registry::Global();
  obs::TryRegister(&reg, &registrations_, "service.jobs_submitted", -1,
                   &jobs_submitted_);
  obs::TryRegister(&reg, &registrations_, "service.jobs_admitted", -1,
                   &jobs_admitted_);
  obs::TryRegister(&reg, &registrations_, "service.jobs_done", -1,
                   &jobs_done_);
  obs::TryRegister(&reg, &registrations_, "service.jobs_failed", -1,
                   &jobs_failed_);
  obs::TryRegister(&reg, &registrations_, "service.jobs_cancelled", -1,
                   &jobs_cancelled_);
  obs::TryRegister(&reg, &registrations_, "service.job_retries", -1,
                   &job_retries_);
  obs::TryRegister(&reg, &registrations_, "service.jobs_queued", -1,
                   &jobs_queued_);
  obs::TryRegister(&reg, &registrations_, "service.jobs_running", -1,
                   &jobs_running_);
  obs::TryRegister(&reg, &registrations_, "service.reserved_bytes", -1,
                   &reserved_bytes_);
  obs::TryRegister(&reg, &registrations_, "service.queue_wait_ns", -1,
                   &queue_wait_ns_);
  obs::TryRegister(&reg, &registrations_, "service.run_latency_ns", -1,
                   &run_latency_ns_);
}

JobManager::~JobManager() { Shutdown(); }

uint64_t JobManager::EstimateReservation(const JobSpec& spec) const {
  // Update jobs take the whole ledger: exclusivity is their correctness
  // property (snapshot-consistent reads), not a sizing estimate.
  if (spec.query == "update") return ledger_->capacity();
  auto shape = ShapeOf(spec.query);
  if (!shape.ok()) return 0;
  MemoryModelInput in;
  in.k = shape->k;
  in.p = pg_->p;
  in.num_vertices = pg_->num_vertices;
  in.vertex_attr_bytes = shape->attr_bytes;
  in.page_size = kPageSize;
  in.total_budget_bytes = ledger_->capacity();
  return MinimumRequiredBytes(in, pg_->q);
}

Result<uint64_t> JobManager::Submit(const JobSpec& spec) {
  std::vector<dyn::EdgeMutation> parsed;
  if (spec.query == "update") {
    if (dynamic_ == nullptr) {
      return Status::InvalidArgument(
          "service has no dynamic-graph subsystem attached; "
          "update jobs are not accepted");
    }
    parsed.reserve(spec.mutations.size());
    for (const std::string& text : spec.mutations) {
      TGPP_ASSIGN_OR_RETURN(dyn::EdgeMutation m,
                            dyn::ParseEdgeMutation(text));
      if (m.src >= pg_->num_vertices || m.dst >= pg_->num_vertices) {
        return Status::InvalidArgument("mutation endpoint out of range: " +
                                       text);
      }
      parsed.push_back(m);
    }
  } else {
    TGPP_RETURN_IF_ERROR(ShapeOf(spec.query).status());
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return Status::Aborted("job service is shut down");

  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->spec = spec;
  job->parsed_mutations = std::move(parsed);
  job->submit_time = std::chrono::steady_clock::now();
  if (spec.deadline_ms > 0) {
    job->cancel.SetTimeout(std::chrono::milliseconds(spec.deadline_ms));
  }
  const uint64_t id = job->id;

  // Insert keeping the queue ordered by (priority desc, id asc): stable
  // FIFO within a priority band.
  auto pos = std::find_if(queue_.begin(), queue_.end(), [&](uint64_t other) {
    return jobs_.at(other)->spec.priority < spec.priority;
  });
  queue_.insert(pos, id);
  jobs_.emplace(id, std::move(job));

  jobs_submitted_.Add(1);
  jobs_queued_.Add(1);
  trace::Instant("service.submit", "service", "job", id);
  obs::EmitEvent(obs::EventType::kJobSubmit, id, -1, -1, nullptr, "queued",
                 static_cast<uint64_t>(queue_.size()));
  PumpLocked();
  cv_.notify_all();
  return id;
}

JobManager::Job* JobManager::FindLocked(uint64_t id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void JobManager::PumpLocked() {
  while (!shutdown_ && !queue_.empty() && running_ < options_.max_running) {
    Job* job = FindLocked(queue_.front());
    TGPP_CHECK(job != nullptr && job->state == JobState::kQueued);

    // A queued job whose token already fired never runs; its terminal
    // state frees the head of the line.
    Status token = job->cancel.Check();
    if (!token.ok()) {
      queue_.pop_front();
      jobs_queued_.Add(-1);
      FinishLocked(job,
                   token.IsCancelled() ? JobState::kCancelled
                                       : JobState::kFailed,
                   token);
      continue;
    }

    // The override never shrinks an update job's reservation: exclusivity
    // is load-bearing (snapshot consistency), not a tunable.
    const uint64_t reservation =
        job->spec.query == "update"
            ? ledger_->capacity()
            : (options_.reservation_override != 0
                   ? options_.reservation_override
                   : EstimateReservation(job->spec));
    Status reserved =
        ledger_->Reserve(reservation, "job" + std::to_string(job->id));
    if (!reserved.ok()) {
      // Backpressure: strict head-of-line — nothing behind the head is
      // considered until budget frees (predictable admission order).
      break;
    }

    int slot = -1;
    for (size_t s = 0; s < slot_taken_.size(); ++s) {
      if (!slot_taken_[s]) {
        slot = static_cast<int>(s);
        break;
      }
    }
    TGPP_CHECK(slot >= 0);  // running_ < max_running guarantees a slot

    queue_.pop_front();
    slot_taken_[slot] = true;
    ++running_;
    job->state = JobState::kAdmitted;
    job->reserved_bytes = reservation;
    job->tag_slot = slot;
    job->barrier =
        std::make_unique<std::barrier<>>(cluster_->num_machines());
    job->admit_time = std::chrono::steady_clock::now();
    job->queue_wait_seconds = std::chrono::duration<double>(
                                  job->admit_time - job->submit_time)
                                  .count();

    jobs_admitted_.Add(1);
    jobs_queued_.Add(-1);
    jobs_running_.Add(1);
    reserved_bytes_.Add(static_cast<int64_t>(reservation));
    queue_wait_ns_.Record(
        static_cast<uint64_t>(job->queue_wait_seconds * 1e9));
    trace::Instant("service.admit", "service", "job", job->id, "bytes",
                   reservation);
    obs::EmitEvent(obs::EventType::kJobAdmit, job->id, -1, -1, nullptr,
                   "bytes", reservation, "wait_us",
                   static_cast<uint64_t>(job->queue_wait_seconds * 1e6));

    job->runner = std::thread([this, job] { RunJob(job); });
  }
}

void JobManager::RunJob(Job* job) {
  if (trace::Enabled()) {
    trace::SetCurrentThreadName("job" + std::to_string(job->id) + "." +
                                job->spec.query);
  }
  if (job->spec.query == "update") {
    RunUpdateJob(job);
    return;
  }
  EngineOptions options;
  options.deterministic = job->spec.deterministic;
  options.recv_timeout_ms = options_.recv_timeout_ms;
  // In-engine recovery stays OFF: it resets the SHARED fabric, which
  // would drain other jobs' in-flight messages. Checkpoints are still
  // written so the job-level retry below can resume instead of
  // cold-restarting (docs/FAULTS.md).
  options.checkpoint_every = options_.checkpoint_every;
  options.max_recovery_attempts = 0;
  options.heartbeat_interval_ms = options_.heartbeat_interval_ms;
  options.heartbeat_timeout_ms = options_.heartbeat_timeout_ms;
  options.fabric_tag_base =
      kServiceTagBase + static_cast<uint32_t>(job->tag_slot) * kTagsPerJob;
  options.scratch_prefix = "job" + std::to_string(job->id) + "_";
  options.job_barrier = job->barrier.get();
  options.cancel = &job->cancel;
  options.job_id = job->id;
  // Profile accumulation: the engine calls this on the runner thread at
  // every superstep barrier; the manager owns the rows so they survive
  // retries and outlive the engine.
  options.superstep_observer = [this, job](const obs::SuperstepRow& row) {
    std::lock_guard<std::mutex> lock(mu_);
    JobProfile& p = job->profile;
    if (static_cast<int>(p.rows.size()) < kMaxProfileRows) {
      p.rows.push_back(row);
    } else {
      ++p.rows_dropped;
    }
    ++p.supersteps;
    if (row.direction[2] == 'l') {  // "pull" vs "push"
      ++p.pull_supersteps;
    } else {
      ++p.push_supersteps;
    }
    p.updates_generated += row.updates_generated;
    p.updates_sent += row.updates_sent;
    p.updates_spilled += row.updates_spilled;
    p.disk_bytes += row.disk_bytes;
    p.net_bytes += row.net_bytes;
    p.scatter_cpu_seconds += row.scatter_cpu_seconds;
    p.gather_cpu_seconds += row.gather_cpu_seconds;
    p.apply_cpu_seconds += row.apply_cpu_seconds;
    p.buffer_hit_rate = row.buffer_hit_rate;
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    job->state = JobState::kRunning;
    job->profile.job_id = job->id;
    cv_.notify_all();
  }
  obs::EmitEvent(obs::EventType::kJobStart, job->id);

  Outcome outcome;
  Status status;
  int attempt = 0;
  for (;;) {
    ++attempt;
    WallTimer attempt_timer;
    {
      trace::TraceSpan run_span("service.run", "service");
      run_span.AddArg("job", job->id);
      run_span.AddArg("attempt", static_cast<uint64_t>(attempt));
      status = RunForSpec(cluster_, pg_, job->spec, options, &outcome);
    }
    if (!status.ok() && status.IsMachineLost()) {
      std::lock_guard<std::mutex> lock(mu_);
      job->profile.lost_machine = status.machine_id();
    }
    if (status.ok() || !status.IsRetryable()) break;
    if (attempt > options_.max_retries) break;  // retry budget exhausted

    // Job-level recovery tax: the whole failed attempt is detection +
    // lost work (in-engine recovery is off for service jobs); the next
    // attempt's resume restore and replayed supersteps show up in its
    // profile rows.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++job->profile.recoveries;
      job->profile.recovery_detect_seconds += attempt_timer.Seconds();
    }

    // Prepare the retry: the failed attempt may have left messages in
    // the job's tag range and (after a machine.kill) dead machines.
    DrainTags(options.fabric_tag_base);
    cluster_->ReviveAllMachines();
    job_retries_.Add(1);
    trace::Instant("service.retry", "service", "job", job->id, "attempt",
                   static_cast<uint64_t>(attempt));
    obs::EmitEvent(obs::EventType::kJobRetry, job->id, -1, -1,
                   StatusCodeToString(status.code()), "attempt",
                   static_cast<uint64_t>(attempt));
    TGPP_LOG(Warning) << "job " << job->id << " attempt " << attempt
                   << " failed (" << StatusCodeToString(status.code())
                   << ": " << status.message() << "); retrying";
    if (!WaitBackoff(job, attempt)) {
      // Shutdown or cancel fired during backoff; surface the token's
      // status (not the retryable failure) as the terminal state.
      Status token = job->cancel.Check();
      if (!token.ok()) status = token;
      break;
    }
    options.resume_from_checkpoint = true;
    outcome = Outcome{};
  }

  // Best-effort scratch cleanup; the next job with this id prefix cannot
  // exist, but long-lived daemons should not leak one file set per job.
  // Runs only after the terminal attempt — retries resume from the
  // checkpoint files an earlier attempt wrote.
  for (int m = 0; m < cluster_->num_machines(); ++m) {
    DiskDevice* disk = cluster_->machine(m)->disk();
    (void)disk->Remove(options.scratch_prefix + kVertexAttrFileName);
    for (int c = 0; c < pg_->q; ++c) {
      (void)disk->Remove(options.scratch_prefix + "spill_" +
                         std::to_string(c) + ".bin");
    }
    if (options.checkpoint_every > 0) {
      // Epoch checkpoints land at multiples of checkpoint_every (the
      // engine keeps at most the latest two, plus epoch 0 early on).
      for (int e = 0; e <= kMaxEpochScan; e += options.checkpoint_every) {
        (void)disk->Remove(options.scratch_prefix + "checkpoint_auto" +
                           std::to_string(e) + ".ckpt");
      }
    }
  }
  // A cancelled or failed job may have left messages in its tag range
  // (e.g. updates sent but never gathered); drain them so the slot's
  // next tenant starts clean.
  DrainTags(options.fabric_tag_base);

  std::lock_guard<std::mutex> lock(mu_);
  job->attempts = attempt;
  job->retries_exhausted = !status.ok() && status.IsRetryable();
  job->result_crc = outcome.crc;
  job->aggregate = outcome.stats.aggregate_sum;
  job->supersteps = outcome.stats.supersteps;
  // Engine-observed recovery tax from the terminal attempt (nonzero only
  // when in-engine recovery ran; service jobs normally pay their tax at
  // the job level, accumulated in the retry loop above).
  job->profile.recoveries += outcome.stats.recoveries;
  job->profile.recovery_detect_seconds +=
      outcome.stats.recovery_detect_seconds;
  job->profile.recovery_restore_seconds +=
      outcome.stats.recovery_restore_seconds;
  job->profile.recovery_replay_seconds +=
      outcome.stats.recovery_replay_seconds;
  job->profile.checkpoints += outcome.stats.checkpoints;
  job->profile.resumed = job->profile.resumed || outcome.stats.resumed;
  JobState terminal = JobState::kDone;
  if (status.IsCancelled()) {
    terminal = JobState::kCancelled;
  } else if (!status.ok()) {
    terminal = JobState::kFailed;
  }
  FinishLocked(job, terminal, status);
  PumpLocked();
  cv_.notify_all();
}

// Runner body for update jobs: no engine, no fabric traffic — the batch
// goes straight through the DynamicGraph's WAL + page-edit path while
// the job holds the entire ledger (nothing else runs). Machine loss is
// retryable the dyn way: revive, WAL-replay recovery, then a full
// idempotent re-apply (mutations that already landed become counted
// skips), converging to the same bytes as a fault-free apply.
void JobManager::RunUpdateJob(Job* job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->state = JobState::kRunning;
    job->profile.job_id = job->id;
    cv_.notify_all();
  }
  obs::EmitEvent(obs::EventType::kJobStart, job->id);
  obs::SetCurrentJob(job->id);  // attribute update.applied/wal.replayed

  dyn::UpdateBatch batch;
  batch.mutations = job->parsed_mutations;
  dyn::ApplyStats stats;
  Status status;
  int attempt = 0;
  for (;;) {
    ++attempt;
    Status token = job->cancel.Check();
    if (!token.ok()) {
      status = token;
      break;
    }
    stats = dyn::ApplyStats{};
    {
      trace::TraceSpan run_span("service.update", "service");
      run_span.AddArg("job", job->id);
      run_span.AddArg("attempt", static_cast<uint64_t>(attempt));
      status = dynamic_->ApplyBatch(batch, &stats);
    }
    if (!status.ok() && status.IsMachineLost()) {
      std::lock_guard<std::mutex> lock(mu_);
      job->profile.lost_machine = status.machine_id();
    }
    if (status.ok() || !status.IsRetryable()) break;
    if (attempt > options_.max_retries) break;

    {
      std::lock_guard<std::mutex> lock(mu_);
      ++job->profile.recoveries;
    }
    cluster_->ReviveAllMachines();
    Status recovered = dynamic_->Recover();
    if (!recovered.ok()) {
      status = recovered;
      break;
    }
    job_retries_.Add(1);
    obs::EmitEvent(obs::EventType::kJobRetry, job->id, -1, -1,
                   StatusCodeToString(status.code()), "attempt",
                   static_cast<uint64_t>(attempt));
    TGPP_LOG(Warning) << "update job " << job->id << " attempt " << attempt
                      << " failed (" << StatusCodeToString(status.code())
                      << ": " << status.message()
                      << "); recovered, retrying";
    if (!WaitBackoff(job, attempt)) {
      Status token2 = job->cancel.Check();
      if (!token2.ok()) status = token2;
      break;
    }
  }
  obs::SetCurrentJob(0);

  std::lock_guard<std::mutex> lock(mu_);
  job->attempts = attempt;
  job->retries_exhausted = !status.ok() && status.IsRetryable();
  job->epoch = stats.epoch;
  job->edges_inserted = stats.inserted;
  job->edges_deleted = stats.deleted;
  JobState terminal = JobState::kDone;
  if (status.IsCancelled()) {
    terminal = JobState::kCancelled;
  } else if (!status.ok()) {
    terminal = JobState::kFailed;
  }
  FinishLocked(job, terminal, status);
  PumpLocked();
  cv_.notify_all();
}

// Backoff before retry `attempt` (1-based): retry_backoff_ms * 2^(N-1)
// plus a deterministic jitter in [0, retry_backoff_ms) keyed on
// (seed, job id, attempt) — reproducible for tests, decorrelated across
// jobs so a herd of failures does not retry in lockstep.
bool JobManager::WaitBackoff(Job* job, int attempt) {
  const int shift = std::min(attempt - 1, 20);
  const int64_t base = std::max<int64_t>(1, options_.retry_backoff_ms);
  const int64_t jitter = static_cast<int64_t>(
      Mix64(options_.retry_jitter_seed ^ job->id ^
            static_cast<uint64_t>(attempt)) %
      static_cast<uint64_t>(base));
  const int64_t wait_ms = base * (int64_t{1} << shift) + jitter;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(wait_ms), [&] {
    return shutdown_ || !job->cancel.Check().ok();
  });
  return !shutdown_ && job->cancel.Check().ok();
}

// Caller holds mu_. Releases everything the job holds (reservation, tag
// slot) and records the terminal state + metrics.
void JobManager::FinishLocked(Job* job, JobState state,
                              const Status& status) {
  TGPP_CHECK(IsTerminal(state));
  const bool was_admitted = job->tag_slot >= 0;
  if (job->reserved_bytes > 0) {
    ledger_->Release(job->reserved_bytes);
    reserved_bytes_.Add(-static_cast<int64_t>(job->reserved_bytes));
    job->reserved_bytes = 0;
  }
  if (was_admitted) {
    slot_taken_[static_cast<size_t>(job->tag_slot)] = false;
    job->tag_slot = -1;
    --running_;
    jobs_running_.Add(-1);
    job->run_seconds = SecondsSince(job->admit_time);
    run_latency_ns_.Record(static_cast<uint64_t>(job->run_seconds * 1e9));
  }
  job->state = state;
  if (!status.ok()) {
    job->error = status.message();
    job->status_code = StatusCodeToString(status.code());
  }
  switch (state) {
    case JobState::kDone:
      jobs_done_.Add(1);
      obs::EmitEvent(obs::EventType::kJobDone, job->id, -1, -1, nullptr,
                     "supersteps", static_cast<uint64_t>(job->supersteps),
                     "attempts", static_cast<uint64_t>(job->attempts));
      break;
    case JobState::kCancelled:
      jobs_cancelled_.Add(1);
      obs::EmitEvent(obs::EventType::kJobCancelled, job->id, -1, -1,
                     StatusCodeToString(status.code()));
      break;
    default:
      jobs_failed_.Add(1);
      obs::EmitEvent(obs::EventType::kJobFailed, job->id,
                     job->profile.lost_machine, -1,
                     StatusCodeToString(status.code()), "attempts",
                     static_cast<uint64_t>(job->attempts));
      break;
  }
  trace::Instant("service.finish", "service", "job", job->id);
}

void JobManager::DrainTags(uint32_t tag_base) {
  Fabric* fabric = cluster_->fabric();
  Message msg;
  for (int m = 0; m < cluster_->num_machines(); ++m) {
    for (uint32_t t = tag_base; t < tag_base + kTagsPerJob; ++t) {
      while (fabric->TryRecv(m, t, &msg)) {
      }
    }
  }
}

Status JobManager::Cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Job* job = FindLocked(id);
  if (job == nullptr) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  if (IsTerminal(job->state)) return Status::OK();
  job->cancel.Cancel();
  if (job->state == JobState::kQueued) {
    queue_.erase(std::find(queue_.begin(), queue_.end(), id));
    jobs_queued_.Add(-1);
    FinishLocked(job, JobState::kCancelled,
                 Status::Cancelled("cancelled while queued"));
    PumpLocked();
  }
  // Running jobs observe the token at their next superstep boundary.
  cv_.notify_all();
  return Status::OK();
}

JobRecord JobManager::SnapshotLocked(const Job& job) const {
  JobRecord record;
  record.id = job.id;
  record.spec = job.spec;
  record.state = job.state;
  record.error = job.error;
  record.status_code = job.status_code;
  record.reserved_bytes = job.reserved_bytes;
  record.result_crc = job.result_crc;
  record.aggregate = job.aggregate;
  record.supersteps = job.supersteps;
  record.queue_wait_seconds = job.queue_wait_seconds;
  record.run_seconds = job.run_seconds;
  record.attempts = job.attempts;
  record.retries_exhausted = job.retries_exhausted;
  record.epoch = job.epoch;
  record.edges_inserted = job.edges_inserted;
  record.edges_deleted = job.edges_deleted;
  return record;
}

Result<JobRecord> JobManager::GetJob(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  Job* job = FindLocked(id);
  if (job == nullptr) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  return SnapshotLocked(*job);
}

Result<JobProfile> JobManager::GetProfile(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  Job* job = FindLocked(id);
  if (job == nullptr) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  JobProfile profile = job->profile;
  profile.job_id = id;  // set even if the job never started running
  return profile;
}

std::vector<JobRecord> JobManager::ListJobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobRecord> records;
  records.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    records.push_back(SnapshotLocked(*job));
  }
  return records;
}

Result<JobRecord> JobManager::Wait(uint64_t id, int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  Job* job = FindLocked(id);
  if (job == nullptr) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  auto done = [&] { return IsTerminal(job->state); };
  if (timeout_ms < 0) {
    cv_.wait(lock, done);
  } else if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           done)) {
    return Status::Timeout("job " + std::to_string(id) +
                           " still " + JobStateName(job->state));
  }
  return SnapshotLocked(*job);
}

void JobManager::Shutdown() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Queued jobs die immediately; running jobs get their token fired
    // and are joined below.
    while (!queue_.empty()) {
      Job* job = FindLocked(queue_.front());
      queue_.pop_front();
      jobs_queued_.Add(-1);
      job->cancel.Cancel();
      FinishLocked(job, JobState::kCancelled,
                   Status::Cancelled("service shutdown"));
    }
    for (auto& [id, job] : jobs_) {
      if (!IsTerminal(job->state)) job->cancel.Cancel();
      if (job->runner.joinable()) to_join.push_back(std::move(job->runner));
    }
    cv_.notify_all();
  }
  for (std::thread& t : to_join) t.join();
}

}  // namespace tgpp::service
