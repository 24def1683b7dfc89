// NwsmEngine: execution of the nested windowed streaming model with
// three-level parallel and overlapped processing (paper §2.2, §4,
// Algorithms 1-4).
//
// One engine instance drives a query over a partitioned graph on the
// simulated cluster. Per superstep, each machine executes:
//
//   scatter  — streams its vertex chunks (vertex windows) and the matching
//              edge chunks (adjacency windows, prefetched asynchronously so
//              disk I/O overlaps compute), invoking adj_scatter per
//              adjacency record; updates are combined in NUMA-sub-chunk-
//              local gather buffers (LGB; CAS-free because sub-chunks own
//              disjoint destination ranges) and shipped to owner machines.
//              For k > 1, marked vertices of interest (voi) are fetched —
//              locally or over the fabric from remote disks — and the next
//              level is processed by mark-and-backward-traversal: the
//              parent index built from Mark() calls plays the role of the
//              backward traversal over the in-memory level-l window.
//   gather   — a concurrent global-gather task (Algorithm 2) accumulates
//              incoming updates into the in-memory GGB for the resident
//              chunk (most incoming edges) and spills the other q-1
//              vertex chunks to disk partitions.
//   apply    — after the global barrier, spilled partitions are gathered
//              by a producer thread while the apply task consumes ready
//              chunks (Algorithms 3-4, double buffered).
//
// The engine never materializes more than its windows: all sizes derive
// from the memory model (Theorem 4.1). Callers should use
// TurboGraphSystem (core/system.h), which re-runs BBP when the query
// requires a finer q (Algorithm 1 lines 1-4).
//
// Every phase above is instrumented for the execution tracer
// (util/trace.h): `superstep`, `scatter`/`scatter.window`, `gather`,
// `apply`/`gather.spilled` and `allreduce` spans, one track per machine.
// docs/TRACING.md explains how to capture and read a timeline.

#ifndef TGPP_CORE_ENGINE_H_
#define TGPP_CORE_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algos/frontier.h"
#include "cluster/cluster.h"
#include "common/cancel_token.h"
#include "common/fault_injector.h"
#include "core/adjacency_service.h"
#include "core/app.h"
#include "core/codec.h"
#include "core/memory_model.h"
#include "graph/csr.h"
#include "obs/events.h"
#include "obs/export.h"
#include "partition/partitioner.h"
#include "util/bitmap.h"
#include "util/crc32.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace tgpp {

inline constexpr const char* kVertexAttrFileName = "vattr.bin";

// --- ScatterContext -------------------------------------------------------

template <typename V, typename U>
class NwsmEngine;

namespace engine_internal {

// Update payload wire format, shared by every sender and the gather task:
// a 1-byte kind (0 = data, 1 = done marker), a uint64 record count, then
// `count` packed (VertexId, U) records.
inline constexpr size_t kUpdateHeaderBytes = sizeof(uint8_t) + sizeof(uint64_t);
template <typename U>
inline constexpr size_t kUpdateRecordBytes = sizeof(VertexId) + sizeof(U);

// A data payload sized once for `count` records, header written; the
// caller fills the records with PutUpdateRecord from
// data() + kUpdateHeaderBytes.
template <typename U>
std::vector<uint8_t> NewUpdatePayload(uint64_t count) {
  std::vector<uint8_t> payload(kUpdateHeaderBytes +
                               count * kUpdateRecordBytes<U>);
  payload[0] = 0;  // kind: data
  std::memcpy(payload.data() + 1, &count, sizeof(count));
  return payload;
}

// Writes one (vid, val) record at `out`; returns the next record's slot.
template <typename U>
uint8_t* PutUpdateRecord(uint8_t* out, VertexId vid, const U& val) {
  std::memcpy(out, &vid, sizeof(VertexId));
  std::memcpy(out + sizeof(VertexId), &val, sizeof(U));
  return out + kUpdateRecordBytes<U>;
}

// Dense local gather buffer over one destination chunk range. Sub-chunk
// tasks write disjoint index ranges, so no synchronization is needed
// (the NUMA-aware CAS elimination of paper §3 / A.3).
template <typename U>
class DenseLgb {
 public:
  void Reset(VertexRange range) {
    range_ = range;
    values_.assign(range.size(), U{});
    present_.assign(range.size(), 0);
  }
  VertexRange range() const { return range_; }

  template <typename Combine>
  void Accumulate(VertexId dst, const U& val, const Combine& combine) {
    const uint64_t idx = dst - range_.begin;
    if (present_[idx]) {
      combine(values_[idx], val);
    } else {
      values_[idx] = val;
      present_[idx] = 1;
    }
  }

  // Serializes the present entries as an update payload in one pass;
  // `count` is present_count(), which the caller has already taken.
  // Clears nothing (caller Resets).
  std::vector<uint8_t> Serialize(uint64_t count) const {
    std::vector<uint8_t> payload = NewUpdatePayload<U>(count);
    uint8_t* out = payload.data() + kUpdateHeaderBytes;
    uint8_t* const end = payload.data() + payload.size();
    for (uint64_t i = 0; i < present_.size() && out != end; ++i) {
      if (present_[i]) out = PutUpdateRecord(out, range_.begin + i, values_[i]);
    }
    TGPP_CHECK(out == end)
        << "LGB count " << count << " is not its present count";
    return payload;
  }

  uint64_t present_count() const {
    uint64_t count = 0;
    for (uint8_t p : present_) count += p;
    return count;
  }

  // Values and present flags, indexed by vid - range().begin: the
  // scatter context's dense sink writes through these, the apply phase
  // reads them.
  U* values() { return values_.data(); }
  uint8_t* present() { return present_.data(); }

 private:
  VertexRange range_;
  std::vector<U> values_;
  std::vector<uint8_t> present_;
};

// Sparse LGB for the full adjacency-list mode: destinations span the whole
// ID space, so a fixed-capacity map is kept per task and flushed to the
// owner machines when it overflows (paper §4.1, full-list constraint 1).
template <typename U>
class SparseLgb {
 public:
  SparseLgb(size_t capacity, int p) : capacity_(capacity), p_(p) {}

  template <typename Combine, typename Flush>
  void Accumulate(VertexId dst, const U& val, const Combine& combine,
                  const Flush& flush) {
    auto [it, inserted] = map_.try_emplace(dst, val);
    if (!inserted) combine(it->second, val);
    if (map_.size() >= capacity_) FlushAll(flush);
  }

  // flush(owner_payloads): called with one payload vector per machine.
  template <typename Flush>
  void FlushAll(const Flush& flush) {
    if (map_.empty()) return;
    flush(map_);
    map_.clear();
  }

 private:
  size_t capacity_;
  int p_;
  std::unordered_map<VertexId, U> map_;
};

}  // namespace engine_internal

// --- Engine ----------------------------------------------------------------

// Ablation knobs (all defaults are the paper's design; the ablation bench
// turns them off one at a time) plus fault-tolerance policy
// (docs/FAULTS.md).
struct EngineOptions {
  // In-memory local gather: combine updates per destination chunk before
  // shipping (paper §4.1). Off = every generated update crosses the wire.
  bool in_memory_local_gather = true;
  // Asynchronous page read-ahead depth for adjacency windows (3-LPO's
  // disk/CPU overlap). 1 = synchronous reads.
  int read_ahead_pages = 4;
  // Checkpoint the vertex attributes + frontier every N supersteps
  // (0 = off). A failed superstep then rolls every machine back to the
  // last complete checkpoint epoch and replays.
  int checkpoint_every = 0;
  // Give up after this many rollbacks in one Run() (a persistent fault
  // would otherwise replay forever).
  int max_recovery_attempts = 3;
  // Deadline for the engine's blocking receives (gather, allreduce): a
  // lost message surfaces as Status::Timeout instead of a hung barrier.
  // <= 0 waits forever (the seed's behavior).
  int64_t recv_timeout_ms = 60000;
  // Failure detection (docs/FAULTS.md "Failure model & recovery"): when
  // heartbeat_timeout_ms > 0 the engine starts the fabric heartbeat
  // monitor for the duration of Run() and replaces the std::barrier
  // superstep barrier with a machine-0-coordinated failable barrier on
  // Tag(kTagBarrier), so a fail-stop machine surfaces as
  // Status::MachineLost within the timeout instead of wedging. 0 = off
  // (byte-identical behavior to the pre-detection engine) — unless a
  // `machine.kill` fault is armed, in which case Run() auto-enables
  // detection with these defaults to keep an unconfigured chaos run from
  // hanging.
  int64_t heartbeat_interval_ms = 0;
  int64_t heartbeat_timeout_ms = 0;
  // Resume from the latest on-disk checkpoint epoch (if any) instead of
  // superstep 0. Used by job-level retry: the failed attempt's
  // checkpoints confine how much work the re-run repeats.
  bool resume_from_checkpoint = false;
  // Deterministic execution: consume read-ahead pages in page order and
  // drain gathered updates in sender order. Makes floating-point
  // accumulation order — and thus results — bit-reproducible run to run,
  // which is what lets recovery claim *identical* results to a fault-free
  // run. Costs some overlap; off by default.
  bool deterministic = false;
  // Called after every completed superstep with that superstep's activity
  // deltas (obs/export.h) — the hook behind `tgpp run --progress`,
  // per-barrier --metrics-out refreshes, and the bench harness's JSONL
  // time series. Runs on the engine's driver thread between supersteps;
  // keep it cheap. Null = no per-superstep reporting.
  std::function<void(const obs::SuperstepRow&)> superstep_observer;
  // Work-efficient frontier policy (algos/frontier.h): push/pull
  // direction selection per superstep and sparse vs. dense scans per
  // vertex window. Defaults (always push, dense windows) reproduce the
  // engine's historical behavior exactly; pull supersteps additionally
  // require the app to provide pull_scatter and a symmetric graph
  // (docs/ALGORITHMS.md).
  FrontierOptions frontier;

  // --- Multi-query isolation (the job service, docs/SERVICE.md). A lone
  // engine per cluster can leave all four at their defaults; engines
  // sharing one Cluster must each get a disjoint tag base, a unique
  // scratch prefix, and a private barrier, or their messages, spill
  // files and barrier arrivals interleave.

  // Added to every fabric tag the engine (and its AdjacencyService)
  // uses. Tags 0-5 are the engine's own, 8-12 belong to the baselines;
  // the job service hands out bases starting at 16, stride 6.
  uint32_t fabric_tag_base = 0;
  // Prepended to every scratch file name this engine touches on machine
  // disks (vertex attributes, spill partitions, checkpoints) so
  // concurrent jobs on the same simulated disks never collide.
  std::string scratch_prefix;
  // Superstep barrier. Null = the cluster-wide barrier (single-engine
  // mode). Concurrent engines each bring their own std::barrier sized
  // num_machines: the shared cluster barrier would make unrelated jobs
  // wait for each other — and deadlock once their superstep counts
  // differ.
  std::barrier<>* job_barrier = nullptr;
  // Correlation key for the observability plane (docs/OBSERVABILITY.md):
  // stamped on every structured event this engine emits (superstep,
  // checkpoint, recovery, machine-lost) and set as the ambient job id on
  // the engine's worker threads, so fabric and buffer-pool events beneath
  // them attribute to this job too. 0 = standalone run (no job).
  uint64_t job_id = 0;
  // Cooperative cancellation + deadline, observed at superstep
  // boundaries: a fired token surfaces as Status::Cancelled /
  // Status::Timeout from Run() after the in-flight superstep completes.
  // Null = never cancelled.
  const CancelToken* cancel = nullptr;
};

template <typename V, typename U>
class NwsmEngine {
 public:
  static_assert(std::is_trivially_copyable_v<V>);
  static_assert(std::is_trivially_copyable_v<U>);

  NwsmEngine(Cluster* cluster, const PartitionedGraph* pg,
             EngineOptions options = {})
      : cluster_(cluster), pg_(pg), options_(options) {
    states_.resize(cluster->num_machines());
    for (int m = 0; m < cluster->num_machines(); ++m) {
      states_[m] = std::make_unique<MachineState>();
      states_[m]->active.Resize(pg->MachineRange(m).size());
      states_[m]->next_active.Resize(pg->MachineRange(m).size());
    }
  }

  // The memory-model check of Algorithm 1 line 1: the q this query needs
  // on this cluster.
  Result<int> ComputeRequiredQ(const KWalkApp<V, U>& app) const {
    return ComputeQMin(ModelInput(/*m=*/0, app));
  }

  // ProcessVertices: writes initial attributes to each machine's disk and
  // sets the initial frontier.
  Status Initialize(const KWalkApp<V, U>& app) {
    return cluster_->RunOnAll([&](int m) -> Status {
      return InitializeMachine(m, app);
    });
  }

  // Start(): runs supersteps until convergence or app.max_supersteps.
  // With options.checkpoint_every > 0, state is checkpointed every N
  // superstep boundaries and a retryable failure (Status::IsRetryable():
  // an injected crash, an unretryable disk error, a lost message, a
  // fail-stop machine) rolls all machines back to the last complete
  // epoch — reviving any machine the failure took down — and replays
  // from there (docs/FAULTS.md). Without a checkpoint a MachineLost
  // failure returns cleanly, bounded by the heartbeat timeout; the
  // machines stay down until the caller revives them (Fabric::Reset,
  // Cluster::ReviveAllMachines, or the job manager's retry path).
  Result<QueryStats> Run(KWalkApp<V, U>& app) {
    TGPP_ASSIGN_OR_RETURN(const int q_needed, ComputeRequiredQ(app));
    if (q_needed > pg_->q) {
      return Status::InvalidArgument(
          "query needs q=" + std::to_string(q_needed) +
          " but the graph is partitioned with q=" + std::to_string(pg_->q) +
          "; repartition first (TurboGraphSystem does this automatically)");
    }
    resident_chunk_ = ResidentChunks();
    WallTimer timer;
    QueryStats stats;
    stats.q_used = pg_->q;
    // Driver-thread ambient job id: events emitted from Run() itself
    // (checkpoint, recovery, superstep) carry options_.job_id explicitly,
    // but layers we call into on this thread attribute through this.
    obs::SetCurrentJob(options_.job_id);
    global_aggregate_.store(0, std::memory_order_relaxed);

    // Failure detection: explicit options win; an armed `machine.kill`
    // rule auto-enables the defaults so an unconfigured chaos run fails
    // fast instead of wedging on a vanished machine.
    HeartbeatOptions hb;
    bool detect = options_.heartbeat_timeout_ms > 0;
    if (detect) hb.timeout_ms = options_.heartbeat_timeout_ms;
    if (options_.heartbeat_interval_ms > 0) {
      hb.interval_ms = options_.heartbeat_interval_ms;
    }
    if (!detect && fault::SpecContainsSite("machine.kill")) detect = true;
    detection_enabled_ = detect;
    struct HeartbeatGuard {
      Fabric* fabric = nullptr;
      ~HeartbeatGuard() {
        if (fabric != nullptr) fabric->StopHeartbeats();
      }
    } hb_guard;
    if (detect) {
      cluster_->fabric()->StartHeartbeats(hb);
      hb_guard.fabric = cluster_->fabric();
    }

    const int every = options_.checkpoint_every;
    int last_epoch = -1;  // epoch E = state at the start of superstep E
    int step = 0;
    if (every > 0 && options_.resume_from_checkpoint) {
      // Job-level retry resumes from whatever the failed attempt last
      // checkpointed instead of cold-restarting from superstep 0.
      const int found = FindLatestEpoch(app.max_supersteps);
      if (found >= 0) {
        TGPP_RETURN_IF_ERROR(RestoreEpoch(found));
        step = found;
        last_epoch = found;
        stats.resumed = true;
        obs::EmitEvent(obs::EventType::kResume, options_.job_id, -1, found);
      }
    }
    if (every > 0 && last_epoch < 0) {
      TGPP_RETURN_IF_ERROR(CheckpointEpoch(0));
      last_epoch = 0;
      ++stats.checkpoints;
      obs::EmitEvent(obs::EventType::kCheckpoint, options_.job_id, -1, 0);
    }
    int recovery_attempts = 0;
    int replay_until = step;  // supersteps below this are re-execution
    Direction prev_direction = Direction::kPush;
    // Baseline for per-superstep deltas: counters accumulated before this
    // Run (e.g. a warmup query) are not attributed to our first row.
    ObserverTotals seen = CaptureObserverTotals(0.0);
    while (step < app.max_supersteps) {
      // Cooperative cancellation / deadline: observed at superstep
      // boundaries only, so an in-flight superstep always runs to its
      // barrier — no machine is ever stranded mid-protocol. The caller
      // (the job service) releases the admitted budget on this return.
      if (options_.cancel != nullptr) {
        Status cancel_status = options_.cancel->Check();
        if (!cancel_status.ok()) {
          fault::SetSuperstep(-1);
          return cancel_status;
        }
      }
      fault::SetSuperstep(step);
      current_step_.store(step, std::memory_order_relaxed);
      global_active_.store(0, std::memory_order_relaxed);
      // Direction decision for this superstep (algos/frontier.h):
      // computed once on the driver from the shared frontier state, so
      // every machine agrees without a protocol round.
      const Direction dir = ChooseSuperstepDirection(app, prev_direction);
      current_direction_.store(dir == Direction::kPull ? 1 : 0,
                               std::memory_order_relaxed);
      WallTimer superstep_timer;
      Status status = cluster_->RunOnAll(
          [&](int m) -> Status { return MachineSuperstep(m, app); });
      const double superstep_seconds = superstep_timer.Seconds();
      if (!status.ok()) {
        if (status.IsMachineLost()) {
          // Emitted whether or not we can recover: the operator joins this
          // on job_id to learn which machine a failed job lost.
          obs::EmitEvent(obs::EventType::kEngineMachineLost,
                         options_.job_id, status.machine_id(), step);
        }
        if (last_epoch < 0 || !status.IsRetryable() ||
            recovery_attempts >= options_.max_recovery_attempts) {
          fault::SetSuperstep(-1);
          return status;
        }
        ++recovery_attempts;
        ++stats.recoveries;
        stats.recovered_superstep_distance += step - last_epoch;
        if (status.IsMachineLost()) {
          // Detection cost: the failed superstep's wall time spans kill →
          // heartbeat timeout → every survivor unblocked.
          stats.recovery_detect_seconds += superstep_seconds;
          // "Replace" the dead machine. In the simulated cluster the same
          // Machine revives with its disks intact — a process restart on
          // the same host; the checkpoint restore below rebuilds its
          // volatile state.
          cluster_->ReviveAllMachines();
        }
        trace::Instant("engine.recover", "engine", "epoch",
                       static_cast<uint64_t>(last_epoch), "failed_step",
                       static_cast<uint64_t>(step));
        obs::EmitEvent(obs::EventType::kRecovery, options_.job_id, -1, step,
                       nullptr, "epoch", static_cast<uint64_t>(last_epoch));
        // The failed superstep may have left half-delivered updates and
        // control traffic in flight; everything since the epoch is
        // recomputed, so the queues are drained wholesale.
        cluster_->fabric()->Reset();
        WallTimer restore_timer;
        Status restored = RestoreEpoch(last_epoch);
        stats.recovery_restore_seconds += restore_timer.Seconds();
        if (!restored.ok()) {
          fault::SetSuperstep(-1);
          return restored;
        }
        cluster_->machine(0)->metrics()->recoveries.Add(1);
        if (step > replay_until) replay_until = step;
        step = last_epoch;
        continue;
      }
      if (step < replay_until) {
        // This superstep only ran again because a recovery rolled us back
        // past it: its wall time is pure re-execution cost.
        stats.recovery_replay_seconds += superstep_seconds;
        cluster_->machine(0)->metrics()->recovery_replay_supersteps.Add(1);
      }
      stats.supersteps = step + 1;
      prev_direction = dir;
      if (dir == Direction::kPull) {
        ++stats.pull_supersteps;
      } else {
        ++stats.push_supersteps;
      }
      if (obs::EventsEnabled()) {
        obs::EmitEvent(obs::EventType::kSuperstep, options_.job_id, -1, step,
                       dir == Direction::kPull ? "pull" : "push", "active",
                       global_active_.load(std::memory_order_relaxed),
                       "dur_us",
                       static_cast<uint64_t>(superstep_seconds * 1e6));
      }
      if (options_.superstep_observer) {
        options_.superstep_observer(
            MakeSuperstepRow(step, timer.Seconds(), &seen));
      }
      if (global_active_.load(std::memory_order_relaxed) == 0) {
        // Staged kernels (delta-stepping buckets, k-core peeling phases)
        // advance their round here and reactivate in the next apply
        // pass; everyone else converges.
        if (!(app.on_quiescent && step + 1 < app.max_supersteps &&
              app.on_quiescent(step))) {
          break;
        }
      }
      ++step;
      if (every > 0 && step % every == 0 && step < app.max_supersteps) {
        Status ckpt = CheckpointEpoch(step);
        if (!ckpt.ok()) {
          fault::SetSuperstep(-1);
          return ckpt;
        }
        ++stats.checkpoints;
        obs::EmitEvent(obs::EventType::kCheckpoint, options_.job_id, -1,
                       step);
        RemoveEpoch(last_epoch);  // best-effort: bound disk usage
        last_epoch = step;
      }
    }
    fault::SetSuperstep(-1);
    stats.wall_seconds = timer.Seconds();
    stats.aggregate_sum = global_aggregate_.load(std::memory_order_relaxed);
    return stats;
  }

  // Gathers all vertex attributes, indexed by NEW vertex id (tests remap
  // through pg->new_to_old as needed).
  Status ReadAttributes(std::vector<V>* out) {
    out->assign(pg_->num_vertices, V{});
    std::mutex mu;
    return cluster_->RunOnAll([&](int m) -> Status {
      const VertexRange range = pg_->MachineRange(m);
      std::vector<V> chunk;
      TGPP_RETURN_IF_ERROR(ReadAttrRange(m, range, &chunk));
      std::lock_guard<std::mutex> lock(mu);
      std::copy(chunk.begin(), chunk.end(), out->begin() + range.begin);
      return Status::OK();
    });
  }

  uint64_t aggregate_sum() const {
    return global_aggregate_.load(std::memory_order_relaxed);
  }

  // --- Fault tolerance (paper A.3): checkpoint the vertex attribute data
  // and the active frontier to each machine's own disk; a failure is
  // recovered by rolling back to the latest checkpoint and replaying the
  // superstep loop. One file per machine:
  //
  //   CkptHeader | vertex attrs (V[range]) | frontier bitmap (1 bit/vertex)
  //
  // The body is CRC32-checksummed so a torn write (e.g. a crash mid
  // checkpoint) restores as kCorruption, never as silent garbage.

  struct CkptHeader {
    uint64_t magic = kCkptMagic;
    uint32_t version = 1;
    int32_t superstep = -1;      // epoch: next superstep after restore
    uint64_t attr_bytes = 0;
    uint64_t frontier_bytes = 0;
    uint64_t aggregate = 0;      // global aggregate at checkpoint time
    uint32_t body_crc = 0;
    uint32_t reserved = 0;
  };
  static_assert(std::is_trivially_copyable_v<CkptHeader>);
  static constexpr uint64_t kCkptMagic = 0x54677070436b7074ull;  // "TgppCkpt"

  Status Checkpoint(const std::string& tag) {
    const int32_t superstep = current_step_.load(std::memory_order_relaxed);
    const uint64_t aggregate =
        global_aggregate_.load(std::memory_order_relaxed);
    return cluster_->RunOnAll([&](int m) -> Status {
      return CheckpointMachine(m, tag, superstep, aggregate);
    });
  }

  Status Restore(const std::string& tag) {
    std::atomic<uint64_t> aggregate{0};
    TGPP_RETURN_IF_ERROR(cluster_->RunOnAll([&](int m) -> Status {
      CkptHeader header;
      TGPP_RETURN_IF_ERROR(RestoreMachine(m, tag, &header));
      aggregate.store(header.aggregate, std::memory_order_relaxed);
      return Status::OK();
    }));
    // All machines store the same value (written by one Checkpoint call).
    global_aggregate_.store(aggregate.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    return Status::OK();
  }

 private:
  struct MachineState {
    AtomicBitmap active;
    AtomicBitmap next_active;
    std::atomic<uint64_t> aggregate{0};
  };

  // Cumulative counter values already attributed to earlier superstep
  // rows; the next row reports (current cumulative) - (seen). After a
  // rollback the replayed superstep's work is counted again — the row
  // series then honestly shows the recovery's extra I/O and updates.
  struct ObserverTotals {
    uint64_t generated = 0;
    uint64_t sent = 0;
    uint64_t spilled = 0;
    uint64_t disk_bytes = 0;
    uint64_t net_bytes = 0;
    uint64_t scatter_cpu_nanos = 0;
    uint64_t gather_cpu_nanos = 0;
    uint64_t apply_cpu_nanos = 0;
    double elapsed = 0.0;
  };

  ObserverTotals CaptureObserverTotals(double elapsed) {
    ObserverTotals now;
    for (int m = 0; m < cluster_->num_machines(); ++m) {
      Machine* machine = cluster_->machine(m);
      now.generated += machine->metrics()->updates_generated.value();
      now.sent += machine->metrics()->updates_sent.value();
      now.spilled += machine->metrics()->updates_spilled.value();
      now.disk_bytes +=
          machine->disk()->bytes_read() + machine->disk()->bytes_written();
      now.scatter_cpu_nanos += machine->metrics()->scatter_cpu_nanos.value();
      now.gather_cpu_nanos += machine->metrics()->gather_cpu_nanos.value();
      now.apply_cpu_nanos += machine->metrics()->apply_cpu_nanos.value();
    }
    now.net_bytes = cluster_->fabric()->bytes_sent();
    now.elapsed = elapsed;
    return now;
  }

  obs::SuperstepRow MakeSuperstepRow(int step, double elapsed,
                                     ObserverTotals* seen) {
    const ObserverTotals now = CaptureObserverTotals(elapsed);
    obs::SuperstepRow row;
    row.superstep = step;
    // Frontier this superstep produced (= active entering the next one).
    row.active_vertices = global_active_.load(std::memory_order_relaxed);
    row.updates_generated = now.generated - seen->generated;
    row.updates_sent = now.sent - seen->sent;
    row.updates_spilled = now.spilled - seen->spilled;
    row.disk_bytes = now.disk_bytes - seen->disk_bytes;
    row.net_bytes = now.net_bytes - seen->net_bytes;
    row.buffer_hit_rate = cluster_->BufferPoolHitRate();
    row.superstep_seconds = elapsed - seen->elapsed;
    row.elapsed_seconds = elapsed;
    row.scatter_cpu_seconds =
        1e-9 * (now.scatter_cpu_nanos - seen->scatter_cpu_nanos);
    row.gather_cpu_seconds =
        1e-9 * (now.gather_cpu_nanos - seen->gather_cpu_nanos);
    row.apply_cpu_seconds =
        1e-9 * (now.apply_cpu_nanos - seen->apply_cpu_nanos);
    row.direction =
        current_direction_.load(std::memory_order_relaxed) ? "pull" : "push";
    *seen = now;
    return row;
  }

  // ---- frontier direction selection (algos/frontier.h) ----

  // A kernel can pull only in single-level partial mode with a
  // pull_scatter; everything else always pushes.
  bool PullCapable(const KWalkApp<V, U>& app) const {
    return app.k == 1 && app.mode == AdjMode::kPartial &&
           static_cast<bool>(app.pull_scatter);
  }

  Direction ChooseSuperstepDirection(const KWalkApp<V, U>& app,
                                     Direction prev) {
    if (!PullCapable(app) ||
        options_.frontier.direction == DirectionMode::kPush) {
      return Direction::kPush;
    }
    if (options_.frontier.direction == DirectionMode::kPull) {
      return Direction::kPull;
    }
    // kAuto: the Ligra/Beamer density rule over the global frontier.
    // O(active) per superstep — the frontier is exactly what the scatter
    // phase is about to iterate anyway.
    uint64_t frontier_vertices = 0;
    uint64_t frontier_degree = 0;
    for (int m = 0; m < cluster_->num_machines(); ++m) {
      const VertexId base = pg_->MachineRange(m).begin;
      states_[m]->active.ForEachSet([&](uint64_t bit) {
        ++frontier_vertices;
        frontier_degree += pg_->out_degree[base + bit];
      });
    }
    return ChooseDirection(prev, frontier_vertices, frontier_degree,
                           pg_->num_vertices, pg_->num_edges,
                           options_.frontier);
  }

  // ---- multi-query isolation helpers (see the EngineOptions block) ----

  uint32_t Tag(uint32_t tag) const { return options_.fabric_tag_base + tag; }

  std::string AttrFile() const {
    return options_.scratch_prefix + kVertexAttrFileName;
  }

  // The superstep barrier: the job's own when one was supplied, the
  // cluster-wide barrier otherwise.
  void JobBarrier() {
    if (options_.job_barrier != nullptr) {
      options_.job_barrier->arrive_and_wait();
    } else {
      cluster_->Barrier();
    }
  }

  // The failable superstep barrier. Without failure detection this is the
  // plain std::barrier (byte-identical to the historical engine). With
  // detection, arrivals and releases are fabric messages on
  // Tag(kTagBarrier) coordinated by machine 0 under receive deadlines, so
  // a machine that dies mid-protocol can never wedge the others: the
  // coordinator's RecvFor fails fast once the heartbeat monitor declares
  // the loss, and it still releases every survivor before reporting the
  // failure. Each machine sends exactly one arrival per round and cannot
  // start the next round until released, so FIFO per (src, dst, tag)
  // keeps consecutive rounds from interleaving.
  Status FailableBarrier(int m) {
    if (!detection_enabled_) {
      JobBarrier();
      return Status::OK();
    }
    trace::TraceSpan span("barrier.wait", "cluster");
    Fabric* fabric = cluster_->fabric();
    Status result;
    if (m == 0) {
      for (int i = 1; i < pg_->p; ++i) {
        Message msg;
        Status s = fabric->RecvFor(0, Tag(kTagBarrier), &msg,
                                   options_.recv_timeout_ms);
        if (!s.ok()) {
          result = s;
          break;
        }
      }
      // Release every peer even on failure — the flag tells them the
      // round failed, so nobody keeps waiting for protocol traffic.
      for (int i = 1; i < pg_->p; ++i) {
        std::vector<uint8_t> release;
        AppendPod<uint8_t>(&release, result.ok() ? 0 : 1);
        fabric->Send(0, i, Tag(kTagBarrier), std::move(release));
      }
    } else {
      std::vector<uint8_t> arrive;
      AppendPod<uint8_t>(&arrive, 0);
      fabric->Send(m, 0, Tag(kTagBarrier), std::move(arrive));
      Message release;
      Status s = fabric->RecvFor(m, Tag(kTagBarrier), &release,
                                 options_.recv_timeout_ms);
      if (!s.ok()) result = s;
      // A failed release needs no action here: the failure that caused it
      // is already carried in some machine's own superstep status.
    }
    return result;
  }

  // ---- vertex attribute windows (vertex streams) ----

  Status ReadAttrRange(int m, VertexRange range, std::vector<V>* out) {
    out->resize(range.size());
    if (range.size() == 0) return Status::OK();
    const VertexId base = pg_->MachineRange(m).begin;
    return cluster_->machine(m)->disk()->Read(
        AttrFile(), (range.begin - base) * sizeof(V), out->data(),
        out->size() * sizeof(V));
  }

  Status WriteAttrRange(int m, VertexRange range,
                        const std::vector<V>& data) {
    if (range.size() == 0) return Status::OK();
    const VertexId base = pg_->MachineRange(m).begin;
    return cluster_->machine(m)->disk()->Write(
        AttrFile(), (range.begin - base) * sizeof(V), data.data(),
        data.size() * sizeof(V));
  }

  Status InitializeMachine(int m, const KWalkApp<V, U>& app) {
    MachineState& state = *states_[m];
    state.active.ClearAll();
    state.next_active.ClearAll();
    state.aggregate.store(0, std::memory_order_relaxed);
    const VertexRange range = pg_->MachineRange(m);
    for (int c = 0; c < pg_->q; ++c) {
      const VertexRange chunk = pg_->VertexChunkRange(m, c);
      std::vector<V> attrs(chunk.size());
      for (uint64_t i = 0; i < chunk.size(); ++i) {
        const VertexId vid = chunk.begin + i;
        attrs[i] = V{};
        if (app.init && app.init(vid, attrs[i])) {
          state.active.Set(vid - range.begin);
        }
      }
      TGPP_RETURN_IF_ERROR(WriteAttrRange(m, chunk, attrs));
    }
    return Status::OK();
  }

  // ---- the superstep (Algorithm 1) ----

  Status MachineSuperstep(int m, KWalkApp<V, U>& app) {
    Machine* machine = cluster_->machine(m);
    // Ambient job id for this worker thread: structured events emitted
    // below us (fabric, buffer pool) attribute to this job without those
    // layers knowing about jobs. Reset naturally when another job's
    // engine runs its superstep on the same pool thread.
    obs::SetCurrentJob(options_.job_id);
    // Fail-stop injection: a killed machine vanishes — no scatter, no
    // done markers, no barrier arrivals (contrast with `crash` below,
    // which cooperatively walks the protocol skeleton). Survivors learn
    // of the loss from the fabric heartbeat monitor; with detection off
    // their receive deadlines are the backstop.
    if (fault::Hit("machine.kill", m)) {
      cluster_->KillMachine(m);
      return Status::MachineLost(
          m, current_step_.load(std::memory_order_relaxed));
    }
    if (!machine->alive()) {
      return Status::MachineLost(
          m, current_step_.load(std::memory_order_relaxed));
    }
    MachineState& state = *states_[m];
    const int q = pg_->q;
    trace::TraceSpan superstep_span("superstep", "engine");
    superstep_span.AddArg(
        "step", current_step_.load(std::memory_order_relaxed));

    // Every failure from here on is *carried* through the full superstep
    // skeleton (done markers, gather join, barriers, allreduce) rather
    // than returned early: a machine that bails out of the protocol
    // strands its peers in std::barrier forever. The phases themselves
    // are skipped once step_status is non-OK.
    Status step_status;

    // Injected machine crash: this machine loses the superstep (no
    // scatter, no apply) but keeps walking the protocol skeleton —
    // modeling a failed worker whose peers detect the failure at the
    // allreduce and roll back together.
    if (auto crash = fault::Hit("crash", m)) {
      (void)crash;
      step_status = Status::Aborted(
          "injected crash on machine " + std::to_string(m) +
          " at superstep " +
          std::to_string(current_step_.load(std::memory_order_relaxed)));
    }

    // Pre-superstep: truncate spill partitions.
    const int resident = resident_chunk_[m];
    for (int c = 0; c < q && step_status.ok(); ++c) {
      if (c == resident) continue;
      step_status = machine->disk()->Truncate(SpillFileName(c), 0);
    }

    // Spawn the global gather task (Algorithm 1 lines 5-7). It runs even
    // on a failed machine: peers' updates addressed here must be drained
    // so *their* sends and done markers complete.
    GatherRuntime gather;
    gather.resident = resident;
    gather.ggb.Reset(pg_->VertexChunkRange(m, resident));
    std::thread gather_thread([&] {
      if (trace::Enabled()) {
        trace::SetCurrentMachine(m);
        trace::SetCurrentThreadName("m" + std::to_string(m) + ".gather");
      }
      obs::SetCurrentJob(options_.job_id);
      GlobalGatherLoop(m, app, &gather);
    });

    // Adjacency service answers remote full-list reads during scatter.
    std::unique_ptr<AdjacencyService> adj_service;
    if (app.mode == AdjMode::kFull) {
      adj_service = std::make_unique<AdjacencyService>(cluster_, pg_, m);
      adj_service->set_recv_timeout_ms(options_.recv_timeout_ms);
      adj_service->set_tag_base(options_.fabric_tag_base);
      adj_service->Start();
    }

    // Scatter phase (overlapped with the gather task).
    if (step_status.ok()) {
      trace::TraceSpan scatter_span("scatter", "engine");
      obs::ScopedCpuCounter cpu(&machine->metrics()->scatter_cpu_nanos);
      if (app.mode == AdjMode::kPartial) {
        step_status = current_direction_.load(std::memory_order_relaxed)
                          ? ScatterPull(m, app)
                          : ScatterPartial(m, app);
      } else {
        step_status = ScatterFull(m, app, adj_service.get());
      }
    }
    // Done markers to every machine (including self) end their gathers.
    for (int dst = 0; dst < pg_->p; ++dst) {
      std::vector<uint8_t> marker;
      AppendPod<uint8_t>(&marker, 1);  // kind: done
      cluster_->fabric()->Send(m, dst, Tag(kTagUpdates), std::move(marker));
    }
    gather_thread.join();
    if (step_status.ok()) step_status = gather.status;

    // GLOBALBARRIER (Algorithm 1 line 22): all updates are now gathered
    // in memory or on disk everywhere; remote adjacency reads are over.
    Status barrier_status = FailableBarrier(m);
    if (step_status.ok()) step_status = barrier_status;
    if (adj_service != nullptr) adj_service->Stop();

    // Gather spilled updates overlapped with apply (Algorithms 3-4).
    if (step_status.ok()) {
      step_status = ApplyPhase(m, app, &gather);
    }

    // Superstep epilogue: swap frontiers, allreduce activity + aggregate.
    // A failed machine's contribution is garbage, but recovery discards
    // all of this state anyway; what matters is that it participates.
    const VertexRange range = pg_->MachineRange(m);
    uint64_t local_active = state.next_active.CountSet();
    machine->metrics()->active_vertices.Set(
        static_cast<int64_t>(local_active));
    std::swap(state.active, state.next_active);
    state.next_active.Resize(range.size());

    const uint64_t local_agg =
        state.aggregate.exchange(0, std::memory_order_relaxed);
    Status reduce_status =
        Allreduce(m, local_active, local_agg, !step_status.ok());
    if (step_status.ok()) step_status = reduce_status;
    return step_status;
  }

  // ---- partial adjacency list mode scatter ----

  Status ScatterPartial(int m, KWalkApp<V, U>& app) {
    Machine* machine = cluster_->machine(m);
    MachineState& state = *states_[m];
    const VertexRange my_range = pg_->MachineRange(m);
    const int q = pg_->q;
    const int r = pg_->r;

    TGPP_ASSIGN_OR_RETURN(
        PageFile file,
        PageFile::Open(machine->disk(), PartitionedGraph::kEdgeFileName));

    // Work-efficient frontier snapshot (algos/frontier.h): when sparse
    // windows are enabled, take a per-superstep view of the active set
    // that can answer the per-window count/degree queries cheaply, plus
    // a local adjacency reader and its memory budget for the sparse
    // (point-lookup) scan path.
    const FrontierOptions& fopt = options_.frontier;
    const bool sparse_enabled = fopt.sparse_windows && app.k == 1;
    FrontierView view;
    std::unique_ptr<AdjacencyService> sparse_adj;
    uint64_t sparse_adj_budget = 0;
    if (sparse_enabled) {
      view.Build(state.active,
                 my_range.size() /
                     std::max<uint64_t>(1, fopt.sparse_list_den));
      sparse_adj_budget = AdjWindowBytes(m, app);
      sparse_adj = std::make_unique<AdjacencyService>(cluster_, pg_, m);
    }

    std::vector<V> vertex_window;
    for (int i = 0; i < q; ++i) {
      const VertexRange vr = pg_->VertexChunkRange(m, i);
      if (vr.size() == 0) continue;
      const uint64_t lo = vr.begin - my_range.begin;
      const uint64_t hi = vr.end - my_range.begin;
      // Frontier skip: no active source in this vertex window.
      const uint64_t active_in_window =
          sparse_enabled ? view.CountInRange(lo, hi)
                         : state.active.CountSetInRange(lo, hi);
      if (active_in_window == 0) continue;
      trace::TraceSpan window_span("scatter.window", "engine");
      window_span.AddArg("window", static_cast<uint64_t>(i));
      TGPP_RETURN_IF_ERROR(ReadAttrRange(m, vr, &vertex_window));
      const std::span<const EdgeChunkInfo> window_chunks = WindowChunks(m, i);

      // Per-window density decision: a sparse frontier's few sources are
      // fetched by point lookups instead of streaming every edge chunk
      // of the window.
      if (sparse_enabled && view.rep() == FrontierRep::kSparse) {
        const uint64_t active_degree = view.DegreeInRange(
            lo, hi,
            [&](uint64_t bit) { return pg_->out_degree[my_range.begin + bit]; });
        if (ChooseWindowMode(active_in_window, active_degree,
                             EdgesIn(window_chunks),
                             fopt) == WindowMode::kSparse) {
          machine->metrics()->frontier_sparse_windows.Add(1);
          window_span.AddArg("mode", static_cast<uint64_t>(1));
          TGPP_RETURN_IF_ERROR(SparseWindowScatter(
              m, app, vr, vertex_window, view, sparse_adj.get(),
              sparse_adj_budget));
          continue;
        }
      }
      machine->metrics()->frontier_dense_windows.Add(1);

      for (int j = 0; j < pg_->p * q; ++j) {
        const std::span<const EdgeChunkInfo> subs =
            window_chunks.subspan(static_cast<size_t>(j) * r, r);
        if (EdgesIn(subs) == 0) continue;

        engine_internal::DenseLgb<U> lgb;
        lgb.Reset(pg_->DstChunkRange(j));

        // NUMA-aware sub-chunk scheduling: one task per sub-chunk; the
        // sub-chunks' destination ranges are disjoint, so LGB updates are
        // CAS-free.
        Status sub_status;
        std::mutex status_mu;
        auto scan_subs = [&](int64_t first, int64_t last) {
          for (int64_t sub = first; sub < last; ++sub) {
            Status s = ProcessPartialSubChunk(m, app, file, subs[sub], vr,
                                              vertex_window, &lgb);
            if (!s.ok()) {
              std::lock_guard<std::mutex> lock(status_mu);
              if (sub_status.ok()) sub_status = s;
            }
          }
        };
        ParallelFor(machine->workers(), 0, r, /*grain=*/1, scan_subs);
        TGPP_RETURN_IF_ERROR(sub_status);

        // AsyncSend(LGB): ship the combined updates to the owner of
        // destination chunk j (paper in-memory local gather).
        const uint64_t combined =
            options_.in_memory_local_gather ? lgb.present_count() : 0;
        if (combined > 0) {
          machine->metrics()->updates_sent.Add(combined);
          cluster_->fabric()->Send(m, j / q, Tag(kTagUpdates),
                                   lgb.Serialize(combined));
        }
      }
    }
    return Status::OK();
  }

  Status ProcessPartialSubChunk(int m, KWalkApp<V, U>& app,
                                const PageFile& file,
                                const EdgeChunkInfo& chunk,
                                VertexRange vw_range,
                                const std::vector<V>& vertex_window,
                                engine_internal::DenseLgb<U>* lgb) {
    Machine* machine = cluster_->machine(m);
    MachineState& state = *states_[m];
    const VertexId active_base = pg_->MachineRange(m).begin;
    const VertexRange dst_range = lgb->range();

    ScatterContext<V, U> ctx = MakeScatterContext(m, /*level=*/1);
    // Ablation path: with local gather disabled, updates bypass the LGB
    // and are shipped raw (uncombined).
    std::vector<uint8_t> raw_updates;
    uint64_t raw_count = 0;
    if (options_.in_memory_local_gather) {
      AttachDenseSink(app, lgb, &ctx);
    } else {
      ctx.update_fn_ = [&](VertexId dst, const U& val) {
        if (!dst_range.Contains(dst)) {
          ++ctx.dropped_;
          return;
        }
        AppendPod<VertexId>(&raw_updates, dst);
        AppendPod<U>(&raw_updates, val);
        ++raw_count;
      };
    }

    const Status scan_status = ForEachChunkRecord(
        m, file, chunk, vw_range, /*in_page_order=*/options_.deterministic,
        [&](VertexId src, std::span<const VertexId> dsts) {
          if (!state.active.Test(src - active_base)) return;
          app.adj_scatter[1](ctx, src, vertex_window[src - vw_range.begin],
                             dsts);
        });
    machine->metrics()->updates_generated.Add(ctx.generated_);
    TGPP_RETURN_IF_ERROR(scan_status);
    // Edge pages are on-disk bytes: a destination outside the chunk's
    // range was dropped above rather than written out of bounds.
    if (ctx.dropped_ > 0) {
      return Status::Corruption(
          "machine " + std::to_string(m) + " edge chunk (" +
          std::to_string(chunk.src_chunk) + ", " +
          std::to_string(chunk.dst_chunk) + ", " +
          std::to_string(chunk.sub_chunk) + "): " +
          std::to_string(ctx.dropped_) +
          " record destinations outside destination range [" +
          std::to_string(dst_range.begin) + ", " +
          std::to_string(dst_range.end) + ")");
    }
    if (raw_count > 0) {
      std::vector<uint8_t> payload;
      AppendPod<uint8_t>(&payload, 0);  // kind: data
      AppendPod<uint64_t>(&payload, raw_count);
      payload.insert(payload.end(), raw_updates.begin(),
                     raw_updates.end());
      machine->metrics()->updates_sent.Add(raw_count);
      cluster_->fabric()->Send(m, chunk.dst_chunk / pg_->q, Tag(kTagUpdates),
                               std::move(payload));
    }
    return Status::OK();
  }

  // Streams one edge chunk's slotted pages — base pages first, then any
  // mutation delta pages (docs/DYNAMIC.md) — and calls body(src, dsts)
  // for every record. Every scatter path that scans edge chunks runs
  // through here.
  //
  // Asynchronous read-ahead: page t+1 is in flight while page t is
  // scanned (the disk/CPU overlap of 3-LPO). Reads are submitted as
  // prefetches, so they land in shared buffer-pool frames pinned on
  // arrival — concurrent misses on distinct pages overlap inside the
  // pool, and pages surviving into the next superstep count as
  // bufferpool.prefetch_hits. With in_page_order, pages are consumed in
  // page order so the record order (and any order-dependent
  // accumulation) is reproducible regardless of I/O completion order;
  // otherwise in completion order. Tickets are kept and drained before
  // returning: in-flight callbacks capture the local mu/cv/ready below,
  // so an early error return without the drain would be a
  // use-after-scope.
  template <typename Body>
  Status ForEachChunkRecord(int m, const PageFile& file,
                            const EdgeChunkInfo& chunk, VertexRange vw_range,
                            bool in_page_order, const Body& body) {
    if (chunk.num_pages == 0 && chunk.delta_pages.empty()) {
      return Status::OK();
    }
    Machine* machine = cluster_->machine(m);
    const std::vector<uint64_t> pages = chunk.PageNumbers();
    const uint64_t count = pages.size();
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<uint64_t, PageHandle>> ready;
    std::vector<AsyncIoService::Ticket> tickets;
    tickets.reserve(count);

    // Submits pages [submitted, end) as one batch.
    uint64_t submitted = 0;
    auto submit_through = [&](uint64_t end) {
      tickets.push_back(machine->io()->SubmitReads(
          machine->buffer_pool(), &file,
          std::vector<uint64_t>(pages.begin() + submitted,
                                pages.begin() + end),
          [&](uint64_t no, PageHandle handle) {
            std::lock_guard<std::mutex> lock(mu);
            ready.emplace_back(no, std::move(handle));
            cv.notify_all();
          },
          /*prefetch=*/true));
      submitted = end;
    };

    // The initial window goes down in ONE batch so the device can merge
    // adjacent pages into vectored requests; refills stay single-page.
    submit_through(std::min<uint64_t>(
        count, static_cast<uint64_t>(std::max(1, options_.read_ahead_pages))));
    Status scan_status;
    for (uint64_t processed = 0; processed < count; ++processed) {
      std::pair<uint64_t, PageHandle> item;
      {
        std::unique_lock<std::mutex> lock(mu);
        auto found = ready.end();
        cv.wait(lock, [&] {
          found = in_page_order
                      ? std::find_if(ready.begin(), ready.end(),
                                     [&](const auto& r) {
                                       return r.first == pages[processed];
                                     })
                      : ready.begin();
          return found != ready.end();
        });
        item = std::move(*found);
        ready.erase(found);
      }
      if (!item.second.valid()) {
        // Failed page read (the ticket drain below retrieves the cause).
        scan_status = Status::IOError("async page read failed");
        break;
      }
      if (submitted < count) submit_through(submitted + 1);
      SlottedPageReader reader(item.second.data());
      // Never trust on-disk bytes: a corrupt slot directory must surface
      // as Status::Corruption, not as an out-of-bounds read.
      scan_status = reader.Validate();
      if (!scan_status.ok()) break;
      const uint32_t slots = reader.num_slots();
      for (uint32_t s = 0; s < slots; ++s) {
        const VertexId src = reader.SrcAt(s);
        if (src < vw_range.begin || src >= vw_range.end) {
          scan_status = Status::Corruption(
              "record src " + std::to_string(src) + " outside chunk range");
          break;
        }
        body(src, reader.DstsAt(s));
      }
      if (!scan_status.ok()) break;
    }
    for (auto& ticket : tickets) {
      Status s = ticket.Wait();
      if (!s.ok() && (scan_status.ok() || scan_status.message() ==
                                              "async page read failed")) {
        scan_status = s;  // the underlying cause beats the generic note
      }
    }
    return scan_status;
  }

  // ---- sparse-window scatter (work-efficient push) ----

  // Scans one vertex window whose frontier is sparse: instead of
  // streaming all of the window's edge chunks, the few active sources'
  // full adjacency lists are materialized by point lookups through the
  // buffer pool (the same two-level page index ScatterFull uses) and
  // scattered directly. Valid for k == 1 partial-mode kernels, whose
  // scatter is per-edge decomposable — a full list is just the
  // concatenation of the record fragments the dense path would stream.
  //
  // Runs single-threaded per window (the frontier is tiny by
  // construction) and emits per-owner payloads in ascending source
  // order, so the result is deterministic independent of I/O completion
  // order.
  Status SparseWindowScatter(int m, KWalkApp<V, U>& app, VertexRange vr,
                             const std::vector<V>& vertex_window,
                             const FrontierView& view,
                             AdjacencyService* adj_service,
                             uint64_t adj_budget) {
    Machine* machine = cluster_->machine(m);
    const VertexRange my_range = pg_->MachineRange(m);

    std::vector<VertexId> pending;
    view.ForEachIn(vr.begin - my_range.begin, vr.end - my_range.begin,
                   [&](uint64_t bit) {
                     pending.push_back(my_range.begin + bit);
                   });

    // Insertion-ordered accumulation: combining per destination without
    // losing the ascending-source emission order keeps payloads
    // byte-stable run to run.
    std::vector<std::pair<VertexId, U>> acc;
    std::unordered_map<VertexId, size_t> slot_of;
    ScatterContext<V, U> ctx = MakeScatterContext(m, /*level=*/1);
    ctx.update_fn_ = [&](VertexId dst, const U& val) {
      auto [it, inserted] = slot_of.try_emplace(dst, acc.size());
      if (inserted) {
        acc.emplace_back(dst, val);
      } else {
        app.vertex_gather(acc[it->second].second, val);
      }
    };

    Status status;
    for (size_t pos = 0, end = 0; pos < pending.size() && status.ok();
         pos = end) {
      end = NextBatchEnd(pending, pos, adj_budget, /*split_by_owner=*/false);
      AdjBatch batch;
      status = adj_service->MaterializeLocal(
          std::span<const VertexId>(pending.data() + pos, end - pos),
          &batch);
      for (size_t idx = 0; status.ok() && idx < batch.size(); ++idx) {
        const VertexId vid = batch.vids[idx];
        app.adj_scatter[1](ctx, vid, vertex_window[vid - vr.begin],
                           batch.Neighbors(idx));
      }
    }
    machine->metrics()->updates_generated.Add(ctx.generated_);
    TGPP_RETURN_IF_ERROR(status);
    ShipToOwners(m, acc);
    return Status::OK();
  }

  // ---- pull-direction scatter (direction-optimizing supersteps) ----

  // Beamer-style pull on src-major chunked storage: every machine first
  // allgathers the frontier bitmaps (each machine's active set, packed
  // like a checkpoint frontier, on the dedicated kTagFrontier channel),
  // then serially scans its own edge chunks interpreting each record's
  // source u as the *pulling* vertex — valid on symmetric graphs, where
  // u's out-list fragments equal its in-list fragments. The kernel's
  // pull_scatter early-exits on the first frontier neighbor; once a
  // vertex updates itself it is "claimed" and its remaining records this
  // superstep are skipped, as are records of vertices whose value is
  // final (pull_done). All updates target local vertices, so they are
  // combined in a window-sized LGB and delivered to self — pull
  // supersteps ship zero update bytes over the fabric.
  //
  // The scan is serial per machine: in pull mode sub-chunks share source
  // ranges (every chunk of window i touches the same pulling vertices),
  // so the dense path's CAS-free parallelism does not apply; the early
  // exits are what make the superstep cheap. Pull claims make record
  // order observable, so pages are always consumed in page order.
  Status ScatterPull(int m, KWalkApp<V, U>& app) {
    Machine* machine = cluster_->machine(m);
    MachineState& state = *states_[m];
    const VertexRange my_range = pg_->MachineRange(m);
    const int q = pg_->q;

    // Frontier allgather. n/8 bytes per peer — the (honestly accounted)
    // price of a dense superstep, in place of its update traffic.
    std::vector<uint8_t> mine((my_range.size() + 7) / 8, 0);
    state.active.ForEachSet([&](uint64_t bit) {
      mine[bit >> 3] |= static_cast<uint8_t>(1) << (bit & 7);
    });
    for (int peer = 0; peer < pg_->p; ++peer) {
      if (peer == m) continue;
      cluster_->fabric()->Send(m, peer, Tag(kTagFrontier), mine);
    }
    Frontier global(pg_->num_vertices, /*sparse_capacity=*/0);
    state.active.ForEachSet(
        [&](uint64_t bit) { global.Add(my_range.begin + bit); });
    for (int received = 0; received + 1 < pg_->p; ++received) {
      Message msg;
      TGPP_RETURN_IF_ERROR(cluster_->fabric()->RecvFor(
          m, Tag(kTagFrontier), &msg, options_.recv_timeout_ms));
      const VertexRange peer_range = pg_->MachineRange(msg.src);
      for (uint64_t bit = 0; bit < peer_range.size(); ++bit) {
        if ((msg.payload[bit >> 3] >> (bit & 7)) & 1) {
          global.Add(peer_range.begin + bit);
        }
      }
    }
    const std::function<bool(VertexId)> in_frontier =
        [&global](VertexId v) { return global.Test(v); };

    TGPP_ASSIGN_OR_RETURN(
        PageFile file,
        PageFile::Open(machine->disk(), PartitionedGraph::kEdgeFileName));

    std::vector<V> vertex_window;
    for (int i = 0; i < q; ++i) {
      const VertexRange vr = pg_->VertexChunkRange(m, i);
      if (vr.size() == 0) continue;
      trace::TraceSpan window_span("scatter.window", "engine");
      window_span.AddArg("window", static_cast<uint64_t>(i));
      window_span.AddArg("mode", static_cast<uint64_t>(2));
      TGPP_RETURN_IF_ERROR(ReadAttrRange(m, vr, &vertex_window));

      // The LGB spans the window, and its present flags are the claims:
      // a vertex that has updated itself is present.
      engine_internal::DenseLgb<U> lgb;
      lgb.Reset(vr);
      const uint8_t* claimed = lgb.present();
      ScatterContext<V, U> ctx = MakeScatterContext(m, /*level=*/1);
      AttachDenseSink(app, &lgb, &ctx);

      uint64_t skipped = 0;
      Status scan_status;
      for (const EdgeChunkInfo& chunk : WindowChunks(m, i)) {
        scan_status = ForEachChunkRecord(
            m, file, chunk, vr, /*in_page_order=*/true,
            [&](VertexId src, std::span<const VertexId> dsts) {
              const uint64_t idx = src - vr.begin;
              const V& attr = vertex_window[idx];
              if (claimed[idx] || (app.pull_done && app.pull_done(attr))) {
                ++skipped;
                return;
              }
              app.pull_scatter(ctx, src, attr, dsts, in_frontier);
            });
        if (!scan_status.ok()) break;
      }
      machine->metrics()->updates_generated.Add(ctx.generated_);
      if (skipped > 0) {
        machine->metrics()->pull_records_skipped.Add(skipped);
      }
      TGPP_RETURN_IF_ERROR(scan_status);
      if (ctx.dropped_ > 0) {
        return Status::Internal(
            "pull_scatter may only update its own source vertex: " +
            std::to_string(ctx.dropped_) + " updates outside window [" +
            std::to_string(vr.begin) + ", " + std::to_string(vr.end) +
            ") on machine " + std::to_string(m));
      }

      const uint64_t combined = lgb.present_count();
      if (combined > 0) {
        machine->metrics()->updates_sent.Add(combined);
        // Self-delivery: the gather task routes these into GGB/spill
        // exactly like remote updates, at zero fabric bytes.
        cluster_->fabric()->Send(m, m, Tag(kTagUpdates),
                                 lgb.Serialize(combined));
      }
    }
    return Status::OK();
  }

  // ---- full adjacency list mode scatter (k-walk enumeration) ----

  Status ScatterFull(int m, KWalkApp<V, U>& app,
                     AdjacencyService* adj_service) {
    Machine* machine = cluster_->machine(m);
    MachineState& state = *states_[m];
    const VertexRange my_range = pg_->MachineRange(m);
    const uint64_t adj_budget = AdjWindowBytes(m, app);

    std::vector<V> vertex_window;
    for (int i = 0; i < pg_->q; ++i) {
      const VertexRange vr = pg_->VertexChunkRange(m, i);
      if (vr.size() == 0) continue;
      if (state.active.CountSetInRange(vr.begin - my_range.begin,
                                       vr.end - my_range.begin) == 0) {
        continue;
      }
      trace::TraceSpan window_span("scatter.window", "engine");
      window_span.AddArg("window", static_cast<uint64_t>(i));
      TGPP_RETURN_IF_ERROR(ReadAttrRange(m, vr, &vertex_window));

      // Batch active vertices of this window so materialized full lists
      // stay within the adjacency window budget.
      std::vector<VertexId> pending;
      state.active.ForEachSet(
          vr.begin - my_range.begin, vr.end - my_range.begin,
          [&](uint64_t bit) { pending.push_back(my_range.begin + bit); });
      for (size_t pos = 0, end = 0; pos < pending.size(); pos = end) {
        end = NextBatchEnd(pending, pos, adj_budget, /*split_by_owner=*/false);
        AdjBatch batch;
        {
          obs::ScopedCpuCounter enum_cpu(
              &machine->metrics()->enumeration_cpu_nanos);
          TGPP_RETURN_IF_ERROR(adj_service->MaterializeLocal(
              std::span<const VertexId>(pending.data() + pos, end - pos),
              &batch));
        }
        std::vector<const AdjBatch*> batch_stack;
        std::vector<const ParentIndex*> index_stack;
        TGPP_RETURN_IF_ERROR(ProcessFullLevel(m, app, adj_service, 1,
                                              batch, &batch_stack,
                                              &index_stack, &vr,
                                              &vertex_window, adj_budget));
      }
    }
    return Status::OK();
  }

  using ParentIndex = typename ScatterContext<V, U>::ParentIndex;

  // Recursively processes one materialized window at level l, building the
  // voi/parent index for level l+1 from Mark() calls (the
  // mark-and-backward-traversal of paper §2.2). `batch_stack` and
  // `index_stack` hold the still-resident ancestor windows and the parent
  // indexes of the enclosing levels (the appendix A.6 generalization).
  Status ProcessFullLevel(int m, KWalkApp<V, U>& app,
                          AdjacencyService* adj_service, int level,
                          const AdjBatch& batch,
                          std::vector<const AdjBatch*>* batch_stack,
                          std::vector<const ParentIndex*>* index_stack,
                          const VertexRange* vw_range,
                          const std::vector<V>* vertex_window,
                          uint64_t adj_budget) {
    Machine* machine = cluster_->machine(m);
    batch_stack->push_back(&batch);

    const bool last_level = (level == app.k);
    ParentIndex next_parent_index;
    std::mutex mark_mu;

    // Updates at the last level can target arbitrary vertices; each task
    // uses its own fixed-capacity sparse LGB flushed to owners.
    auto flush_sparse = [&](const std::unordered_map<VertexId, U>& map) {
      ShipToOwners(m, map);
    };

    auto process_range = [&](size_t lo, size_t hi) {
      engine_internal::SparseLgb<U> lgb(/*capacity=*/4096, pg_->p);
      ScatterContext<V, U> ctx = MakeScatterContext(m, level);
      ctx.ancestor_batches_ = batch_stack;
      ctx.parent_indexes_ = index_stack;
      ctx.update_fn_ = [&](VertexId dst, const U& val) {
        lgb.Accumulate(dst, val, app.vertex_gather, flush_sparse);
      };
      ctx.mark_fn_ = [&](VertexId v) {
        // Record the walk's ending edge for backward traversal: the
        // current source u becomes a parent of v at the next level.
        // Consecutive duplicates (the same walk prefix marking v through
        // several enumeration paths) are collapsed.
        std::lock_guard<std::mutex> lock(mark_mu);
        std::vector<VertexId>& parents = next_parent_index[v];
        if (parents.empty() || parents.back() != ctx_current_) {
          parents.push_back(ctx_current_);
        }
      };
      for (size_t idx = lo; idx < hi; ++idx) {
        const VertexId vid = batch.vids[idx];
        ctx_current_ = vid;
        // Attributes are available for local vertices inside the current
        // vertex window; remote/other vertices see a default V (the
        // supported apps only read attributes at level 1).
        V attr{};
        if (vertex_window != nullptr && vw_range->Contains(vid)) {
          attr = (*vertex_window)[vid - vw_range->begin];
        }
        app.adj_scatter[level](ctx, vid, attr, batch.Neighbors(idx));
      }
      machine->metrics()->updates_generated.Add(ctx.generated_);
      lgb.FlushAll(flush_sparse);
    };

    if (last_level && level > 1 && batch.size() > 1) {
      // The computation level is the CPU-heavy one (set intersections);
      // split it across the machine's worker threads, one range each.
      const int64_t n = static_cast<int64_t>(batch.size());
      const int64_t threads = machine->workers()->num_threads();
      ParallelFor(machine->workers(), 0, n, (n + threads - 1) / threads,
                  [&](int64_t lo, int64_t hi) {
                    obs::ScopedCpuCounter cpu(
                        &machine->metrics()->scatter_cpu_nanos);
                    process_range(lo, hi);
                  });
    } else {
      process_range(0, batch.size());
    }

    if (last_level || next_parent_index.empty()) {
      batch_stack->pop_back();
      return Status::OK();
    }

    // Construct the level l+1 streams from voi[l+1]: sorted, grouped by
    // owner, fetched in budget-bounded windows (remote owners answer from
    // their disks over the fabric).
    std::vector<VertexId> marked;
    {
      obs::ScopedCpuCounter enum_cpu(
          &machine->metrics()->enumeration_cpu_nanos);
      marked.reserve(next_parent_index.size());
      for (const auto& [vid, parents] : next_parent_index) {
        marked.push_back(vid);
      }
      std::sort(marked.begin(), marked.end());
    }
    index_stack->push_back(&next_parent_index);
    Status recurse_status;
    for (size_t pos = 0, end = 0; pos < marked.size() && recurse_status.ok();
         pos = end) {
      end = NextBatchEnd(marked, pos, adj_budget, /*split_by_owner=*/true);
      AdjBatch next_batch;
      recurse_status = adj_service->Fetch(
          pg_->OwnerOf(marked[pos]),
          std::span<const VertexId>(marked.data() + pos, end - pos),
          &next_batch);
      if (recurse_status.ok()) {
        recurse_status = ProcessFullLevel(
            m, app, adj_service, level + 1, next_batch, batch_stack,
            index_stack, vw_range, vertex_window, adj_budget);
      }
    }
    index_stack->pop_back();
    batch_stack->pop_back();
    return recurse_status;
  }

  // ---- scatter building blocks shared by the paths above ----

  // Theorem 4.1's inputs for this query under machine m's window budget.
  MemoryModelInput ModelInput(int m, const KWalkApp<V, U>& app) const {
    return {.k = app.k,
            .p = pg_->p,
            .num_vertices = pg_->num_vertices,
            .vertex_attr_bytes = sizeof(V),
            .page_size = kPageSize,
            .total_budget_bytes = cluster_->machine(m)->WindowMemoryBytes()};
  }

  // Equation 3's adjacency-window budget: how many bytes of materialized
  // full lists one batch may hold.
  uint64_t AdjWindowBytes(int m, const KWalkApp<V, U>& app) const {
    return ComputeWindowSizes(ModelInput(m, app), pg_->q).adj_window_bytes;
  }

  // A level-`level` scatter context on machine m whose Mark() is a no-op;
  // callers install update_fn_ (and mark_fn_ where marking matters).
  ScatterContext<V, U> MakeScatterContext(int m, int level) const {
    ScatterContext<V, U> ctx;
    ctx.level_ = level;
    ctx.superstep_ = current_step_.load(std::memory_order_relaxed);
    ctx.aggregate_ = &states_[m]->aggregate;
    ctx.mark_fn_ = [](VertexId) {};
    return ctx;
  }

  // Points ctx's Update() straight at `lgb` (the in-memory local gather
  // of paper §4.1 without a call per edge): updates inside lgb's range
  // combine in place with app.vertex_gather, others are dropped and
  // counted in ctx->dropped_.
  static void AttachDenseSink(const KWalkApp<V, U>& app,
                              engine_internal::DenseLgb<U>* lgb,
                              ScatterContext<V, U>* ctx) {
    ctx->sink_values_ = lgb->values();
    ctx->sink_present_ = lgb->present();
    ctx->sink_base_ = lgb->range().begin;
    ctx->sink_size_ = lgb->range().size();
    ctx->sink_combine_ = app.vertex_gather;
  }

  // The edge sub-chunks of machine m's vertex window i, ordered
  // (destination chunk j, sub-chunk): part.chunks is laid out (i, j, sub),
  // so destination chunk j's r sub-chunks start at j * r.
  std::span<const EdgeChunkInfo> WindowChunks(int m, int i) const {
    const size_t per_window = static_cast<size_t>(pg_->p) * pg_->q * pg_->r;
    return std::span<const EdgeChunkInfo>(pg_->machines[m].chunks)
        .subspan(i * per_window, per_window);
  }

  static uint64_t EdgesIn(std::span<const EdgeChunkInfo> chunks) {
    uint64_t edges = 0;
    for (const EdgeChunkInfo& chunk : chunks) edges += chunk.num_edges;
    return edges;
  }

  // End of the batch that starts at vids[pos]: as many vertices as fit
  // the adjacency-window budget (always at least one). With
  // split_by_owner the batch also ends where the owner machine changes,
  // so it can be fetched from a single machine.
  size_t NextBatchEnd(const std::vector<VertexId>& vids, size_t pos,
                      uint64_t budget, bool split_by_owner) const {
    const int owner = split_by_owner ? pg_->OwnerOf(vids[pos]) : -1;
    uint64_t batch_bytes = 0;
    size_t end = pos;
    while (end < vids.size()) {
      if (split_by_owner && pg_->OwnerOf(vids[end]) != owner) break;
      const uint64_t bytes =
          (pg_->out_degree[vids[end]] + 2) * sizeof(VertexId);
      if (end > pos && batch_bytes + bytes > budget) break;
      batch_bytes += bytes;
      ++end;
    }
    return end;
  }

  // Ships (vid, update) pairs to their owner machines: one payload per
  // owner, entries in iteration order, in the wire format of
  // DenseLgb::Serialize. Counts per owner first, so each payload is
  // sized once and then filled.
  template <typename Pairs>
  void ShipToOwners(int m, const Pairs& updates) {
    std::vector<uint64_t> counts(pg_->p, 0);
    for (const auto& [vid, val] : updates) ++counts[pg_->OwnerOf(vid)];
    std::vector<std::vector<uint8_t>> per_owner(pg_->p);
    std::vector<uint8_t*> out(pg_->p, nullptr);
    for (int dst = 0; dst < pg_->p; ++dst) {
      if (counts[dst] == 0) continue;
      per_owner[dst] = engine_internal::NewUpdatePayload<U>(counts[dst]);
      out[dst] = per_owner[dst].data() + engine_internal::kUpdateHeaderBytes;
    }
    for (const auto& [vid, val] : updates) {
      uint8_t*& slot = out[pg_->OwnerOf(vid)];
      slot = engine_internal::PutUpdateRecord(slot, vid, val);
    }
    for (int dst = 0; dst < pg_->p; ++dst) {
      if (counts[dst] == 0) continue;
      cluster_->machine(m)->metrics()->updates_sent.Add(counts[dst]);
      cluster_->fabric()->Send(m, dst, Tag(kTagUpdates),
                               std::move(per_owner[dst]));
    }
  }

  // ---- global gather task (Algorithm 2) ----

  struct GatherRuntime {
    int resident = 0;  // the vertex chunk the GGB holds
    engine_internal::DenseLgb<U> ggb;  // in-memory global gather buffer
    Status status;
    // Buffered spill writers, one per chunk (the resident one stays empty).
    std::vector<std::vector<uint8_t>> spill_buffers;
  };

  std::string SpillFileName(int c) const {
    return options_.scratch_prefix + "spill_" + std::to_string(c) + ".bin";
  }

  std::string CheckpointFile(const std::string& tag) const {
    return options_.scratch_prefix + "checkpoint_" + tag + ".ckpt";
  }
  static std::string EpochTag(int epoch) {
    return "auto" + std::to_string(epoch);
  }

  Status CheckpointMachine(int m, const std::string& tag, int32_t superstep,
                           uint64_t aggregate) {
    trace::TraceSpan span("checkpoint", "engine");
    obs::SetCurrentJob(options_.job_id);
    Machine* machine = cluster_->machine(m);
    obs::ScopedLatencyTimer ckpt_timer(&machine->metrics()->checkpoint_ns);
    const VertexRange range = pg_->MachineRange(m);
    std::vector<V> attrs;
    TGPP_RETURN_IF_ERROR(ReadAttrRange(m, range, &attrs));
    std::vector<uint8_t> bits((range.size() + 7) / 8, 0);
    states_[m]->active.ForEachSet(
        [&](uint64_t bit) { bits[bit >> 3] |= 1 << (bit & 7); });

    CkptHeader header;
    header.superstep = superstep;
    header.attr_bytes = attrs.size() * sizeof(V);
    header.frontier_bytes = bits.size();
    header.aggregate = aggregate;
    header.body_crc = Crc32(attrs.data(), header.attr_bytes);
    header.body_crc = Crc32(bits.data(), bits.size(), header.body_crc);

    const std::string file = CheckpointFile(tag);
    TGPP_RETURN_IF_ERROR(machine->disk()->Truncate(file, 0));
    TGPP_RETURN_IF_ERROR(
        machine->disk()->Write(file, 0, &header, sizeof(header)));
    if (!attrs.empty()) {
      TGPP_RETURN_IF_ERROR(machine->disk()->Write(
          file, sizeof(header), attrs.data(), header.attr_bytes));
    }
    if (!bits.empty()) {
      TGPP_RETURN_IF_ERROR(machine->disk()->Write(
          file, sizeof(header) + header.attr_bytes, bits.data(),
          bits.size()));
    }
    return machine->disk()->Sync(file);
  }

  Status RestoreMachine(int m, const std::string& tag, CkptHeader* out) {
    trace::TraceSpan span("restore", "engine");
    obs::SetCurrentJob(options_.job_id);
    Machine* machine = cluster_->machine(m);
    const VertexRange range = pg_->MachineRange(m);
    const std::string file = CheckpointFile(tag);
    if (!machine->disk()->Exists(file)) {
      return Status::NotFound("no checkpoint '" + tag + "' on machine " +
                              std::to_string(m));
    }
    CkptHeader header;
    TGPP_RETURN_IF_ERROR(
        machine->disk()->Read(file, 0, &header, sizeof(header)));
    if (header.magic != kCkptMagic || header.version != 1) {
      return Status::Corruption("checkpoint '" + tag + "' on machine " +
                                std::to_string(m) + ": bad magic/version");
    }
    if (header.attr_bytes != range.size() * sizeof(V) ||
        header.frontier_bytes != (range.size() + 7) / 8) {
      return Status::Corruption("checkpoint '" + tag + "' on machine " +
                                std::to_string(m) +
                                ": shape mismatch (different graph or "
                                "attribute schema?)");
    }
    std::vector<V> attrs(range.size());
    if (!attrs.empty()) {
      TGPP_RETURN_IF_ERROR(machine->disk()->Read(
          file, sizeof(header), attrs.data(), header.attr_bytes));
    }
    std::vector<uint8_t> bits(header.frontier_bytes, 0);
    if (!bits.empty()) {
      TGPP_RETURN_IF_ERROR(machine->disk()->Read(
          file, sizeof(header) + header.attr_bytes, bits.data(),
          bits.size()));
    }
    uint32_t crc = Crc32(attrs.data(), header.attr_bytes);
    crc = Crc32(bits.data(), bits.size(), crc);
    if (crc != header.body_crc) {
      return Status::Corruption("checkpoint '" + tag + "' on machine " +
                                std::to_string(m) + ": CRC mismatch");
    }

    TGPP_RETURN_IF_ERROR(WriteAttrRange(m, range, attrs));
    MachineState& state = *states_[m];
    state.active.ClearAll();
    for (uint64_t bit = 0; bit < range.size(); ++bit) {
      if ((bits[bit >> 3] >> (bit & 7)) & 1) state.active.Set(bit);
    }
    // Discard any partial progress of the failed superstep.
    state.next_active.ClearAll();
    state.aggregate.store(0, std::memory_order_relaxed);
    *out = header;
    return Status::OK();
  }

  // Epoch checkpoints: state at the start of superstep `epoch`, written
  // by the Run() loop every options_.checkpoint_every supersteps.
  Status CheckpointEpoch(int epoch) {
    const uint64_t aggregate =
        global_aggregate_.load(std::memory_order_relaxed);
    return cluster_->RunOnAll([&](int m) -> Status {
      return CheckpointMachine(m, EpochTag(epoch), epoch, aggregate);
    });
  }

  Status RestoreEpoch(int epoch) { return Restore(EpochTag(epoch)); }

  // Highest epoch in [0, max_supersteps] with a checkpoint file on
  // machine 0's disk (RemoveEpoch keeps at most the latest two), or -1.
  // A cheap existence scan — Restore still CRC-validates every machine.
  int FindLatestEpoch(int max_supersteps) {
    int found = -1;
    DiskDevice* disk = cluster_->machine(0)->disk();
    for (int e = 0; e <= max_supersteps; ++e) {
      if (disk->Exists(CheckpointFile(EpochTag(e)))) found = e;
    }
    return found;
  }

  void RemoveEpoch(int epoch) {
    if (epoch < 0) return;
    (void)cluster_->RunOnAll([&](int m) -> Status {
      return cluster_->machine(m)->disk()->Remove(
          CheckpointFile(EpochTag(epoch)));
    });
  }

  // Per machine, the vertex chunk with the most incoming edges over every
  // machine's edge chunks (ties to the lowest index). Keeping it in the
  // GGB spills the fewest updates; BBP numbers vertices by ascending
  // degree, so it is usually the last chunk. Every chunk is at most
  // chunk 0's size, so the GGB stays within the Theorem 4.1 budget.
  std::vector<int> ResidentChunks() const {
    const int q = pg_->q;
    std::vector<uint64_t> in_edges(static_cast<size_t>(pg_->p) * q, 0);
    for (const MachinePartition& part : pg_->machines) {
      for (const EdgeChunkInfo& chunk : part.chunks) {
        in_edges[chunk.dst_chunk] += chunk.num_edges;
      }
    }
    std::vector<int> resident(pg_->p, 0);
    for (int m = 0; m < pg_->p; ++m) {
      const uint64_t* edges = in_edges.data() + static_cast<size_t>(m) * q;
      resident[m] =
          static_cast<int>(std::max_element(edges, edges + q) - edges);
    }
    return resident;
  }

  int ChunkOfLocal(int m, VertexId vid) const {
    const VertexRange range = pg_->MachineRange(m);
    const uint64_t chunk =
        (range.size() + pg_->q - 1) / std::max(1, pg_->q);
    return chunk == 0 ? 0 : static_cast<int>((vid - range.begin) / chunk);
  }

  void GlobalGatherLoop(int m, KWalkApp<V, U>& app, GatherRuntime* grt) {
    Machine* machine = cluster_->machine(m);
    trace::TraceSpan gather_span("gather", "engine");
    obs::ScopedCpuCounter cpu(&machine->metrics()->gather_cpu_nanos);
    grt->spill_buffers.assign(pg_->q, {});
    constexpr size_t kSpillFlushBytes = 64 * 1024;

    auto flush_spill = [&](int c) -> Status {
      auto& buf = grt->spill_buffers[c];
      if (buf.empty()) return Status::OK();
      uint64_t offset;
      TGPP_RETURN_IF_ERROR(machine->disk()->Append(
          SpillFileName(c), buf.data(), buf.size(), &offset));
      buf.clear();
      return Status::OK();
    };

    // Accumulates one data message into GGB / spill buffers. Returns the
    // first spill-flush error, or Corruption for a payload whose count
    // disagrees with its size or that carries a vertex this machine does
    // not own (the ids come from edge pages, which are not trusted). The
    // current vid's chunk range is cached, so the chunk is recomputed only
    // where the payload leaves it; each maximal run of records for one
    // spilled chunk is copied into its spill buffer whole (an LGB payload
    // covers one destination chunk, so it is a single run). The counters
    // are added once per message.
    const VertexRange my_range = pg_->MachineRange(m);
    constexpr size_t kHeaderBytes = engine_internal::kUpdateHeaderBytes;
    constexpr size_t kRecordBytes = engine_internal::kUpdateRecordBytes<U>;
    auto consume = [&](const Message& msg) -> Status {
      const size_t size = msg.payload.size();
      uint64_t count = 0;
      if (size >= kHeaderBytes) {
        std::memcpy(&count, msg.payload.data() + 1, sizeof(count));
      }
      if (size < kHeaderBytes || (size - kHeaderBytes) % kRecordBytes != 0 ||
          (size - kHeaderBytes) / kRecordBytes != count) {
        return Status::Corruption(
            "machine " + std::to_string(m) + ": update payload from machine " +
            std::to_string(msg.src) + " claims " + std::to_string(count) +
            " updates in " + std::to_string(size) + " bytes");
      }
      const uint8_t* rec = msg.payload.data() + kHeaderBytes;
      const uint8_t* const end = rec + count * kRecordBytes;
      int c = grt->resident;
      VertexRange chunk;  // empty: the first record looks its chunk up
      const uint8_t* run = rec;  // first record of the pending spill run
      uint64_t gathered = 0;
      uint64_t spilled = 0;
      // Copies the pending run [run, rec) of chunk c into its buffer.
      auto spill_run = [&]() -> Status {
        if (c == grt->resident || run == rec) return Status::OK();
        auto& buf = grt->spill_buffers[c];
        buf.insert(buf.end(), run, rec);
        spilled += (rec - run) / kRecordBytes;
        return buf.size() >= kSpillFlushBytes ? flush_spill(c) : Status::OK();
      };
      Status status;
      for (; rec != end; rec += kRecordBytes) {
        VertexId vid;
        std::memcpy(&vid, rec, sizeof(vid));
        if (!chunk.Contains(vid)) {
          if (!my_range.Contains(vid)) {
            status = Status::Corruption(
                "machine " + std::to_string(m) + ": update from machine " +
                std::to_string(msg.src) + " for vertex " +
                std::to_string(vid) + " outside its range [" +
                std::to_string(my_range.begin) + ", " +
                std::to_string(my_range.end) + ")");
            break;
          }
          status = spill_run();
          if (!status.ok()) break;
          c = ChunkOfLocal(m, vid);
          chunk = pg_->VertexChunkRange(m, c);
          run = rec;
        }
        if (c == grt->resident) {
          U val;
          std::memcpy(&val, rec + sizeof(VertexId), sizeof(U));
          grt->ggb.Accumulate(vid, val, app.vertex_gather);
          ++gathered;
        }
      }
      if (status.ok()) status = spill_run();
      machine->metrics()->updates_local_gathered.Add(gathered);
      machine->metrics()->updates_spilled.Add(spilled);
      return status;
    };

    // In deterministic mode incoming messages are buffered per sender and
    // consumed in ascending sender order after all machines are done:
    // update accumulation order (and thus floating-point results) no
    // longer depends on arrival order. Default mode accumulates eagerly
    // for maximum overlap.
    std::vector<std::vector<Message>> by_src;
    if (options_.deterministic) by_src.resize(pg_->p);

    int done_markers = 0;
    Message msg;
    while (done_markers < pg_->p) {
      // The deadline keeps a lost done marker or update from hanging the
      // engine: the gather fails with kTimeout and recovery takes over.
      Status s = cluster_->fabric()->RecvFor(m, Tag(kTagUpdates), &msg,
                                             options_.recv_timeout_ms);
      if (!s.ok()) {
        grt->status = s;
        return;
      }
      const uint8_t kind = msg.payload.empty() ? 0 : msg.payload[0];
      if (kind == 1) {
        ++done_markers;
        continue;
      }
      if (options_.deterministic) {
        by_src[msg.src].push_back(std::move(msg));
        continue;
      }
      Status consumed = consume(msg);
      if (!consumed.ok()) {
        grt->status = consumed;
        return;
      }
    }
    for (auto& src_msgs : by_src) {
      for (const Message& buffered : src_msgs) {
        Status consumed = consume(buffered);
        if (!consumed.ok()) {
          grt->status = consumed;
          return;
        }
      }
    }
    for (int c = 0; c < pg_->q; ++c) {
      Status s = flush_spill(c);
      if (!s.ok()) {
        grt->status = s;
        return;
      }
    }
  }

  // ---- gather-spilled + apply, overlapped (Algorithms 3-4) ----

  Status ApplyPhase(int m, KWalkApp<V, U>& app, GatherRuntime* grt) {
    Machine* machine = cluster_->machine(m);
    MachineState& state = *states_[m];
    const int q = pg_->q;
    const VertexId local_base = pg_->MachineRange(m).begin;

    // Producer: gathers spilled partitions into dense per-chunk GGBs while
    // the consumer applies earlier chunks (double buffering via a slot
    // queue of depth 2).
    struct Slot {
      int chunk;
      engine_internal::DenseLgb<U> ggb;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Slot> slots;
    Status producer_status;
    bool producer_done = (q <= 1);

    std::thread producer;
    if (q > 1) {
      producer = std::thread([&] {
        if (trace::Enabled()) {
          trace::SetCurrentMachine(m);
          trace::SetCurrentThreadName("m" + std::to_string(m) +
                                      ".spill_gather");
        }
        obs::SetCurrentJob(options_.job_id);
        trace::TraceSpan spill_span("gather.spilled", "engine");
        obs::ScopedCpuCounter cpu(&machine->metrics()->gather_cpu_nanos);
        for (int c = 0; c < q; ++c) {
          if (c == grt->resident) continue;
          Slot slot;
          slot.chunk = c;
          slot.ggb.Reset(pg_->VertexChunkRange(m, c));
          // A chunk that never spilled has no file at all (the device
          // does not materialize files on read paths).
          Result<uint64_t> size =
              machine->disk()->Exists(SpillFileName(c))
                  ? machine->disk()->FileSize(SpillFileName(c))
                  : Result<uint64_t>(uint64_t{0});
          if (!size.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            producer_status = size.status();
            producer_done = true;
            cv.notify_all();
            return;
          }
          std::vector<uint8_t> data(*size);
          if (*size > 0) {
            Status s = machine->disk()->Read(SpillFileName(c), 0,
                                             data.data(), data.size());
            if (!s.ok()) {
              std::lock_guard<std::mutex> lock(mu);
              producer_status = s;
              producer_done = true;
              cv.notify_all();
              return;
            }
          }
          PodReader reader(data);
          while (!reader.AtEnd()) {
            const VertexId vid = reader.Read<VertexId>();
            const U val = reader.Read<U>();
            slot.ggb.Accumulate(vid, val, app.vertex_gather);
          }
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return slots.size() < 2; });
          slots.push_back(std::move(slot));
          cv.notify_all();
        }
        std::lock_guard<std::mutex> lock(mu);
        producer_done = true;
        cv.notify_all();
      });
    }

    // Consumer: Apply (Algorithm 4).
    Status apply_status;
    {
      trace::TraceSpan apply_span("apply", "engine");
      obs::ScopedCpuCounter cpu(&machine->metrics()->apply_cpu_nanos);
      std::vector<V> attrs;
      for (int c = 0; c < q && apply_status.ok(); ++c) {
        engine_internal::DenseLgb<U>* ggb = nullptr;
        Slot slot;
        if (c == grt->resident) {
          ggb = &grt->ggb;
        } else {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return !slots.empty() || (producer_done && !producer_status.ok());
          });
          if (!producer_status.ok()) break;
          slot = std::move(slots.front());
          slots.pop_front();
          cv.notify_all();
          TGPP_CHECK(slot.chunk == c);
          ggb = &slot.ggb;
        }
        const VertexRange chunk = pg_->VertexChunkRange(m, c);
        if (chunk.size() == 0) continue;
        apply_status = ReadAttrRange(m, chunk, &attrs);
        if (!apply_status.ok()) break;
        ApplyChunk(app, chunk, ggb, local_base, &state, &attrs);
        apply_status = WriteAttrRange(m, chunk, attrs);
      }
    }
    if (producer.joinable()) producer.join();
    TGPP_RETURN_IF_ERROR(producer_status);
    return apply_status;
  }

  void ApplyChunk(KWalkApp<V, U>& app, VertexRange chunk,
                  engine_internal::DenseLgb<U>* ggb, VertexId local_base,
                  MachineState* state, std::vector<V>* attrs) {
    // DenseLgb internals are reused as the GGB: values + present flags.
    const uint8_t* present = ggb->present();
    const U* values = ggb->values();
    for (uint64_t i = 0; i < chunk.size(); ++i) {
      const bool has_update = present[i] != 0;
      if (app.apply_mode == ApplyMode::kUpdatedOnly && !has_update) {
        continue;
      }
      const VertexId vid = chunk.begin + i;
      const U* update = has_update ? &values[i] : nullptr;
      const bool active_next = app.vertex_apply(vid, (*attrs)[i], update);
      if (active_next) state->next_active.Set(vid - local_base);
    }
  }

  // ---- allreduce over the fabric (control plane) ----

  // Reduces (active count, aggregate, failed flag) at machine 0 and
  // broadcasts the OR of the failure flags back in the acks. Machine 0
  // applies a receive deadline so a lost contribution surfaces as
  // kTimeout; it then still sends (failed) acks so peers are never
  // stranded, and everyone reaches the closing barrier.
  Status Allreduce(int m, uint64_t local_active, uint64_t local_aggregate,
                   bool local_failed) {
    trace::TraceSpan span("allreduce", "net");
    Fabric* fabric = cluster_->fabric();
    std::vector<uint8_t> payload;
    AppendPod<uint64_t>(&payload, local_active);
    AppendPod<uint64_t>(&payload, local_aggregate);
    AppendPod<uint8_t>(&payload, local_failed ? 1 : 0);
    fabric->Send(m, 0, Tag(kTagControl), std::move(payload));
    Status result;
    if (m == 0) {
      uint64_t total_active = 0;
      uint64_t total_aggregate = 0;
      bool any_failed = false;
      for (int i = 0; i < pg_->p; ++i) {
        Message msg;
        Status s =
            fabric->RecvFor(0, Tag(kTagControl), &msg, options_.recv_timeout_ms);
        if (!s.ok()) {
          result = s;
          any_failed = true;
          break;
        }
        PodReader reader(msg.payload);
        total_active += reader.Read<uint64_t>();
        total_aggregate += reader.Read<uint64_t>();
        any_failed = any_failed || reader.Read<uint8_t>() != 0;
      }
      if (result.ok()) {
        global_active_.store(total_active, std::memory_order_relaxed);
        global_aggregate_.fetch_add(total_aggregate,
                                    std::memory_order_relaxed);
      }
      if (any_failed) {
        trace::Instant("superstep.failed", "engine", "step",
                       current_step_.load(std::memory_order_relaxed));
      }
      for (int i = 1; i < pg_->p; ++i) {
        std::vector<uint8_t> ack;
        AppendPod<uint8_t>(&ack, any_failed ? 1 : 0);
        fabric->Send(0, i, Tag(kTagControl), std::move(ack));
      }
    } else {
      Message ack;
      Status s =
          fabric->RecvFor(m, Tag(kTagControl), &ack, options_.recv_timeout_ms);
      if (!s.ok()) result = s;
      // A failed ack means some machine lost this superstep; that
      // machine's own status drives recovery, so peers just proceed to
      // the barrier.
    }
    Status barrier_status = FailableBarrier(m);
    if (result.ok()) result = barrier_status;
    return result;
  }

  Cluster* cluster_;
  const PartitionedGraph* pg_;
  EngineOptions options_;
  std::vector<std::unique_ptr<MachineState>> states_;
  std::atomic<uint64_t> global_active_{0};
  std::atomic<uint64_t> global_aggregate_{0};
  std::atomic<int> current_step_{0};  // superstep number, for trace args
  std::atomic<int> current_direction_{0};  // 0 = push, 1 = pull
  // Set by Run() before the superstep loop starts (machine threads only
  // read it): routes JobBarrier through the failable fabric barrier.
  bool detection_enabled_ = false;
  // Per machine, the vertex chunk its GGB holds; set by Run() before the
  // superstep loop starts, fixed for the run (replays included).
  std::vector<int> resident_chunk_;

  // The source vertex process_range is scattering, for its Mark();
  // thread_local because process_range also runs on worker threads.
  thread_local static VertexId ctx_current_;
};

template <typename V, typename U>
thread_local VertexId NwsmEngine<V, U>::ctx_current_ = kInvalidVertex;

}  // namespace tgpp

#endif  // TGPP_CORE_ENGINE_H_
