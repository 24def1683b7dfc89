// The k-walk neighborhood programming API (paper §2.3, Figure 6).
//
// A query is described by a KWalkApp<V, U>:
//   V — the per-vertex attribute schema (a trivially copyable struct),
//   U — the update value schema (trivially copyable).
//
// Users provide:
//   init           — ProcessVertices: initialize a vertex; return whether it
//                    starts active (voi[1]).
//   adj_scatter[l] — scatter function for level l (1-based). For l < k it
//                    marks vertices of interest for level l+1 via
//                    ScatterContext::Mark; for l == k it performs the
//                    computation, emitting updates and/or aggregating.
//   vertex_gather  — the update combiner (associative, commutative). A
//                    plain function pointer, so it must be a captureless
//                    function (a captureless lambda converts): the engine
//                    calls it once per edge from the scatter loop.
//   vertex_apply   — recomputes the attribute from the gathered update;
//                    returns whether the vertex is active next superstep.
//
// The ScatterContext exposes the system primitives of Figure 6:
// GetParentList, GetAdjList (of a parent), common-neighbor iteration, the
// degree-order partial-order check, update emission and marking.

#ifndef TGPP_CORE_APP_H_
#define TGPP_CORE_APP_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/adjacency_service.h"
#include "graph/csr.h"
#include "graph/types.h"

namespace tgpp {

inline constexpr int kMaxWalkLength = 4;

// Paper §2.2: partial adjacency lists suffice when the computation unit is
// an edge (PR, SSSP); full lists are required for intersection-based
// subgraph queries (TC, LCC).
enum class AdjMode {
  kPartial,
  kFull,
};

enum class ApplyMode {
  kAllVertices,   // apply runs on every local vertex (e.g. PageRank)
  kUpdatedOnly,   // apply runs only on vertices that received updates
};

template <typename V, typename U>
class NwsmEngine;

// The per-walk computation interface handed to adj_scatter (paper Fig 6).
template <typename V, typename U>
class ScatterContext {
 public:
  int level() const { return level_; }

  // The current superstep (0-based). Staged kernels (delta-stepping
  // buckets, label-propagation rounds, MIS round parity) key their
  // per-round randomness and sampling decisions off this.
  int superstep() const { return superstep_; }

  // Emits an update to `dst` (combined en route by LGB/GGB).
  void Update(VertexId dst, const U& value) {
    ++generated_;
    if (sink_values_ == nullptr) {
      update_fn_(dst, value);
      return;
    }
    // Dense sink: combine straight into the LGB. A destination outside
    // the sink's range (a corrupt edge page, or a pull_scatter updating
    // another vertex) is dropped and counted; the engine turns the count
    // into a Status.
    const uint64_t idx = dst - sink_base_;
    if (idx >= sink_size_) {
      ++dropped_;
      return;
    }
    if (sink_present_[idx]) {
      sink_combine_(sink_values_[idx], value);
    } else {
      sink_values_[idx] = value;
      sink_present_[idx] = 1;
    }
  }

  // Marks `v` into voi[level+1] (only meaningful when level < k).
  void Mark(VertexId v) { mark_fn_(v); }

  // Adds to the query-global sum aggregator (e.g. the triangle count).
  void AggregateAdd(uint64_t delta) {
    aggregate_->fetch_add(delta, std::memory_order_relaxed);
  }

  // Degree-order partial-order constraint (paper §3): BBP assigns new
  // vertex IDs in ascending degree order within a machine, so ID
  // comparison is the constraint used to enumerate each subgraph
  // instance once.
  static bool CheckPartialOrder(VertexId u, VertexId v) { return u < v; }

  using ParentIndex = std::unordered_map<VertexId, std::vector<VertexId>>;

  // GetParentList(l, v) (paper Fig 6): the level-l source vertices u of
  // ending edges (u, v) of walks that marked v at level l+1. Valid for
  // l in [1, level-1].
  std::span<const VertexId> GetParentList(int l, VertexId v) const {
    if (parent_indexes_ == nullptr || l < 1 ||
        l > static_cast<int>(parent_indexes_->size())) {
      return {};
    }
    const ParentIndex* index = (*parent_indexes_)[l - 1];
    auto it = index->find(v);
    if (it == index->end()) return {};
    return it->second;
  }

  // Convenience: parents at the immediately preceding level.
  std::span<const VertexId> GetParentList(VertexId v) const {
    return GetParentList(level_ - 1, v);
  }

  // Full adjacency list of an ancestor vertex: searched through the still
  // resident windows of levels level-1 down to 1 (the appendix A.6
  // relaxation — streams at level l+1 may reference any level l' <= l).
  std::span<const VertexId> GetAdjList(VertexId u) const {
    if (ancestor_batches_ == nullptr) return {};
    for (auto it = ancestor_batches_->rbegin();
         it != ancestor_batches_->rend(); ++it) {
      const AdjBatch& batch = **it;
      auto found = std::lower_bound(batch.vids.begin(), batch.vids.end(),
                                    u);
      if (found != batch.vids.end() && *found == u) {
        return batch.Neighbors(
            static_cast<size_t>(found - batch.vids.begin()));
      }
    }
    return {};
  }

 private:
  friend class NwsmEngine<V, U>;

  int level_ = 1;
  int superstep_ = 0;
  // Where Update() goes when no dense sink is set (the raw-update
  // ablation, the sparse-window path, full-list mode).
  std::function<void(VertexId, const U&)> update_fn_;
  // Dense sink: the LGB's values and present flags over
  // [sink_base_, sink_base_ + sink_size_), and the app's combiner. Set by
  // the engine on the dense push and pull paths.
  U* sink_values_ = nullptr;
  uint8_t* sink_present_ = nullptr;
  VertexId sink_base_ = 0;
  uint64_t sink_size_ = 0;
  void (*sink_combine_)(U&, const U&) = nullptr;
  // Update() calls, and the dense-sink updates dropped as out of range.
  // The engine adds generated_ to engine.updates_generated once per unit
  // of work instead of once per edge.
  uint64_t generated_ = 0;
  uint64_t dropped_ = 0;
  std::function<void(VertexId)> mark_fn_;
  std::atomic<uint64_t>* aggregate_ = nullptr;
  // Stack of ancestor windows: element i is the level-(i+1) AdjBatch.
  const std::vector<const AdjBatch*>* ancestor_batches_ = nullptr;
  // Stack of parent indexes: element i maps level-(i+2) vertices to
  // their level-(i+1) parents.
  const std::vector<const ParentIndex*>* parent_indexes_ = nullptr;
};

// GetCommonNbrList (paper Fig 6): common neighbors of two full lists.
// Lists produced by the engine are ascending, so this is a sorted
// intersection (galloping for skewed pairs; see graph/csr.h).
inline void GetCommonNbrList(std::span<const VertexId> a,
                             std::span<const VertexId> b,
                             std::vector<VertexId>* out) {
  out->clear();
  SortedIntersection(a, b, out);
}

template <typename V, typename U>
struct KWalkApp {
  using ScatterFn = std::function<void(ScatterContext<V, U>&, VertexId,
                                       const V&, std::span<const VertexId>)>;

  int k = 1;
  AdjMode mode = AdjMode::kPartial;
  ApplyMode apply_mode = ApplyMode::kAllVertices;
  int max_supersteps = 1;

  // Returns true if the vertex starts in voi[1] of superstep 1.
  std::function<bool(VertexId, V&)> init;

  ScatterFn adj_scatter[kMaxWalkLength + 1];  // index by level, 1-based

  // Combiner: fold `incoming` into `accumulated`. Must be captureless
  // (see the header comment).
  void (*vertex_gather)(U&, const U&) = nullptr;

  // `update` is null when the vertex received no updates this superstep.
  // Returns true if the vertex is active in the next superstep.
  std::function<bool(VertexId, V&, const U*)> vertex_apply;

  // --- Direction-optimizing extensions (algos/frontier.h,
  // docs/ALGORITHMS.md). All optional; a kernel that sets none of these
  // runs exactly as before.

  // Pull-direction scatter, run instead of adj_scatter[1] on pull
  // supersteps (k == 1, partial mode only). `u` is the record's source
  // vertex playing the *pulling* role: on a symmetric (undirected)
  // graph its out-list equals its in-list, so the kernel scans `adj`
  // for frontier members (`in_frontier(v)`) and typically early-exits
  // after the first hit. Contract: may only Update() `u` itself — the
  // engine claims `u` after its first update and skips its remaining
  // records this superstep. An update outside `u`'s vertex window fails
  // the query with Status::Internal.
  std::function<void(ScatterContext<V, U>&, VertexId, const V&,
                     std::span<const VertexId>,
                     const std::function<bool(VertexId)>&)>
      pull_scatter;

  // Pull-superstep record skip: return true when the vertex's value can
  // no longer change (e.g. BFS distance already settled); its records
  // are then skipped without scanning edges.
  std::function<bool(const V&)> pull_done;

  // Called on the driver thread when a superstep ends with an empty
  // global frontier. Return true to continue running (staged kernels
  // advance their bucket/round in shared state and reactivate vertices
  // in the next kAllVertices apply pass); false ends the run. Kernels
  // using this hold scheduling state outside the checkpointed vertex
  // attributes, so they must not be combined with
  // EngineOptions::checkpoint_every (docs/ALGORITHMS.md).
  std::function<bool(int superstep)> on_quiescent;
};

// Statistics returned by a query run.
struct QueryStats {
  int supersteps = 0;  // logical supersteps in the result (replays excluded)
  double wall_seconds = 0;
  uint64_t aggregate_sum = 0;  // sum of ScatterContext::AggregateAdd calls
  int q_used = 1;              // vertex chunks per machine actually used
  int checkpoints = 0;         // superstep-boundary checkpoints written
  int recoveries = 0;          // rollbacks to a checkpoint (docs/FAULTS.md)
  int push_supersteps = 0;     // supersteps scattered in push direction
  int pull_supersteps = 0;     // supersteps scattered in pull direction

  // Recovery decomposition (Ammar/Özsu-style detect / restore /
  // re-execute, docs/FAULTS.md): wall time of failed supersteps (failure
  // onset to detection), of checkpoint restores, and of re-executed
  // supersteps; plus the total superstep distance rolled back. All zero
  // on a fault-free run.
  double recovery_detect_seconds = 0;
  double recovery_restore_seconds = 0;
  double recovery_replay_seconds = 0;
  int recovered_superstep_distance = 0;
  // True when this run resumed from an existing checkpoint instead of
  // superstep 0 (EngineOptions::resume_from_checkpoint).
  bool resumed = false;
};

}  // namespace tgpp

#endif  // TGPP_CORE_APP_H_
