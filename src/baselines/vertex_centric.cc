#include "baselines/vertex_centric.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "baselines/baseline_util.h"
#include "core/codec.h"
#include "graph/csr.h"
#include "util/timer.h"

namespace tgpp {

using baseline_internal::AllreduceSum;
using baseline_internal::ChargeTracker;

namespace {
constexpr uint32_t kTagVcMessages = 8;
constexpr const char* kAdjFileName = "vc_adj.bin";
constexpr uint64_t kStreamBufferIds = 128 * 1024;  // 1 MB streaming window
}  // namespace

Status VertexCentricSystem::Load(const EdgeList& graph) {
  Unload();
  num_vertices_ = graph.num_vertices;
  const int p = cluster_->num_machines();
  machines_.assign(p, {});
  placement_.Init(num_vertices_, p);

  // Bucket edges by source owner (the shuffle of the loading phase).
  std::vector<std::vector<Edge>> buckets(p);
  for (const Edge& e : graph.edges) {
    buckets[placement_.Owner(e.src)].push_back(e);
  }

  Status status = cluster_->RunOnAll([&](int m) -> Status {
    Machine* machine = cluster_->machine(m);
    MachineGraph& mg = machines_[m];
    mg.num_local = placement_.LocalCount(m);

    // Build the local CSR (counting sort by local source index).
    std::vector<Edge>& edges = buckets[m];
    mg.offsets.assign(mg.num_local + 1, 0);
    for (const Edge& e : edges) ++mg.offsets[placement_.LocalIndex(e.src) + 1];
    for (uint64_t v = 0; v < mg.num_local; ++v) {
      mg.offsets[v + 1] += mg.offsets[v];
    }
    mg.neighbors.resize(edges.size());
    {
      std::vector<uint64_t> cursor(mg.offsets.begin(),
                                   mg.offsets.end() - 1);
      for (const Edge& e : edges) {
        mg.neighbors[cursor[placement_.LocalIndex(e.src)]++] = e.dst;
      }
    }
    mg.adj_bytes = mg.neighbors.size() * sizeof(VertexId);
    const uint64_t offsets_bytes = mg.offsets.size() * sizeof(uint64_t);

    // Loading-phase transient charge (shuffle/partition buffers). The
    // paper observes e.g. Gemini crashing *during partitioning*; this is
    // where such failures surface.
    const uint64_t transient = static_cast<uint64_t>(
        static_cast<double>(mg.adj_bytes + offsets_bytes) *
        options_.load_transient_factor);
    {
      ScopedCharge load_charge(machine->budget(), transient);
      if (!load_charge.ok()) return load_charge.status();
    }

    // Resident charge.
    uint64_t resident = static_cast<uint64_t>(
        static_cast<double>(mg.adj_bytes + offsets_bytes) *
        options_.resident_factor);
    if (options_.adjacency_on_disk) {
      // Out-of-core: the neighbor array lives on disk; only offsets (and
      // the lineage overhead, if any) stay resident.
      TGPP_RETURN_IF_ERROR(machine->disk()->Truncate(kAdjFileName, 0));
      TGPP_RETURN_IF_ERROR(machine->disk()->Write(
          kAdjFileName, 0, mg.neighbors.data(), mg.adj_bytes));
      mg.neighbors.clear();
      mg.neighbors.shrink_to_fit();
      resident = offsets_bytes;
    }
    TGPP_RETURN_IF_ERROR(machine->budget()->TryCharge(resident));
    mg.charged_bytes = resident;
    return Status::OK();
  });
  if (!status.ok()) {
    Unload();
    return status;
  }
  loaded_ = true;
  return Status::OK();
}

void VertexCentricSystem::Unload() {
  for (int m = 0; m < static_cast<int>(machines_.size()); ++m) {
    if (machines_[m].charged_bytes > 0) {
      cluster_->machine(m)->budget()->Release(machines_[m].charged_bytes);
    }
  }
  machines_.clear();
  loaded_ = false;
}

Status VertexCentricSystem::ForEachLocalAdjacency(
    int m,
    const std::function<void(uint64_t, std::span<const VertexId>)>& fn) {
  MachineGraph& mg = machines_[m];
  if (!options_.adjacency_on_disk) {
    for (uint64_t v = 0; v < mg.num_local; ++v) {
      fn(v, std::span<const VertexId>(
                mg.neighbors.data() + mg.offsets[v],
                mg.offsets[v + 1] - mg.offsets[v]));
    }
    return Status::OK();
  }
  // Stream the on-disk neighbor array in windows.
  Machine* machine = cluster_->machine(m);
  std::vector<VertexId> buffer;
  uint64_t v = 0;
  while (v < mg.num_local) {
    const uint64_t start = mg.offsets[v];
    uint64_t end_vertex = v;
    while (end_vertex < mg.num_local &&
           mg.offsets[end_vertex + 1] - start <= kStreamBufferIds) {
      ++end_vertex;
    }
    if (end_vertex == v) end_vertex = v + 1;  // single oversized list
    const uint64_t ids = mg.offsets[end_vertex] - start;
    buffer.resize(ids);
    if (ids > 0) {
      TGPP_RETURN_IF_ERROR(machine->disk()->Read(
          kAdjFileName, start * sizeof(VertexId), buffer.data(),
          ids * sizeof(VertexId)));
    }
    for (; v < end_vertex; ++v) {
      fn(v, std::span<const VertexId>(
                buffer.data() + (mg.offsets[v] - start),
                mg.offsets[v + 1] - mg.offsets[v]));
    }
  }
  return Status::OK();
}

Status VertexCentricSystem::ChargeSuperstepCopy(int m) {
  if (options_.per_superstep_copy <= 0.0) return Status::OK();
  Machine* machine = cluster_->machine(m);
  MachineGraph& mg = machines_[m];
  const uint64_t copy_bytes = static_cast<uint64_t>(
      static_cast<double>(mg.adj_bytes) * options_.per_superstep_copy);
  if (copy_bytes == 0) return Status::OK();
  ScopedCharge charge(machine->budget(), copy_bytes);
  if (charge.ok() && !options_.adjacency_on_disk) {
    // Immutable-RDD materialization: a real copy of the adjacency slice.
    const size_t ids = std::min<size_t>(copy_bytes / sizeof(VertexId),
                                        mg.neighbors.size());
    std::vector<VertexId> copy(mg.neighbors.begin(),
                               mg.neighbors.begin() + ids);
    // The copy is dropped immediately; the cost is the allocation+memcpy.
    (void)copy;
    return Status::OK();
  }
  // Under memory pressure the copy spills through disk (slower, but no
  // crash) — GraphX's MEMORY_AND_DISK persistence (paper §5.1).
  std::vector<uint8_t> chunk(1 << 20, 0);
  uint64_t remaining = copy_bytes;
  while (remaining > 0) {
    const uint64_t n = std::min<uint64_t>(remaining, chunk.size());
    TGPP_RETURN_IF_ERROR(
        machine->disk()->Write("rdd_spill.bin", 0, chunk.data(), n));
    TGPP_RETURN_IF_ERROR(
        machine->disk()->Read("rdd_spill.bin", 0, chunk.data(), n));
    remaining -= n;
  }
  return Status::OK();
}

template <typename T, typename ScatterVal, typename CombineFn,
          typename ApplyFn>
BaselineResult VertexCentricSystem::RunPropagation(
    int max_supersteps, bool all_active_always, const std::vector<T>& init,
    const ScatterVal& scatter_val, const CombineFn& combine,
    const ApplyFn& apply, std::vector<T>* final_values) {
  BaselineResult result;
  if (!loaded_) {
    result.status = Status::Internal("not loaded");
    return result;
  }
  WallTimer timer;
  const int p = cluster_->num_machines();

  // Per-machine value/flag arrays.
  std::vector<std::vector<T>> values(p);
  std::vector<std::vector<T>> incoming(p);
  std::vector<std::vector<uint8_t>> has_incoming(p);
  std::vector<std::vector<uint8_t>> active(p);
  std::atomic<int> supersteps{0};
  std::mutex status_mu;
  Status failure;

  Status status = cluster_->RunOnAll([&](int m) -> Status {
    Machine* machine = cluster_->machine(m);
    MachineGraph& mg = machines_[m];
    ChargeTracker charges(machine->budget());
    Status local_fail = charges.Charge(mg.num_local * (2 * sizeof(T) + 2));
    if (local_fail.ok()) {
      values[m].resize(mg.num_local);
      incoming[m].assign(mg.num_local, T{});
      has_incoming[m].assign(mg.num_local, 0);
      active[m].assign(mg.num_local, 1);
      for (uint64_t v = 0; v < mg.num_local; ++v) {
        values[m][v] = init[placement_.GlobalId(v, m)];
      }
    }

    for (int step = 0; step < max_supersteps; ++step) {
      // Scatter/compute: build per-destination message buffers.
      std::vector<std::vector<uint8_t>> out(p);
      uint64_t out_bytes = 0;
      if (local_fail.ok()) {
        obs::ScopedCpuCounter cpu(&machine->metrics()->scatter_cpu_nanos);
        Status copy_status = ChargeSuperstepCopy(m);
        if (!copy_status.ok()) local_fail = copy_status;
        if (local_fail.ok()) {
          Status s = ForEachLocalAdjacency(
              m, [&](uint64_t v, std::span<const VertexId> nbrs) {
                if (!active[m][v]) return;
                const T msg = scatter_val(placement_.GlobalId(v, m), values[m][v]);
                for (VertexId w : nbrs) {
                  std::vector<uint8_t>& buf = out[placement_.Owner(w)];
                  AppendPod<VertexId>(&buf, w);
                  AppendPod<T>(&buf, msg);
                }
              });
          if (!s.ok()) local_fail = s;
        }
        for (const auto& buf : out) out_bytes += buf.size();
        if (local_fail.ok()) {
          if (options_.messages_on_disk) {
            // External-memory systems batch outgoing messages through
            // disk blocks instead of holding them resident (HybridGraph's
            // pull/push switching, Giraph's out-of-core messaging): the
            // memory cost is one block, the price is a disk round trip.
            Status s = machine->disk()->Truncate("msg_spill.bin", 0);
            for (const auto& buf : out) {
              if (!s.ok() || buf.empty()) continue;
              uint64_t off;
              s = machine->disk()->Append("msg_spill.bin", buf.data(),
                                          buf.size(), &off);
            }
            if (s.ok() && out_bytes > 0) {
              std::vector<uint8_t> readback(out_bytes);
              s = machine->disk()->Read("msg_spill.bin", 0,
                                        readback.data(), out_bytes);
            }
            if (!s.ok()) local_fail = s;
          } else {
            // In-memory systems hold the full outgoing buffers resident
            // for the superstep.
            Status s = machine->budget()->TryCharge(out_bytes);
            if (s.ok()) {
              machine->budget()->Release(out_bytes);
            } else {
              local_fail = s;
            }
          }
        }
      }
      // Exchange: exactly one message to every machine (possibly empty)
      // keeps the protocol symmetric even under failure.
      for (int dst = 0; dst < p; ++dst) {
        cluster_->fabric()->Send(m, dst, kTagVcMessages,
                                 std::move(out[dst]));
      }
      uint64_t next_active = 0;
      {
        obs::ScopedCpuCounter cpu(&machine->metrics()->gather_cpu_nanos);
        std::fill(has_incoming[m].begin(), has_incoming[m].end(), 0);
        for (int src = 0; src < p; ++src) {
          Message msg;
          if (!cluster_->fabric()->Recv(m, kTagVcMessages, &msg)) {
            return Status::Aborted("fabric shutdown");
          }
          if (!local_fail.ok()) continue;  // drain only
          PodReader reader(msg.payload);
          while (!reader.AtEnd()) {
            const VertexId w = reader.Read<VertexId>();
            const T val = reader.Read<T>();
            const uint64_t idx = placement_.LocalIndex(w);
            if (has_incoming[m][idx]) {
              combine(incoming[m][idx], val);
            } else {
              incoming[m][idx] = val;
              has_incoming[m][idx] = 1;
            }
          }
        }
        // Apply.
        if (local_fail.ok()) {
          for (uint64_t v = 0; v < mg.num_local; ++v) {
            const T* in = has_incoming[m][v] ? &incoming[m][v] : nullptr;
            const bool act = apply(placement_.GlobalId(v, m), values[m][v], in);
            active[m][v] = all_active_always || act ? 1 : 0;
            if (active[m][v]) ++next_active;
          }
        }
      }
      // Allreduce: [active, failed].
      uint64_t reduce[2] = {next_active, local_fail.ok() ? 0u : 1u};
      TGPP_RETURN_IF_ERROR(AllreduceSum(cluster_, m, reduce));
      if (m == 0) supersteps.fetch_add(1);
      if (reduce[1] > 0) break;       // some machine failed
      if (reduce[0] == 0) break;      // converged
      if (all_active_always && step + 1 >= max_supersteps) break;
    }
    if (!local_fail.ok()) {
      std::lock_guard<std::mutex> lock(status_mu);
      if (failure.ok()) failure = local_fail;
    }
    return Status::OK();
  });

  if (!status.ok()) {
    result.status = status;
    return result;
  }
  if (!failure.ok()) {
    result.status = failure;
    return result;
  }
  result.supersteps = supersteps.load();
  result.wall_seconds = timer.Seconds();
  if (final_values != nullptr) {
    final_values->assign(num_vertices_, T{});
    for (int m = 0; m < p; ++m) {
      for (uint64_t v = 0; v < machines_[m].num_local; ++v) {
        (*final_values)[placement_.GlobalId(v, m)] = values[m][v];
      }
    }
  }
  return result;
}

BaselineResult VertexCentricSystem::RunPageRank(int iterations) {
  std::vector<double> init(num_vertices_, 1.0);
  // Degrees for the scatter value.
  const int p = cluster_->num_machines();
  std::vector<std::vector<uint64_t>> degree(p);
  for (int m = 0; m < p; ++m) {
    degree[m].resize(machines_[m].num_local);
    for (uint64_t v = 0; v < machines_[m].num_local; ++v) {
      degree[m][v] = machines_[m].offsets[v + 1] - machines_[m].offsets[v];
    }
  }
  BaselineResult result = RunPropagation<double>(
      iterations, /*all_active_always=*/true, init,
      [&](VertexId v, double pr) {
        const uint64_t d = degree[placement_.Owner(v)][placement_.LocalIndex(v)];
        return d > 0 ? pr / static_cast<double>(d) : 0.0;
      },
      [](double& acc, double in) { acc += in; },
      [](VertexId, double& pr, const double* in) {
        pr = 0.15 + 0.85 * (in != nullptr ? *in : 0.0);
        return true;
      },
      &pagerank_);
  return result;
}

BaselineResult VertexCentricSystem::RunSssp(VertexId source) {
  constexpr uint64_t kInf = ~0ull;
  std::vector<uint64_t> init(num_vertices_, kInf);
  init[source] = 0;
  // Only the source is initially active: emulate by masking scatter for
  // vertices at infinity (they send nothing).
  BaselineResult result = RunPropagation<uint64_t>(
      static_cast<int>(num_vertices_) + 1, /*all_active_always=*/false,
      init,
      [](VertexId, uint64_t dist) {
        return dist == kInf ? kInf : dist + 1;
      },
      [](uint64_t& acc, uint64_t in) { acc = std::min(acc, in); },
      [](VertexId, uint64_t& dist, const uint64_t* in) {
        if (in != nullptr && *in < dist) {
          dist = *in;
          return true;
        }
        return false;
      },
      &distances_);
  return result;
}

BaselineResult VertexCentricSystem::RunWcc() {
  std::vector<uint64_t> init(num_vertices_);
  for (VertexId v = 0; v < num_vertices_; ++v) init[v] = v;
  return RunPropagation<uint64_t>(
      static_cast<int>(num_vertices_) + 1, /*all_active_always=*/false,
      init, [](VertexId, uint64_t label) { return label; },
      [](uint64_t& acc, uint64_t in) { acc = std::min(acc, in); },
      [](VertexId, uint64_t& label, const uint64_t* in) {
        if (in != nullptr && *in < label) {
          label = *in;
          return true;
        }
        return false;
      },
      &labels_);
}

BaselineResult VertexCentricSystem::RunTriangleCount() {
  BaselineResult result;
  if (!options_.supports_tc) return NotSupported("TC");
  if (!loaded_) {
    result.status = Status::Internal("not loaded");
    return result;
  }
  WallTimer timer;
  const int p = cluster_->num_machines();
  std::mutex status_mu;
  Status failure;
  std::atomic<uint64_t> total_triangles{0};

  Status status = cluster_->RunOnAll([&](int m) -> Status {
    Machine* machine = cluster_->machine(m);
    ChargeTracker charges(machine->budget());
    Status local_fail;

    // Superstep 1: every vertex v sends, to each larger neighbor w, the
    // suffix of its (sorted, order-filtered) neighbor list above w. This
    // is the neighborhood-encoding workaround (paper §1): total message
    // volume ~ sum d_i^2. The sender buffers the outgoing volume before
    // shipping, so it is pre-charged from a cheap upper bound — failing
    // fast instead of allocating gigabytes first.
    {
      uint64_t estimate = 0;
      Status s = ForEachLocalAdjacency(
          m, [&](uint64_t, std::span<const VertexId> nbrs) {
            estimate += nbrs.size() * nbrs.size() * sizeof(VertexId) / 2;
          });
      if (!s.ok()) local_fail = s;
      if (local_fail.ok()) {
        Status charge = charges.Charge(estimate);
        if (!charge.ok()) local_fail = charge;
      }
    }
    std::vector<std::vector<uint8_t>> out(p);
    if (local_fail.ok()) {
      obs::ScopedCpuCounter cpu(&machine->metrics()->scatter_cpu_nanos);
      std::vector<VertexId> larger;
      Status s = ForEachLocalAdjacency(
          m, [&](uint64_t v, std::span<const VertexId> nbrs) {
            const VertexId vid = placement_.GlobalId(v, m);
            larger.assign(nbrs.begin(), nbrs.end());
            std::sort(larger.begin(), larger.end());
            larger.erase(
                std::unique(larger.begin(), larger.end()), larger.end());
            auto first =
                std::upper_bound(larger.begin(), larger.end(), vid);
            for (auto it = first; it != larger.end(); ++it) {
              const size_t suffix = larger.end() - (it + 1);
              if (suffix == 0) continue;
              std::vector<uint8_t>& buf = out[placement_.Owner(*it)];
              AppendPod<VertexId>(&buf, *it);
              AppendPod<uint64_t>(&buf, suffix);
              AppendPodSpan<VertexId>(
                  &buf, std::span<const VertexId>(&*(it + 1), suffix));
            }
          });
      if (!s.ok()) local_fail = s;
    }
    for (int dst = 0; dst < p; ++dst) {
      cluster_->fabric()->Send(m, dst, kTagVcMessages, std::move(out[dst]));
    }

    // Receive and buffer all messages (Pregel semantics: messages are held
    // until the next superstep) — charged against the budget as they
    // arrive; this is where the OOM of Fig 1(b) happens.
    std::vector<Message> inbox;
    for (int src = 0; src < p; ++src) {
      Message msg;
      if (!cluster_->fabric()->Recv(m, kTagVcMessages, &msg)) {
        return Status::Aborted("fabric shutdown");
      }
      if (local_fail.ok()) {
        Status s = charges.Charge(msg.payload.size());
        if (!s.ok()) {
          local_fail = s;
          continue;
        }
        inbox.push_back(std::move(msg));
      }
    }

    // Superstep 2: intersect each message list with the receiver's
    // adjacency list.
    uint64_t local_triangles = 0;
    if (local_fail.ok()) {
      obs::ScopedCpuCounter cpu(&machine->metrics()->scatter_cpu_nanos);
      // Sorted local adjacency for intersection.
      std::vector<std::pair<uint64_t, std::vector<VertexId>>> msgs;
      for (const Message& msg : inbox) {
        PodReader reader(msg.payload);
        while (!reader.AtEnd()) {
          const VertexId w = reader.Read<VertexId>();
          const uint64_t len = reader.Read<uint64_t>();
          std::vector<VertexId> list(len);
          reader.ReadSpan(list.data(), len);
          msgs.emplace_back(placement_.LocalIndex(w), std::move(list));
        }
      }
      std::sort(msgs.begin(), msgs.end(),
                [](const auto& a, const auto& b) {
                  return a.first < b.first;
                });
      size_t cursor = 0;
      std::vector<VertexId> sorted_nbrs;
      Status s = ForEachLocalAdjacency(
          m, [&](uint64_t v, std::span<const VertexId> nbrs) {
            if (cursor >= msgs.size() || msgs[cursor].first != v) return;
            sorted_nbrs.assign(nbrs.begin(), nbrs.end());
            std::sort(sorted_nbrs.begin(), sorted_nbrs.end());
            while (cursor < msgs.size() && msgs[cursor].first == v) {
              local_triangles += SortedIntersectionCount(
                  msgs[cursor].second, sorted_nbrs);
              ++cursor;
            }
          });
      if (!s.ok()) local_fail = s;
    }

    uint64_t reduce[2] = {local_triangles, local_fail.ok() ? 0u : 1u};
    TGPP_RETURN_IF_ERROR(AllreduceSum(cluster_, m, reduce));
    if (m == 0) total_triangles.store(reduce[0]);
    if (!local_fail.ok()) {
      std::lock_guard<std::mutex> lock(status_mu);
      if (failure.ok()) failure = local_fail;
    }
    return Status::OK();
  });

  if (!status.ok()) {
    result.status = status;
    return result;
  }
  if (!failure.ok()) {
    result.status = failure;
    return result;
  }
  result.supersteps = 2;
  result.wall_seconds = timer.Seconds();
  result.aggregate = total_triangles.load();
  return result;
}

// --- factories ---------------------------------------------------------

std::unique_ptr<BaselineSystem> MakePregelLike(Cluster* cluster) {
  VertexCentricOptions options;
  options.name = "Pregel+";
  options.overlap = OverlapModel::kFullOverlap;
  return std::make_unique<VertexCentricSystem>(cluster, options);
}

std::unique_ptr<BaselineSystem> MakeGraphxLike(Cluster* cluster) {
  VertexCentricOptions options;
  options.name = "GraphX";
  options.overlap = OverlapModel::kSerialized;
  options.resident_factor = 2.0;        // RDD lineage/cache
  options.load_transient_factor = 2.0;  // shuffle
  options.per_superstep_copy = 1.0;     // immutable RDDs
  return std::make_unique<VertexCentricSystem>(cluster, options);
}

std::unique_ptr<BaselineSystem> MakeGiraphLike(Cluster* cluster) {
  VertexCentricOptions options;
  options.name = "Giraph(ooc)";
  options.overlap = OverlapModel::kSerialized;
  options.adjacency_on_disk = true;   // out-of-core partitions
  options.load_transient_factor = 0.5;  // spills during load
  return std::make_unique<VertexCentricSystem>(cluster, options);
}

std::unique_ptr<BaselineSystem> MakeHybridGraphLike(Cluster* cluster) {
  VertexCentricOptions options;
  options.name = "HybridGraph";
  options.overlap = OverlapModel::kSerialized;
  options.adjacency_on_disk = true;  // external-memory adjacency
  options.messages_on_disk = true;   // hybrid message switching
  // GraphDataServerDisk holds the adjacency in memory *while loading*
  // (paper §5.4.1) — the transient charge below is what fails for the
  // largest graphs.
  options.load_transient_factor = 1.0;
  return std::make_unique<VertexCentricSystem>(cluster, options);
}

}  // namespace tgpp
