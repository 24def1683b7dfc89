// Dynamic-graph subsystem tests (docs/DYNAMIC.md):
//  - SlottedPageMutator keeps the layout invariants Validate() checks.
//  - The WAL round-trips batches and applies the ARIES torn-tail rule.
//  - ApplyBatch converges the on-disk graph to the same bytes as an
//    offline rebuild of the mutated edge list (degrees, edge counts, and
//    query digests all agree), including when inserts overflow into
//    delta pages, and replay is idempotent.
//  - A machine killed mid-batch loses its un-flushed pages; revive + WAL
//    replay converges to the bit-identical digest of the no-fault run.
//  - Update jobs in the service run exclusively: concurrent queries each
//    see exactly one epoch (snapshot consistency), under ASan and TSan.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "core/system.h"
#include "dyn/dynamic_graph.h"
#include "dyn/incremental.h"
#include "dyn/wal.h"
#include "graph/edge_list.h"
#include "graph/rmat.h"
#include "service/job_manager.h"
#include "storage/disk_device.h"
#include "storage/slotted_page.h"
#include "util/crc32.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

ClusterConfig DynCluster(const std::string& name, int machines = 4) {
  ClusterConfig config;
  config.num_machines = machines;
  config.memory_budget_bytes = 32ull << 20;
  config.root_dir = ScratchPath(name);
  std::filesystem::remove_all(config.root_dir);
  return config;
}

EdgeList TestGraph(int x, uint64_t seed = 21) {
  EdgeList graph = GenerateRmatX(x, seed);
  RemoveSelfLoops(&graph);
  DeduplicateEdges(&graph);  // set-model semantics for the offline rebuild
  return graph;
}

// The ground truth ApplyBatch must converge to: the batch applied to the
// edge list as a set (inserts of present edges and deletes of absent ones
// are no-ops, matching the subsystem's idempotence rule).
EdgeList ApplyOffline(const EdgeList& graph, const dyn::UpdateBatch& batch) {
  std::set<Edge> edges(graph.edges.begin(), graph.edges.end());
  for (const dyn::EdgeMutation& m : batch.mutations) {
    if (m.op == dyn::EdgeOp::kInsert) {
      edges.insert({m.src, m.dst});
    } else {
      edges.erase({m.src, m.dst});
    }
  }
  EdgeList out;
  out.num_vertices = graph.num_vertices;
  out.edges.assign(edges.begin(), edges.end());
  return out;
}

std::vector<uint64_t> DegreesByOldId(const PartitionedGraph* pg) {
  std::vector<uint64_t> degrees(pg->num_vertices);
  for (VertexId new_id = 0; new_id < pg->num_vertices; ++new_id) {
    degrees[pg->new_to_old[new_id]] = pg->out_degree[new_id];
  }
  return degrees;
}

// Digest of a converged integer-PageRank run — partition-independent
// (integer gathers are order-free), so it compares a mutated-in-place
// system against a freshly rebuilt one.
uint32_t PrDigest(TurboGraphSystem* system) {
  auto app = dyn::MakePageRankIncApp(system->partition());
  std::vector<dyn::PrIncAttr> attrs;
  EngineOptions options;
  options.deterministic = true;
  auto stats = system->RunQuery(app, &attrs, options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  std::vector<int64_t> ranks(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) ranks[i] = attrs[i].rank;
  return Crc32(ranks.data(), ranks.size() * sizeof(int64_t));
}

class DynamicGraphTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Disarm(); }
};

TEST_F(DynamicGraphTest, MutatorKeepsPageInvariants) {
  std::vector<uint8_t> page(kPageSize);
  SlottedPageBuilder builder(page.data());
  const uint64_t dsts[3] = {10, 20, 30};
  ASSERT_TRUE(builder.AddRecord(5, dsts));
  SlottedPageMutator mut(page.data());
  SlottedPageReader reader(page.data());
  ASSERT_TRUE(reader.Validate().ok());

  EXPECT_TRUE(mut.Contains(5, 20));
  EXPECT_FALSE(mut.Contains(5, 40));
  EXPECT_FALSE(mut.Contains(6, 20));

  // Extend the tail record in place.
  ASSERT_TRUE(mut.TryExtendRecord(0, 40));
  EXPECT_TRUE(reader.Validate().ok());
  EXPECT_EQ(reader.DstsAt(0).size(), 4u);
  EXPECT_TRUE(mut.Contains(5, 40));

  // Append a fresh record; slot 0 no longer abuts free space.
  ASSERT_TRUE(mut.TryAppendRecord(7, 100));
  EXPECT_TRUE(reader.Validate().ok());
  EXPECT_EQ(reader.num_slots(), 2u);
  EXPECT_FALSE(mut.TryExtendRecord(0, 50));

  // Delete from the middle: compacts, never corrupts.
  ASSERT_TRUE(mut.RemoveDst(5, 20));
  EXPECT_TRUE(reader.Validate().ok());
  EXPECT_FALSE(mut.Contains(5, 20));
  EXPECT_TRUE(mut.Contains(5, 40));
  EXPECT_FALSE(mut.RemoveDst(5, 20));  // absent: no-op

  // Fill the page to capacity; every append keeps it valid and the
  // mutator refuses cleanly once record + slot no longer fit.
  uint64_t src = 1000;
  while (mut.TryAppendRecord(src, src + 1)) ++src;
  EXPECT_TRUE(reader.Validate().ok());
  EXPECT_LT(mut.FreeBytes(), sizeof(PageSlot) + 2 * sizeof(uint64_t));
}

TEST_F(DynamicGraphTest, WalRoundTripAndTornTail) {
  const std::string dir = ScratchPath("wal");
  std::filesystem::remove_all(dir);
  DiskDevice disk(dir, kPcieSsdProfile);
  dyn::Wal wal(&disk);

  std::vector<dyn::EdgeMutation> batch1 = {{dyn::EdgeOp::kInsert, 1, 2},
                                           {dyn::EdgeOp::kDelete, 3, 4}};
  std::vector<dyn::EdgeMutation> batch2 = {{dyn::EdgeOp::kInsert, 5, 6}};
  uint64_t bytes = 0;
  ASSERT_TRUE(wal.AppendBatch(1, batch1, &bytes).ok());
  ASSERT_TRUE(wal.AppendDeltaPage(1, {2, 7}, &bytes).ok());
  ASSERT_TRUE(wal.AppendCommit(1, &bytes).ok());
  ASSERT_TRUE(wal.AppendBatch(2, batch2, &bytes).ok());
  EXPECT_GT(bytes, 0u);

  auto contents = wal.Read();
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents->committed_epoch, 1u);
  EXPECT_EQ(contents->max_epoch, 2u);
  EXPECT_FALSE(contents->torn_tail);
  ASSERT_EQ(contents->uncommitted.size(), 1u);  // committed batch dropped
  EXPECT_EQ(contents->uncommitted[0].first, 2u);
  EXPECT_EQ(contents->uncommitted[0].second, batch2);
  ASSERT_EQ(contents->delta_pages.size(), 1u);
  EXPECT_EQ(contents->delta_pages[0].chunk_ordinal, 2u);
  EXPECT_EQ(contents->delta_pages[0].page_no, 7u);

  // Tear the tail mid-record: the scan stops there, trusting everything
  // before it — the epoch-2 batch vanishes, epoch 1 survives.
  auto size = disk.FileSize(dyn::kWalFileName);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(disk.Truncate(dyn::kWalFileName, *size - 5).ok());
  auto torn = wal.Read();
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_TRUE(torn->torn_tail);
  EXPECT_EQ(torn->committed_epoch, 1u);
  EXPECT_EQ(torn->max_epoch, 1u);
  EXPECT_TRUE(torn->uncommitted.empty());
  EXPECT_EQ(torn->delta_pages.size(), 1u);
}

TEST_F(DynamicGraphTest, ApplyBatchMatchesOfflineRebuild) {
  const EdgeList graph = TestGraph(12);

  TurboGraphSystem mutated(DynCluster("apply_mut"));
  ASSERT_TRUE(mutated.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(mutated.cluster(), mutated.mutable_partition());

  dyn::UpdateBatch batch;
  // Inserts not present in the deduplicated graph (src, src+9 mod V) and
  // deletes of existing edges, plus one dup insert and one absent delete
  // to exercise the idempotent-skip path.
  std::set<Edge> existing(graph.edges.begin(), graph.edges.end());
  const uint64_t n = graph.num_vertices;
  uint64_t added = 0;
  for (uint64_t s = 0; s < n && added < 20; ++s) {
    const Edge e{s, (s + 9) % n};
    if (e.src != e.dst && existing.count(e) == 0) {
      batch.Insert(e.src, e.dst);
      ++added;
    }
  }
  ASSERT_EQ(added, 20u);
  for (size_t i = 1; i <= 10; ++i) {  // skip edges[0]: it's the dup below
    const Edge& e = graph.edges[i * 37 % graph.edges.size()];
    batch.Delete(e.src, e.dst);
  }
  batch.Insert(graph.edges[0].src, graph.edges[0].dst);  // dup: skip
  // Absent delete: pick a dst that is neither a base edge nor one of the
  // (s, s+9) inserts above, so the delete is a guaranteed skip.
  const VertexId abs_src = batch.mutations[0].src;
  VertexId abs_dst = (abs_src + 3) % n;
  while (abs_dst == abs_src || abs_dst == (abs_src + 9) % n ||
         existing.count({abs_src, abs_dst}) != 0) {
    abs_dst = (abs_dst + 1) % n;
  }
  batch.Delete(abs_src, abs_dst);

  dyn::ApplyStats stats;
  const Status apply_status = dynamic.ApplyBatch(batch, &stats);
  ASSERT_TRUE(apply_status.ok()) << apply_status.ToString();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(dynamic.epoch(), 1u);
  EXPECT_EQ(stats.inserted, 20u);
  EXPECT_GE(stats.deleted, 9u);  // the x37 stride may repeat an edge
  EXPECT_GE(stats.skipped, 2u);
  EXPECT_EQ(stats.applied.size(), stats.inserted + stats.deleted);
  EXPECT_FALSE(stats.affected.empty());
  EXPECT_TRUE(std::is_sorted(stats.affected.begin(), stats.affected.end()));
  EXPECT_TRUE(mutated.partition()->mutated());

  const EdgeList rebuilt = ApplyOffline(graph, batch);
  EXPECT_EQ(mutated.partition()->num_edges, rebuilt.num_edges());

  TurboGraphSystem fresh(DynCluster("apply_fresh"));
  ASSERT_TRUE(fresh.LoadGraph(rebuilt).ok());
  EXPECT_EQ(DegreesByOldId(mutated.partition()),
            DegreesByOldId(fresh.partition()));
  EXPECT_EQ(PrDigest(&mutated), PrDigest(&fresh));
}

TEST_F(DynamicGraphTest, ReapplyingABatchIsIdempotent) {
  const EdgeList graph = TestGraph(12, 23);
  TurboGraphSystem system(DynCluster("idem"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(system.cluster(), system.mutable_partition());

  dyn::UpdateBatch batch;
  batch.Insert(graph.edges[0].src, (graph.edges[0].src + 5) % graph.num_vertices);
  batch.Delete(graph.edges[1].src, graph.edges[1].dst);

  dyn::ApplyStats first;
  ASSERT_TRUE(dynamic.ApplyBatch(batch, &first).ok());
  const uint64_t edges_after = system.partition()->num_edges;
  const uint32_t digest = PrDigest(&system);

  dyn::ApplyStats second;
  ASSERT_TRUE(dynamic.ApplyBatch(batch, &second).ok());
  EXPECT_EQ(second.inserted, 0u);
  EXPECT_EQ(second.deleted, 0u);
  EXPECT_EQ(second.skipped, batch.size());
  EXPECT_EQ(second.epoch, 2u);  // epochs count apply attempts
  EXPECT_EQ(system.partition()->num_edges, edges_after);
  EXPECT_EQ(PrDigest(&system), digest);
}

TEST_F(DynamicGraphTest, InsertOverflowAllocatesDeltaPages) {
  // p=2 keeps chunks coarse (p*q per machine), so one chunk's share of
  // the complete graph exceeds a 64 KB page and inserts must overflow.
  const EdgeList graph = TestGraph(12, 29);
  TurboGraphSystem system(DynCluster("delta", /*machines=*/2));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(system.cluster(), system.mutable_partition());

  std::set<Edge> edges(graph.edges.begin(), graph.edges.end());
  const uint64_t n = graph.num_vertices;
  uint64_t delta_pages = 0;
  dyn::UpdateBatch all;
  dyn::UpdateBatch batch;
  for (uint64_t s = 0; s < n && delta_pages == 0; ++s) {
    for (uint64_t d = 0; d < n && delta_pages == 0; ++d) {
      if (s == d || edges.count({s, d}) != 0) continue;
      batch.Insert(s, d);
      if (batch.size() == 4096) {
        dyn::ApplyStats stats;
        const Status st = dynamic.ApplyBatch(batch, &stats);
        ASSERT_TRUE(st.ok()) << st.ToString();
        delta_pages += stats.delta_pages;
        all.mutations.insert(all.mutations.end(), batch.mutations.begin(),
                             batch.mutations.end());
        batch.mutations.clear();
      }
    }
  }
  ASSERT_GT(delta_pages, 0u) << "no chunk overflowed its base pages";

  // The overflowed graph still reads back exactly: digest equals a fresh
  // build of the same edge set (delta pages included in every scan).
  const EdgeList rebuilt = ApplyOffline(graph, all);
  TurboGraphSystem fresh(DynCluster("delta_fresh", /*machines=*/2));
  ASSERT_TRUE(fresh.LoadGraph(rebuilt).ok());
  EXPECT_EQ(system.partition()->num_edges, rebuilt.num_edges());
  EXPECT_EQ(DegreesByOldId(system.partition()),
            DegreesByOldId(fresh.partition()));
  EXPECT_EQ(PrDigest(&system), PrDigest(&fresh));
}

TEST_F(DynamicGraphTest, KillMidBatchThenRecoveryConvergesBitIdentical) {
  const EdgeList graph = TestGraph(12, 31);
  dyn::UpdateBatch batch;
  std::set<Edge> existing(graph.edges.begin(), graph.edges.end());
  const uint64_t n = graph.num_vertices;
  uint64_t added = 0;
  for (uint64_t s = 0; s < n && added < 30; ++s) {
    const Edge e{s, (s + 11) % n};
    if (e.src != e.dst && existing.count(e) == 0) {
      batch.Insert(e.src, e.dst);
      ++added;
    }
  }
  for (size_t i = 0; i < 10; ++i) {
    const Edge& e = graph.edges[i * 53 % graph.edges.size()];
    batch.Delete(e.src, e.dst);
  }

  // Fault-free reference apply.
  fault::Disarm();
  TurboGraphSystem clean(DynCluster("kill_clean"));
  ASSERT_TRUE(clean.LoadGraph(graph).ok());
  dyn::DynamicGraph clean_dyn(clean.cluster(), clean.mutable_partition());
  dyn::ApplyStats clean_stats;
  const Status clean_apply = clean_dyn.ApplyBatch(batch, &clean_stats);
  ASSERT_TRUE(clean_apply.ok()) << clean_apply.ToString();
  const uint32_t clean_digest = PrDigest(&clean);

  // Chaos apply: machine 1 fail-stops at its 2nd mutation — after the
  // batch is WAL-durable, before any of its pages are flushed.
  ASSERT_TRUE(
      fault::Configure("machine1:machine.kill@n=2", /*seed=*/11).ok());
  TurboGraphSystem chaos(DynCluster("kill_chaos"));
  ASSERT_TRUE(chaos.LoadGraph(graph).ok());
  dyn::DynamicGraph chaos_dyn(chaos.cluster(), chaos.mutable_partition());
  dyn::ApplyStats chaos_stats;
  const Status apply = chaos_dyn.ApplyBatch(batch, &chaos_stats);
  ASSERT_TRUE(apply.IsMachineLost()) << apply.ToString();
  EXPECT_EQ(chaos_dyn.epoch(), 0u);  // never committed

  // The batch is durable on the dead machine even though it never
  // applied: WAL-first is the whole point.
  dyn::Wal wal1(chaos.cluster()->machine(1)->disk());
  auto logged = wal1.Read();
  ASSERT_TRUE(logged.ok());
  EXPECT_EQ(logged->committed_epoch, 0u);
  ASSERT_FALSE(logged->uncommitted.empty());

  fault::Disarm();
  chaos.cluster()->ReviveAllMachines();
  dyn::ApplyStats recovery;
  ASSERT_TRUE(chaos_dyn.Recover(&recovery).ok());
  EXPECT_EQ(chaos_dyn.epoch(), 1u);

  EXPECT_EQ(chaos.partition()->num_edges, clean.partition()->num_edges);
  EXPECT_EQ(DegreesByOldId(chaos.partition()),
            DegreesByOldId(clean.partition()));
  EXPECT_EQ(PrDigest(&chaos), clean_digest);

  // The replayed epoch is committed now; a second recovery is a no-op.
  auto replayed = wal1.Read();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->committed_epoch, 1u);
  EXPECT_TRUE(replayed->uncommitted.empty());
  ASSERT_TRUE(chaos_dyn.Recover().ok());
  EXPECT_EQ(PrDigest(&chaos), clean_digest);
}

TEST_F(DynamicGraphTest, UpdateJobsRejectedWithoutDynamicGraph) {
  const EdgeList graph = TestGraph(12, 37);
  TurboGraphSystem system(DynCluster("svc_nodyn"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  service::JobManager manager(system.cluster(), system.partition());
  service::JobSpec spec;
  spec.query = "update";
  spec.mutations = {"+1:2"};
  auto id = manager.Submit(spec);
  ASSERT_FALSE(id.ok());
  EXPECT_TRUE(id.status().IsInvalidArgument());
  manager.Shutdown();
}

TEST_F(DynamicGraphTest, UpdateJobValidatesMutationText) {
  const EdgeList graph = TestGraph(12, 37);
  TurboGraphSystem system(DynCluster("svc_badmut"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(system.cluster(), system.mutable_partition());
  service::JobManager manager(system.cluster(), system.partition(), {},
                              &dynamic);
  service::JobSpec spec;
  spec.query = "update";
  spec.mutations = {"nonsense"};
  EXPECT_FALSE(manager.Submit(spec).ok());
  spec.mutations = {"+1:999999999"};  // out of range
  EXPECT_FALSE(manager.Submit(spec).ok());
  manager.Shutdown();
}

TEST_F(DynamicGraphTest, ConcurrentQueriesSeeExactlyOneEpoch) {
  const EdgeList graph = TestGraph(12, 41);
  TurboGraphSystem system(DynCluster("svc_iso"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(system.cluster(), system.mutable_partition());
  service::JobServiceOptions options;
  options.max_running = 2;
  service::JobManager manager(system.cluster(), system.partition(), options,
                              &dynamic);

  auto run_pr = [&]() -> uint32_t {
    service::JobSpec spec;
    spec.query = "pr";
    spec.iterations = 5;
    auto id = manager.Submit(spec);
    EXPECT_TRUE(id.ok());
    auto record = manager.Wait(*id);
    EXPECT_TRUE(record.ok());
    EXPECT_EQ(record->state, service::JobState::kDone);
    return record->result_crc;
  };
  auto make_update = [&](uint64_t salt) {
    service::JobSpec spec;
    spec.query = "update";
    std::set<Edge> existing(graph.edges.begin(), graph.edges.end());
    uint64_t added = 0;
    for (uint64_t s = 0; s < graph.num_vertices && added < 8; ++s) {
      const Edge e{s, (s + salt) % graph.num_vertices};
      if (e.src != e.dst && existing.count(e) == 0) {
        spec.mutations.push_back("+" + std::to_string(e.src) + ":" +
                                 std::to_string(e.dst));
        ++added;
      }
    }
    EXPECT_EQ(added, 8u);
    return spec;
  };

  const uint32_t crc_epoch0 = run_pr();

  // First update through the service: terminal record carries the epoch
  // and applied counts.
  auto update1 = manager.Submit(make_update(13));
  ASSERT_TRUE(update1.ok());
  auto record1 = manager.Wait(*update1);
  ASSERT_TRUE(record1.ok());
  EXPECT_EQ(record1->state, service::JobState::kDone);
  EXPECT_EQ(record1->epoch, 1u);
  EXPECT_EQ(record1->edges_inserted, 8u);
  const uint32_t crc_epoch1 = run_pr();
  EXPECT_NE(crc_epoch1, crc_epoch0);

  // Now race queries against a second update from several threads. The
  // update reserves the whole ledger, so admission serializes it against
  // every query: each query digest must equal exactly the epoch-1 or the
  // epoch-2 graph — never a half-applied hybrid.
  std::vector<uint32_t> crcs(4);
  std::vector<std::thread> workers;
  for (size_t i = 0; i < crcs.size(); ++i) {
    workers.emplace_back([&, i] { crcs[i] = run_pr(); });
  }
  auto update2 = manager.Submit(make_update(17));
  ASSERT_TRUE(update2.ok());
  for (std::thread& t : workers) t.join();
  auto record2 = manager.Wait(*update2);
  ASSERT_TRUE(record2.ok());
  EXPECT_EQ(record2->state, service::JobState::kDone);
  EXPECT_EQ(record2->epoch, 2u);

  const uint32_t crc_epoch2 = run_pr();
  EXPECT_NE(crc_epoch2, crc_epoch1);
  for (size_t i = 0; i < crcs.size(); ++i) {
    EXPECT_TRUE(crcs[i] == crc_epoch1 || crcs[i] == crc_epoch2)
        << "query " << i << " saw a mixed-epoch graph (crc " << crcs[i]
        << ")";
  }
  manager.Shutdown();
}

}  // namespace
}  // namespace tgpp
