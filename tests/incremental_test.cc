// Incremental recompute kernels (src/dyn/incremental.h, docs/DYNAMIC.md).
//
// The acceptance property per kernel: after an update batch, a WARM run
// (previous converged state + per-batch corrections, sparse affected
// frontier) must match a COLD run of the same kernel on the mutated
// graph — BIT-IDENTICAL for wcc-inc/sssp-inc (unique min-combine fixed
// point, insert-only), exact quiescence within a bounded rank gap for
// pr-inc (floor division makes the integer fixed point non-unique; see
// src/dyn/incremental.h). The cold run on the in-place mutated system
// must in turn match a cold run on a freshly partitioned rebuild of the
// mutated edge list bit-for-bit (partition independence).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/system.h"
#include "dyn/dynamic_graph.h"
#include "dyn/incremental.h"
#include "graph/edge_list.h"
#include "graph/rmat.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

ClusterConfig IncCluster(const std::string& name) {
  ClusterConfig config;
  config.num_machines = 4;
  config.memory_budget_bytes = 32ull << 20;
  config.root_dir = ScratchPath(name);
  std::filesystem::remove_all(config.root_dir);
  return config;
}

EdgeList TestGraph(int x, uint64_t seed, bool undirected) {
  EdgeList graph = GenerateRmatX(x, seed);
  RemoveSelfLoops(&graph);
  if (undirected) {
    MakeUndirected(&graph);
  } else {
    DeduplicateEdges(&graph);
  }
  return graph;
}

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

EngineOptions Deterministic() {
  EngineOptions options;
  options.deterministic = true;
  return options;
}

// Inserts `count` not-present edges (src, src+stride) into the batch; for
// undirected graphs the caller adds the reverse edges too.
void AddInserts(const EdgeList& graph, uint64_t stride, uint64_t count,
                bool undirected, dyn::UpdateBatch* batch) {
  std::set<Edge> existing(graph.edges.begin(), graph.edges.end());
  const uint64_t n = graph.num_vertices;
  uint64_t added = 0;
  for (uint64_t s = 0; s < n && added < count; ++s) {
    const Edge e{s, (s + stride) % n};
    if (e.src == e.dst || existing.count(e) != 0) continue;
    if (undirected && existing.count({e.dst, e.src}) != 0) continue;
    batch->Insert(e.src, e.dst);
    if (undirected) batch->Insert(e.dst, e.src);
    ++added;
  }
  ASSERT_EQ(added, count);
}

TEST(IncrementalTest, PageRankWarmIsQuiescentAndBoundedNearCold) {
  const EdgeList graph = TestGraph(12, 51, /*undirected=*/false);

  TurboGraphSystem system(IncCluster("pr"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(system.cluster(), system.mutable_partition());

  // Converge the pre-mutation state (this is also the cold baseline of
  // the un-mutated graph — the state an online service would be holding).
  std::vector<dyn::PrIncAttr> warm;
  auto cold0 = dyn::MakePageRankIncApp(system.partition());
  auto stats0 = system.RunQuery(cold0, &warm, Deterministic());
  ASSERT_TRUE(stats0.ok()) << stats0.status().ToString();

  // pr-inc handles inserts AND deletes (quantization-bounded): mix both.
  dyn::UpdateBatch batch;
  AddInserts(graph, 13, 12, /*undirected=*/false, &batch);
  for (size_t i = 1; i <= 6; ++i) {  // skip edges[0]: it's the dup below
    const Edge& e = graph.edges[i * 41 % graph.edges.size()];
    batch.Delete(e.src, e.dst);
  }
  batch.Insert(graph.edges[0].src, graph.edges[0].dst);  // no-op dup
  dyn::ApplyStats applied;
  const Status apply_status = dynamic.ApplyBatch(batch, &applied);
  ASSERT_TRUE(apply_status.ok()) << apply_status.ToString();
  ASSERT_LT(applied.applied.size(), batch.size());  // the dup was skipped

  // Cold full recompute on a fresh partitioning of the mutated edges.
  TurboGraphSystem fresh(IncCluster("pr_fresh"));
  ASSERT_TRUE(fresh.LoadGraph(ApplyOffline(graph, batch)).ok());
  std::vector<dyn::PrIncAttr> cold_attrs;
  auto cold1 = dyn::MakePageRankIncApp(fresh.partition());
  auto cold_stats = fresh.RunQuery(cold1, &cold_attrs, Deterministic());
  ASSERT_TRUE(cold_stats.ok()) << cold_stats.status().ToString();

  // Warm incremental run on the mutated-in-place system: previous state
  // plus the ±announced corrections for mutations that actually applied.
  auto inject =
      dyn::BuildPrInjections(system.partition(), applied.applied, warm);
  EXPECT_FALSE(inject.empty());
  std::vector<dyn::PrIncAttr> warm_attrs;
  auto warm_app =
      dyn::MakePageRankIncApp(system.partition(), &warm, std::move(inject));
  auto warm_stats = system.RunQuery(warm_app, &warm_attrs, Deterministic());
  ASSERT_TRUE(warm_stats.ok()) << warm_stats.status().ToString();

  // The contract (src/dyn/incremental.h): the warm result is a TRUE
  // quiescent state of the integer PageRank equations — checked exactly,
  // per vertex — and floor-division hysteresis keeps it a few truncation
  // units from the cold fixed point (ranks within kPrIncScale/1000; the
  // announced gap then follows from announced being a floor function of
  // rank/deg). And it is cheaper: the warm run starts from the sparse
  // affected frontier instead of every vertex.
  ASSERT_EQ(warm_attrs.size(), cold_attrs.size());
  for (size_t v = 0; v < cold_attrs.size(); ++v) {
    const dyn::PrIncAttr& w = warm_attrs[v];
    const dyn::PrIncAttr& c = cold_attrs[v];
    ASSERT_EQ(w.deg, c.deg) << "vertex " << v;
    ASSERT_EQ(w.rank, dyn::kPrIncBase + w.sum) << "vertex " << v;
    ASSERT_EQ(w.announced, dyn::PrIncContrib(w.rank, w.deg))
        << "vertex " << v;  // exact quiescence: no residual activity
    const int64_t dr = std::abs(w.rank - c.rank);
    ASSERT_LE(dr, dyn::kPrIncScale / 1000) << "vertex " << v;
    const int64_t da_bound =
        (dr * 85 / 100) / std::max<int64_t>(1, (int64_t)w.deg) + 2;
    ASSERT_LE(std::abs(w.announced - c.announced), da_bound)
        << "vertex " << v;
  }
  EXPECT_LT(warm_stats->supersteps, cold_stats->supersteps);
}

TEST(IncrementalTest, PageRankColdRunIsTheBitExactPath) {
  // Callers needing a bit-exact PR digest cold-run on the mutated
  // storage (warm runs are quantization-bounded, not bit-identical).
  // Verify the mutated storage gives that cold run the same fixed point
  // as a freshly partitioned rebuild, inserts and deletes included.
  const EdgeList graph = TestGraph(12, 53, /*undirected=*/false);
  TurboGraphSystem system(IncCluster("pr_del"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(system.cluster(), system.mutable_partition());

  dyn::UpdateBatch batch;
  AddInserts(graph, 13, 6, /*undirected=*/false, &batch);
  for (size_t i = 0; i < 6; ++i) {
    const Edge& e = graph.edges[i * 41 % graph.edges.size()];
    batch.Delete(e.src, e.dst);
  }
  ASSERT_TRUE(batch.HasDeletes());
  ASSERT_TRUE(dynamic.ApplyBatch(batch).ok());

  TurboGraphSystem fresh(IncCluster("pr_del_fresh"));
  ASSERT_TRUE(fresh.LoadGraph(ApplyOffline(graph, batch)).ok());

  std::vector<dyn::PrIncAttr> a, b;
  auto app_a = dyn::MakePageRankIncApp(system.partition());
  auto app_b = dyn::MakePageRankIncApp(fresh.partition());
  ASSERT_TRUE(system.RunQuery(app_a, &a, Deterministic()).ok());
  ASSERT_TRUE(fresh.RunQuery(app_b, &b, Deterministic()).ok());
  ASSERT_EQ(a.size(), b.size());
  for (size_t v = 0; v < a.size(); ++v) {
    ASSERT_EQ(a[v].rank, b[v].rank) << "vertex " << v;
  }
}

TEST(IncrementalTest, WccWarmMatchesColdOnInsertOnlyBatch) {
  const EdgeList graph = TestGraph(12, 57, /*undirected=*/true);

  TurboGraphSystem system(IncCluster("wcc"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(system.cluster(), system.mutable_partition());

  std::vector<dyn::WccIncAttr> warm;
  auto cold0 = dyn::MakeWccIncApp(system.partition());
  ASSERT_TRUE(system.RunQuery(cold0, &warm, Deterministic()).ok());
  std::vector<uint64_t> warm_labels(warm.size());
  for (size_t i = 0; i < warm.size(); ++i) warm_labels[i] = warm[i].label;

  dyn::UpdateBatch batch;
  AddInserts(graph, graph.num_vertices / 2 + 1, 6, /*undirected=*/true,
             &batch);
  ASSERT_FALSE(batch.HasDeletes());  // wcc-inc contract: insert-only
  dyn::ApplyStats applied;
  ASSERT_TRUE(dynamic.ApplyBatch(batch, &applied).ok());

  TurboGraphSystem fresh(IncCluster("wcc_fresh"));
  ASSERT_TRUE(fresh.LoadGraph(ApplyOffline(graph, batch)).ok());
  std::vector<dyn::WccIncAttr> cold_attrs;
  auto cold1 = dyn::MakeWccIncApp(fresh.partition());
  auto cold_stats = fresh.RunQuery(cold1, &cold_attrs, Deterministic());
  ASSERT_TRUE(cold_stats.ok()) << cold_stats.status().ToString();

  std::vector<dyn::WccIncAttr> warm_attrs;
  auto warm_app = dyn::MakeWccIncApp(
      system.partition(), warm_labels,
      dyn::SeedsFromAffected(system.partition(), applied.affected));
  auto warm_stats = system.RunQuery(warm_app, &warm_attrs, Deterministic());
  ASSERT_TRUE(warm_stats.ok()) << warm_stats.status().ToString();

  ASSERT_EQ(warm_attrs.size(), cold_attrs.size());
  for (size_t v = 0; v < cold_attrs.size(); ++v) {
    ASSERT_EQ(warm_attrs[v].label, cold_attrs[v].label) << "vertex " << v;
  }
}

TEST(IncrementalTest, WccColdFallbackHandlesDeletes) {
  // Deletes can split components, which warm min-propagation cannot see;
  // the contract is a cold rerun — verify the mutated storage feeds it
  // the right adjacency.
  const EdgeList graph = TestGraph(12, 59, /*undirected=*/true);
  TurboGraphSystem system(IncCluster("wcc_del"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(system.cluster(), system.mutable_partition());

  dyn::UpdateBatch batch;
  const Edge& e = graph.edges[graph.edges.size() / 2];
  batch.Delete(e.src, e.dst);
  batch.Delete(e.dst, e.src);
  ASSERT_TRUE(batch.HasDeletes());
  ASSERT_TRUE(dynamic.ApplyBatch(batch).ok());

  TurboGraphSystem fresh(IncCluster("wcc_del_fresh"));
  ASSERT_TRUE(fresh.LoadGraph(ApplyOffline(graph, batch)).ok());

  std::vector<dyn::WccIncAttr> a, b;
  auto app_a = dyn::MakeWccIncApp(system.partition());
  auto app_b = dyn::MakeWccIncApp(fresh.partition());
  ASSERT_TRUE(system.RunQuery(app_a, &a, Deterministic()).ok());
  ASSERT_TRUE(fresh.RunQuery(app_b, &b, Deterministic()).ok());
  ASSERT_EQ(a.size(), b.size());
  for (size_t v = 0; v < a.size(); ++v) {
    ASSERT_EQ(a[v].label, b[v].label) << "vertex " << v;
  }
}

TEST(IncrementalTest, SsspWarmMatchesColdOnInsertOnlyBatch) {
  const EdgeList graph = TestGraph(12, 61, /*undirected=*/false);
  const VertexId source = graph.edges[0].src;

  TurboGraphSystem system(IncCluster("sssp"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(system.cluster(), system.mutable_partition());

  std::vector<dyn::SsspIncAttr> warm;
  auto cold0 = dyn::MakeSsspIncApp(system.partition(), source);
  ASSERT_TRUE(system.RunQuery(cold0, &warm, Deterministic()).ok());
  std::vector<uint64_t> warm_dists(warm.size());
  for (size_t i = 0; i < warm.size(); ++i) warm_dists[i] = warm[i].dist;

  // Shortcut edges out of the source's neighborhood change distances.
  dyn::UpdateBatch batch;
  AddInserts(graph, 3, 10, /*undirected=*/false, &batch);
  ASSERT_FALSE(batch.HasDeletes());  // sssp-inc contract: insert-only
  dyn::ApplyStats applied;
  ASSERT_TRUE(dynamic.ApplyBatch(batch, &applied).ok());

  TurboGraphSystem fresh(IncCluster("sssp_fresh"));
  ASSERT_TRUE(fresh.LoadGraph(ApplyOffline(graph, batch)).ok());
  std::vector<dyn::SsspIncAttr> cold_attrs;
  auto cold1 = dyn::MakeSsspIncApp(fresh.partition(), source);
  auto cold_stats = fresh.RunQuery(cold1, &cold_attrs, Deterministic());
  ASSERT_TRUE(cold_stats.ok()) << cold_stats.status().ToString();

  std::vector<dyn::SsspIncAttr> warm_attrs;
  auto warm_app = dyn::MakeSsspIncApp(
      system.partition(), source, warm_dists,
      dyn::SeedsFromAffected(system.partition(), applied.affected));
  auto warm_stats = system.RunQuery(warm_app, &warm_attrs, Deterministic());
  ASSERT_TRUE(warm_stats.ok()) << warm_stats.status().ToString();

  ASSERT_EQ(warm_attrs.size(), cold_attrs.size());
  for (size_t v = 0; v < cold_attrs.size(); ++v) {
    ASSERT_EQ(warm_attrs[v].dist, cold_attrs[v].dist) << "vertex " << v;
  }
}

TEST(IncrementalTest, PrInjectionsSkipIdempotentNoOps) {
  const EdgeList graph = TestGraph(12, 63, /*undirected=*/false);
  TurboGraphSystem system(IncCluster("pr_noop"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  dyn::DynamicGraph dynamic(system.cluster(), system.mutable_partition());

  std::vector<dyn::PrIncAttr> warm;
  auto cold = dyn::MakePageRankIncApp(system.partition());
  ASSERT_TRUE(system.RunQuery(cold, &warm, Deterministic()).ok());

  // A batch of pure no-ops (dup inserts) must contribute NO corrections:
  // injecting for skipped mutations would corrupt the invariant.
  dyn::UpdateBatch noops;
  noops.Insert(graph.edges[0].src, graph.edges[0].dst);
  noops.Insert(graph.edges[1].src, graph.edges[1].dst);
  dyn::ApplyStats stats;
  ASSERT_TRUE(dynamic.ApplyBatch(noops, &stats).ok());
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_TRUE(stats.applied.empty());
  EXPECT_TRUE(
      dyn::BuildPrInjections(system.partition(), stats.applied, warm)
          .empty());

  // And the warm run with no injections converges immediately: the old
  // state is still the fixed point of the unchanged graph.
  std::vector<dyn::PrIncAttr> again;
  auto warm_app = dyn::MakePageRankIncApp(system.partition(), &warm);
  auto warm_stats = system.RunQuery(warm_app, &again, Deterministic());
  ASSERT_TRUE(warm_stats.ok());
  for (size_t v = 0; v < warm.size(); ++v) {
    ASSERT_EQ(again[v].rank, warm[v].rank) << "vertex " << v;
  }
}

}  // namespace
}  // namespace tgpp
