// End-to-end correctness of the NWSM engine: all five queries validated
// against the single-threaded reference implementations across graphs,
// cluster shapes, and partitioning schemes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>

#include "algos/bfs.h"
#include "algos/lcc.h"
#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/sssp.h"
#include "algos/triangle_counting.h"
#include "algos/wcc.h"
#include "core/system.h"
#include "graph/rmat.h"
#include "test_scratch.h"
#include "util/crc32.h"

namespace tgpp {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = ScratchPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

ClusterConfig SmallCluster(const std::string& name, int machines = 3) {
  ClusterConfig config;
  config.num_machines = machines;
  config.threads_per_machine = 2;
  config.numa_nodes_per_machine = 2;
  config.memory_budget_bytes = 16ull << 20;
  config.buffer_pool_frames = 32;
  config.root_dir = TestDir(name);
  return config;
}

EdgeList SmallRmat(int vertex_scale, uint64_t edges, uint64_t seed = 11) {
  RmatParams params;
  params.vertex_scale = vertex_scale;
  params.num_edges = edges;
  params.seed = seed;
  return GenerateRmat(params);
}

EdgeList SmallUndirectedRmat(int vertex_scale, uint64_t edges,
                             uint64_t seed = 11) {
  EdgeList graph = SmallRmat(vertex_scale, edges, seed);
  MakeUndirected(&graph);
  return graph;
}

// Engine WCC labels live in the renumbered space and the reference labels
// by min old ID, so the two are compared as component partitions.
void ExpectSameComponents(const std::vector<WccAttr>& labels,
                          const std::vector<uint64_t>& expected) {
  ASSERT_EQ(labels.size(), expected.size());
  std::map<uint64_t, uint64_t> engine_to_ref;
  std::map<uint64_t, uint64_t> ref_to_engine;
  for (VertexId v = 0; v < expected.size(); ++v) {
    const uint64_t e = labels[v].label;
    const uint64_t r = expected[v];
    auto [it1, fresh1] = engine_to_ref.emplace(e, r);
    EXPECT_EQ(it1->second, r) << "engine label " << e << " split";
    auto [it2, fresh2] = ref_to_engine.emplace(r, e);
    EXPECT_EQ(it2->second, e) << "reference label " << r << " split";
  }
}

TEST(EngineQueries, PageRankMatchesReference) {
  const EdgeList graph = SmallRmat(9, 4000);
  TurboGraphSystem system(SmallCluster("pr"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  auto app = MakePageRankApp(system.partition(), 3);
  std::vector<PageRankAttr> attrs;
  auto stats = system.RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->supersteps, 3);

  const std::vector<double> expected = ReferencePageRank(graph, 3);
  ASSERT_EQ(attrs.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(attrs[v].pr, expected[v], 1e-9) << "vertex " << v;
  }
}

TEST(EngineQueries, SsspMatchesReference) {
  const EdgeList graph = SmallUndirectedRmat(8, 2500);
  TurboGraphSystem system(SmallCluster("sssp"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  const VertexId source = 5;
  auto app = MakeSsspApp(system.partition(), source);
  std::vector<SsspAttr> attrs;
  auto stats = system.RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const std::vector<uint64_t> expected = ReferenceSssp(graph, source);
  ASSERT_EQ(attrs.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    EXPECT_EQ(attrs[v].dist, expected[v]) << "vertex " << v;
  }
}

TEST(EngineQueries, WccMatchesReference) {
  const EdgeList graph = SmallUndirectedRmat(8, 600, 23);
  TurboGraphSystem system(SmallCluster("wcc"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  auto app = MakeWccApp(system.partition());
  std::vector<WccAttr> attrs;
  auto stats = system.RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  ExpectSameComponents(attrs, ReferenceWcc(graph));
}

TEST(EngineQueries, TriangleCountMatchesReference) {
  const EdgeList graph = SmallUndirectedRmat(8, 3000, 31);
  TurboGraphSystem system(SmallCluster("tc"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  auto app = MakeTriangleCountingApp();
  auto stats = system.RunQuery(app);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->aggregate_sum, ReferenceTriangleCount(graph));
}

TEST(EngineQueries, LccMatchesReference) {
  const EdgeList graph = SmallUndirectedRmat(7, 1200, 37);
  TurboGraphSystem system(SmallCluster("lcc"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  auto app = MakeLccApp(system.partition());
  std::vector<LccAttr> attrs;
  auto stats = system.RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const std::vector<double> expected = ReferenceLcc(graph);
  ASSERT_EQ(attrs.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(attrs[v].lcc, expected[v], 1e-12) << "vertex " << v;
  }
}

// --- the GGB-resident chunk -------------------------------------------------

// The engine keeps in the GGB, per machine, the vertex chunk with the
// most incoming edges (ties to the lowest index).
int HottestChunk(const PartitionedGraph& pg, int m) {
  std::vector<uint64_t> in_edges(pg.q, 0);
  for (const MachinePartition& part : pg.machines) {
    for (const EdgeChunkInfo& chunk : part.chunks) {
      if (chunk.dst_chunk / pg.q == m) {
        in_edges[chunk.dst_chunk % pg.q] += chunk.num_edges;
      }
    }
  }
  return static_cast<int>(
      std::max_element(in_edges.begin(), in_edges.end()) - in_edges.begin());
}

// Loads `graph` at q = 3 and checks that every machine's in-edges
// concentrate outside chunk 0: ascending-degree renumbering puts the hubs
// last, so a GGB pinned to chunk 0 would spill most updates.
void LoadAtQ3(TurboGraphSystem* system, const EdgeList& graph) {
  ASSERT_TRUE(system->LoadGraph(graph, PartitionScheme::kBbp, /*q=*/3).ok());
  const PartitionedGraph& pg = *system->partition();
  ASSERT_EQ(pg.q, 3);
  for (int m = 0; m < pg.p; ++m) {
    EXPECT_NE(HottestChunk(pg, m), 0) << "machine " << m;
  }
}

TEST(ResidentChunk, PageRankGathersMostUpdatesInMemory) {
  const EdgeList graph = SmallRmat(10, 16000);
  TurboGraphSystem system(SmallCluster("resident_pr"));
  LoadAtQ3(&system, graph);
  system.cluster()->ResetCountersAndCaches();

  auto app = MakePageRankApp(system.partition(), 3);
  std::vector<PageRankAttr> attrs;
  auto stats = system.RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->q_used, 3);
  for (int m = 0; m < system.cluster()->num_machines(); ++m) {
    const MachineMetrics& metrics = *system.cluster()->machine(m)->metrics();
    EXPECT_GT(metrics.updates_spilled.value(), 0u) << "machine " << m;
    EXPECT_GT(metrics.updates_local_gathered.value(),
              metrics.updates_spilled.value())
        << "machine " << m;
  }

  // The perfbench tolerance: relative 1e-6.
  const std::vector<double> expected = ReferencePageRank(graph, 3);
  ASSERT_EQ(attrs.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(attrs[v].pr, expected[v],
                1e-6 * std::max(1.0, std::abs(expected[v])))
        << "vertex " << v;
  }
}

TEST(ResidentChunk, WccBfsAndSsspMatchReference) {
  const EdgeList graph = SmallUndirectedRmat(10, 8000, 17);
  TurboGraphSystem system(SmallCluster("resident_wcc"));
  LoadAtQ3(&system, graph);
  const VertexId source = 3;

  system.cluster()->ResetCountersAndCaches();
  auto wcc = MakeWccApp(system.partition());
  std::vector<WccAttr> labels;
  auto stats = system.RunQuery(wcc, &labels);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->q_used, 3);
  for (int m = 0; m < system.cluster()->num_machines(); ++m) {
    const MachineMetrics& metrics = *system.cluster()->machine(m)->metrics();
    EXPECT_GT(metrics.updates_local_gathered.value(),
              metrics.updates_spilled.value())
        << "machine " << m;
  }
  ExpectSameComponents(labels, ReferenceWcc(graph));

  auto bfs = MakeBfsApp(system.partition(), source);
  std::vector<BfsAttr> hops;
  stats = system.RunQuery(bfs, &hops);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::vector<uint64_t> expected_hops = ReferenceBfs(graph, source);
  ASSERT_EQ(hops.size(), expected_hops.size());
  for (VertexId v = 0; v < expected_hops.size(); ++v) {
    EXPECT_EQ(hops[v].dist, expected_hops[v]) << "vertex " << v;
  }

  auto sssp = MakeSsspApp(system.partition(), source);
  std::vector<SsspAttr> dists;
  stats = system.RunQuery(sssp, &dists);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::vector<uint64_t> expected_dists = ReferenceSssp(graph, source);
  ASSERT_EQ(dists.size(), expected_dists.size());
  for (VertexId v = 0; v < expected_dists.size(); ++v) {
    EXPECT_EQ(dists[v].dist, expected_dists[v]) << "vertex " << v;
  }
}

// Sparse windows ship each update straight to its owner in emission
// order, so one payload interleaves the owner's vertex chunks (resident
// and spilled); the gather must route every run as the dense LGB
// payloads of the dense-window run do.
TEST(ResidentChunk, SparseWindowPayloadsMatchDenseWindows) {
  const EdgeList graph = SmallUndirectedRmat(10, 8000, 19);
  TurboGraphSystem system(SmallCluster("resident_sparse"));
  LoadAtQ3(&system, graph);

  std::vector<uint32_t> digests;
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse windows" : "dense windows");
    system.cluster()->ResetCountersAndCaches();
    EngineOptions options;
    options.deterministic = true;
    options.frontier.direction = DirectionMode::kPush;
    options.frontier.sparse_windows = sparse;
    auto app = MakeBfsApp(system.partition(), /*source_old_id=*/0);
    std::vector<BfsAttr> attrs;
    auto stats = system.RunQuery(app, &attrs, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->q_used, 3);
    uint64_t sparse_windows = 0;
    uint64_t spilled = 0;
    for (int m = 0; m < system.cluster()->num_machines(); ++m) {
      const MachineMetrics& metrics =
          *system.cluster()->machine(m)->metrics();
      sparse_windows += metrics.frontier_sparse_windows.value();
      spilled += metrics.updates_spilled.value();
    }
    EXPECT_EQ(sparse_windows > 0, sparse);
    EXPECT_GT(spilled, 0u);
    digests.push_back(Crc32(attrs.data(), attrs.size() * sizeof(BfsAttr)));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace tgpp
