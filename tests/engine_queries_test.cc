// End-to-end correctness of the NWSM engine: all five queries validated
// against the single-threaded reference implementations across graphs,
// cluster shapes, and partitioning schemes.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "algos/lcc.h"
#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/sssp.h"
#include "algos/triangle_counting.h"
#include "algos/wcc.h"
#include "core/system.h"
#include "graph/rmat.h"
#include "test_scratch.h"

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

  // Labels must induce the same component structure (the engine labels in
  // the renumbered space; the reference labels by min old ID — compare by
  // component-partition equality).
  const std::vector<uint64_t> expected = ReferenceWcc(graph);
  ASSERT_EQ(attrs.size(), expected.size());
  std::map<uint64_t, uint64_t> engine_to_ref;
  std::map<uint64_t, uint64_t> ref_to_engine;
  for (VertexId v = 0; v < expected.size(); ++v) {
    const uint64_t e = attrs[v].label;
    const uint64_t r = expected[v];
    auto [it1, fresh1] = engine_to_ref.emplace(e, r);
    EXPECT_EQ(it1->second, r) << "engine label " << e << " split";
    auto [it2, fresh2] = ref_to_engine.emplace(r, e);
    EXPECT_EQ(it2->second, e) << "reference label " << r << " split";
  }
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

}  // namespace
}  // namespace tgpp
