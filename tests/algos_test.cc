// Algorithm-level tests on graphs with hand-checkable answers, plus the
// k=3 four-clique query (appendix A.6 generalization) against its
// reference.

#include <gtest/gtest.h>

#include <filesystem>

#include "algos/clique4.h"
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

EdgeList CompleteGraph(uint64_t n) {
  EdgeList g;
  g.num_vertices = n;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u != v) g.edges.push_back({u, v});
    }
  }
  return g;
}

EdgeList CycleGraph(uint64_t n) {
  EdgeList g;
  g.num_vertices = n;
  for (VertexId u = 0; u < n; ++u) {
    g.edges.push_back({u, (u + 1) % n});
    g.edges.push_back({(u + 1) % n, u});
  }
  return g;
}

EdgeList StarGraph(uint64_t leaves) {
  EdgeList g;
  g.num_vertices = leaves + 1;
  for (VertexId v = 1; v <= leaves; ++v) {
    g.edges.push_back({0, v});
    g.edges.push_back({v, 0});
  }
  return g;
}

std::unique_ptr<TurboGraphSystem> MakeSystem(const std::string& name,
                                             const EdgeList& graph,
                                             int machines = 3) {
  ClusterConfig config;
  config.num_machines = machines;
  config.memory_budget_bytes = 32ull << 20;
  config.root_dir = ScratchPath(name);
  std::filesystem::remove_all(config.root_dir);
  auto system = std::make_unique<TurboGraphSystem>(config);
  TGPP_CHECK_OK(system->LoadGraph(graph));
  return system;
}

// --- reference implementations on known graphs ---

TEST(Reference, TrianglesOfCompleteGraphs) {
  EXPECT_EQ(ReferenceTriangleCount(CompleteGraph(3)), 1u);
  EXPECT_EQ(ReferenceTriangleCount(CompleteGraph(4)), 4u);   // C(4,3)
  EXPECT_EQ(ReferenceTriangleCount(CompleteGraph(6)), 20u);  // C(6,3)
  EXPECT_EQ(ReferenceTriangleCount(CycleGraph(8)), 0u);
  EXPECT_EQ(ReferenceTriangleCount(StarGraph(10)), 0u);
}

TEST(Reference, FourCliquesOfCompleteGraphs) {
  EXPECT_EQ(ReferenceFourCliqueCount(CompleteGraph(4)), 1u);
  EXPECT_EQ(ReferenceFourCliqueCount(CompleteGraph(5)), 5u);   // C(5,4)
  EXPECT_EQ(ReferenceFourCliqueCount(CompleteGraph(7)), 35u);  // C(7,4)
  EXPECT_EQ(ReferenceFourCliqueCount(CycleGraph(10)), 0u);
}

TEST(Reference, LccOfCompleteGraphIsOne) {
  const std::vector<double> lcc = ReferenceLcc(CompleteGraph(5));
  for (double v : lcc) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Reference, SsspOnCycle) {
  const std::vector<uint64_t> dist = ReferenceSssp(CycleGraph(10), 0);
  EXPECT_EQ(dist[5], 5u);   // antipode
  EXPECT_EQ(dist[9], 1u);   // neighbor the other way
}

// --- engine on known graphs ---

TEST(EngineKnownAnswers, TriangleCountOnK6) {
  auto system = MakeSystem("k6", CompleteGraph(6));
  auto app = MakeTriangleCountingApp();
  auto stats = system->RunQuery(app);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->aggregate_sum, 20u);
}

TEST(EngineKnownAnswers, NoTrianglesOnCycle) {
  auto system = MakeSystem("cycle", CycleGraph(64));
  auto app = MakeTriangleCountingApp();
  auto stats = system->RunQuery(app);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->aggregate_sum, 0u);
}

TEST(EngineKnownAnswers, StarGraphDegreesAndPr) {
  const EdgeList star = StarGraph(20);
  auto system = MakeSystem("star", star);
  auto app = MakePageRankApp(system->partition(), 2);
  std::vector<PageRankAttr> attrs;
  auto stats = system->RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok());
  // The hub must outrank every leaf.
  for (VertexId leaf = 1; leaf <= 20; ++leaf) {
    EXPECT_GT(attrs[0].pr, attrs[leaf].pr);
  }
}

TEST(EngineKnownAnswers, WccOnTwoIslands) {
  EdgeList g = CycleGraph(8);
  // Second island: vertices 8..15 in a cycle.
  g.num_vertices = 16;
  for (VertexId u = 8; u < 16; ++u) {
    const VertexId v = u + 1 == 16 ? 8 : u + 1;
    g.edges.push_back({u, v});
    g.edges.push_back({v, u});
  }
  auto system = MakeSystem("islands", g);
  auto app = MakeWccApp(system->partition());
  std::vector<WccAttr> labels;
  auto stats = system->RunQuery(app, &labels);
  ASSERT_TRUE(stats.ok());
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(labels[v].label, 0u);
  for (VertexId v = 8; v < 16; ++v) EXPECT_EQ(labels[v].label, 8u);
}

// --- the k=3 query ---

TEST(FourClique, MatchesReferenceOnK5) {
  auto system = MakeSystem("4c_k5", CompleteGraph(5));
  auto app = MakeFourCliqueApp();
  auto stats = system->RunQuery(app);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->aggregate_sum, 5u);
}

TEST(FourClique, MatchesReferenceOnRmat) {
  EdgeList graph = GenerateRmatX(10, 404);
  DeduplicateEdges(&graph);
  MakeUndirected(&graph);
  const uint64_t expected = ReferenceFourCliqueCount(graph);
  ASSERT_GT(expected, 0u) << "test graph should contain 4-cliques";

  auto system = MakeSystem("4c_rmat", graph);
  auto app = MakeFourCliqueApp();
  auto stats = system->RunQuery(app);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->aggregate_sum, expected);
}

TEST(FourClique, MatchesReferenceAcrossShapes) {
  EdgeList graph = GenerateRmatX(9, 405);
  DeduplicateEdges(&graph);
  MakeUndirected(&graph);
  const uint64_t expected = ReferenceFourCliqueCount(graph);
  for (int machines : {1, 2, 4}) {
    auto system = MakeSystem("4c_p" + std::to_string(machines), graph,
                             machines);
    auto app = MakeFourCliqueApp();
    auto stats = system->RunQuery(app);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->aggregate_sum, expected) << "p=" << machines;
  }
}

TEST(FourClique, ZeroOnTriangleFreeGraph) {
  auto system = MakeSystem("4c_cycle", CycleGraph(32));
  auto app = MakeFourCliqueApp();
  auto stats = system->RunQuery(app);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->aggregate_sum, 0u);
}

}  // namespace
}  // namespace tgpp
