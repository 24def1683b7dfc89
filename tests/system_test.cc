// TurboGraphSystem end-to-end behaviour: adaptive repartitioning
// (Algorithm 1 lines 1-4), graceful OOM, checkpoint/restore fault
// tolerance (paper A.3), and attribute readback mapping.

#include <gtest/gtest.h>

#include <filesystem>

#include "algos/lcc.h"
#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/triangle_counting.h"
#include "core/system.h"
#include "graph/rmat.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

ClusterConfig SystemCluster(const std::string& name,
                            uint64_t budget = 32ull << 20,
                            size_t frames = 16) {
  ClusterConfig config;
  config.num_machines = 2;
  config.memory_budget_bytes = budget;
  config.buffer_pool_frames = frames;
  config.root_dir = ScratchPath(name);
  std::filesystem::remove_all(config.root_dir);
  return config;
}

TEST(System, AdaptiveRepartitioningKicksIn) {
  EdgeList graph = GenerateRmatX(17, 9);  // 2^13 vertices
  DeduplicateEdges(&graph);
  MakeUndirected(&graph);
  // ~1 MB budget: LCC (k=2, 16B attrs) needs q > 1 on this graph.
  TurboGraphSystem system(
      SystemCluster("adaptive", /*budget=*/1ull << 20, /*frames=*/4));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  EXPECT_EQ(system.partition()->q, 1);

  auto app = MakeLccApp(system.partition());
  auto stats = system.RunQuery(app);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->q_used, 1);
  EXPECT_EQ(system.partition()->q, stats->q_used);
}

TEST(System, RepartitioningPreservesAnswers) {
  EdgeList graph = GenerateRmatX(14, 10);
  DeduplicateEdges(&graph);
  MakeUndirected(&graph);
  const uint64_t expected = ReferenceTriangleCount(graph);

  TurboGraphSystem tight(
      SystemCluster("repart_tight", /*budget=*/1ull << 20, /*frames=*/4));
  ASSERT_TRUE(tight.LoadGraph(graph).ok());
  auto app = MakeTriangleCountingApp();
  auto stats = tight.RunQuery(app);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->aggregate_sum, expected);
}

TEST(System, HopelessBudgetFailsCleanly) {
  EdgeList graph = GenerateRmatX(14, 11);
  // 160 KB budget, 1 x 64 KB frame: below even the fixed window costs.
  TurboGraphSystem system(
      SystemCluster("hopeless", /*budget=*/160 << 10, /*frames=*/1));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  auto app = MakePageRankApp(system.partition(), 1);
  auto stats = system.RunQuery(app);
  EXPECT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsOutOfMemory()) << stats.status().ToString();
}

TEST(System, ExplicitQIsRespectedWhenSufficient) {
  EdgeList graph = GenerateRmatX(13, 12);
  TurboGraphSystem system(SystemCluster("explicitq"));
  ASSERT_TRUE(
      system.LoadGraph(graph, PartitionScheme::kBbp, /*q=*/3).ok());
  auto app = MakePageRankApp(system.partition(), 2);
  auto stats = system.RunQuery(app);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->q_used, 3);  // no repartition needed, q kept
}

TEST(System, ReloadingReplacesPartition) {
  TurboGraphSystem system(SystemCluster("reload"));
  ASSERT_TRUE(system.LoadGraph(GenerateRmatX(12, 13)).ok());
  const uint64_t v1 = system.partition()->num_vertices;
  ASSERT_TRUE(system.LoadGraph(GenerateRmatX(13, 13)).ok());
  EXPECT_NE(system.partition()->num_vertices, v1);

  auto app = MakePageRankApp(system.partition(), 1);
  EXPECT_TRUE(system.RunQuery(app).ok());
}

TEST(System, CheckpointRestoreResumesExactly) {
  // Run 1 PR iteration, checkpoint, run 2 more, restore, run 2 again:
  // both 3-iteration results must match the reference exactly.
  const EdgeList graph = GenerateRmatX(13, 14);
  TurboGraphSystem system(SystemCluster("checkpoint"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  NwsmEngine<PageRankAttr, PageRankUpdate> engine(system.cluster(),
                                                  system.partition());
  auto app = MakePageRankApp(system.partition(), 1);
  app.max_supersteps = 1;
  ASSERT_TRUE(engine.Initialize(app).ok());
  ASSERT_TRUE(engine.Run(app).ok());                 // iteration 1
  ASSERT_TRUE(engine.Checkpoint("after1").ok());

  ASSERT_TRUE(engine.Run(app).ok());                 // iterations 2-3
  ASSERT_TRUE(engine.Run(app).ok());
  std::vector<PageRankAttr> first;
  ASSERT_TRUE(engine.ReadAttributes(&first).ok());

  ASSERT_TRUE(engine.Restore("after1").ok());        // roll back
  ASSERT_TRUE(engine.Run(app).ok());                 // redo 2-3
  ASSERT_TRUE(engine.Run(app).ok());
  std::vector<PageRankAttr> second;
  ASSERT_TRUE(engine.ReadAttributes(&second).ok());

  const std::vector<double> expected = ReferencePageRank(graph, 3);
  ASSERT_EQ(first.size(), second.size());
  for (VertexId v = 0; v < first.size(); ++v) {
    EXPECT_DOUBLE_EQ(first[v].pr, second[v].pr);
    EXPECT_NEAR(first[v].pr, expected[system.partition()->new_to_old[v]],
                1e-9);
  }
}

TEST(System, RestoreMissingCheckpointIsNotFound) {
  TurboGraphSystem system(SystemCluster("nockpt"));
  ASSERT_TRUE(system.LoadGraph(GenerateRmatX(12, 15)).ok());
  NwsmEngine<PageRankAttr, PageRankUpdate> engine(system.cluster(),
                                                  system.partition());
  EXPECT_TRUE(engine.Restore("never_created").IsNotFound());
}

TEST(System, AttributesMapBackToOriginalIds) {
  const EdgeList graph = GenerateRmatX(12, 16);
  TurboGraphSystem system(SystemCluster("mapping"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  auto app = MakePageRankApp(system.partition(), 1);
  std::vector<PageRankAttr> attrs;
  ASSERT_TRUE(system.RunQuery(app, &attrs).ok());
  // Degrees returned by old id must match the graph's real out-degrees.
  std::vector<uint64_t> degree(graph.num_vertices, 0);
  for (const Edge& e : graph.edges) ++degree[e.src];
  for (VertexId v = 0; v < graph.num_vertices; ++v) {
    EXPECT_EQ(attrs[v].out_degree, degree[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace tgpp
