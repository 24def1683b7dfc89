// Property sweep: every query must match its reference implementation
// across cluster shapes (p), chunking granularities (q), partitioning
// schemes and graph seeds — including the q > 1 configurations that
// exercise the spill-to-disk global gather and multi-window scatter.

#include <gtest/gtest.h>

#include <filesystem>

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

struct Shape {
  int machines;
  int q;
  PartitionScheme scheme;
  uint64_t seed;
};

std::string ShapeName(const ::testing::TestParamInfo<Shape>& info) {
  std::string s = PartitionSchemeName(info.param.scheme);
  for (char& c : s) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return "p" + std::to_string(info.param.machines) + "_q" +
         std::to_string(info.param.q) + "_" + s + "_s" +
         std::to_string(info.param.seed);
}

class EngineProperty : public ::testing::TestWithParam<Shape> {
 protected:
  std::unique_ptr<TurboGraphSystem> MakeSystem(const std::string& name,
                                               const EdgeList& graph) {
    const Shape& shape = GetParam();
    ClusterConfig config;
    config.num_machines = shape.machines;
    config.threads_per_machine = 2;
    config.memory_budget_bytes = 32ull << 20;
    config.buffer_pool_frames = 24;
    config.root_dir = ScratchPath(name);
    std::filesystem::remove_all(config.root_dir);
    auto system = std::make_unique<TurboGraphSystem>(config);
    TGPP_CHECK_OK(system->LoadGraph(graph, shape.scheme, shape.q));
    return system;
  }
};

TEST_P(EngineProperty, PageRank) {
  const EdgeList graph = GenerateRmatX(12, GetParam().seed);
  auto system = MakeSystem("pr", graph);
  auto app = MakePageRankApp(system->partition(), 4);
  std::vector<PageRankAttr> attrs;
  auto stats = system->RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::vector<double> expected = ReferencePageRank(graph, 4);
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(attrs[v].pr, expected[v], 1e-9) << "vertex " << v;
  }
}

TEST_P(EngineProperty, SsspAndWcc) {
  EdgeList graph = GenerateRmatX(11, GetParam().seed + 100);
  MakeUndirected(&graph);
  auto system = MakeSystem("sw", graph);

  auto sssp = MakeSsspApp(system->partition(), /*source_old_id=*/1);
  std::vector<SsspAttr> dists;
  auto sssp_stats = system->RunQuery(sssp, &dists);
  ASSERT_TRUE(sssp_stats.ok()) << sssp_stats.status().ToString();
  const std::vector<uint64_t> expected_dist = ReferenceSssp(graph, 1);
  for (VertexId v = 0; v < expected_dist.size(); ++v) {
    ASSERT_EQ(dists[v].dist, expected_dist[v]) << "vertex " << v;
  }

  auto wcc = MakeWccApp(system->partition());
  std::vector<WccAttr> labels;
  auto wcc_stats = system->RunQuery(wcc, &labels);
  ASSERT_TRUE(wcc_stats.ok()) << wcc_stats.status().ToString();
  const std::vector<uint64_t> expected_labels = ReferenceWcc(graph);
  for (VertexId v = 0; v < expected_labels.size(); ++v) {
    ASSERT_EQ(labels[v].label, expected_labels[v]) << "vertex " << v;
  }
}

TEST_P(EngineProperty, TriangleCountAndLcc) {
  EdgeList graph = GenerateRmatX(11, GetParam().seed + 200);
  DeduplicateEdges(&graph);
  MakeUndirected(&graph);
  auto system = MakeSystem("tclcc", graph);

  auto tc = MakeTriangleCountingApp();
  auto tc_stats = system->RunQuery(tc);
  ASSERT_TRUE(tc_stats.ok()) << tc_stats.status().ToString();
  EXPECT_EQ(tc_stats->aggregate_sum, ReferenceTriangleCount(graph));

  auto lcc = MakeLccApp(system->partition());
  std::vector<LccAttr> attrs;
  auto lcc_stats = system->RunQuery(lcc, &attrs);
  ASSERT_TRUE(lcc_stats.ok()) << lcc_stats.status().ToString();
  const std::vector<double> expected = ReferenceLcc(graph);
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(attrs[v].lcc, expected[v], 1e-12) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineProperty,
    ::testing::Values(Shape{1, 1, PartitionScheme::kBbp, 1},
                      Shape{2, 1, PartitionScheme::kBbp, 2},
                      Shape{4, 1, PartitionScheme::kBbp, 3},
                      Shape{4, 2, PartitionScheme::kBbp, 4},
                      Shape{3, 3, PartitionScheme::kBbp, 5},
                      Shape{2, 4, PartitionScheme::kBbp, 6},
                      Shape{4, 2, PartitionScheme::kRandom, 7},
                      Shape{3, 2, PartitionScheme::kHashPregel, 8}),
    ShapeName);

// Engine options must not change answers.
TEST(EngineOptionsProperty, AblationsPreserveResults) {
  EdgeList graph = GenerateRmatX(12, 321);
  ClusterConfig config;
  config.num_machines = 3;
  config.root_dir = ScratchPath("opts");
  std::filesystem::remove_all(config.root_dir);
  TurboGraphSystem system(config);
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  const std::vector<double> expected = ReferencePageRank(graph, 3);
  EngineOptions no_local_gather;
  no_local_gather.in_memory_local_gather = false;
  EngineOptions no_read_ahead;
  no_read_ahead.read_ahead_pages = 1;
  for (const EngineOptions& options :
       {EngineOptions{}, no_local_gather, no_read_ahead}) {
    auto app = MakePageRankApp(system.partition(), 3);
    std::vector<PageRankAttr> attrs;
    auto stats = system.RunQuery(app, &attrs, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    for (VertexId v = 0; v < expected.size(); ++v) {
      ASSERT_NEAR(attrs[v].pr, expected[v], 1e-9);
    }
  }
}

}  // namespace
}  // namespace tgpp
