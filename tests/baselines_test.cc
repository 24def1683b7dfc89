// Correctness and OOM behaviour of the baseline systems.
//
// Every baseline must produce answers identical to the reference
// implementations when given enough memory, and must fail with a clean
// kOutOfMemory (never a crash) when the budget is too small — that
// behavioural contrast against TurboGraph++ is the heart of the paper's
// evaluation.

#include <gtest/gtest.h>

#include <filesystem>

#include "algos/reference.h"
#include "baselines/baseline.h"
#include "graph/rmat.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = ScratchPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

ClusterConfig BaselineCluster(const std::string& name,
                              uint64_t budget = 64ull << 20) {
  ClusterConfig config;
  config.num_machines = 3;
  config.threads_per_machine = 1;
  config.memory_budget_bytes = budget;
  config.buffer_pool_frames = 16;
  config.root_dir = TestDir(name);
  return config;
}

EdgeList TestGraph(uint64_t seed = 77) {
  RmatParams params;
  params.vertex_scale = 8;
  params.num_edges = 2000;
  params.seed = seed;
  EdgeList graph = GenerateRmat(params);
  MakeUndirected(&graph);
  return graph;
}

using Factory = std::unique_ptr<BaselineSystem> (*)(Cluster*);

struct BaselineCase {
  const char* label;
  Factory factory;
  bool supports_pr;
  bool supports_sssp;
  bool supports_tc;
};

// gtest prints the parameter into each test's listed name; without this
// it dumps the struct's bytes, pointers included, which change per build.
void PrintTo(const BaselineCase& bc, std::ostream* os) { *os << bc.label; }

class BaselineCorrectness : public ::testing::TestWithParam<BaselineCase> {
};

TEST_P(BaselineCorrectness, PageRankMatchesReference) {
  const BaselineCase& bc = GetParam();
  if (!bc.supports_pr) GTEST_SKIP();
  const EdgeList graph = TestGraph();
  Cluster cluster(BaselineCluster(std::string("pr_") + bc.label));
  auto system = bc.factory(&cluster);
  ASSERT_TRUE(system->Load(graph).ok());
  BaselineResult result = system->RunPageRank(3);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const std::vector<double> expected = ReferencePageRank(graph, 3);
  ASSERT_EQ(system->pagerank().size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(system->pagerank()[v], expected[v], 1e-9)
        << bc.label << " vertex " << v;
  }
}

TEST_P(BaselineCorrectness, SsspMatchesReference) {
  const BaselineCase& bc = GetParam();
  if (!bc.supports_sssp) GTEST_SKIP();
  const EdgeList graph = TestGraph(78);
  Cluster cluster(BaselineCluster(std::string("sssp_") + bc.label));
  auto system = bc.factory(&cluster);
  ASSERT_TRUE(system->Load(graph).ok());
  BaselineResult result = system->RunSssp(3);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const std::vector<uint64_t> expected = ReferenceSssp(graph, 3);
  ASSERT_EQ(system->distances().size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    EXPECT_EQ(system->distances()[v], expected[v])
        << bc.label << " vertex " << v;
  }
}

TEST_P(BaselineCorrectness, WccMatchesReference) {
  const BaselineCase& bc = GetParam();
  if (!bc.supports_sssp) GTEST_SKIP();
  const EdgeList graph = TestGraph(79);
  Cluster cluster(BaselineCluster(std::string("wcc_") + bc.label));
  auto system = bc.factory(&cluster);
  ASSERT_TRUE(system->Load(graph).ok());
  BaselineResult result = system->RunWcc();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const std::vector<uint64_t> expected = ReferenceWcc(graph);
  // Min-label propagation labels components by smallest member id, which
  // is exactly what the reference computes.
  ASSERT_EQ(system->labels().size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    EXPECT_EQ(system->labels()[v], expected[v])
        << bc.label << " vertex " << v;
  }
}

TEST_P(BaselineCorrectness, TriangleCountMatchesReference) {
  const BaselineCase& bc = GetParam();
  const EdgeList graph = TestGraph(80);
  Cluster cluster(BaselineCluster(std::string("tc_") + bc.label));
  auto system = bc.factory(&cluster);
  ASSERT_TRUE(system->Load(graph).ok());
  BaselineResult result = system->RunTriangleCount();
  if (!bc.supports_tc) {
    EXPECT_EQ(result.status.code(), StatusCode::kNotSupported);
    return;
  }
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.aggregate, ReferenceTriangleCount(graph));
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, BaselineCorrectness,
    ::testing::Values(
        BaselineCase{"pregel", &MakePregelLike, true, true, true},
        BaselineCase{"graphx", &MakeGraphxLike, true, true, true},
        BaselineCase{"giraph", &MakeGiraphLike, true, true, true},
        BaselineCase{"hybridgraph", &MakeHybridGraphLike, true, true, true},
        BaselineCase{"gemini", &MakeGeminiLike, true, true, false},
        BaselineCase{"chaos", &MakeChaosLike, true, true, false},
        BaselineCase{"pte", &MakePte, false, false, true}),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return std::string(info.param.label);
    });

TEST(BaselineOom, PregelTriangleCountingRunsOutOfMemory) {
  // A tight budget: the sum-of-degrees-squared message volume of the
  // vertex-centric TC workaround cannot fit (Fig 1(b) behaviour).
  EdgeList graph = GenerateRmatX(14, 5);
  MakeUndirected(&graph);
  Cluster cluster(BaselineCluster("oom_pregel_tc", /*budget=*/1ull << 20));
  auto system = MakePregelLike(&cluster);
  ASSERT_TRUE(system->Load(graph).ok());
  BaselineResult result = system->RunTriangleCount();
  EXPECT_TRUE(result.status.IsOutOfMemory()) << result.status.ToString();
}

TEST(BaselineOom, GeminiFailsToLoadLargeGraph) {
  // Gemini's partitioning blow-up: resident 2x + transient 2x graph size
  // exceeds the budget (the paper's "crash during partitioning").
  EdgeList graph = GenerateRmatX(15, 6);
  Cluster cluster(BaselineCluster("oom_gemini_load", /*budget=*/160 << 10));
  auto system = MakeGeminiLike(&cluster);
  Status status = system->Load(graph);
  EXPECT_TRUE(status.IsOutOfMemory()) << status.ToString();
}

TEST(BaselineOom, ChaosSurvivesWhereGeminiFails) {
  // The external-memory system loads the same graph under the same budget
  // that kills the in-memory system — the scalability contrast of Fig 1.
  EdgeList graph = GenerateRmatX(15, 6);
  Cluster cluster(BaselineCluster("oom_chaos_load", /*budget=*/160 << 10));
  auto system = MakeChaosLike(&cluster);
  ASSERT_TRUE(system->Load(graph).ok());
  BaselineResult result = system->RunPageRank(1);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
}

}  // namespace
}  // namespace tgpp
