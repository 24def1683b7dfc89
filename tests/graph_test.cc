// Graph toolkit: RMAT generator, edge lists, CSR, degrees, intersections,
// dataset stand-ins.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "graph/csr.h"
#include "graph/datasets.h"
#include "graph/degree.h"
#include "graph/edge_list.h"
#include "graph/rmat.h"
#include "util/rng.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

TEST(Rmat, DeterministicForSeed) {
  const EdgeList a = GenerateRmatX(12, 5);
  const EdgeList b = GenerateRmatX(12, 5);
  const EdgeList c = GenerateRmatX(12, 6);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_NE(a.edges, c.edges);
}

TEST(Rmat, RespectsSizeConvention) {
  const EdgeList g = GenerateRmatX(13, 1);
  EXPECT_EQ(g.num_vertices, 1u << 9);   // 2^(13-4)
  EXPECT_EQ(g.num_edges(), 1u << 13);
  for (const Edge& e : g.edges) {
    EXPECT_LT(e.src, g.num_vertices);
    EXPECT_LT(e.dst, g.num_vertices);
  }
}

TEST(Rmat, NoSelfLoopsWhenRequested) {
  const EdgeList g = GenerateRmatX(14, 2);
  for (const Edge& e : g.edges) EXPECT_NE(e.src, e.dst);
}

TEST(Rmat, IsSkewed) {
  const EdgeList g = GenerateRmatX(16, 3);
  const DegreeStats stats = ComputeDegreeStats(g);
  // Power-law-ish: the top 1% of vertices should hold far more than 1%
  // of the edges.
  EXPECT_GT(stats.top1pct_edge_share, 0.10);
  EXPECT_GT(stats.max_degree, 50 * static_cast<uint64_t>(stats.mean_degree));
}

TEST(EdgeList, SaveLoadRoundtrip) {
  const EdgeList g = GenerateRmatX(10, 4);
  const std::string path = ScratchPath("el.bin");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices, g.num_vertices);
  EXPECT_EQ(loaded->edges, g.edges);
  std::filesystem::remove(path);
}

TEST(EdgeList, LoadRejectsTruncatedFile) {
  const std::string path = ScratchPath("trunc.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("xx", 2, 1, f);
  std::fclose(f);
  EXPECT_FALSE(LoadEdgeList(path).ok());
  std::filesystem::remove(path);
}

TEST(EdgeList, LoadRejectsEdgeCountBeyondFileSize) {
  // A corrupt header must be reported, not turned into a huge allocation.
  const std::string path = ScratchPath("bad_count.bin");
  ASSERT_TRUE(SaveEdgeList(GenerateRmatX(6, 1), path).ok());
  for (const uint64_t count : {~0ull, ~0ull / sizeof(Edge), 1ull << 40}) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, sizeof(uint64_t), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&count, sizeof(count), 1, f), 1u);
    std::fclose(f);
    const Result<EdgeList> loaded = LoadEdgeList(path);
    ASSERT_FALSE(loaded.ok()) << count;
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  std::filesystem::remove(path);
}

TEST(EdgeList, MakeUndirectedSymmetrizesAndDedupes) {
  EdgeList g;
  g.num_vertices = 4;
  g.edges = {{0, 1}, {1, 0}, {2, 3}, {2, 3}};
  MakeUndirected(&g);
  std::set<std::pair<VertexId, VertexId>> edges;
  for (const Edge& e : g.edges) edges.insert({e.src, e.dst});
  EXPECT_EQ(edges, (std::set<std::pair<VertexId, VertexId>>{
                       {0, 1}, {1, 0}, {2, 3}, {3, 2}}));
  EXPECT_EQ(g.edges.size(), 4u);  // duplicates removed
}

TEST(EdgeList, RemoveSelfLoops) {
  EdgeList g;
  g.num_vertices = 3;
  g.edges = {{0, 0}, {0, 1}, {1, 1}, {2, 1}};
  RemoveSelfLoops(&g);
  EXPECT_EQ(g.edges.size(), 2u);
}

TEST(Csr, MatchesEdgeList) {
  const EdgeList g = GenerateRmatX(11, 8);
  const Csr csr = Csr::Build(g);
  EXPECT_EQ(csr.num_edges(), g.num_edges());
  std::vector<std::multiset<VertexId>> expected(g.num_vertices);
  for (const Edge& e : g.edges) expected[e.src].insert(e.dst);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    const auto adj = csr.Neighbors(v);
    EXPECT_EQ(std::multiset<VertexId>(adj.begin(), adj.end()), expected[v]);
    EXPECT_EQ(csr.Degree(v), expected[v].size());
  }
}

TEST(Csr, TransposedReversesEdges) {
  EdgeList g;
  g.num_vertices = 3;
  g.edges = {{0, 1}, {0, 2}, {1, 2}};
  const Csr t = Csr::BuildTransposed(g);
  EXPECT_EQ(t.Degree(0), 0u);
  EXPECT_EQ(t.Degree(1), 1u);
  EXPECT_EQ(t.Degree(2), 2u);
  EXPECT_EQ(t.Neighbors(1)[0], 0u);
}

TEST(Csr, SortNeighborsSorts) {
  const EdgeList g = GenerateRmatX(11, 9);
  const Csr csr = Csr::Build(g, /*sort_neighbors=*/true);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    const auto adj = csr.Neighbors(v);
    EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
  }
}

// Property test: intersection helpers vs std::set_intersection across
// random sorted lists of varying skew.
class IntersectionProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntersectionProperty, MatchesStdSetIntersection) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const size_t na = 1 + rng.NextBounded(200);
    const size_t nb = 1 + rng.NextBounded(1500);  // skewed sizes
    std::set<VertexId> sa, sb;
    // Universe (0..1999) comfortably exceeds both set sizes.
    while (sa.size() < na) sa.insert(rng.NextBounded(2000));
    while (sb.size() < nb) sb.insert(rng.NextBounded(2000));
    const std::vector<VertexId> a(sa.begin(), sa.end());
    const std::vector<VertexId> b(sb.begin(), sb.end());

    std::vector<VertexId> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));

    EXPECT_EQ(SortedIntersectionCount(a, b), expected.size());
    std::vector<VertexId> got;
    SortedIntersection(a, b, &got);
    EXPECT_EQ(got, expected);

    const VertexId pivot = rng.NextBounded(2000);
    std::vector<VertexId> expected_above;
    for (VertexId v : expected) {
      if (v > pivot) expected_above.push_back(v);
    }
    EXPECT_EQ(SortedIntersectionCountAbove(a, b, pivot),
              expected_above.size());
    std::vector<VertexId> got_above;
    ForEachCommonAbove(a, b, pivot,
                       [&](VertexId v) { got_above.push_back(v); });
    EXPECT_EQ(got_above, expected_above);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectionProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Intersection, EmptyAndDisjoint) {
  const std::vector<VertexId> a = {1, 3, 5};
  const std::vector<VertexId> b = {2, 4, 6};
  EXPECT_EQ(SortedIntersectionCount(a, b), 0u);
  EXPECT_EQ(SortedIntersectionCount(a, {}), 0u);
  EXPECT_EQ(SortedIntersectionCount({}, {}), 0u);
}

TEST(Datasets, StandInsAscendInSize) {
  const auto& specs = RealGraphStandIns();
  ASSERT_EQ(specs.size(), 4u);
  for (size_t i = 1; i < specs.size(); ++i) {
    EXPECT_GE(specs[i].num_edges, specs[i - 1].num_edges);
  }
  EXPECT_NE(FindDataset("TWT-S"), nullptr);
  EXPECT_EQ(FindDataset("nope"), nullptr);
  EXPECT_GT(HyperlinkStandIn().num_edges, specs.back().num_edges - 1);
}

TEST(Datasets, GenerationIsDeterministic) {
  const DatasetSpec* spec = FindDataset("TWT-S");
  ASSERT_NE(spec, nullptr);
  const EdgeList a = GenerateDataset(*spec);
  const EdgeList b = GenerateDataset(*spec);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.num_edges(), spec->num_edges);
}

TEST(Degree, InOutTotalConsistent) {
  const EdgeList g = GenerateRmatX(11, 10);
  const auto out = ComputeOutDegrees(g);
  const auto in = ComputeInDegrees(g);
  const auto total = ComputeTotalDegrees(g);
  uint64_t sum_out = 0, sum_in = 0;
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    sum_out += out[v];
    sum_in += in[v];
    EXPECT_EQ(total[v], out[v] + in[v]);
  }
  EXPECT_EQ(sum_out, g.num_edges());
  EXPECT_EQ(sum_in, g.num_edges());
}

}  // namespace
}  // namespace tgpp
