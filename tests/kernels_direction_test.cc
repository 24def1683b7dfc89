// Equivalence tests for the direction-optimizing / work-efficient
// kernels: every kernel must match its single-threaded reference
// (algos/reference.h) exactly — bit-determinism is the contract
// documented in docs/ALGORITHMS.md — across machine counts, scatter
// directions (push / pull / auto) and window modes (dense / sparse).

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "algos/bfs.h"
#include "algos/kcore.h"
#include "algos/label_propagation.h"
#include "algos/mis.h"
#include "algos/reference.h"
#include "algos/sssp.h"
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

// Symmetric, deduplicated RMAT graph — the common precondition of the
// pull direction and of the kcore / mis kernels.
EdgeList UndirectedRmat(int scale, uint64_t seed) {
  EdgeList g = GenerateRmatX(scale, seed);
  DeduplicateEdges(&g);
  MakeUndirected(&g);
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

EngineOptions WithDirection(DirectionMode mode, bool sparse = false) {
  EngineOptions options;
  options.deterministic = true;
  options.frontier.direction = mode;
  options.frontier.sparse_windows = sparse;
  return options;
}

// --- BFS: push == pull == auto == reference -------------------------------

TEST(BfsDirection, AllDirectionsMatchReferenceOnRmat) {
  const EdgeList graph = UndirectedRmat(10, 404);
  const std::vector<uint64_t> expected = ReferenceBfs(graph, 0);
  for (int machines : {1, 3}) {
    for (DirectionMode mode :
         {DirectionMode::kPush, DirectionMode::kPull, DirectionMode::kAuto}) {
      auto system = MakeSystem(
          "bfs_m" + std::to_string(machines) + "_d" +
              std::to_string(static_cast<int>(mode)),
          graph, machines);
      auto app = MakeBfsApp(system->partition(), 0);
      std::vector<BfsAttr> attrs;
      auto stats = system->RunQuery(app, &attrs, WithDirection(mode));
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ASSERT_EQ(attrs.size(), expected.size());
      for (VertexId v = 0; v < expected.size(); ++v) {
        ASSERT_EQ(attrs[v].dist, expected[v])
            << "v=" << v << " machines=" << machines
            << " mode=" << static_cast<int>(mode);
      }
      if (mode == DirectionMode::kPull) {
        EXPECT_GT(stats->pull_supersteps, 0);
        EXPECT_EQ(stats->push_supersteps, 0);
      }
    }
  }
}

TEST(BfsDirection, AutoUsesPullOnDenseFrontier) {
  // K64: after superstep 0 the frontier is 63/64 of the graph, far past
  // the Ligra threshold, so auto must switch to pull at least once.
  const EdgeList graph = CompleteGraph(64);
  const std::vector<uint64_t> expected = ReferenceBfs(graph, 0);
  auto system = MakeSystem("bfs_auto_k64", graph);
  auto app = MakeBfsApp(system->partition(), 0);
  std::vector<BfsAttr> attrs;
  auto stats =
      system->RunQuery(app, &attrs, WithDirection(DirectionMode::kAuto));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->pull_supersteps, 0);
  EXPECT_GT(stats->push_supersteps, 0);  // superstep 0 is tiny -> push
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(attrs[v].dist, expected[v]) << "v=" << v;
  }
}

TEST(BfsDirection, SparseWindowsMatchReferenceOnHighDiameterGraph) {
  // A long cycle keeps every frontier at 2 vertices: every window
  // decision should pick the sparse path.
  const EdgeList graph = CycleGraph(256);
  const std::vector<uint64_t> expected = ReferenceBfs(graph, 0);
  auto system = MakeSystem("bfs_sparse_cycle", graph);
  auto app = MakeBfsApp(system->partition(), 0);
  std::vector<BfsAttr> attrs;
  auto stats = system->RunQuery(
      app, &attrs, WithDirection(DirectionMode::kPush, /*sparse=*/true));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(attrs[v].dist, expected[v]) << "v=" << v;
  }
  uint64_t sparse_windows = 0;
  for (int m = 0; m < system->cluster()->num_machines(); ++m) {
    sparse_windows +=
        system->cluster()->machine(m)->metrics()->frontier_sparse_windows
            .value();
  }
  EXPECT_GT(sparse_windows, 0u);
}

// --- delta-stepping SSSP vs. Dijkstra -------------------------------------

TEST(DeltaSssp, MatchesDijkstraAcrossDeltas) {
  const EdgeList graph = UndirectedRmat(10, 405);
  constexpr uint64_t kMaxWeight = 8;
  const std::vector<uint64_t> expected =
      ReferenceSsspWeighted(graph, 0, kMaxWeight);
  for (uint64_t delta : {1ull, 4ull, 16ull}) {
    auto system =
        MakeSystem("delta_sssp_d" + std::to_string(delta), graph);
    auto app = MakeSsspDeltaApp(system->partition(), 0, delta, kMaxWeight);
    std::vector<SsspDeltaAttr> attrs;
    EngineOptions options;
    options.deterministic = true;
    auto stats = system->RunQuery(app, &attrs, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    for (VertexId v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(attrs[v].dist, expected[v])
          << "v=" << v << " delta=" << delta;
    }
  }
}

TEST(DeltaSssp, DisconnectedVerticesStayInfinite) {
  EdgeList g = CycleGraph(8);
  g.num_vertices = 12;  // 4 isolated vertices
  auto system = MakeSystem("delta_sssp_iso", g);
  auto app = MakeSsspDeltaApp(system->partition(), 0, 4, 8);
  std::vector<SsspDeltaAttr> attrs;
  auto stats = system->RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (VertexId v = 8; v < 12; ++v) {
    EXPECT_EQ(attrs[v].dist, kInfiniteDistance);
  }
}

// --- sampled WCC vs. full propagation -------------------------------------

TEST(SampledWcc, MatchesReferenceOnRmatAndIslands) {
  for (int machines : {1, 3}) {
    const EdgeList graph = UndirectedRmat(10, 406);
    const std::vector<uint64_t> expected = ReferenceWcc(graph);
    auto system =
        MakeSystem("wcc_sampled_m" + std::to_string(machines), graph,
                   machines);
    auto app = MakeWccSampledApp(system->partition(), /*sample_rounds=*/2);
    std::vector<WccSampledAttr> attrs;
    auto stats = system->RunQuery(app, &attrs);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    for (VertexId v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(attrs[v].label, expected[v])
          << "v=" << v << " machines=" << machines;
    }
  }
}

TEST(SampledWcc, StarGraphOneComponent) {
  auto system = MakeSystem("wcc_sampled_star", StarGraph(32));
  auto app = MakeWccSampledApp(system->partition(), 3);
  std::vector<WccSampledAttr> attrs;
  auto stats = system->RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const WccSampledAttr& a : attrs) EXPECT_EQ(a.label, 0u);
}

// --- k-core ---------------------------------------------------------------

TEST(KCore, CompleteGraphCorenessIsNMinusOne) {
  auto system = MakeSystem("kcore_k8", CompleteGraph(8));
  auto app = MakeKcoreApp(system->partition());
  std::vector<KcoreAttr> attrs;
  auto stats = system->RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const KcoreAttr& a : attrs) {
    EXPECT_EQ(a.core, 7u);
    EXPECT_EQ(a.state, kKcoreGone);
  }
}

TEST(KCore, MatchesReferenceOnRmat) {
  const EdgeList graph = UndirectedRmat(10, 407);
  const std::vector<uint64_t> expected = ReferenceKCore(graph);
  for (int machines : {1, 3}) {
    auto system =
        MakeSystem("kcore_m" + std::to_string(machines), graph, machines);
    auto app = MakeKcoreApp(system->partition());
    std::vector<KcoreAttr> attrs;
    auto stats = system->RunQuery(app, &attrs);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    for (VertexId v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(attrs[v].core, expected[v])
          << "v=" << v << " machines=" << machines;
    }
  }
}

// --- label propagation ----------------------------------------------------

TEST(LabelProp, MatchesReferenceOnRmat) {
  const EdgeList graph = UndirectedRmat(10, 408);
  constexpr int kRounds = 5;
  const std::vector<uint64_t> expected =
      ReferenceLabelProp(graph, kRounds);
  for (int machines : {1, 3}) {
    auto system =
        MakeSystem("lp_m" + std::to_string(machines), graph, machines);
    auto app = MakeLabelPropagationApp(system->partition(), kRounds);
    std::vector<LpAttr> attrs;
    auto stats = system->RunQuery(app, &attrs);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    for (VertexId v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(attrs[v].label, expected[v])
          << "v=" << v << " machines=" << machines;
    }
  }
}

TEST(LabelProp, CompleteGraphConvergesToOneLabel) {
  // On K16 every vertex hears every label each round; after a few rounds
  // the hash-selected draws collapse the graph to few communities, and
  // the result must still match the reference exactly.
  const EdgeList graph = CompleteGraph(16);
  const std::vector<uint64_t> expected = ReferenceLabelProp(graph, 8);
  auto system = MakeSystem("lp_k16", graph);
  auto app = MakeLabelPropagationApp(system->partition(), 8);
  std::vector<LpAttr> attrs;
  auto stats = system->RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(attrs[v].label, expected[v]) << "v=" << v;
  }
}

// --- maximal independent set ----------------------------------------------

TEST(Mis, MatchesReferenceAndIsValidOnRmat) {
  const EdgeList graph = UndirectedRmat(10, 409);
  const std::vector<uint8_t> expected = ReferenceMis(graph);
  for (int machines : {1, 3}) {
    auto system =
        MakeSystem("mis_m" + std::to_string(machines), graph, machines);
    auto app = MakeMisApp(system->partition());
    std::vector<MisAttr> attrs;
    auto stats = system->RunQuery(app, &attrs);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    std::vector<uint8_t> in_set(attrs.size());
    for (VertexId v = 0; v < attrs.size(); ++v) {
      ASSERT_TRUE(attrs[v].state == kMisIn || attrs[v].state == kMisOut)
          << "undecided vertex " << v;
      in_set[v] = attrs[v].state == kMisIn ? 1 : 0;
      ASSERT_EQ(in_set[v], expected[v])
          << "v=" << v << " machines=" << machines;
    }
    // Structural validity: independent (no edge inside the set) and
    // maximal (every outside vertex has a neighbor inside).
    std::vector<uint8_t> dominated = in_set;
    for (const auto& e : graph.edges) {
      EXPECT_FALSE(in_set[e.src] && in_set[e.dst])
          << "edge " << e.src << "-" << e.dst << " inside the set";
      if (in_set[e.src]) dominated[e.dst] = 1;
    }
    for (VertexId v = 0; v < dominated.size(); ++v) {
      EXPECT_TRUE(dominated[v]) << "vertex " << v << " not dominated";
    }
  }
}

TEST(Mis, StarGraphPicksLeavesOrHub) {
  auto system = MakeSystem("mis_star", StarGraph(16));
  auto app = MakeMisApp(system->partition());
  std::vector<MisAttr> attrs;
  auto stats = system->RunQuery(app, &attrs);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::vector<uint8_t> expected = ReferenceMis(StarGraph(16));
  uint64_t size = 0;
  for (VertexId v = 0; v < attrs.size(); ++v) {
    EXPECT_EQ(attrs[v].state == kMisIn ? 1 : 0, expected[v]) << "v=" << v;
    if (attrs[v].state == kMisIn) ++size;
  }
  // Either {hub} or all 16 leaves — both are maximal.
  EXPECT_TRUE(size == 1 || size == 16) << "size=" << size;
}

}  // namespace
}  // namespace tgpp
