// Partitioning invariants, parameterized over scheme x machines x q.
//
// The properties every scheme must satisfy:
//  - renumbering is a bijection, machine ranges are consecutive and
//    disjoint, and every edge lands in exactly one chunk whose src/dst
//    ranges contain it;
//  - reading all chunk pages back reproduces the edge multiset exactly;
//  - sub-chunks of one (i, j) chunk own disjoint destination ranges (the
//    CAS-free NUMA property);
//  - the two-level page index brackets every record's source.
// BBP must additionally balance edges well and order IDs by degree.

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <map>
#include <string>

#include "cluster/cluster.h"
#include "graph/degree.h"
#include "graph/rmat.h"
#include "partition/partitioner.h"
#include "storage/page_file.h"
#include "storage/slotted_page.h"
#include "test_scratch.h"
#include "util/crc32.h"

namespace tgpp {
namespace {

struct Case {
  PartitionScheme scheme;
  int machines;
  int q;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string s = PartitionSchemeName(info.param.scheme);
  for (char& c : s) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s + "_p" + std::to_string(info.param.machines) + "_q" +
         std::to_string(info.param.q);
}

class PartitionProperty : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const Case& c = GetParam();
    ClusterConfig config;
    config.num_machines = c.machines;
    config.numa_nodes_per_machine = 2;
    config.root_dir = ScratchPath("partition");
    std::filesystem::remove_all(config.root_dir);
    cluster_ = std::make_unique<Cluster>(config);
    graph_ = GenerateRmatX(13, 77);
    PartitionOptions options;
    options.scheme = c.scheme;
    options.q = c.q;
    auto pg = PartitionGraph(cluster_.get(), graph_, options);
    ASSERT_TRUE(pg.ok()) << pg.status().ToString();
    pg_ = std::move(pg).value();
  }

  std::unique_ptr<Cluster> cluster_;
  EdgeList graph_;
  PartitionedGraph pg_;
};

TEST_P(PartitionProperty, RenumberingIsABijection) {
  std::vector<bool> seen(pg_.num_vertices, false);
  for (VertexId old_id = 0; old_id < pg_.num_vertices; ++old_id) {
    const VertexId new_id = pg_.old_to_new[old_id];
    ASSERT_LT(new_id, pg_.num_vertices);
    EXPECT_FALSE(seen[new_id]);
    seen[new_id] = true;
    EXPECT_EQ(pg_.new_to_old[new_id], old_id);
  }
}

TEST_P(PartitionProperty, MachineRangesAreConsecutive) {
  VertexId cursor = 0;
  for (int m = 0; m < pg_.p; ++m) {
    EXPECT_EQ(pg_.MachineRange(m).begin, cursor);
    cursor = pg_.MachineRange(m).end;
    for (VertexId v = pg_.MachineRange(m).begin;
         v < pg_.MachineRange(m).end; ++v) {
      EXPECT_EQ(pg_.OwnerOf(v), m);
    }
  }
  EXPECT_EQ(cursor, pg_.num_vertices);
}

TEST_P(PartitionProperty, VertexChunksTileEachMachine) {
  for (int m = 0; m < pg_.p; ++m) {
    VertexId cursor = pg_.MachineRange(m).begin;
    for (int c = 0; c < pg_.q; ++c) {
      const VertexRange chunk = pg_.VertexChunkRange(m, c);
      EXPECT_EQ(chunk.begin, cursor);
      cursor = chunk.end;
    }
    EXPECT_EQ(cursor, pg_.MachineRange(m).end);
  }
}

TEST_P(PartitionProperty, EveryEdgeStoredExactlyOnceInItsChunk) {
  // Rebuild the expected multiset in the renumbered space.
  std::map<Edge, int> expected;
  for (const Edge& e : graph_.edges) {
    ++expected[Edge{pg_.old_to_new[e.src], pg_.old_to_new[e.dst]}];
  }

  std::map<Edge, int> found;
  uint64_t total = 0;
  for (int m = 0; m < pg_.p; ++m) {
    auto file = PageFile::Open(cluster_->machine(m)->disk(),
                               PartitionedGraph::kEdgeFileName);
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> buffer(kPageSize);
    for (const EdgeChunkInfo& chunk : pg_.machines[m].chunks) {
      for (uint64_t page = chunk.first_page;
           page < chunk.first_page + chunk.num_pages; ++page) {
        ASSERT_TRUE(file->ReadPage(page, buffer.data()).ok());
        SlottedPageReader reader(buffer.data());
        ASSERT_TRUE(reader.Validate().ok());
        for (uint32_t s = 0; s < reader.num_slots(); ++s) {
          const VertexId src = reader.SrcAt(s);
          EXPECT_TRUE(chunk.src_range.Contains(src));
          for (VertexId dst : reader.DstsAt(s)) {
            EXPECT_TRUE(chunk.dst_range.Contains(dst))
                << "dst " << dst << " outside sub-chunk range";
            ++found[Edge{src, dst}];
            ++total;
          }
        }
      }
    }
  }
  EXPECT_EQ(total, graph_.num_edges());
  EXPECT_EQ(found, expected);
}

TEST_P(PartitionProperty, SubChunksHaveDisjointDstRanges) {
  for (int m = 0; m < pg_.p; ++m) {
    const auto& chunks = pg_.machines[m].chunks;
    // chunks are ordered (i, j, sub); within one (i, j), non-empty
    // sub-chunk dst ranges must not overlap.
    for (size_t a = 0; a + 1 < chunks.size(); ++a) {
      const EdgeChunkInfo& x = chunks[a];
      const EdgeChunkInfo& y = chunks[a + 1];
      if (x.src_chunk != y.src_chunk || x.dst_chunk != y.dst_chunk) {
        continue;
      }
      if (x.num_edges == 0 || y.num_edges == 0) continue;
      EXPECT_LE(x.dst_range.end, y.dst_range.begin)
          << "machine " << m << " chunk (" << x.src_chunk << ","
          << x.dst_chunk << ") subs overlap";
    }
  }
}

TEST_P(PartitionProperty, PageIndexBracketsRecords) {
  for (int m = 0; m < pg_.p; ++m) {
    auto file = PageFile::Open(cluster_->machine(m)->disk(),
                               PartitionedGraph::kEdgeFileName);
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> buffer(kPageSize);
    for (const PageIndexEntry& entry : pg_.machines[m].page_index) {
      ASSERT_TRUE(file->ReadPage(entry.page_no, buffer.data()).ok());
      SlottedPageReader reader(buffer.data());
      for (uint32_t s = 0; s < reader.num_slots(); ++s) {
        EXPECT_GE(reader.SrcAt(s), entry.src_min);
        EXPECT_LE(reader.SrcAt(s), entry.src_max);
      }
    }
  }
}

TEST_P(PartitionProperty, DegreesIndexedByNewId) {
  const auto old_degrees = ComputeOutDegrees(graph_);
  for (VertexId old_id = 0; old_id < pg_.num_vertices; ++old_id) {
    EXPECT_EQ(pg_.out_degree[pg_.old_to_new[old_id]], old_degrees[old_id]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PartitionProperty,
    ::testing::Values(Case{PartitionScheme::kBbp, 2, 1},
                      Case{PartitionScheme::kBbp, 4, 1},
                      Case{PartitionScheme::kBbp, 4, 3},
                      Case{PartitionScheme::kBbp, 3, 2},
                      Case{PartitionScheme::kRandom, 4, 2},
                      Case{PartitionScheme::kHashPregel, 4, 2},
                      Case{PartitionScheme::kHashGraphx, 3, 1}),
    CaseName);

// --- BBP-specific guarantees ---

class BbpSpecific : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_machines = 4;
    config.root_dir = ScratchPath("bbp");
    std::filesystem::remove_all(config.root_dir);
    cluster_ = std::make_unique<Cluster>(config);
    graph_ = GenerateRmatX(14, 99);
    PartitionOptions options;
    options.scheme = PartitionScheme::kBbp;
    options.q = 2;
    auto pg = PartitionGraph(cluster_.get(), graph_, options);
    ASSERT_TRUE(pg.ok());
    pg_ = std::move(pg).value();
  }

  std::unique_ptr<Cluster> cluster_;
  EdgeList graph_;
  PartitionedGraph pg_;
};

TEST_F(BbpSpecific, BalancesEdgesWithinTolerance) {
  // Round-robin degree dealing keeps max/mean close to 1 even on a
  // heavily skewed graph.
  EXPECT_LT(pg_.EdgeBalanceRatio(), 1.15);
}

TEST_F(BbpSpecific, BalancesVertexCounts) {
  uint64_t min_v = ~0ull, max_v = 0;
  for (int m = 0; m < pg_.p; ++m) {
    min_v = std::min(min_v, pg_.MachineRange(m).size());
    max_v = std::max(max_v, pg_.MachineRange(m).size());
  }
  EXPECT_LE(max_v - min_v, 1u);
}

TEST_F(BbpSpecific, IdsAscendByDegreeWithinMachine) {
  for (int m = 0; m < pg_.p; ++m) {
    const VertexRange range = pg_.MachineRange(m);
    for (VertexId v = range.begin; v + 1 < range.end; ++v) {
      EXPECT_LE(pg_.out_degree[v], pg_.out_degree[v + 1])
          << "machine " << m << " id " << v;
    }
  }
}

TEST_F(BbpSpecific, NearOptimalBalanceOnExtremeSkew) {
  // Strongly skewed graph with a monster hub. Any vertex-disjoint
  // partitioning is lower-bounded by max(|E|/p, d_max); BBP must land
  // within 15% of that bound.
  RmatParams params;
  params.vertex_scale = 10;
  params.num_edges = 1 << 14;
  params.a = 0.7;
  params.b = 0.15;
  params.c = 0.1;
  params.seed = 5;
  const EdgeList skewed = GenerateRmat(params);
  const DegreeStats stats = ComputeDegreeStats(skewed);

  ClusterConfig config;
  config.num_machines = 4;
  config.root_dir = ScratchPath("bbp_skew");
  std::filesystem::remove_all(config.root_dir);
  Cluster cluster(config);

  PartitionOptions bbp_opts;
  bbp_opts.scheme = PartitionScheme::kBbp;
  auto bbp = PartitionGraph(&cluster, skewed, bbp_opts);
  ASSERT_TRUE(bbp.ok());

  const double mean =
      static_cast<double>(skewed.num_edges()) / config.num_machines;
  const double optimal_ratio =
      std::max(1.0, static_cast<double>(stats.max_degree) / mean);
  EXPECT_LE(bbp->EdgeBalanceRatio(), optimal_ratio * 1.15)
      << "d_max=" << stats.max_degree;
}

// --- Golden layout: the chunk writer's exact bytes ---
//
// The engine, the dynamic-graph mutator and every digest in the benches
// read the layout the chunk writer produces, so a change to how it groups
// and sorts edges must not move a single byte. These CRCs were recorded
// from the comparison-sort chunker that preceded the counting-sort one.

// CRC of machine m's edge page file, chunk table and page index.
uint32_t LayoutCrc(Cluster* cluster, const PartitionedGraph& pg, int m) {
  auto file = PageFile::Open(cluster->machine(m)->disk(),
                             PartitionedGraph::kEdgeFileName);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  if (!file.ok()) return 0;
  uint32_t crc = 0;
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t no = 0; no < file->num_pages(); ++no) {
    EXPECT_TRUE(file->ReadPage(no, page.data()).ok());
    crc = Crc32(page.data(), page.size(), crc);
  }
  // Fields one by one: struct padding must not enter the checksum.
  std::vector<uint64_t> fields;
  const MachinePartition& part = pg.machines[m];
  fields.push_back(part.num_edges);
  for (const EdgeChunkInfo& c : part.chunks) {
    fields.insert(fields.end(),
                  {static_cast<uint64_t>(c.src_chunk),
                   static_cast<uint64_t>(c.dst_chunk),
                   static_cast<uint64_t>(c.sub_chunk), c.src_range.begin,
                   c.src_range.end, c.dst_range.begin, c.dst_range.end,
                   c.num_edges, c.first_page, c.num_pages,
                   c.delta_pages.size()});
  }
  for (const PageIndexEntry& e : part.page_index) {
    fields.insert(fields.end(), {e.page_no, e.src_min, e.src_max});
  }
  return Crc32(fields.data(), fields.size() * sizeof(uint64_t), crc);
}

// Three sources send all their edges (with repeats) to one hub. Every
// group's destinations are equal, so the r = 2 cut advances to the group's
// end and leaves the second sub-chunk empty; BBP deals the three sources
// to machines 0-2, so machine 3 owns no edges at all.
EdgeList HubGraph() {
  EdgeList graph;
  graph.num_vertices = 40;
  for (VertexId src : {1, 2, 3}) {
    for (VertexId k = 0; k < 2 * src + 1; ++k) {
      graph.edges.push_back(Edge{src, 0});
    }
  }
  return graph;
}

TEST(PartitionGoldenLayout, BytesMatchTheRecordedLayout) {
  struct Golden {
    const char* name;
    EdgeList graph;
    int q;
    int r;
    std::array<uint32_t, 4> crc;  // per machine
  };
  const EdgeList rmat = GenerateRmatX(12, 31);
  const Golden cases[] = {
      {"rmat_q1_r1", rmat, 1, 1,
       {766526351u, 765773292u, 2513949621u, 2463043995u}},
      {"rmat_q3_r2", rmat, 3, 2,
       {1304071884u, 2547643111u, 446048661u, 2665219980u}},
      {"rmat_q4_r2", rmat, 4, 2,
       {3444207119u, 600596378u, 3866670482u, 1134439035u}},
      {"hub_q2_r2", HubGraph(), 2, 2,
       {94362803u, 2022536776u, 1505361391u, 1405345100u}},
  };
  for (const Golden& golden : cases) {
    SCOPED_TRACE(golden.name);
    ClusterConfig config;
    config.num_machines = 4;
    config.numa_nodes_per_machine = golden.r;
    config.root_dir = ScratchPath(golden.name);
    std::filesystem::remove_all(config.root_dir);
    Cluster cluster(config);
    PartitionOptions options;
    options.q = golden.q;
    auto pg = PartitionGraph(&cluster, golden.graph, options);
    ASSERT_TRUE(pg.ok()) << pg.status().ToString();
    for (int m = 0; m < 4; ++m) {
      EXPECT_EQ(LayoutCrc(&cluster, *pg, m), golden.crc[m])
          << "machine " << m;
    }
    if (std::string(golden.name) == "hub_q2_r2") {
      EXPECT_EQ(pg->machines[3].num_edges, 0u);
      for (int m = 0; m < 3; ++m) {
        EXPECT_GT(pg->machines[m].num_edges, 1u) << "machine " << m;
        for (const EdgeChunkInfo& c : pg->machines[m].chunks) {
          if (c.sub_chunk == 1) {
            EXPECT_EQ(c.num_edges, 0u);
          }
        }
      }
    }
  }
}

TEST(PartitionErrors, RejectsEndpointOutOfRange) {
  ClusterConfig config;
  config.num_machines = 2;
  config.root_dir = ScratchPath("bad_edge");
  std::filesystem::remove_all(config.root_dir);
  Cluster cluster(config);
  EdgeList graph;
  graph.num_vertices = 4;
  graph.edges = {{0, 1}, {1, 2}, {2, 7}, {9, 0}};
  const Result<PartitionedGraph> pg =
      PartitionGraph(&cluster, graph, PartitionOptions{});
  ASSERT_FALSE(pg.ok());
  EXPECT_EQ(pg.status().code(), StatusCode::kInvalidArgument)
      << pg.status().ToString();
  // The message names the first bad edge: index 2, 2 -> 7.
  EXPECT_NE(pg.status().message().find("edge 2 (2 -> 7)"), std::string::npos)
      << pg.status().ToString();
}

TEST(PartitionErrors, RejectsNonPositiveQ) {
  ClusterConfig config;
  config.num_machines = 2;
  config.root_dir = ScratchPath("badq");
  std::filesystem::remove_all(config.root_dir);
  Cluster cluster(config);
  PartitionOptions options;
  options.q = 0;
  EXPECT_FALSE(PartitionGraph(&cluster, GenerateRmatX(8, 1), options).ok());
}

}  // namespace
}  // namespace tgpp
