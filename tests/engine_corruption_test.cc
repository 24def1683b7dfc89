// Edge pages are on-disk bytes the engine must not trust. A record whose
// destination or source lies outside its edge chunk's ranges has to fail
// the query with Status::Corruption, never index a gather buffer out of
// bounds; a pull_scatter that breaks its "update only yourself" contract
// fails with Status::Internal. Run under ASan (label asan), where an
// out-of-bounds write would abort the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algos/bfs.h"
#include "algos/pagerank.h"
#include "core/system.h"
#include "graph/rmat.h"
#include "storage/page_file.h"
#include "storage/slotted_page.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

ClusterConfig SmallCluster(const std::string& name) {
  ClusterConfig config;
  config.num_machines = 2;
  config.memory_budget_bytes = 32ull << 20;
  config.root_dir = ScratchPath(name);
  std::filesystem::remove_all(config.root_dir);
  return config;
}

enum class Field { kDst, kSrc };

// Overwrites the first record of machine 0's first non-empty edge chunk:
// its first destination, or its source, becomes `value`. Then drops the
// machine's buffer pool so the next scan reads the corrupt page from disk.
// Stores the record's original source (new id) in `*record_src` if given.
void CorruptFirstRecord(TurboGraphSystem* system, Field field,
                        VertexId value, VertexId* record_src = nullptr) {
  Machine* machine = system->cluster()->machine(0);
  const MachinePartition& part = system->partition()->machines[0];
  auto chunk = std::find_if(
      part.chunks.begin(), part.chunks.end(),
      [](const EdgeChunkInfo& c) { return c.num_pages > 0; });
  ASSERT_NE(chunk, part.chunks.end());

  auto file = PageFile::Open(machine->disk(), PartitionedGraph::kEdgeFileName);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<uint8_t> page(kPageSize);
  ASSERT_TRUE(file->ReadPage(chunk->first_page, page.data()).ok());
  // Slot 0 occupies the last sizeof(PageSlot) bytes of the page.
  PageSlot slot;
  uint8_t* slot_bytes = page.data() + kPageSize - sizeof(PageSlot);
  std::memcpy(&slot, slot_bytes, sizeof(slot));
  ASSERT_GT(slot.count, 0u);
  if (record_src != nullptr) *record_src = slot.src;
  if (field == Field::kDst) {
    std::memcpy(page.data() + slot.offset, &value, sizeof(value));
  } else {
    slot.src = value;
    std::memcpy(slot_bytes, &slot, sizeof(slot));
  }
  ASSERT_TRUE(file->WritePage(chunk->first_page, page.data()).ok());
  machine->buffer_pool()->DropAll();
}

class EngineCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<TurboGraphSystem>(SmallCluster("corrupt"));
    // q = 2 up front: a repartition would rewrite the corrupted pages.
    ASSERT_TRUE(system_->LoadGraph(GenerateRmatX(10, 5),
                                   PartitionScheme::kBbp, /*q=*/2)
                    .ok());
    auto app = MakePageRankApp(system_->partition(), /*iterations=*/2);
    auto clean = system_->RunQuery(app);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_EQ(clean->q_used, 2);
  }

  Status RunPageRank(EngineOptions options = {}) {
    auto app = MakePageRankApp(system_->partition(), /*iterations=*/2);
    return system_->RunQuery(app, options).status();
  }

  std::unique_ptr<TurboGraphSystem> system_;
};

TEST_F(EngineCorruption, DestinationOutsideChunkIsCorruption) {
  CorruptFirstRecord(system_.get(), Field::kDst,
                     system_->partition()->num_vertices + 1000);
  const Status status = RunPageRank();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("outside destination range"),
            std::string::npos)
      << status.ToString();
}

TEST_F(EngineCorruption, DestinationOutsideChunkWithRawUpdatesIsCorruption) {
  CorruptFirstRecord(system_.get(), Field::kDst,
                     system_->partition()->num_vertices + 1000);
  EngineOptions options;
  options.in_memory_local_gather = false;
  const Status status = RunPageRank(options);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(EngineCorruption, SourceOutsideChunkIsCorruption) {
  CorruptFirstRecord(system_.get(), Field::kSrc,
                     system_->partition()->num_vertices + 1000);
  const Status status = RunPageRank();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("outside chunk range"), std::string::npos)
      << status.ToString();
}

// A sparse window reads the source's adjacency through the adjacency
// service and ships each update to the owner of its destination; a
// destination past |V| reaches the last machine's gather, which must
// reject it before it indexes a spill buffer.
TEST_F(EngineCorruption, SparseWindowDestinationOutsideGraphIsCorruption) {
  VertexId source = kInvalidVertex;
  const VertexId bad_dst = system_->partition()->num_vertices + 1000;
  CorruptFirstRecord(system_.get(), Field::kDst, bad_dst, &source);
  auto app = MakeBfsApp(system_->partition(),
                        system_->partition()->new_to_old[source]);
  EngineOptions options;
  options.frontier.sparse_windows = true;
  const Status status = system_->RunQuery(app, options).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("vertex " + std::to_string(bad_dst)),
            std::string::npos)
      << status.ToString();
}

// The gather copies each run of records for a spilled chunk into its
// spill buffer whole; a bad vertex id right after such a run must still
// fail the query, naming that id.
TEST_F(EngineCorruption, BadVertexAfterSpilledRunIsCorruption) {
  const PartitionedGraph& pg = *system_->partition();
  const int last = pg.p - 1;
  // The engine keeps the chunk with the most incoming edges in memory;
  // at q = 2 the other one spills.
  uint64_t in_edges[2] = {0, 0};
  for (const MachinePartition& part : pg.machines) {
    for (const EdgeChunkInfo& chunk : part.chunks) {
      if (chunk.dst_chunk / pg.q == last) {
        in_edges[chunk.dst_chunk % pg.q] += chunk.num_edges;
      }
    }
  }
  const int spilled_chunk = in_edges[1] > in_edges[0] ? 0 : 1;
  const VertexRange spilled = pg.VertexChunkRange(last, spilled_chunk);
  ASSERT_GE(spilled.size(), 4u);
  // One active source with an out-edge: its window takes the sparse path,
  // which ships updates to their owners without a range check.
  const VertexRange first = pg.MachineRange(0);
  VertexId source = first.begin;
  while (source < first.end && pg.out_degree[source] == 0) ++source;
  ASSERT_LT(source, first.end);
  const VertexId bad = pg.num_vertices + 1000;  // owned by the last machine

  KWalkApp<uint64_t, uint64_t> app;
  app.max_supersteps = 1;
  app.init = [source](VertexId v, uint64_t&) { return v == source; };
  app.adj_scatter[1] = [spilled, bad](ScatterContext<uint64_t, uint64_t>& ctx,
                                      VertexId, const uint64_t&,
                                      std::span<const VertexId>) {
    for (VertexId v = spilled.begin; v < spilled.begin + 4; ++v) {
      ctx.Update(v, 1);
    }
    ctx.Update(bad, 1);
  };
  app.vertex_gather = [](uint64_t& acc, const uint64_t& in) { acc += in; };
  app.vertex_apply = [](VertexId, uint64_t&, const uint64_t*) {
    return false;
  };
  EngineOptions options;
  options.frontier.sparse_windows = true;
  const Status status = system_->RunQuery(app, options).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("vertex " + std::to_string(bad)),
            std::string::npos)
      << status.ToString();
}

// A pull_scatter that updates a vertex other than its own source breaks
// the pull contract (core/app.h); the engine reports it instead of
// aborting the process.
TEST(EnginePullContract, UpdateOutsideWindowIsInternal) {
  EdgeList graph = GenerateRmatX(10, 6);
  MakeUndirected(&graph);
  TurboGraphSystem system(SmallCluster("pull"));
  ASSERT_TRUE(system.LoadGraph(graph).ok());
  const VertexId n = system.partition()->num_vertices;

  KWalkApp<uint64_t, uint64_t> app;
  app.max_supersteps = 1;
  app.init = [](VertexId, uint64_t& attr) { return true; };
  app.adj_scatter[1] = [](ScatterContext<uint64_t, uint64_t>&, VertexId,
                          const uint64_t&, std::span<const VertexId>) {};
  app.pull_scatter = [n](ScatterContext<uint64_t, uint64_t>& ctx, VertexId u,
                         const uint64_t&, std::span<const VertexId>,
                         const std::function<bool(VertexId)>&) {
    ctx.Update(u + n, 1);
  };
  app.vertex_gather = [](uint64_t& acc, const uint64_t& in) { acc += in; };
  app.vertex_apply = [](VertexId, uint64_t&, const uint64_t*) {
    return false;
  };
  EngineOptions options;
  options.frontier.direction = DirectionMode::kPull;
  const Status status = system.RunQuery(app, options).status();
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  EXPECT_NE(status.message().find("pull_scatter"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace tgpp
