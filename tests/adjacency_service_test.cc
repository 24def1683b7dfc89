// AdjacencyService: full-list materialization from chunk pages, local and
// remote, validated against an in-memory CSR ground truth.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/adjacency_service.h"
#include "graph/csr.h"
#include "graph/rmat.h"
#include "util/rng.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

class AdjacencyServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_machines = 3;
    config.root_dir = ScratchPath("adj");
    std::filesystem::remove_all(config.root_dir);
    cluster_ = std::make_unique<Cluster>(config);

    graph_ = GenerateRmatX(12, 55);
    DeduplicateEdges(&graph_);
    MakeUndirected(&graph_);

    PartitionOptions options;
    options.q = 2;
    auto pg = PartitionGraph(cluster_.get(), graph_, options);
    ASSERT_TRUE(pg.ok());
    pg_ = std::move(pg).value();

    // Ground truth in the NEW id space, sorted.
    EdgeList renumbered;
    renumbered.num_vertices = graph_.num_vertices;
    for (const Edge& e : graph_.edges) {
      renumbered.edges.push_back(
          Edge{pg_.old_to_new[e.src], pg_.old_to_new[e.dst]});
    }
    truth_ = Csr::Build(renumbered, /*sort_neighbors=*/true);
  }

  std::unique_ptr<Cluster> cluster_;
  EdgeList graph_;
  PartitionedGraph pg_;
  Csr truth_;
};

TEST_F(AdjacencyServiceTest, MaterializesSortedFullLists) {
  for (int m = 0; m < pg_.p; ++m) {
    AdjacencyService service(cluster_.get(), &pg_, m);
    const VertexRange range = pg_.MachineRange(m);
    // All vertices of the machine in one batch.
    std::vector<VertexId> vids;
    for (VertexId v = range.begin; v < range.end; ++v) vids.push_back(v);
    AdjBatch batch;
    ASSERT_TRUE(service.MaterializeLocal(vids, &batch).ok());
    ASSERT_EQ(batch.size(), vids.size());
    for (size_t i = 0; i < vids.size(); ++i) {
      const auto got = batch.Neighbors(i);
      const auto expected = truth_.Neighbors(vids[i]);
      ASSERT_EQ(got.size(), expected.size()) << "vertex " << vids[i];
      EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()))
          << "vertex " << vids[i];
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    }
  }
}

TEST_F(AdjacencyServiceTest, MaterializesSparseSubsets) {
  AdjacencyService service(cluster_.get(), &pg_, 0);
  const VertexRange range = pg_.MachineRange(0);
  Xoshiro256 rng(3);
  std::set<VertexId> pick;
  for (int i = 0; i < 20; ++i) {
    pick.insert(range.begin + rng.NextBounded(range.size()));
  }
  const std::vector<VertexId> vids(pick.begin(), pick.end());
  AdjBatch batch;
  ASSERT_TRUE(service.MaterializeLocal(vids, &batch).ok());
  for (size_t i = 0; i < vids.size(); ++i) {
    const auto expected = truth_.Neighbors(vids[i]);
    EXPECT_TRUE(std::equal(batch.Neighbors(i).begin(),
                           batch.Neighbors(i).end(), expected.begin(),
                           expected.end()));
  }
}

TEST_F(AdjacencyServiceTest, NeighborsOfLookup) {
  AdjacencyService service(cluster_.get(), &pg_, 0);
  const VertexRange range = pg_.MachineRange(0);
  std::vector<VertexId> vids = {range.begin, range.begin + 2};
  AdjBatch batch;
  ASSERT_TRUE(service.MaterializeLocal(vids, &batch).ok());
  EXPECT_EQ(batch.NeighborsOf(range.begin).size(),
            truth_.Neighbors(range.begin).size());
  EXPECT_TRUE(batch.NeighborsOf(range.begin + 1).empty());  // not in batch
}

TEST_F(AdjacencyServiceTest, RemoteFetchMatchesLocal) {
  // Machine 1 fetches lists owned by machine 2 through the fabric while
  // machine 2's service thread answers.
  AdjacencyService server(cluster_.get(), &pg_, 2);
  server.Start();

  AdjacencyService client(cluster_.get(), &pg_, 1);
  const VertexRange range = pg_.MachineRange(2);
  std::vector<VertexId> vids;
  for (VertexId v = range.begin; v < range.end; v += 3) vids.push_back(v);

  AdjBatch batch;
  ASSERT_TRUE(client.Fetch(2, vids, &batch).ok());
  server.Stop();

  ASSERT_EQ(batch.size(), vids.size());
  for (size_t i = 0; i < vids.size(); ++i) {
    const auto expected = truth_.Neighbors(vids[i]);
    EXPECT_TRUE(std::equal(batch.Neighbors(i).begin(),
                           batch.Neighbors(i).end(), expected.begin(),
                           expected.end()))
        << "vertex " << vids[i];
  }
  // Remote reads cost network bytes (request + response) and remote disk.
  EXPECT_GT(cluster_->fabric()->bytes_sent(), 0u);
}

TEST_F(AdjacencyServiceTest, EmptyRequest) {
  AdjacencyService service(cluster_.get(), &pg_, 0);
  AdjBatch batch;
  ASSERT_TRUE(service.MaterializeLocal({}, &batch).ok());
  EXPECT_EQ(batch.size(), 0u);
}

}  // namespace
}  // namespace tgpp
