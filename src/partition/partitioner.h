// Graph partitioning for the simulated cluster (paper §3).
//
// A PartitionedGraph records the renumbering (old -> new vertex IDs), the
// contiguous new-ID range owned by each machine, and — per machine — the
// q x (p*q) x r edge-chunk grid persisted as slotted pages on that
// machine's disk, together with the two-level page index (paper A.3).
//
// Schemes:
//   kBbp        — balanced buffer-aware partitioning: degree-sorted
//                 round-robin placement, degree-ascending renumbering
//                 within each machine (the paper's contribution; the
//                 paper renumbers descending, see partitioner.cc).
//   kRandom     — uniform random vertex placement (Fig 8(b) baseline).
//   kHashPregel — hash placement as in Pregel+ (Fig 8(b) baseline).
//   kHashGraphx — hash placement with GraphX's mixing (Fig 8(b) baseline).
//
// All schemes share the downstream chunking/writing machinery, so the only
// differences measured are placement balance and ID ordering — the paper's
// comparison.

#ifndef TGPP_PARTITION_PARTITIONER_H_
#define TGPP_PARTITION_PARTITIONER_H_

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "graph/edge_list.h"

namespace tgpp {

enum class PartitionScheme {
  kBbp,
  kRandom,
  kHashPregel,
  kHashGraphx,
};

const char* PartitionSchemeName(PartitionScheme scheme);

// One entry of the second index level: a page and the (inclusive) range of
// source IDs of the records it holds.
struct PageIndexEntry {
  uint64_t page_no;
  VertexId src_min;
  VertexId src_max;
};

// One edge chunk (paper Fig 7 (c)/(d)): edges with src in `src_range` and
// dst in `dst_range`, stored as pages [first_page, first_page + num_pages)
// of the machine's edge page file.
struct EdgeChunkInfo {
  int src_chunk;   // i in [0, q)
  int dst_chunk;   // j in [0, p*q)
  int sub_chunk;   // NUMA sub-chunk in [0, r)
  VertexRange src_range;
  VertexRange dst_range;  // refined by the sub-chunk split
  uint64_t num_edges = 0;
  uint64_t first_page = 0;
  uint64_t num_pages = 0;
  // Overflow delta pages appended by the dynamic-graph mutator when an
  // insert no longer fits in the chunk's base pages (docs/DYNAMIC.md).
  // Scans visit base pages first, then delta pages in this order.
  std::vector<uint64_t> delta_pages;

  // All pages of this chunk, base then delta, in scan order.
  std::vector<uint64_t> PageNumbers() const {
    std::vector<uint64_t> pages;
    pages.reserve(num_pages + delta_pages.size());
    for (uint64_t p = first_page; p < first_page + num_pages; ++p) {
      pages.push_back(p);
    }
    pages.insert(pages.end(), delta_pages.begin(), delta_pages.end());
    return pages;
  }
};

struct MachinePartition {
  VertexRange range;  // owned new-ID range (consecutive, per §3 objective 3)
  uint64_t num_edges = 0;
  // Ordered by (src_chunk, dst_chunk, sub_chunk); pages of consecutive
  // chunks are consecutive in the file, so chunk iteration is sequential.
  std::vector<EdgeChunkInfo> chunks;
  std::vector<PageIndexEntry> page_index;  // ascending page_no
};

struct PartitionedGraph {
  static constexpr const char* kEdgeFileName = "edges.pf";

  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  int p = 1;
  int q = 1;
  int r = 1;
  PartitionScheme scheme = PartitionScheme::kBbp;

  std::vector<VertexId> old_to_new;
  std::vector<VertexId> new_to_old;
  std::vector<uint64_t> out_degree;  // indexed by NEW id

  std::vector<MachinePartition> machines;

  // Bumped by dyn::DynamicGraph once per applied update batch. A mutated
  // graph (epoch > 0) loses the within-chunk dst ordering guarantee, so
  // full-list materialization sorts each merged adjacency list.
  uint64_t mutation_epoch = 0;
  bool mutated() const { return mutation_epoch > 0; }

  // Owner machine of a new-ID vertex.
  int OwnerOf(VertexId new_id) const;

  const VertexRange& MachineRange(int m) const {
    return machines[m].range;
  }

  // Vertex chunk c (0-based, c < q) of machine m: the machine range split
  // into q near-equal consecutive pieces.
  VertexRange VertexChunkRange(int m, int c) const;

  // Global destination chunk j in [0, p*q): chunk (j % q) of machine
  // (j / q).
  VertexRange DstChunkRange(int j) const {
    return VertexChunkRange(j / q, j % q);
  }

  // Edges per machine max/mean ratio — the balance measure of §5.2.2.
  double EdgeBalanceRatio() const;
};

struct PartitionOptions {
  PartitionScheme scheme = PartitionScheme::kBbp;
  int q = 1;
  uint64_t seed = 7;  // for kRandom
};

// Partitions `graph` across the machines of `cluster`, writing each
// machine's edge chunks to its disk. The cluster's numa_nodes_per_machine
// provides r. Overwrites any previous partition on disk.
//
// Steps: (1) out-degrees and placement, (2) renumbering into consecutive
// per-machine ranges, both serial; (3) per machine, in parallel: gather
// the machine's renumbered edges straight into its chunk grid and write
// it (partition_internal::WriteMachineChunks). Returns InvalidArgument,
// naming the first bad edge, if an endpoint is >= graph.num_vertices.
Result<PartitionedGraph> PartitionGraph(Cluster* cluster,
                                        const EdgeList& graph,
                                        const PartitionOptions& options);

namespace partition_internal {

// Scheme-specific step 1: returns machine assignment per OLD vertex id.
std::vector<int> AssignVertices(const EdgeList& graph,
                                const std::vector<uint64_t>& degrees, int p,
                                PartitionScheme scheme, uint64_t seed);

// Scheme-specific step 2: builds old<->new maps. For BBP, new IDs within a
// machine descend by degree; other schemes keep old-ID order.
void Renumber(const std::vector<int>& assignment,
              const std::vector<uint64_t>& degrees, int p,
              PartitionScheme scheme, std::vector<VertexId>* old_to_new,
              std::vector<VertexId>* new_to_old,
              std::vector<VertexRange>* machine_ranges);

}  // namespace partition_internal

}  // namespace tgpp

#endif  // TGPP_PARTITION_PARTITIONER_H_
