// Chunk writer: persists one machine's edges as the q x (p*q) x r grid of
// edge chunks in slotted pages (paper Fig 7 (c)/(d) and Appendix A.3),
// building the two-level page index along the way.

#ifndef TGPP_PARTITION_CHUNKING_H_
#define TGPP_PARTITION_CHUNKING_H_

#include <vector>

#include "cluster/machine.h"
#include "partition/partitioner.h"

namespace tgpp::partition_internal {

// Gathers the edges of `graph` (OLD ids) whose renumbered source lies in
// out->range, sorts them into the chunk grid and writes them to the
// machine's edge page file. Fills out->num_edges, out->chunks and
// out->page_index. Needs pg.old_to_new and every machine's range set, and
// every endpoint of `graph` below pg.num_vertices (PartitionGraph checks).
// Reads `graph` and `pg` only, so all machines may run it at once.
//
// Cost is linear: two scans of `graph` (count per (i, j) key, then place
// into the key's slot), then stable counting sorts over the chunk ranges,
// which put each group in (dst, src) order and each sub-chunk in
// (src, dst) order. The machine holds one copy of its own edges. Both
// orders are total, so the layout is a pure function of the edge multiset
// and `pg`: input order never shows in the bytes.
Status WriteMachineChunks(Machine* machine, const PartitionedGraph& pg,
                          const EdgeList& graph, MachinePartition* out);

}  // namespace tgpp::partition_internal

#endif  // TGPP_PARTITION_CHUNKING_H_
