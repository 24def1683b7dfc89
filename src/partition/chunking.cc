#include "partition/chunking.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "storage/page_file.h"
#include "storage/slotted_page.h"

namespace tgpp::partition_internal {

namespace {

// Chunk index of `v` within `range` split into `parts` ceil-sized pieces
// (must match PartitionedGraph::VertexChunkRange arithmetic).
int ChunkIndexOf(VertexId v, const VertexRange& range, int parts) {
  const uint64_t chunk = (range.size() + parts - 1) / parts;
  return chunk == 0 ? 0 : static_cast<int>((v - range.begin) / chunk);
}

// Stable counting sort of `edges` by `field`, whose values all lie in
// `range`. Being stable, two passes sort by two keys: by the minor key
// first, then by the major one.
void CountingSortBy(std::span<Edge> edges, VertexId Edge::*field,
                    const VertexRange& range, std::vector<uint64_t>* count,
                    std::vector<Edge>* scratch) {
  if (edges.size() < 2) return;
  count->assign(range.size() + 1, 0);
  for (const Edge& e : edges) ++(*count)[e.*field - range.begin + 1];
  std::partial_sum(count->begin(), count->end(), count->begin());
  scratch->resize(edges.size());
  for (const Edge& e : edges) {
    (*scratch)[(*count)[e.*field - range.begin]++] = e;
  }
  std::copy(scratch->begin(), scratch->end(), edges.begin());
}

// Writes one sub-chunk's edges (sorted by (src, dst)) as slotted pages.
// Appends page-index entries and returns the page count.
Status WriteSubChunk(PageFile* file, std::span<const Edge> edges,
                     std::vector<PageIndexEntry>* page_index,
                     uint64_t* num_pages_out) {
  uint64_t num_pages = 0;
  if (edges.empty()) {
    *num_pages_out = 0;
    return Status::OK();
  }
  std::vector<uint8_t> buffer(kPageSize);
  SlottedPageBuilder builder(buffer.data());
  VertexId page_src_min = kInvalidVertex;
  VertexId page_src_max = 0;
  std::vector<VertexId> dsts;

  auto flush_page = [&]() -> Status {
    if (builder.empty()) return Status::OK();
    TGPP_ASSIGN_OR_RETURN(uint64_t page_no, file->AppendPage(buffer.data()));
    page_index->push_back(PageIndexEntry{page_no, page_src_min,
                                         page_src_max});
    ++num_pages;
    builder.Reset();
    page_src_min = kInvalidVertex;
    page_src_max = 0;
    return Status::OK();
  };

  auto emit_record = [&](VertexId src,
                         std::span<const VertexId> list) -> Status {
    // Split records that exceed a fresh page's capacity.
    size_t pos = 0;
    while (pos < list.size()) {
      size_t take = std::min(list.size() - pos, builder.RemainingCapacity());
      if (take == 0 || !builder.AddRecord(src, list.subspan(pos, take))) {
        TGPP_RETURN_IF_ERROR(flush_page());
        take = std::min(list.size() - pos, builder.RemainingCapacity());
        TGPP_CHECK(take > 0) << "empty page cannot hold any record";
        TGPP_CHECK(builder.AddRecord(src, list.subspan(pos, take)));
      }
      page_src_min = std::min(page_src_min, src);
      page_src_max = std::max(page_src_max, src);
      pos += take;
    }
    return Status::OK();
  };

  size_t i = 0;
  while (i < edges.size()) {
    const VertexId src = edges[i].src;
    dsts.clear();
    while (i < edges.size() && edges[i].src == src) {
      dsts.push_back(edges[i].dst);
      ++i;
    }
    TGPP_RETURN_IF_ERROR(emit_record(src, dsts));
  }
  TGPP_RETURN_IF_ERROR(flush_page());
  *num_pages_out = num_pages;
  return Status::OK();
}

}  // namespace

Status WriteMachineChunks(Machine* machine, const PartitionedGraph& pg,
                          const EdgeList& graph, MachinePartition* out) {
  out->chunks.clear();
  out->page_index.clear();

  const int p = pg.p;
  const int q = pg.q;
  const int r = pg.r;
  const VertexRange my_range = out->range;

  // Group key of a renumbered edge: (src_chunk i, global dst chunk j).
  // The grid is small (q * p * q keys), so a counting sort by key costs
  // two scans of the input. Within a group, counting sorts over the
  // chunk's src and dst ranges replace comparison sorts.
  const size_t num_keys = static_cast<size_t>(q) * p * q;
  auto key_of = [&](VertexId src, VertexId dst) -> size_t {
    const int i = ChunkIndexOf(src, my_range, q);
    const int owner = pg.OwnerOf(dst);
    const int j = owner * q + ChunkIndexOf(dst, pg.MachineRange(owner), q);
    return static_cast<size_t>(i) * (p * q) + j;
  };

  // Scan 1: count the edges this machine owns (by renumbered source) per
  // key; offset[key] .. offset[key + 1] becomes the key's slot range.
  std::vector<uint64_t> offset(num_keys + 1, 0);
  for (const Edge& e : graph.edges) {
    const VertexId src = pg.old_to_new[e.src];
    if (!my_range.Contains(src)) continue;
    ++offset[key_of(src, pg.old_to_new[e.dst]) + 1];
  }
  std::partial_sum(offset.begin(), offset.end(), offset.begin());

  // Scan 2: place each renumbered edge in its key's next slot (input
  // order within a group).
  std::vector<Edge> edges(offset[num_keys]);
  std::vector<uint64_t> cursor(offset.begin(), offset.end() - 1);
  for (const Edge& e : graph.edges) {
    const VertexId src = pg.old_to_new[e.src];
    if (!my_range.Contains(src)) continue;
    const VertexId dst = pg.old_to_new[e.dst];
    edges[cursor[key_of(src, dst)]++] = Edge{src, dst};
  }
  out->num_edges = edges.size();

  // Fresh edge file (repartitioning overwrites the previous layout).
  TGPP_ASSIGN_OR_RETURN(
      PageFile file,
      PageFile::Open(machine->disk(), PartitionedGraph::kEdgeFileName));
  TGPP_RETURN_IF_ERROR(file.Clear());

  std::vector<uint64_t> count;
  std::vector<Edge> scratch;
  for (int i = 0; i < q; ++i) {
    const VertexRange src_chunk = pg.VertexChunkRange(machine->id(), i);
    for (int j = 0; j < p * q; ++j) {
      const size_t key = static_cast<size_t>(i) * (p * q) + j;
      const std::span<Edge> group(edges.data() + offset[key],
                                  offset[key + 1] - offset[key]);
      const VertexRange dst_chunk = pg.DstChunkRange(j);
      // Sort by (dst, src): dst order for the sub-chunk cuts, src as the
      // tie-break so the layout does not depend on input order.
      CountingSortBy(group, &Edge::src, src_chunk, &count, &scratch);
      CountingSortBy(group, &Edge::dst, dst_chunk, &count, &scratch);

      // Split the (dst-sorted) group into r sub-chunks of near-equal edge
      // counts, cutting only at dst boundaries (paper Fig 7 (d): balanced
      // via degree information; equal-edge cuts achieve the same balance).
      size_t sub_begin = 0;
      for (int sub = 0; sub < r; ++sub) {
        size_t sub_end;
        if (sub == r - 1 || group.empty()) {
          sub_end = group.size();
        } else {
          sub_end = std::min(group.size(), (group.size() * (sub + 1)) / r);
          // Advance to the next dst boundary so sub-chunks own disjoint
          // dst ranges (required for CAS-free NUMA-local gather).
          while (sub_end > sub_begin && sub_end < group.size() &&
                 group[sub_end].dst == group[sub_end - 1].dst) {
            ++sub_end;
          }
        }
        if (sub_end < sub_begin) sub_end = sub_begin;

        EdgeChunkInfo info;
        info.src_chunk = i;
        info.dst_chunk = j;
        info.sub_chunk = sub;
        info.src_range = src_chunk;
        info.dst_range =
            VertexRange{sub_begin < sub_end ? group[sub_begin].dst
                                            : dst_chunk.begin,
                        sub_begin < sub_end ? group[sub_end - 1].dst + 1
                                            : dst_chunk.begin};
        info.num_edges = sub_end - sub_begin;
        info.first_page = file.num_pages();

        // Re-sort the sub-chunk by src; it is dst-sorted, so it ends up
        // in (src, dst) order and its records group by source. Later cuts
        // only read positions at or past sub_end.
        const std::span<Edge> sub_edges =
            group.subspan(sub_begin, sub_end - sub_begin);
        CountingSortBy(sub_edges, &Edge::src, src_chunk, &count, &scratch);
        TGPP_RETURN_IF_ERROR(WriteSubChunk(&file, sub_edges,
                                           &out->page_index,
                                           &info.num_pages));
        out->chunks.push_back(info);
        sub_begin = sub_end;
      }
    }
  }
  return Status::OK();
}

}  // namespace tgpp::partition_internal
