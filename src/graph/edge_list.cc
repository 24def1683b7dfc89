#include "graph/edge_list.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

namespace tgpp {

void RemoveSelfLoops(EdgeList* graph) {
  auto& edges = graph->edges;
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const Edge& e) { return e.src == e.dst; }),
              edges.end());
}

void DeduplicateEdges(EdgeList* graph) {
  auto& edges = graph->edges;
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

void MakeUndirected(EdgeList* graph) {
  const size_t n = graph->edges.size();
  graph->edges.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) {
    const Edge e = graph->edges[i];
    graph->edges.push_back(Edge{e.dst, e.src});
  }
  DeduplicateEdges(graph);
}

Status SaveEdgeList(const EdgeList& graph, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const uint64_t header[2] = {graph.num_vertices, graph.num_edges()};
  bool ok = std::fwrite(header, sizeof(header), 1, f) == 1;
  if (ok && !graph.edges.empty()) {
    ok = std::fwrite(graph.edges.data(), sizeof(Edge), graph.edges.size(),
                     f) == graph.edges.size();
  }
  ok = (std::fclose(f) == 0) && ok;
  return ok ? Status::OK() : Status::IOError("short write to " + path);
}

Result<EdgeList> LoadEdgeList(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  uint64_t header[2];
  if (std::fread(header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return Status::Corruption("truncated edge list header in " + path);
  }
  // A corrupt edge count must not reach resize(): check it against the
  // bytes the file actually holds.
  std::error_code ec;
  const uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec || file_bytes < sizeof(header) ||
      (file_bytes - sizeof(header)) % sizeof(Edge) != 0 ||
      (file_bytes - sizeof(header)) / sizeof(Edge) != header[1]) {
    std::fclose(f);
    return Status::Corruption("edge list header in " + path + " claims " +
                              std::to_string(header[1]) +
                              " edges, but the file is " +
                              std::to_string(file_bytes) + " bytes");
  }
  EdgeList graph;
  graph.num_vertices = header[0];
  graph.edges.resize(header[1]);
  if (header[1] > 0 &&
      std::fread(graph.edges.data(), sizeof(Edge), header[1], f) !=
          header[1]) {
    std::fclose(f);
    return Status::Corruption("truncated edge data in " + path);
  }
  std::fclose(f);
  return graph;
}

}  // namespace tgpp
