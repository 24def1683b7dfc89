// Ablation: the design choices behind 3-LPO and BBP, toggled one at a
// time on the same PageRank workload.
//
//  - in-memory local gather OFF: every generated update crosses the
//    network uncombined — network bytes blow up (the mechanism behind
//    TurboGraph++'s lowest-net-I/O result in Fig 14).
//  - async read-ahead OFF (depth 1): adjacency pages are fetched
//    synchronously — disk latency serializes with compute instead of
//    hiding behind it.
//  - NUMA sub-chunks r=1: the LGB loses its CAS-free disjoint
//    destination ranges (here: fewer parallel sub-chunk tasks).

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace tgpp;
  using namespace tgpp::bench;

  const int scale = static_cast<int>(FlagInt(argc, argv, "scale", 19));
  const EdgeList graph = GenerateRmatX(scale, 1500 + scale);

  struct Variant {
    std::string label;
    EngineOptions options;
    int numa_nodes;
  };
  EngineOptions no_local_gather;
  no_local_gather.in_memory_local_gather = false;
  EngineOptions no_read_ahead;
  no_read_ahead.read_ahead_pages = 1;
  const std::vector<Variant> variants = {
      {"full 3-LPO (default)", {}, 2},
      {"no local gather", no_local_gather, 2},
      {"no read-ahead", no_read_ahead, 2},
      {"r=1 (no NUMA sub-chunks)", {}, 1},
  };

  std::printf("3-LPO/BBP ablations: PR on RMAT%d, 4 machines\n\n", scale);
  std::printf("%-26s %10s %12s %12s %12s %12s\n", "variant", "exec(s)",
              "cpu(s)", "disk(MB)", "net(MB)", "updates-sent");

  for (const Variant& variant : variants) {
    BenchConfig bc;
    bc.machines = 4;
    bc.numa_nodes = variant.numa_nodes;
    bc.budget_bytes = 64ull << 20;
    bc.root_dir = "/tmp/tgpp_bench/ablation_" +
                  std::to_string(&variant - variants.data());

    TurboGraphSystem system(ToClusterConfig(bc, "run"));
    TGPP_CHECK_OK(system.LoadGraph(graph));
    system.cluster()->ResetCountersAndCaches();
    auto app = MakePageRankApp(system.partition(), 3);
    auto stats = system.RunQuery(app, variant.options);
    TGPP_CHECK(stats.ok()) << stats.status().ToString();
    const ClusterSnapshot snap = system.cluster()->Snapshot();
    uint64_t updates_sent = 0;
    for (int m = 0; m < system.cluster()->num_machines(); ++m) {
      updates_sent += system.cluster()->machine(m)->metrics()->updates_sent.value();
    }
    const double cpu = snap.max_machine_cpu_seconds;
    const double exec = std::max(
        {cpu, snap.max_machine_disk_seconds, snap.net_io_seconds});
    std::printf("%-26s %10.4f %12.4f %12.2f %12.2f %12llu\n",
                variant.label.c_str(), exec / 3, cpu, snap.disk_bytes / 1e6,
                snap.net_bytes / 1e6,
                static_cast<unsigned long long>(updates_sent));
  }
  return 0;
}
