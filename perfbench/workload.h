// Shared pieces of the two workloads: the run configuration, the result
// being built, the metric catalog, and the per-layer reporting that the
// batch and service workloads have in common.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "graph/edge_list.h"
#include "measure.h"
#include "util/timer.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// One metric of the catalog: its name, unit, and whether it is an
// end-to-end metric (printed with --trace 0) or a per-layer one (--trace 1).
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};
const std::vector<MetricDef>& Catalog();

// The result line under construction. Every metric of the run's kind
// starts at 0, so a layer a workload does not exercise reads as 0.
class Report {
 public:
  explicit Report(bool trace);

  // Sets a catalog metric; an unknown name or one of the other kind is a
  // benchmark bug and aborts.
  void Set(const std::string& name, double value);
  // Records one attempted operation and whether its output was right.
  void Attempt(bool ok, const std::string& what);
  // A failed check outside the operation count (setup, final state).
  void Fail(const std::string& what);

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool trace() const { return trace_; }
  // The one-line JSON result.
  std::string ToJson() const;

 private:
  bool trace_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

// One measured window of back-to-back operations, untraced.
struct Window {
  double wall_s = 0;
  uint64_t ops = 0;
  Snapshot before, after;
  std::vector<double> superstep_s;  // observer rows seen in the window
};

// core/storage/net/cluster metrics from a window's registry delta,
// normalized per operation.
void ReportEngineLayers(const Window& window, Report* report);

// Self time per span name: setup spans (bench.cluster, bench.load_graph,
// bench.first_query) per setup from `setup`, every other span per
// operation from `ops`, plus the tracer's dropped-event count.
struct SpanTotals {
  std::map<std::string, int64_t> self_ns;
  uint64_t dropped = 0;
  // Moves the tracer's current events into the totals and clears it. Call
  // only while nothing records (between operations).
  void Drain();
};
void ReportSpans(const SpanTotals& setup, double setups,
                 const SpanTotals& ops, double num_ops, Report* report);

// partition.* metrics of one setup.
struct SetupStats {
  std::vector<double> bbp_s;  // one entry per LoadGraph/Repartition
  int q = 0;
  double edge_balance = 0;
  uint64_t edges = 0;
  uint64_t write_bytes = 0;
};
void ReportPartition(const SetupStats& setup, Report* report);

// RMAT_X as `tgpp generate --scale=X [--undirected]` builds it.
tgpp::EdgeList MakeRmat(int scale, bool undirected, uint64_t seed);

// The cluster every workload runs on: 4 machines and the ClusterConfig
// defaults `tgpp run` uses, except the per-machine budget and one compute
// thread per machine; machine directories under `root` (relative to the
// scratch directory).
tgpp::ClusterConfig MakeClusterConfig(uint64_t budget_mb,
                                      const std::string& root);

// Peak resident set of this process so far, in MB.
double PeakRssMb();

// Logs the time since `timer` last restarted under `phase` (stderr), then
// restarts it.
void LogPhase(const char* phase, tgpp::WallTimer* timer);
// Logs every sample of a timed metric (stderr).
void LogSamples(const char* metric, const std::vector<double>& samples);

// The workloads. Each fills `report`; a failed check marks it incorrect.
bool IsBatchWorkload(const std::string& workload);
void RunBatch(const RunConfig& config, Report* report);
void RunService(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
