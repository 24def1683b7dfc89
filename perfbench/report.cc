// Metric catalog, the result line, and the per-layer reporting shared by
// the workloads (README.md has the catalog with each metric's meaning).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/logging.h"
#include "graph/rmat.h"
#include "storage/slotted_page.h"
#include "workload.h"

namespace perfbench {

namespace {

// Spans timed once per setup; every other span is reported per operation.
bool IsSetupSpan(const std::string& span) {
  return span == "bench.cluster" || span == "bench.load_graph" ||
         span == "bench.first_query";
}

}  // namespace

const std::vector<MetricDef>& Catalog() {
  static const std::vector<MetricDef> catalog = {
      // End to end (--trace 0).
      {"setup_s", "s", true},
      {"query_s", "s", true},
      {"jobs_per_s", "1/s", true},
      {"job_latency_s", "s", true},
      // Per layer (--trace 1). The first five are end-to-end in nature but
      // carry no bound: defined on one workload only, 0 by design, or (the
      // peak resident set) not repeatable within a tenth across seeds.
      {"peak_rss_mb", "MB", false},
      {"job_latency_p95_s", "s", false},
      {"update_latency_p50_s", "s", false},
      {"error_rate", "ratio", false},
      {"ops_measured", "count", false},
      // partition
      {"partition.bbp_s", "s", false},
      {"partition.bbp_runs", "count", false},
      {"partition.q", "count", false},
      {"partition.edge_balance", "ratio", false},
      {"partition.edges", "count", false},
      {"partition.write_bytes", "B", false},
      // core
      {"core.supersteps", "count/op", false},
      {"core.superstep_ms.p50", "ms", false},
      {"core.superstep_ms.p90", "ms", false},
      {"core.scatter_cpu_s", "s/op", false},
      {"core.gather_cpu_s", "s/op", false},
      {"core.apply_cpu_s", "s/op", false},
      {"core.updates_generated", "count/op", false},
      {"core.updates_sent", "count/op", false},
      {"core.updates_spilled", "count/op", false},
      {"core.lgb_combine_ratio", "ratio", false},
      {"core.spill_share", "ratio", false},
      {"core.sparse_window_share", "ratio", false},
      {"core.windows", "count/op", false},
      // storage
      {"storage.pool_hit_rate", "ratio", false},
      {"storage.pool_accesses", "count/op", false},
      {"storage.pool_misses", "count/op", false},
      {"storage.pool_evictions", "count/op", false},
      {"storage.prefetch_hits", "count/op", false},
      {"storage.disk_read_bytes", "B/op", false},
      {"storage.disk_write_bytes", "B/op", false},
      {"storage.disk_pages_read", "count/op", false},
      {"storage.merged_read_share", "ratio", false},
      {"storage.disk_read_latency_us.p50", "us", false},
      {"storage.disk_read_latency_us.p99", "us", false},
      {"storage.io_queue_wait_us.p50", "us", false},
      {"storage.io_queue_wait_us.p99", "us", false},
      {"storage.disk_retries", "count/op", false},
      // net
      {"net.bytes_sent", "B/op", false},
      {"net.messages_sent", "count/op", false},
      {"net.bytes_per_message", "B", false},
      {"net.delivery_latency_us.p50", "us", false},
      {"net.delivery_latency_us.p99", "us", false},
      {"net.drops", "count/op", false},
      // cluster
      {"cluster.task_queue_wait_us.p50", "us", false},
      {"cluster.task_queue_wait_us.p99", "us", false},
      {"cluster.task_run_us.p50", "us", false},
      {"cluster.cpu_util", "ratio", false},
      {"cluster.phase_cpu_s", "s/op", false},
      {"cluster.nproc", "count", false},
      // service
      {"service.submit_ms.p50", "ms", false},
      {"service.queue_wait_ms.p50", "ms", false},
      {"service.queue_wait_ms.p95", "ms", false},
      {"service.run_ms.p50", "ms", false},
      {"service.run_ms.p95", "ms", false},
      {"service.wire_overhead_ms.p50", "ms", false},
      {"service.jobs_failed", "count", false},
      {"service.job_retries", "count", false},
      // dyn
      {"dyn.apply_ms.p50", "ms", false},
      {"dyn.apply_ms.p95", "ms", false},
      {"dyn.wal_bytes", "B/update", false},
      {"dyn.edges_inserted", "count/update", false},
      {"dyn.edges_deleted", "count/update", false},
      {"dyn.delta_pages", "count/update", false},
      {"dyn.mutations_applied", "count/update", false},
      {"dyn.write_amp", "ratio", false},
      // obs
      {"obs.tracing_overhead", "ratio", false},
      {"obs.untraced_op_s", "s", false},
      {"obs.traced_op_s", "s", false},
      {"obs.trace_dropped_events", "count", false},
      // Self time of the benchmark's own spans and the program's spans.
      {"span.bench.cluster.self_ms", "ms/setup", false},
      {"span.bench.load_graph.self_ms", "ms/setup", false},
      {"span.bench.first_query.self_ms", "ms/setup", false},
      {"span.bench.run_query.self_ms", "ms/op", false},
      {"span.bench.superstep.self_ms", "ms/op", false},
      {"span.bench.submit.self_ms", "ms/op", false},
      {"span.bench.wait.self_ms", "ms/op", false},
      {"span.bench.update_job.self_ms", "ms/op", false},
      {"span.superstep.self_ms", "ms/op", false},
      {"span.scatter.self_ms", "ms/op", false},
      {"span.scatter.window.self_ms", "ms/op", false},
      {"span.gather.self_ms", "ms/op", false},
      {"span.gather.spilled.self_ms", "ms/op", false},
      {"span.apply.self_ms", "ms/op", false},
      {"span.barrier.wait.self_ms", "ms/op", false},
      {"span.allreduce.self_ms", "ms/op", false},
      {"span.fabric.recv_wait.self_ms", "ms/op", false},
      {"span.io.read_page.self_ms", "ms/op", false},
      {"span.io.finish_page.self_ms", "ms/op", false},
      {"span.service.run.self_ms", "ms/op", false},
      {"span.service.update.self_ms", "ms/op", false},
  };
  return catalog;
}

Report::Report(bool trace) : trace_(trace) {
  for (const MetricDef& def : Catalog()) {
    if (def.end_to_end != trace_) values_[def.name] = 0;
  }
}

void Report::Set(const std::string& name, double value) {
  for (const MetricDef& def : Catalog()) {
    if (name != def.name) continue;
    if (def.end_to_end != trace_) values_[name] = value;
    return;
  }
  TGPP_LOG(Fatal) << "perfbench: metric not in the catalog: " << name;
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) Fail(what);
}

void Report::Fail(const std::string& what) {
  ++failed_;
  correct_ = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : Catalog()) {
    auto it = values_.find(def.name);
    if (it == values_.end()) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(it->second) ? it->second : 0.0);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + std::string(def.name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + def.unit + "\"}";
  }
  out += "}}";
  return out;
}

void ReportEngineLayers(const Window& window, Report* report) {
  const Delta d(window.before, window.after);
  const double ops = static_cast<double>(std::max<uint64_t>(1, window.ops));
  auto per_op = [&](const char* counter) { return d.Count(counter) / ops; };
  auto secs_per_op = [&](const char* counter) {
    return d.Count(counter) / 1e9 / ops;
  };

  report->Set("core.supersteps", window.superstep_s.size() / ops);
  report->Set("core.superstep_ms.p50", Median(window.superstep_s) * 1e3);
  report->Set("core.superstep_ms.p90",
              Percentile(window.superstep_s, 90) * 1e3);
  report->Set("core.scatter_cpu_s", secs_per_op("engine.scatter_cpu_ns"));
  report->Set("core.gather_cpu_s", secs_per_op("engine.gather_cpu_ns"));
  report->Set("core.apply_cpu_s", secs_per_op("engine.apply_cpu_ns"));
  const double generated = per_op("engine.updates_generated");
  const double sent = per_op("engine.updates_sent");
  const double spilled = per_op("engine.updates_spilled");
  report->Set("core.updates_generated", generated);
  report->Set("core.updates_sent", sent);
  report->Set("core.updates_spilled", spilled);
  report->Set("core.lgb_combine_ratio",
              generated == 0 ? 0 : 1 - Ratio(sent, generated));
  report->Set("core.spill_share", Ratio(spilled, sent));
  const double sparse = per_op("engine.frontier_sparse_windows");
  const double windows = sparse + per_op("engine.frontier_dense_windows");
  report->Set("core.sparse_window_share", Ratio(sparse, windows));
  report->Set("core.windows", windows);

  const double hits = per_op("bufferpool.hits");
  const double misses = per_op("bufferpool.misses");
  report->Set("storage.pool_hit_rate", Ratio(hits, hits + misses));
  report->Set("storage.pool_accesses", hits + misses);
  report->Set("storage.pool_misses", misses);
  report->Set("storage.pool_evictions", per_op("bufferpool.evictions"));
  report->Set("storage.prefetch_hits", per_op("bufferpool.prefetch_hits"));
  const double read_bytes = per_op("disk.read_bytes");
  const double pages_read = read_bytes / static_cast<double>(tgpp::kPageSize);
  report->Set("storage.disk_read_bytes", read_bytes);
  report->Set("storage.disk_write_bytes", per_op("disk.write_bytes"));
  report->Set("storage.disk_pages_read", pages_read);
  report->Set("storage.merged_read_share",
              Ratio(per_op("disk.merged_reads"), pages_read));
  report->Set("storage.disk_read_latency_us.p50",
              d.Quantile("disk.read_latency_ns", 0.50, 1e3));
  report->Set("storage.disk_read_latency_us.p99",
              d.Quantile("disk.read_latency_ns", 0.99, 1e3));
  report->Set("storage.io_queue_wait_us.p50",
              d.Quantile("iopool.queue_wait_ns", 0.50, 1e3));
  report->Set("storage.io_queue_wait_us.p99",
              d.Quantile("iopool.queue_wait_ns", 0.99, 1e3));
  report->Set("storage.disk_retries", per_op("disk.retries"));

  const double bytes = per_op("fabric.bytes_sent");
  const double messages = per_op("fabric.messages_sent");
  report->Set("net.bytes_sent", bytes);
  report->Set("net.messages_sent", messages);
  report->Set("net.bytes_per_message", Ratio(bytes, messages));
  report->Set("net.delivery_latency_us.p50",
              d.Quantile("fabric.delivery_latency_ns", 0.50, 1e3));
  report->Set("net.delivery_latency_us.p99",
              d.Quantile("fabric.delivery_latency_ns", 0.99, 1e3));
  report->Set("net.drops", per_op("fabric.drops"));

  report->Set("cluster.task_queue_wait_us.p50",
              d.Quantile("threadpool.queue_wait_ns", 0.50, 1e3));
  report->Set("cluster.task_queue_wait_us.p99",
              d.Quantile("threadpool.queue_wait_ns", 0.99, 1e3));
  report->Set("cluster.task_run_us.p50",
              d.Quantile("threadpool.task_latency_ns", 0.50, 1e3));
  const double phase_cpu_s =
      (d.Count("engine.scatter_cpu_ns") + d.Count("engine.gather_cpu_ns") +
       d.Count("engine.apply_cpu_ns")) /
      1e9;
  const double nproc = std::max(1u, std::thread::hardware_concurrency());
  report->Set("cluster.phase_cpu_s", phase_cpu_s / ops);
  report->Set("cluster.nproc", nproc);
  report->Set("cluster.cpu_util",
              Ratio(phase_cpu_s, window.wall_s * nproc));
}

void SpanTotals::Drain() {
  for (const auto& [name, ns] :
       SelfTimeNanos(SpansOf(tgpp::trace::Snapshot()))) {
    self_ns[name] += ns;
  }
  dropped += tgpp::trace::Stats().dropped;
  tgpp::trace::Reset();
}

void ReportSpans(const SpanTotals& setup, double setups,
                 const SpanTotals& ops, double num_ops, Report* report) {
  for (const MetricDef& def : Catalog()) {
    const std::string metric = def.name;
    const std::string prefix = "span.", suffix = ".self_ms";
    if (metric.rfind(prefix, 0) != 0) continue;
    const std::string span = metric.substr(
        prefix.size(), metric.size() - prefix.size() - suffix.size());
    const bool per_setup = IsSetupSpan(span);
    const SpanTotals& totals = per_setup ? setup : ops;
    auto it = totals.self_ns.find(span);
    if (it == totals.self_ns.end()) continue;
    report->Set(metric, it->second / 1e6 /
                            std::max(1.0, per_setup ? setups : num_ops));
  }
  report->Set("obs.trace_dropped_events",
              static_cast<double>(setup.dropped + ops.dropped));
}

void ReportPartition(const SetupStats& setup, Report* report) {
  report->Set("partition.bbp_s", Median(setup.bbp_s));
  report->Set("partition.bbp_runs", static_cast<double>(setup.bbp_s.size()));
  report->Set("partition.q", setup.q);
  report->Set("partition.edge_balance", setup.edge_balance);
  report->Set("partition.edges", static_cast<double>(setup.edges));
  report->Set("partition.write_bytes", static_cast<double>(setup.write_bytes));
}

tgpp::EdgeList MakeRmat(int scale, bool undirected, uint64_t seed) {
  tgpp::RmatParams params;
  params.vertex_scale = scale - 4;
  params.num_edges = 1ull << scale;
  params.seed = seed;
  tgpp::EdgeList graph = tgpp::GenerateRmat(params);
  if (undirected) {
    tgpp::DeduplicateEdges(&graph);
    tgpp::MakeUndirected(&graph);
  }
  return graph;
}

tgpp::ClusterConfig MakeClusterConfig(uint64_t budget_mb,
                                      const std::string& root) {
  tgpp::ClusterConfig config;
  config.num_machines = 4;
  config.memory_budget_bytes = budget_mb << 20;
  config.root_dir = root;
  // One compute thread per machine: four machines then run four compute
  // threads, no more than a 4-core host has, so a query measures the
  // engine rather than the scheduler's choice among oversubscribed threads.
  config.threads_per_machine = 1;
  return config;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void LogPhase(const char* phase, tgpp::WallTimer* timer) {
  std::fprintf(stderr, "perfbench: %s %.3f s (peak rss %.1f MB)\n", phase,
               timer->Seconds(), PeakRssMb());
  timer->Restart();
}

void LogSamples(const char* metric, const std::vector<double>& samples) {
  std::string line;
  for (double v : samples) line += " " + std::to_string(v);
  std::fprintf(stderr, "perfbench: %s samples:%s\n", metric, line.c_str());
}

}  // namespace perfbench
