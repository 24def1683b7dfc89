// The batch workload: one caller thread issues RunQuery back to back on a
// TurboGraphSystem.
//
//   pr-ooc  PageRank, 10 iterations, directed RMAT-23, 8 MB budget (q = 3)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "algos/reference.h"
#include "core/system.h"
#include "util/timer.h"
#include "util/trace.h"
#include "workload.h"

namespace perfbench {

namespace {

using tgpp::EdgeList;
using tgpp::TurboGraphSystem;

constexpr int kRmatScale = 23;
constexpr uint64_t kBudgetMb = 8;
// Relative tolerance of engine PageRank against ReferencePageRank: the
// engine sums contributions in arrival order, the reference in CSR order.
constexpr double kPageRankTolerance = 1e-6;
constexpr int kPageRankIterations = 10;
// Rounds per untraced run, each on a fresh system: a setup, then queries
// for a third of the run. The traced run needs one setup.
constexpr int kSetups = 3;

class BatchRunner {
 public:
  // `expected` holds the reference ranks, computed before any timed span.
  BatchRunner(const EdgeList& graph, const std::vector<double>& expected,
              Report* report)
      : graph_(graph),
        expected_(expected),
        report_(report),
        config_(MakeClusterConfig(kBudgetMb, "cluster")) {}

  // Builds a fresh system: construction + LoadGraph + the first query,
  // whose BBP re-run (if any) belongs to setup. Returns false on failure.
  bool Setup(double* setup_s, SetupStats* stats) {
    system_.reset();
    std::filesystem::remove_all(config_.root_dir);
    const Snapshot before = Capture(tgpp::obs::Registry::Global());
    tgpp::WallTimer timer;
    {
      tgpp::trace::TraceSpan span("bench.cluster", "bench");
      system_ = std::make_unique<TurboGraphSystem>(config_);
    }
    tgpp::Status loaded;
    {
      tgpp::trace::TraceSpan span("bench.load_graph", "bench");
      loaded = system_->LoadGraph(graph_, tgpp::PartitionScheme::kBbp, 1);
    }
    if (!loaded.ok()) {
      report_->Fail("LoadGraph: " + loaded.ToString());
      return false;
    }
    const double load_s = timer.Seconds();
    stats->bbp_s = {system_->last_partition_seconds()};
    stats->write_bytes =
        Delta(before, Capture(tgpp::obs::Registry::Global()))
            .Count("disk.write_bytes");

    const int q_loaded = system_->partition()->q;
    {
      tgpp::trace::TraceSpan span("bench.first_query", "bench");
      double first_query_s = 0;
      if (!Query(&first_query_s)) return false;
    }
    double rerun_s = 0;
    if (system_->partition()->q != q_loaded) {
      rerun_s = system_->last_partition_seconds();
      stats->bbp_s.push_back(rerun_s);
    }
    *setup_s = load_s + rerun_s;

    const tgpp::PartitionedGraph* pg = system_->partition();
    stats->q = pg->q;
    stats->edge_balance = pg->EdgeBalanceRatio();
    stats->edges = pg->num_edges;
    return true;
  }

  // Drops the pool and counters so measurement starts from the state
  // every measured query sees (the working set exceeds the pool).
  void ResetForMeasurement() {
    system_->cluster()->ResetCountersAndCaches();
  }

  // Runs queries back to back for `seconds` (at least one). With
  // `spans`, the tracer is on and drained after every query.
  Window Measure(double seconds, SpanTotals* spans,
                 std::vector<double>* latencies) {
    tgpp::trace::SetEnabled(spans != nullptr);
    Window window;
    window.before = Capture(tgpp::obs::Registry::Global());
    tgpp::WallTimer timer;
    do {
      double wall = 0;
      {
        tgpp::trace::TraceSpan span("bench.run_query", "bench");
        if (!Query(&wall, &window.superstep_s)) break;
      }
      latencies->push_back(wall);
      ++window.ops;
      if (spans != nullptr) spans->Drain();
    } while (timer.Seconds() < seconds);
    window.wall_s = timer.Seconds();
    window.after = Capture(tgpp::obs::Registry::Global());
    tgpp::trace::SetEnabled(false);
    return window;
  }

 private:
  // One RunQuery, timed and checked. `wall` excludes the BBP re-run the
  // call may trigger; its output is checked after the clock stops.
  bool Query(double* wall, std::vector<double>* superstep_s = nullptr) {
    tgpp::EngineOptions options;
    options.superstep_observer = [superstep_s](
                                     const tgpp::obs::SuperstepRow& row) {
      if (superstep_s != nullptr) {
        superstep_s->push_back(row.superstep_seconds);
      }
      if (tgpp::trace::Enabled()) {
        tgpp::trace::Complete(
            "bench.superstep", "bench",
            tgpp::trace::NowNanos() -
                static_cast<int64_t>(row.superstep_seconds * 1e9));
      }
    };
    const int q_before = system_->partition()->q;
    tgpp::WallTimer timer;
    std::vector<tgpp::PageRankAttr> ranks;
    auto app = tgpp::MakePageRankApp(system_->partition(), kPageRankIterations);
    const tgpp::Result<tgpp::QueryStats> stats =
        system_->RunQuery(app, &ranks, options);
    *wall = timer.Seconds();
    if (system_->partition()->q != q_before) {
      *wall -= system_->last_partition_seconds();
    }
    if (!stats.ok()) {
      report_->Attempt(false, "RunQuery: " + stats.status().ToString());
      return false;
    }
    report_->Attempt(Check(ranks), "query output differs from the reference");
    return true;
  }

  bool Check(const std::vector<tgpp::PageRankAttr>& ranks) const {
    if (ranks.size() != expected_.size()) return false;
    for (size_t v = 0; v < ranks.size(); ++v) {
      const double want = expected_[v];
      if (std::abs(ranks[v].pr - want) >
          kPageRankTolerance * std::max(1.0, std::abs(want))) {
        std::fprintf(stderr,
                     "perfbench: rank of v%zu is %.17g, reference %.17g\n", v,
                     ranks[v].pr, want);
        return false;
      }
    }
    return true;
  }

  const EdgeList& graph_;
  const std::vector<double>& expected_;
  Report* report_;
  tgpp::ClusterConfig config_;
  std::unique_ptr<TurboGraphSystem> system_;
};

}  // namespace

void RunBatch(const RunConfig& config, Report* report) {
  tgpp::WallTimer phase;
  const EdgeList graph = MakeRmat(kRmatScale, /*undirected=*/false,
                                  config.seed);
  LogPhase("generate", &phase);
  const std::vector<double> expected =
      tgpp::ReferencePageRank(graph, kPageRankIterations);
  LogPhase("reference", &phase);

  BatchRunner runner(graph, expected, report);
  std::vector<double> setup_s, latencies;
  SetupStats setup;
  auto setup_once = [&] {
    double s = 0;
    setup = SetupStats{};
    if (!runner.Setup(&s, &setup)) return false;
    setup_s.push_back(s);
    LogPhase("setup", &phase);
    return true;
  };
  tgpp::trace::SetEnabled(config.trace);
  if (!setup_once()) return;
  SpanTotals setup_spans;
  if (config.trace) setup_spans.Drain();
  tgpp::trace::SetEnabled(false);
  runner.ResetForMeasurement();

  if (!config.trace) {
    // Query samples come from every round's system, so no one partition
    // or file layout decides the result; setup reports its median.
    for (int i = 0; i < kSetups; ++i) {
      if (i > 0) {
        if (!setup_once()) return;
        runner.ResetForMeasurement();
      }
      runner.Measure(config.seconds / kSetups, nullptr, &latencies);
      LogPhase("measure", &phase);
    }
    LogSamples("setup_s", setup_s);
    LogSamples("query_s", latencies);
    // One caller issues queries back to back, so the job latency is the
    // query time and the throughput its reciprocal.
    const double query_s = Median(latencies);
    report->Set("setup_s", Median(setup_s));
    report->Set("query_s", query_s);
    report->Set("jobs_per_s", Ratio(1, query_s));
    report->Set("job_latency_s", query_s);
    return;
  }

  // Traced run: the registry delta comes from an untraced half, the span
  // self times from a traced half; their latency ratio is the tracer's
  // overhead.
  std::vector<double> untraced, traced;
  SpanTotals spans;
  const Window window = runner.Measure(config.seconds / 2, nullptr, &untraced);
  report->Set("peak_rss_mb", PeakRssMb());
  runner.Measure(config.seconds / 2, &spans, &traced);
  ReportPartition(setup, report);
  ReportEngineLayers(window, report);
  ReportSpans(setup_spans, 1, spans, static_cast<double>(traced.size()),
              report);
  report->Set("ops_measured", static_cast<double>(untraced.size()));
  report->Set("obs.untraced_op_s", Median(untraced));
  report->Set("obs.traced_op_s", Median(traced));
  report->Set("obs.tracing_overhead",
              Ratio(Median(traced), Median(untraced)) - 1);
}

bool IsBatchWorkload(const std::string& workload) {
  return workload == "pr-ooc";
}

}  // namespace perfbench
