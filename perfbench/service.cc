// The service-rw workload: closed-loop clients against the job service.
//
// An in-process JobServer + JobManager (max_running = 2) serves undirected
// RMAT-19 over a unix socket. One ServiceClient connection sends one job
// and waits for its reply before sending the next, as a
// `tgpp submit --wait` caller does. 90% of the jobs are reads rotating
// pr (5 iterations), wcc, bfs and sssp over varied sources; 10% are
// `update` jobs of 64 conflict-free mutations (3/4 inserts), built the
// way bench_snb_interactive builds its stream.
//
// Checks: every job reaches kDone; the reads admitted before the first
// update give the CRCs of a serial deterministic RunQuery on the base
// graph; the final graph digests like a fresh system loaded with the
// offline-rebuilt edge list.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "algos/bfs.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/system.h"
#include "dyn/dynamic_graph.h"
#include "dyn/incremental.h"
#include "service/client.h"
#include "service/job_manager.h"
#include "service/server.h"
#include "service/wire.h"
#include "util/crc32.h"
#include "util/timer.h"
#include "util/trace.h"
#include "workload.h"

namespace perfbench {

namespace {

using tgpp::EdgeList;
using tgpp::TurboGraphSystem;
using tgpp::VertexId;
namespace service = tgpp::service;
namespace dyn = tgpp::dyn;

constexpr int kRmatScale = 19;
constexpr uint64_t kBudgetMb = 32;
// One connection: more closed-loop clients than the host has cores to
// spare would time the scheduler, and every job already runs a compute
// thread on each of the four machines.
constexpr int kClients = 1;
constexpr int kMaxRunning = 2;
constexpr int kWritePct = 10;
constexpr int kBatchSize = 64;
constexpr int kPrIterations = 5;
// Pre-generated stream length: far more than a run consumes.
constexpr size_t kStreamOps = 6000;
// Update jobs run alone after the closed loop, for dyn.write_amp.
constexpr int kProbeUpdates = 4;
// Prefix reads checked against a serial run (the first few suffice).
constexpr size_t kMaxPrefixChecks = 16;
constexpr const char* kSocket = "svc.sock";
// Setups per untraced run (the traced run needs one).
constexpr int kSetups = 3;
// Consecutive jobs per throughput sample: 18 reads and 2 updates, as the
// stream spaces its updates evenly.
constexpr size_t kChunkOps = 20;

// Spreads kWritePct% of op indices evenly through the stream.
bool IsWriteOp(size_t i) {
  return (i + 1) * kWritePct / 100 > i * kWritePct / 100;
}

struct Op {
  service::JobSpec spec;
  std::string submit_line;                // the wire request, prebuilt
  std::vector<dyn::EdgeMutation> mutations;  // update ops only
  bool update() const { return spec.query == "update"; }
};

// The deterministic op stream. Every insert targets an edge absent from
// the base graph and from every other op; every delete removes a distinct
// base edge. The final edge set is therefore the same whichever order
// the update jobs commit in.
class OpStream {
 public:
  OpStream(const EdgeList& graph, uint64_t seed)
      : graph_(graph), rng_(seed), n_(graph.num_vertices) {
    out_degree_.assign(n_, 0);
    for (const tgpp::Edge& e : graph.edges) {
      present_.insert(Key(e.src, e.dst));
      ++out_degree_[e.src];
    }
    int reads = 0;
    for (size_t i = 0; i < kStreamOps; ++i) {
      ops_.push_back(IsWriteOp(i) ? NextUpdate() : NextRead(reads++));
    }
  }

  const std::vector<Op>& ops() const { return ops_; }

  // Base graph minus the deletes plus the inserts of the given ops.
  EdgeList FinalEdgeList(const std::vector<size_t>& applied) const {
    std::unordered_set<uint64_t> deleted;
    std::vector<tgpp::Edge> inserted;
    for (size_t i : applied) {
      for (const dyn::EdgeMutation& m : ops_[i].mutations) {
        if (m.op == dyn::EdgeOp::kDelete) {
          deleted.insert(Key(m.src, m.dst));
        } else {
          inserted.push_back({m.src, m.dst});
        }
      }
    }
    EdgeList out;
    out.num_vertices = graph_.num_vertices;
    for (const tgpp::Edge& e : graph_.edges) {
      if (deleted.count(Key(e.src, e.dst)) == 0) out.edges.push_back(e);
    }
    out.edges.insert(out.edges.end(), inserted.begin(), inserted.end());
    return out;
  }

 private:
  uint64_t Key(VertexId s, VertexId d) const { return s * n_ + d; }

  Op NextRead(int index) {
    static const char* const kKinds[] = {"pr", "wcc", "bfs", "sssp"};
    Op op;
    op.spec.query = kKinds[index % 4];
    op.spec.iterations = kPrIterations;
    // Sources vary per read; a vertex with out-edges reaches something.
    VertexId source = rng_() % n_;
    for (uint64_t step = 0; step < n_ && out_degree_[source] == 0; ++step) {
      source = (source + 1) % n_;
    }
    op.spec.source = source;
    op.submit_line = service::JsonWriter()
                         .Str("cmd", "submit")
                         .Str("query", op.spec.query)
                         .Int("iterations", op.spec.iterations)
                         .UInt("source", op.spec.source)
                         .Bool("deterministic", true)
                         .Close();
    return op;
  }

  Op NextUpdate() {
    Op op;
    op.spec.query = "update";
    std::string array = "[";
    for (int j = 0; j < kBatchSize; ++j) {
      // One delete per four mutations keeps the mix insert-heavy.
      const dyn::EdgeMutation m =
          j % 4 == 3 ? NextDelete() : NextInsert();
      op.mutations.push_back(m);
      array += (j == 0 ? "\"" : ",\"") + dyn::FormatEdgeMutation(m) + "\"";
    }
    array += "]";
    op.submit_line = service::JsonWriter()
                         .Str("cmd", "submit")
                         .Str("query", "update")
                         .Raw("mutations", array)
                         .Close();
    return op;
  }

  dyn::EdgeMutation NextInsert() {
    while (true) {
      const VertexId s = rng_() % n_, d = rng_() % n_;
      if (s == d || present_.count(Key(s, d)) != 0 ||
          !touched_.insert(Key(s, d)).second) {
        continue;
      }
      return {dyn::EdgeOp::kInsert, s, d};
    }
  }

  dyn::EdgeMutation NextDelete() {
    while (true) {
      const tgpp::Edge& e = graph_.edges[rng_() % graph_.edges.size()];
      if (!touched_.insert(Key(e.src, e.dst)).second) continue;
      return {dyn::EdgeOp::kDelete, e.src, e.dst};
    }
  }

  const EdgeList& graph_;
  std::mt19937_64 rng_;
  uint64_t n_;
  std::vector<uint32_t> out_degree_;
  std::unordered_set<uint64_t> present_;
  std::unordered_set<uint64_t> touched_;  // edges some op already mutates
  std::vector<Op> ops_;
};

// What the client saw for one job.
struct OpResult {
  size_t op = 0;
  bool update = false;
  std::string query;  // the job's query (pr, wcc, bfs, sssp or update)
  bool done = false;  // reached kDone
  uint64_t id = 0;
  std::string crc;
  double latency_s = 0;  // submit -> reply
  std::chrono::steady_clock::time_point start, end;  // submit, reply
  double submit_s = 0;   // the submit round trip
  double queue_wait_s = 0;
  double run_s = 0;
};

template <typename T>
T Or(tgpp::Result<T> result, T fallback) {
  return result.ok() ? *std::move(result) : fallback;
}

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One job over one connection: submit, then wait for the terminal record.
OpResult RunJob(service::ServiceClient* client, const Op& op, size_t index) {
  OpResult r;
  r.op = index;
  r.update = op.update();
  r.query = op.spec.query;
  std::optional<tgpp::trace::TraceSpan> update_span;
  if (r.update) update_span.emplace("bench.update_job", "bench");
  const auto t0 = std::chrono::steady_clock::now();
  r.start = r.end = t0;
  tgpp::Result<service::JsonObject> reply = tgpp::Status::OK();
  {
    tgpp::trace::TraceSpan span("bench.submit", "bench");
    reply = client->Call(op.submit_line);
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.submit_s = SecondsBetween(t0, t1);
  if (!reply.ok()) {
    std::fprintf(stderr, "perfbench: submit: %s\n",
                 reply.status().ToString().c_str());
    return r;
  }
  auto id = reply->GetInt("id");
  if (!id.ok()) return r;
  r.id = static_cast<uint64_t>(*id);
  {
    tgpp::trace::TraceSpan span("bench.wait", "bench");
    reply = client->Call(service::JsonWriter()
                             .Str("cmd", "wait")
                             .UInt("id", r.id)
                             .Int("timeout_ms", 120000)
                             .Close());
  }
  r.end = std::chrono::steady_clock::now();
  r.latency_s = SecondsBetween(t0, r.end);
  if (!reply.ok()) {
    std::fprintf(stderr, "perfbench: wait: %s\n",
                 reply.status().ToString().c_str());
    return r;
  }
  auto raw = reply->GetRaw("job");
  if (!raw.ok()) return r;
  auto job = service::JsonObject::Parse(*raw);
  if (!job.ok()) return r;
  const std::string state = Or(job->GetString("state"), std::string());
  r.done = state == "done";
  r.crc = Or(job->GetString("crc32"), std::string());
  r.queue_wait_s = Or(job->GetDouble("queue_wait_s"), 0.0);
  r.run_s = Or(job->GetDouble("run_s"), 0.0);
  if (!r.done) {
    std::fprintf(stderr, "perfbench: job %llu (%s) ended %s: %s\n",
                 static_cast<unsigned long long>(r.id), op.spec.query.c_str(),
                 state.c_str(),
                 Or(job->GetString("error"), std::string()).c_str());
  }
  return r;
}

// The served system: destroyed in reverse order of construction.
struct Served {
  std::unique_ptr<TurboGraphSystem> system;
  std::unique_ptr<dyn::DynamicGraph> dynamic;
  std::unique_ptr<service::JobManager> manager;
  std::unique_ptr<service::JobServer> server;

  // Stops serving; the system stays for the final-state check.
  void StopServing() {
    if (server) server->Stop();
    if (manager) manager->Shutdown();
    server.reset();
    manager.reset();
    dynamic.reset();
  }
  ~Served() { StopServing(); }
};

// Digest of a converged integer PageRank in old-id order; partition
// independent, so a mutated-in-place system and a rebuilt one agree.
tgpp::Result<uint32_t> PrDigest(TurboGraphSystem* system) {
  auto app = dyn::MakePageRankIncApp(system->partition());
  std::vector<dyn::PrIncAttr> attrs;
  tgpp::EngineOptions options;
  options.deterministic = true;
  TGPP_RETURN_IF_ERROR(system->RunQuery(app, &attrs, options).status());
  std::vector<int64_t> ranks(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) ranks[i] = attrs[i].rank;
  return tgpp::Crc32(ranks.data(), ranks.size() * sizeof(int64_t));
}

template <typename V, typename U>
tgpp::Result<std::string> CrcOf(TurboGraphSystem* system,
                                tgpp::KWalkApp<V, U> app) {
  std::vector<V> attrs;
  tgpp::EngineOptions options;
  options.deterministic = true;
  TGPP_RETURN_IF_ERROR(system->RunQuery(app, &attrs, options).status());
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x",
                tgpp::Crc32(attrs.data(), attrs.size() * sizeof(V)));
  return std::string(hex);
}

// The digest `tgpp run --deterministic` prints for a read spec.
tgpp::Result<std::string> SerialCrc(TurboGraphSystem* system,
                                    const service::JobSpec& spec) {
  const tgpp::PartitionedGraph* pg = system->partition();
  if (spec.query == "pr") {
    return CrcOf(system, tgpp::MakePageRankApp(pg, spec.iterations));
  }
  if (spec.query == "wcc") return CrcOf(system, tgpp::MakeWccApp(pg));
  if (spec.query == "bfs") {
    return CrcOf(system, tgpp::MakeBfsApp(pg, spec.source));
  }
  return CrcOf(system, tgpp::MakeSsspApp(pg, spec.source));
}

class ServiceRunner {
 public:
  ServiceRunner(const EdgeList& graph, const OpStream& stream,
                Report* report)
      : graph_(graph), stream_(stream), report_(report) {}

  bool Setup(double* setup_s, SetupStats* stats) {
    served_.reset();  // stops the previous service first
    served_ = std::make_unique<Served>();
    std::filesystem::remove_all("cluster");
    std::filesystem::remove(kSocket);
    const Snapshot before = Capture(tgpp::obs::Registry::Global());
    tgpp::WallTimer timer;
    {
      tgpp::trace::TraceSpan span("bench.cluster", "bench");
      served_->system = std::make_unique<TurboGraphSystem>(
          MakeClusterConfig(kBudgetMb, "cluster"));
    }
    TurboGraphSystem* system = served_->system.get();
    auto q = service::RequiredQForService(*system->cluster(),
                                          graph_.num_vertices, kMaxRunning);
    tgpp::Status loaded = q.status();
    if (loaded.ok()) {
      tgpp::trace::TraceSpan span("bench.load_graph", "bench");
      loaded = system->LoadGraph(graph_, tgpp::PartitionScheme::kBbp, *q);
    }
    *setup_s = timer.Seconds();
    if (!loaded.ok()) {
      report_->Fail("LoadGraph: " + loaded.ToString());
      return false;
    }
    stats->bbp_s = {system->last_partition_seconds()};
    stats->q = system->partition()->q;
    stats->edge_balance = system->partition()->EdgeBalanceRatio();
    stats->edges = system->partition()->num_edges;
    stats->write_bytes = Delta(before, Capture(tgpp::obs::Registry::Global()))
                             .Count("disk.write_bytes");
    q_ = system->partition()->q;

    system->cluster()->ResetCountersAndCaches();
    served_->dynamic = std::make_unique<dyn::DynamicGraph>(
        system->cluster(), system->mutable_partition());
    service::JobServiceOptions options;
    options.max_running = kMaxRunning;
    served_->manager = std::make_unique<service::JobManager>(
        system->cluster(), system->partition(), options,
        served_->dynamic.get());
    service::ServerOptions server_options;
    server_options.unix_path = kSocket;
    served_->server = std::make_unique<service::JobServer>(
        served_->manager.get(), server_options);
    const tgpp::Status started = served_->server->Start();
    if (!started.ok()) {
      report_->Fail("JobServer::Start: " + started.ToString());
      return false;
    }
    return true;
  }

  // Closed loop: kClients connections drain the stream until `seconds`
  // pass (in-flight jobs finish). Returns the results of this phase.
  std::vector<OpResult> RunPhase(double seconds, double* wall_s) {
    std::vector<OpResult> results;
    std::mutex mu;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    tgpp::WallTimer timer;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        auto client = service::ServiceClient::ConnectUnix(kSocket);
        if (!client.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          report_->Fail("connect: " + client.status().ToString());
          return;
        }
        while (std::chrono::steady_clock::now() < deadline) {
          const size_t i = next_.fetch_add(1);
          if (i >= stream_.ops().size()) break;
          OpResult r = RunJob(&*client, stream_.ops()[i], i);
          std::lock_guard<std::mutex> lock(mu);
          results.push_back(std::move(r));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    *wall_s = timer.Seconds();
    all_.insert(all_.end(), results.begin(), results.end());
    return results;
  }

  // Update jobs one at a time with nothing else running, each bracketed
  // by registry snapshots, for the write path's own numbers.
  void RunUpdateProbe(Report* report) {
    auto client = service::ServiceClient::ConnectUnix(kSocket);
    if (!client.ok()) {
      report_->Fail("connect: " + client.status().ToString());
      return;
    }
    const Snapshot before = Capture(tgpp::obs::Registry::Global());
    int updates = 0;
    while (updates < kProbeUpdates) {
      const size_t i = next_.fetch_add(1);
      if (i >= stream_.ops().size()) break;
      if (!stream_.ops()[i].update()) continue;  // reads are skipped
      all_.push_back(RunJob(&*client, stream_.ops()[i], i));
      ++updates;
    }
    const Delta d(before, Capture(tgpp::obs::Registry::Global()));
    const double n = std::max(1, updates);
    const double mutations =
        d.Count("dyn.edges_inserted") + d.Count("dyn.edges_deleted");
    report->Set("dyn.wal_bytes", d.Count("dyn.wal_bytes") / n);
    report->Set("dyn.edges_inserted", d.Count("dyn.edges_inserted") / n);
    report->Set("dyn.edges_deleted", d.Count("dyn.edges_deleted") / n);
    report->Set("dyn.delta_pages", d.Count("dyn.delta_pages") / n);
    report->Set("dyn.mutations_applied", mutations / n);
    // disk.write_bytes already counts the WAL appends.
    report->Set("dyn.write_amp",
                Ratio(d.Count("disk.write_bytes"),
                      mutations * sizeof(tgpp::Edge)));
  }

  tgpp::service::JobManager* manager() { return served_->manager.get(); }

  // Stops the service and runs every output check.
  void Check() {
    served_->StopServing();
    uint64_t first_update = UINT64_MAX;
    std::vector<size_t> applied;
    for (const OpResult& r : all_) {
      report_->Attempt(r.done, "job for op " + std::to_string(r.op) +
                                   " did not reach kDone");
      if (r.update) {
        applied.push_back(r.op);
        if (r.id != 0) first_update = std::min(first_update, r.id);
      }
    }

    // Final state: mutated in place vs the offline rebuild.
    auto live = PrDigest(served_->system.get());
    served_.reset();
    std::filesystem::remove_all("cluster");

    // Reads admitted before the first update saw the base graph: update
    // jobs hold the whole admission ledger and admission is FIFO by id.
    {
      TurboGraphSystem base(MakeClusterConfig(kBudgetMb, "base"));
      tgpp::Status s = base.LoadGraph(graph_, tgpp::PartitionScheme::kBbp, q_);
      if (!s.ok()) report_->Fail("base LoadGraph: " + s.ToString());
      size_t checked = 0;
      for (const OpResult& r : all_) {
        if (!s.ok() || r.update || !r.done || r.id >= first_update ||
            checked == kMaxPrefixChecks) {
          continue;
        }
        ++checked;
        auto want = SerialCrc(&base, stream_.ops()[r.op].spec);
        if (!want.ok() || *want != r.crc) {
          report_->Fail("read op " + std::to_string(r.op) + " crc " + r.crc +
                        ", serial " +
                        (want.ok() ? *want : want.status().ToString()));
        }
      }
      if (checked == 0) report_->Fail("no read ran before the first update");
    }
    std::filesystem::remove_all("base");

    TurboGraphSystem rebuilt(MakeClusterConfig(kBudgetMb, "rebuilt"));
    tgpp::Status s = rebuilt.LoadGraph(stream_.FinalEdgeList(applied));
    auto want = s.ok() ? PrDigest(&rebuilt) : tgpp::Result<uint32_t>(s);
    if (!live.ok() || !want.ok() || *live != *want) {
      report_->Fail("final-state digest differs from the offline rebuild");
    }
    std::filesystem::remove_all("rebuilt");
  }

 private:
  const EdgeList& graph_;
  const OpStream& stream_;
  Report* report_;
  std::unique_ptr<Served> served_;
  int q_ = 1;
  std::atomic<size_t> next_{0};
  std::vector<OpResult> all_;
};

std::vector<double> Field(const std::vector<OpResult>& results, bool updates,
                          double OpResult::*field) {
  std::vector<double> out;
  for (const OpResult& r : results) {
    if (r.update == updates && r.done) out.push_back(r.*field);
  }
  return out;
}

// The mean over the read kinds of each kind's median `field`. The kinds
// differ several-fold in cost, so the median of the mixed samples would
// jump from one kind's times to another's.
double PerKindMedian(const std::vector<OpResult>& results,
                     double OpResult::*field) {
  static const char* const kKinds[] = {"pr", "wcc", "bfs", "sssp"};
  double sum = 0;
  int kinds = 0;
  for (const char* kind : kKinds) {
    std::vector<double> samples;
    for (const OpResult& r : results) {
      if (r.done && r.query == kind) samples.push_back(r.*field);
    }
    if (samples.empty()) continue;
    sum += Median(samples);
    ++kinds;
  }
  return kinds == 0 ? 0 : sum / kinds;
}

// Completed reads per second over chunks of kChunkOps consecutive jobs
// (`results` in submit order, from one client), from the chunk's first
// submit to its last reply; the median over chunks.
double ReadThroughput(const std::vector<OpResult>& results) {
  std::vector<double> rates;
  for (size_t i = 0; i < results.size(); i += kChunkOps) {
    const size_t end = std::min(results.size(), i + kChunkOps);
    // A short last chunk has another read/update mix; it counts only
    // when it is the only one.
    if (!rates.empty() && end - i < kChunkOps) break;
    size_t reads = 0;
    for (size_t j = i; j < end; ++j) {
      reads += !results[j].update && results[j].done;
    }
    rates.push_back(
        Ratio(reads, SecondsBetween(results[i].start, results[end - 1].end)));
  }
  return Median(rates);
}

}  // namespace

void RunService(const RunConfig& config, Report* report) {
  tgpp::WallTimer phase;
  const EdgeList graph = MakeRmat(kRmatScale, /*undirected=*/true, config.seed);
  const OpStream stream(graph, config.seed);
  LogPhase("generate", &phase);

  ServiceRunner runner(graph, stream, report);
  std::vector<double> setup_s;
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

  if (!config.trace) {
    double wall_s = 0;
    const std::vector<OpResult> results =
        runner.RunPhase(config.seconds, &wall_s);
    LogPhase("measure", &phase);
    runner.Check();
    LogPhase("check", &phase);
    // Setup is repeated and its median reported; the repeats come after
    // the measured jobs and the checks.
    for (int i = 1; i < kSetups; ++i) {
      if (!setup_once()) return;
    }
    LogSamples("setup_s", setup_s);
    report->Set("setup_s", Median(setup_s));
    report->Set("query_s", PerKindMedian(results, &OpResult::run_s));
    report->Set("jobs_per_s", ReadThroughput(results));
    report->Set("job_latency_s",
                PerKindMedian(results, &OpResult::latency_s));
    return;
  }

  // Traced run: registry deltas and superstep rows from an untraced
  // half, span self times from a traced half, then the update probe.
  Window window;
  window.before = Capture(tgpp::obs::Registry::Global());
  const std::vector<OpResult> untraced =
      runner.RunPhase(config.seconds / 2, &window.wall_s);
  window.after = Capture(tgpp::obs::Registry::Global());
  window.ops = untraced.size();
  report->Set("peak_rss_mb", PeakRssMb());
  for (const OpResult& r : untraced) {
    if (r.update) continue;
    auto profile = runner.manager()->GetProfile(r.id);
    if (!profile.ok()) continue;
    for (const tgpp::obs::SuperstepRow& row : profile->rows) {
      window.superstep_s.push_back(row.superstep_seconds);
    }
  }
  tgpp::trace::SetEnabled(true);
  double traced_wall = 0;
  const std::vector<OpResult> traced =
      runner.RunPhase(config.seconds / 2, &traced_wall);
  tgpp::trace::SetEnabled(false);
  runner.RunUpdateProbe(report);
  runner.Check();  // joins every runner thread: the tracer is quiescent
  SpanTotals spans;
  spans.Drain();

  std::vector<OpResult> both = untraced;
  both.insert(both.end(), traced.begin(), traced.end());
  const std::vector<double> reads = Field(both, false, &OpResult::latency_s);
  const double tail = TailPercentileFor(reads.size());
  report->Set("job_latency_p95_s", tail >= 95 ? Percentile(reads, 95) : 0);
  report->Set("update_latency_p50_s",
              Median(Field(both, true, &OpResult::latency_s)));
  report->Set("ops_measured", static_cast<double>(both.size()));

  ReportPartition(setup, report);
  ReportEngineLayers(window, report);
  ReportSpans(setup_spans, 1, spans, static_cast<double>(traced.size()),
              report);
  const Delta d(window.before, window.after);
  report->Set("service.jobs_failed", d.Count("service.jobs_failed"));
  report->Set("service.job_retries", d.Count("service.job_retries"));
  std::vector<double> submit, wire;
  for (const OpResult& r : both) {
    if (!r.done) continue;
    submit.push_back(r.submit_s);
    if (!r.update) wire.push_back(r.latency_s - r.queue_wait_s - r.run_s);
  }
  const std::vector<double> queue = Field(both, false, &OpResult::queue_wait_s);
  const std::vector<double> run = Field(both, false, &OpResult::run_s);
  const std::vector<double> apply = Field(both, true, &OpResult::run_s);
  report->Set("service.submit_ms.p50", Median(submit) * 1e3);
  report->Set("service.queue_wait_ms.p50", Median(queue) * 1e3);
  report->Set("service.queue_wait_ms.p95", Percentile(queue, 95) * 1e3);
  report->Set("service.run_ms.p50", Median(run) * 1e3);
  report->Set("service.run_ms.p95", Percentile(run, 95) * 1e3);
  report->Set("service.wire_overhead_ms.p50", Median(wire) * 1e3);
  report->Set("dyn.apply_ms.p50", Median(apply) * 1e3);
  report->Set("dyn.apply_ms.p95", Percentile(apply, 95) * 1e3);
  const double untraced_op_s =
      PerKindMedian(untraced, &OpResult::latency_s);
  const double traced_op_s = PerKindMedian(traced, &OpResult::latency_s);
  report->Set("obs.untraced_op_s", untraced_op_s);
  report->Set("obs.traced_op_s", traced_op_s);
  report->Set("obs.tracing_overhead", Ratio(traced_op_s, untraced_op_s) - 1);
}

}  // namespace perfbench
