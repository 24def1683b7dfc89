// Structured event log tests (docs/OBSERVABILITY.md).
//
// Covers the observability plane's contracts end to end:
//  - The JSONL schema is golden-pinned: key order, schema version, and
//    optional-field elision are wire format, not implementation detail.
//  - A chaos run (machine.kill + recovery) produces the full correlated
//    story — superstep, checkpoint, engine.machine_lost, recovery — all
//    tagged with the run's EngineOptions::job_id, plus the fabric's
//    cluster-scoped machine.lost.
//  - Concurrent emitters never tear a line: everything AppendEventsFile
//    writes re-parses as one well-formed flat JSON object per line.
//  - Ring wrap is accounted, not silent: EventStats().dropped covers the
//    overwritten events.
//  - The serve daemon's HTTP introspection endpoints (/metrics, /jobs,
//    /healthz) answer on the same port as the line protocol.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/pagerank.h"
#include "common/fault_injector.h"
#include "core/system.h"
#include "graph/rmat.h"
#include "obs/events.h"
#include "service/client.h"
#include "service/job_manager.h"
#include "service/server.h"
#include "service/wire.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

class EventsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetEvents();
    obs::SetCurrentJob(0);
    obs::SetEventsEnabled(true);
  }
  void TearDown() override {
    fault::Disarm();
    obs::SetEventsEnabled(false);
    obs::ResetEvents();
    obs::SetCurrentJob(0);
  }
};

// --- Schema ---

TEST_F(EventsTest, GoldenJsonWithAllFields) {
  obs::Event ev;
  ev.type = obs::EventType::kSuperstep;
  ev.machine = 2;
  ev.superstep = 7;
  ev.job_id = 42;
  ev.ts_nanos = 123456789;
  ev.detail = "pull";
  ev.arg_name0 = "active";
  ev.arg_value0 = 100;
  ev.arg_name1 = "dur_us";
  ev.arg_value1 = 2500;
  EXPECT_EQ(ev.ToJson(),
            "{\"v\":1,\"ts_ns\":123456789,\"type\":\"superstep\","
            "\"job\":42,\"machine\":2,\"superstep\":7,\"active\":100,"
            "\"dur_us\":2500,\"detail\":\"pull\"}");
}

TEST_F(EventsTest, GoldenJsonElidesAbsentFields) {
  // machine=-1, superstep=-1, no args, no detail: only the required keys.
  obs::Event ev;
  ev.type = obs::EventType::kJobSubmit;
  ev.job_id = 3;
  ev.ts_nanos = 50;
  EXPECT_EQ(ev.ToJson(),
            "{\"v\":1,\"ts_ns\":50,\"type\":\"job.submit\",\"job\":3}");
}

TEST_F(EventsTest, EventTypeNamesAreStable) {
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kJobRetry), "job.retry");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kEngineMachineLost),
               "engine.machine_lost");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kMachineLost),
               "machine.lost");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kPoolReadFailed),
               "pool.read_failed");
  EXPECT_EQ(obs::kEventSchemaVersion, 1);
}

TEST_F(EventsTest, DisabledEmitRecordsNothing) {
  obs::SetEventsEnabled(false);
  obs::EmitEvent(obs::EventType::kJobSubmit, 1);
  EXPECT_TRUE(obs::DrainEvents().empty());
}

TEST_F(EventsTest, AmbientJobIdFillsUnattributedEvents) {
  obs::SetCurrentJob(17);
  obs::EmitEvent(obs::EventType::kPoolReadFailed);       // inherits 17
  obs::EmitEvent(obs::EventType::kJobSubmit, 99);        // explicit wins
  obs::SetCurrentJob(0);
  const std::vector<obs::Event> events = obs::DrainEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].job_id, 17u);
  EXPECT_EQ(events[1].job_id, 99u);
}

// --- Chaos: every plane of a kill+recover run carries the job id ---

TEST_F(EventsTest, ChaosRunEventsCarryJobId) {
  const EdgeList graph = GenerateRmatX(11, 91);
  ASSERT_TRUE(
      fault::Configure("machine1:machine.kill@superstep=2", /*seed=*/5)
          .ok());

  ClusterConfig config;
  config.num_machines = 4;
  config.memory_budget_bytes = 32ull << 20;
  config.root_dir = ScratchPath("chaos");
  std::filesystem::remove_all(config.root_dir);
  TurboGraphSystem system(config);
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  EngineOptions options;
  options.deterministic = true;
  options.checkpoint_every = 1;
  options.recv_timeout_ms = 20000;
  options.heartbeat_interval_ms = 5;
  options.heartbeat_timeout_ms = 100;
  options.job_id = 42;
  auto app = MakePageRankApp(system.partition(), /*iterations=*/6);
  auto stats = system.RunQuery(app, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GE(stats->recoveries, 1);

  const std::vector<obs::Event> events = obs::DrainEvents();
  int supersteps = 0, checkpoints = 0, recoveries = 0;
  int engine_lost = 0, fabric_lost = 0;
  for (const obs::Event& ev : events) {
    switch (ev.type) {
      case obs::EventType::kSuperstep:
        EXPECT_EQ(ev.job_id, 42u);
        EXPECT_GE(ev.superstep, 0);
        ++supersteps;
        break;
      case obs::EventType::kCheckpoint:
        EXPECT_EQ(ev.job_id, 42u);
        ++checkpoints;
        break;
      case obs::EventType::kRecovery:
        EXPECT_EQ(ev.job_id, 42u);
        ++recoveries;
        break;
      case obs::EventType::kEngineMachineLost:
        EXPECT_EQ(ev.job_id, 42u);
        EXPECT_EQ(ev.machine, 1);
        ++engine_lost;
        break;
      case obs::EventType::kMachineLost:
        EXPECT_EQ(ev.machine, 1);
        ++fabric_lost;
        break;
      default:
        break;
    }
  }
  EXPECT_GE(supersteps, stats->supersteps);
  EXPECT_GE(checkpoints, 1);
  EXPECT_GE(recoveries, 1);
  EXPECT_GE(engine_lost, 1);
  EXPECT_GE(fabric_lost, 1);
  // Drain is sorted by timestamp.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_nanos, events[i].ts_nanos);
  }
}

// --- Concurrency + the JSONL sink ---

TEST_F(EventsTest, ConcurrentEmittersProduceWellFormedJsonl) {
  const std::string path = ScratchPath("events.jsonl");
  std::filesystem::remove(path);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::EmitEvent(obs::EventType::kSuperstep,
                       /*job_id=*/static_cast<uint64_t>(t + 1),
                       /*machine=*/t, /*superstep=*/i, "push", "active",
                       static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(obs::AppendEventsFile(path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    auto parsed = service::JsonObject::Parse(line);
    ASSERT_TRUE(parsed.ok()) << "torn line: " << line;
    auto v = parsed->GetInt("v");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, obs::kEventSchemaVersion);
    auto job = parsed->GetInt("job");
    ASSERT_TRUE(job.ok());
    EXPECT_GE(*job, 1);
    EXPECT_LE(*job, kThreads);
    ++lines;
  }
  EXPECT_EQ(lines, kThreads * kPerThread);
  std::filesystem::remove(path);
}

TEST_F(EventsTest, RingWrapIsCountedAsDropped) {
  // One thread emits far past the per-thread ring capacity without a
  // drain: the overflow must show up in EventStats().dropped, and the
  // drain must return at most one ring's worth.
  constexpr uint64_t kEmit = 10000;  // > kEventRingCapacity (4096)
  for (uint64_t i = 0; i < kEmit; ++i) {
    obs::EmitEvent(obs::EventType::kSuperstep, 1, -1,
                   static_cast<int>(i));
  }
  const obs::EventLogStats before = obs::EventStats();
  EXPECT_GE(before.recorded, kEmit);
  EXPECT_GE(before.dropped, 1u);
  const std::vector<obs::Event> events = obs::DrainEvents();
  EXPECT_LE(events.size(), kEmit - before.dropped + 1);
  const obs::EventLogStats after = obs::EventStats();
  EXPECT_EQ(after.dropped + static_cast<uint64_t>(events.size()),
            kEmit + (after.recorded - kEmit));
}

// --- HTTP introspection ---

// One-shot HTTP/1.0 GET against loopback `port`; returns the raw response
// (status line + headers + body) or "" on any socket failure.
std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpBody(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST_F(EventsTest, HttpIntrospectionEndpoints) {
  const EdgeList graph = GenerateRmatX(10, 92);
  ClusterConfig config;
  config.num_machines = 2;
  config.memory_budget_bytes = 32ull << 20;
  config.root_dir = ScratchPath("http");
  std::filesystem::remove_all(config.root_dir);
  TurboGraphSystem system(config);
  ASSERT_TRUE(system.LoadGraph(graph).ok());

  service::JobManager manager(system.cluster(), system.partition());
  service::ServerOptions server_options;  // tcp_port 0 = ephemeral
  service::JobServer server(&manager, server_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  service::JobSpec spec;
  spec.query = "pr";
  spec.iterations = 4;
  auto id1 = manager.Submit(spec);
  auto id2 = manager.Submit(spec);
  ASSERT_TRUE(id1.ok() && id2.ok());
  ASSERT_TRUE(manager.Wait(*id1, 60000).ok());
  ASSERT_TRUE(manager.Wait(*id2, 60000).ok());

  // /metrics: Prometheus text exposition.
  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(HttpBody(metrics).find("# TYPE"), std::string::npos);

  // /jobs: both records, each with an embedded profile.
  const std::string jobs = HttpGet(server.port(), "/jobs");
  EXPECT_NE(jobs.find("200 OK"), std::string::npos);
  EXPECT_NE(jobs.find("application/json"), std::string::npos);
  std::string body = HttpBody(jobs);
  while (!body.empty() && (body.back() == '\n' || body.back() == '\r')) {
    body.pop_back();
  }
  auto parsed = service::JsonObject::Parse(body);
  ASSERT_TRUE(parsed.ok()) << body;
  auto array = parsed->GetArray("jobs");
  ASSERT_TRUE(array.ok());
  ASSERT_EQ(array->size(), 2u);
  for (const std::string& element : *array) {
    auto record = service::JsonObject::Parse(element);
    ASSERT_TRUE(record.ok()) << element;
    EXPECT_TRUE(record->Has("profile"));
    auto raw_profile = record->GetRaw("profile");
    ASSERT_TRUE(raw_profile.ok());
    auto profile = service::JsonObject::Parse(*raw_profile);
    ASSERT_TRUE(profile.ok()) << *raw_profile;
    auto supersteps = profile->GetInt("supersteps");
    ASSERT_TRUE(supersteps.ok());
    EXPECT_GE(*supersteps, 1);
  }

  // /healthz: 200 + ok:true while nothing is lost.
  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);

  // Unknown path: 404 listing the real endpoints.
  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_NE(missing.find("/metrics"), std::string::npos);

  // The line protocol still works on the same port after HTTP traffic.
  auto client = service::ServiceClient::ConnectTcp("127.0.0.1",
                                                   server.port());
  ASSERT_TRUE(client.ok());
  auto response =
      client->Call(service::JsonWriter().Str("cmd", "jobs").Close());
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  server.Stop();
  manager.Shutdown();
}

}  // namespace
}  // namespace tgpp
