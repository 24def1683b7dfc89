// Fabric (simulated interconnect) and Cluster runtime behaviour.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/fault_injector.h"
#include "net/fabric.h"
#include "util/trace.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

// --- Fabric ---

TEST(Fabric, DeliversFifoPerTag) {
  Fabric fabric(2, kInfinibandQdr);
  fabric.Send(0, 1, /*tag=*/0, {1});
  fabric.Send(0, 1, /*tag=*/0, {2});
  fabric.Send(0, 1, /*tag=*/1, {9});
  Message msg;
  ASSERT_TRUE(fabric.Recv(1, 0, &msg));
  EXPECT_EQ(msg.payload[0], 1);
  EXPECT_EQ(msg.src, 0);
  ASSERT_TRUE(fabric.Recv(1, 0, &msg));
  EXPECT_EQ(msg.payload[0], 2);
  ASSERT_TRUE(fabric.Recv(1, 1, &msg));
  EXPECT_EQ(msg.payload[0], 9);
}

TEST(Fabric, TryRecvDoesNotBlock) {
  Fabric fabric(2, kInfinibandQdr);
  Message msg;
  EXPECT_FALSE(fabric.TryRecv(0, 0, &msg));
  fabric.Send(1, 0, 0, {7});
  EXPECT_TRUE(fabric.TryRecv(0, 0, &msg));
  EXPECT_EQ(msg.payload[0], 7);
}

TEST(Fabric, TryRecvRecordsDeliveryTrace) {
  // All three receive paths share DeliverLocked, so the non-blocking one
  // must record the same `fabric.recv` instant the blocking ones do.
  trace::Reset();
  trace::SetEnabled(true);
  Fabric fabric(2, kInfinibandQdr);
  fabric.Send(0, 1, 0, {5});
  Message msg;
  ASSERT_TRUE(fabric.TryRecv(1, 0, &msg));
  trace::SetEnabled(false);
  int recv_instants = 0;
  for (const auto& ev : trace::Snapshot()) {
    if (std::string_view(ev.name) == "fabric.recv") ++recv_instants;
  }
  EXPECT_EQ(recv_instants, 1);
  trace::Reset();
}

TEST(Fabric, CountsRemoteBytesOnly) {
  Fabric fabric(3, kInfinibandQdr);
  fabric.Send(0, 0, 0, std::vector<uint8_t>(100));  // loopback: free
  EXPECT_EQ(fabric.bytes_sent(), 0u);
  fabric.Send(0, 1, 0, std::vector<uint8_t>(100));
  EXPECT_EQ(fabric.bytes_sent(), 100 + Fabric::kHeaderBytes);
  EXPECT_EQ(fabric.messages_sent(), 1u);
  EXPECT_GT(fabric.ModeledIoSeconds(), 0.0);
}

TEST(Fabric, BlockingRecvWakesOnSend) {
  Fabric fabric(2, kInfinibandQdr);
  Message msg;
  std::thread sender([&fabric] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fabric.Send(0, 1, 0, {42});
  });
  ASSERT_TRUE(fabric.Recv(1, 0, &msg));
  EXPECT_EQ(msg.payload[0], 42);
  sender.join();
}

TEST(Fabric, ShutdownDrainsThenFails) {
  Fabric fabric(2, kInfinibandQdr);
  fabric.Send(0, 1, 0, {5});
  fabric.Shutdown();
  Message msg;
  EXPECT_TRUE(fabric.Recv(1, 0, &msg));   // drains the queued message
  EXPECT_FALSE(fabric.Recv(1, 0, &msg));  // then reports shutdown
  fabric.Reset();
  fabric.Send(0, 1, 0, {6});
  EXPECT_TRUE(fabric.Recv(1, 0, &msg));
}

TEST(Fabric, ConcurrentSendersAllDeliver) {
  Fabric fabric(4, kInfinibandQdr);
  std::vector<std::thread> senders;
  for (int s = 0; s < 3; ++s) {
    senders.emplace_back([&fabric, s] {
      for (int i = 0; i < 50; ++i) {
        fabric.Send(s, 3, 0, {static_cast<uint8_t>(s)});
      }
    });
  }
  for (auto& t : senders) t.join();
  int received = 0;
  Message msg;
  while (fabric.TryRecv(3, 0, &msg)) ++received;
  EXPECT_EQ(received, 150);
}

// --- Fabric::RecvFor (deadline-based receive) ---

TEST(FabricRecvFor, ReturnsQueuedMessageImmediately) {
  Fabric fabric(2, kInfinibandQdr);
  fabric.Send(0, 1, 0, {3});
  Message msg;
  ASSERT_TRUE(fabric.RecvFor(1, 0, &msg, 1000).ok());
  EXPECT_EQ(msg.payload[0], 3);
}

TEST(FabricRecvFor, TimesOutAndLateMessageIsNotLost) {
  Fabric fabric(2, kInfinibandQdr);
  Message msg;
  Status s = fabric.RecvFor(1, 0, &msg, 50);
  EXPECT_TRUE(s.IsTimeout()) << s.ToString();
  // The timed-out receiver consumed nothing: a message that arrives
  // after the deadline is delivered to the next receive.
  fabric.Send(0, 1, 0, {9});
  ASSERT_TRUE(fabric.RecvFor(1, 0, &msg, 1000).ok());
  EXPECT_EQ(msg.payload[0], 9);
}

TEST(FabricRecvFor, WakesOnSendBeforeDeadline) {
  Fabric fabric(2, kInfinibandQdr);
  std::thread sender([&fabric] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fabric.Send(0, 1, 0, {42});
  });
  Message msg;
  ASSERT_TRUE(fabric.RecvFor(1, 0, &msg, 10000).ok());
  EXPECT_EQ(msg.payload[0], 42);
  sender.join();
}

TEST(FabricRecvFor, NonPositiveTimeoutWaitsForever) {
  Fabric fabric(2, kInfinibandQdr);
  std::thread sender([&fabric] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fabric.Send(0, 1, 0, {1});
  });
  Message msg;
  EXPECT_TRUE(fabric.RecvFor(1, 0, &msg, 0).ok());
  sender.join();
}

TEST(FabricRecvFor, ShutdownDrainsThenAborts) {
  Fabric fabric(2, kInfinibandQdr);
  fabric.Send(0, 1, 0, {5});
  fabric.Shutdown();
  Message msg;
  EXPECT_TRUE(fabric.RecvFor(1, 0, &msg, 1000).ok());  // drains
  Status s = fabric.RecvFor(1, 0, &msg, 1000);
  EXPECT_EQ(s.code(), StatusCode::kAborted) << s.ToString();
}

TEST(FabricRecvFor, ShutdownWakesBlockedReceiversPromptly) {
  Fabric fabric(4, kInfinibandQdr);
  // Receivers parked well inside their deadline must be released by a
  // concurrent Shutdown() with kAborted, and Reset() re-arms the fabric.
  std::vector<std::thread> receivers;
  std::atomic<int> aborted{0};
  for (int m = 1; m < 4; ++m) {
    receivers.emplace_back([&fabric, &aborted, m] {
      Message msg;
      Status s = fabric.RecvFor(m, 0, &msg, 60000);
      if (s.code() == StatusCode::kAborted) aborted.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fabric.Shutdown();
  for (auto& t : receivers) t.join();
  EXPECT_EQ(aborted.load(), 3);

  fabric.Reset();
  fabric.Send(0, 1, 0, {8});
  Message msg;
  ASSERT_TRUE(fabric.RecvFor(1, 0, &msg, 1000).ok());
  EXPECT_EQ(msg.payload[0], 8);
}

// --- Heartbeat failure detection ---

TEST(FabricHeartbeat, LostMachineDetectedWithinTimeout) {
  Fabric fabric(2, kInfinibandQdr);
  HeartbeatOptions hb;
  hb.interval_ms = 5;
  hb.timeout_ms = 50;
  fabric.StartHeartbeats(hb);
  EXPECT_TRUE(fabric.HeartbeatsRunning());
  EXPECT_EQ(fabric.FirstLostMachine(), -1);

  fabric.SetMachineDown(1);
  const auto t0 = std::chrono::steady_clock::now();
  while (fabric.FirstLostMachine() < 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(fabric.FirstLostMachine(), 1);
  // Verdict no earlier than the timeout, no later than timeout + one
  // monitor interval (plus scheduling slack).
  EXPECT_GE(elapsed, 0.04);
  EXPECT_LE(elapsed, 2.0);
  EXPECT_GT(fabric.heartbeat_misses(), 0u);

  // A receive with nothing deliverable fails fast with MachineLost
  // instead of burning its whole deadline.
  Message msg;
  Status s = fabric.RecvFor(0, 0, &msg, 10000);
  EXPECT_TRUE(s.IsMachineLost()) << s.ToString();
  EXPECT_EQ(s.machine_id(), 1);

  fabric.SetMachineUp(1);
  EXPECT_EQ(fabric.FirstLostMachine(), -1);
  fabric.StopHeartbeats();
  EXPECT_FALSE(fabric.HeartbeatsRunning());
}

TEST(FabricHeartbeat, SendsToDownMachineCountSeparatelyFromDrops) {
  Fabric fabric(2, kInfinibandQdr);
  fabric.SetMachineDown(1);
  fabric.Send(0, 1, 0, {1});
  EXPECT_EQ(fabric.down_drops(), 1u);
  EXPECT_EQ(fabric.messages_dropped(), 0u);  // injected-drop counter pure
  EXPECT_EQ(fabric.bytes_sent(), 0u);        // never reached the wire
  // Reset restores every machine: the send goes through again.
  fabric.Reset();
  EXPECT_TRUE(fabric.MachineUp(1));
  fabric.Send(0, 1, 0, {2});
  Message msg;
  ASSERT_TRUE(fabric.RecvFor(1, 0, &msg, 1000).ok());
  EXPECT_EQ(msg.payload[0], 2);
}

// --- Fabric fault injection ---

class FabricFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Disarm(); }
};

TEST_F(FabricFaultTest, RecvForDeadlineHonoredDuringInjectedDelay) {
  // Regression: an injected send delay used to sleep the *sender*; now it
  // stamps the message's delivery time, so Send returns immediately and a
  // receiver whose deadline expires mid-delay times out promptly instead
  // of waiting out the whole delay.
  ASSERT_TRUE(fault::Configure("fabric.send:delay@ms=500").ok());
  Fabric fabric(2, kInfinibandQdr);
  const auto t0 = std::chrono::steady_clock::now();
  fabric.Send(0, 1, 0, {6});
  const double send_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(send_seconds, 0.25) << "sender slept through the delay";

  Message msg;
  Status s = fabric.RecvFor(1, 0, &msg, 50);
  const double recv_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(s.IsTimeout()) << s.ToString();
  EXPECT_LT(recv_seconds, 0.45) << "deadline ignored during the delay";

  // The delayed message is not lost: a patient receive delivers it once
  // its delivery time arrives.
  ASSERT_TRUE(fabric.RecvFor(1, 0, &msg, 10000).ok());
  EXPECT_EQ(msg.payload[0], 6);
  EXPECT_GE(std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count(),
            0.45);
}

TEST_F(FabricFaultTest, DropLosesTheMessageAndCounts) {
  ASSERT_TRUE(fault::Configure("fabric.send:drop@n=1").ok());
  Fabric fabric(2, kInfinibandQdr);
  fabric.Send(0, 1, 0, {1});  // dropped
  fabric.Send(0, 1, 0, {2});
  Message msg;
  ASSERT_TRUE(fabric.RecvFor(1, 0, &msg, 1000).ok());
  EXPECT_EQ(msg.payload[0], 2);
  EXPECT_EQ(fabric.messages_dropped(), 1u);
}

TEST_F(FabricFaultTest, DuplicateDeliversTwiceAndCounts) {
  ASSERT_TRUE(fault::Configure("fabric.send:dup@n=1").ok());
  Fabric fabric(2, kInfinibandQdr);
  fabric.Send(0, 1, 0, {7});
  Message msg;
  ASSERT_TRUE(fabric.RecvFor(1, 0, &msg, 1000).ok());
  EXPECT_EQ(msg.payload[0], 7);
  ASSERT_TRUE(fabric.RecvFor(1, 0, &msg, 1000).ok());
  EXPECT_EQ(msg.payload[0], 7);
  EXPECT_EQ(fabric.messages_duplicated(), 1u);
}

TEST_F(FabricFaultTest, LoopbackIsExemptFromSendFaults) {
  ASSERT_TRUE(fault::Configure("fabric.send:drop").ok());
  Fabric fabric(2, kInfinibandQdr);
  fabric.Send(1, 1, 0, {4});  // src == dst: never dropped
  Message msg;
  ASSERT_TRUE(fabric.RecvFor(1, 0, &msg, 1000).ok());
  EXPECT_EQ(msg.payload[0], 4);
  EXPECT_EQ(fabric.messages_dropped(), 0u);
}

TEST_F(FabricFaultTest, ScopedDropAttributesToSender) {
  ASSERT_TRUE(fault::Configure("machine0:fabric.send:drop").ok());
  Fabric fabric(3, kInfinibandQdr);
  fabric.Send(0, 2, 0, {1});  // machine 0 sending: dropped
  fabric.Send(1, 2, 0, {2});  // machine 1 sending: delivered
  Message msg;
  ASSERT_TRUE(fabric.RecvFor(2, 0, &msg, 1000).ok());
  EXPECT_EQ(msg.payload[0], 2);
  EXPECT_EQ(fabric.messages_dropped(), 1u);
}

// --- Cluster ---

ClusterConfig TestCluster(const std::string& name, int p = 3) {
  ClusterConfig config;
  config.num_machines = p;
  config.threads_per_machine = 2;
  config.root_dir = ScratchPath(name);
  std::filesystem::remove_all(config.root_dir);
  return config;
}

TEST(Cluster, RunOnAllRunsEveryMachine) {
  Cluster cluster(TestCluster("runall"));
  std::atomic<int> mask{0};
  ASSERT_TRUE(cluster
                  .RunOnAll([&](int m) -> Status {
                    mask.fetch_or(1 << m);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(mask.load(), 0b111);
}

TEST(Cluster, RunOnAllPropagatesFirstError) {
  Cluster cluster(TestCluster("runall_err"));
  Status s = cluster.RunOnAll([&](int m) -> Status {
    return m == 1 ? Status::Aborted("machine 1 died") : Status::OK();
  });
  EXPECT_EQ(s.code(), StatusCode::kAborted);
}

TEST(Cluster, BarrierSynchronizes) {
  Cluster cluster(TestCluster("barrier"));
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  ASSERT_TRUE(cluster
                  .RunOnAll([&](int) -> Status {
                    phase1.fetch_add(1);
                    cluster.Barrier();
                    if (phase1.load() != 3) violated.store(true);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_FALSE(violated.load());
}

TEST(Cluster, SnapshotAggregatesDiskBytes) {
  Cluster cluster(TestCluster("snapshot"));
  ASSERT_TRUE(cluster
                  .RunOnAll([&](int m) -> Status {
                    char buf[256] = {0};
                    return cluster.machine(m)->disk()->Write("x", 0, buf,
                                                             256);
                  })
                  .ok());
  const ClusterSnapshot snap = cluster.Snapshot();
  EXPECT_EQ(snap.disk_bytes, 3 * 256u);
  EXPECT_GT(snap.max_machine_disk_seconds, 0.0);
  cluster.ResetCounters();
  EXPECT_EQ(cluster.Snapshot().disk_bytes, 0u);
}

TEST(Cluster, MachinesHaveIsolatedStorageAndBudgets) {
  Cluster cluster(TestCluster("isolated"));
  ASSERT_TRUE(cluster.machine(0)
                  ->disk()
                  ->Write("only0", 0, "a", 1)
                  .ok());
  EXPECT_TRUE(cluster.machine(0)->disk()->Exists("only0"));
  EXPECT_FALSE(cluster.machine(1)->disk()->Exists("only0"));

  ASSERT_TRUE(cluster.machine(0)->budget()->TryCharge(1000).ok());
  EXPECT_EQ(cluster.machine(1)->budget()->used_bytes(), 0u);
}

TEST(Cluster, WindowMemorySubtractsEdgeBuffer) {
  ClusterConfig config = TestCluster("window");
  config.memory_budget_bytes = 10ull << 20;
  config.buffer_pool_frames = 32;  // 2 MB of 64 KB frames
  Cluster cluster(config);
  EXPECT_EQ(cluster.machine(0)->WindowMemoryBytes(),
            (10ull << 20) - (32ull * kPageSize));
}

}  // namespace
}  // namespace tgpp
