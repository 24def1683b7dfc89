// Concurrent buffer-pool behaviour: the miss path reads pages outside the
// pool latch (frame state machine free -> io_in_progress -> valid), so
// these tests race fetchers against each other, the CLOCK evictor, and a
// full pool. They run under both ASan and TSan in tools/ci.sh.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/disk_device.h"
#include "storage/page_file.h"
#include "util/rng.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = ScratchPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

// Appends `n` pages whose first byte is the page number.
Result<PageFile> MakeFile(DiskDevice* disk, int n) {
  auto file = PageFile::Open(disk, "p.pf");
  if (!file.ok()) return file;
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < n; ++i) {
    page[0] = static_cast<uint8_t>(i);
    auto appended = file->AppendPage(page.data());
    if (!appended.ok()) return appended.status();
  }
  return file;
}

// The single-read guarantee: many threads missing the same page on a cold
// pool must issue exactly one ReadPage; everyone else joins the in-flight
// read and counts as a hit.
TEST(BufferPoolConcurrency, SamePageMissReadsOnce) {
  DiskDevice disk(TestDir("same_page"), kPcieSsdProfile);
  auto file = MakeFile(&disk, 4);
  ASSERT_TRUE(file.ok());
  // Stretch the first read so every thread arrives while it is in flight.
  ASSERT_TRUE(fault::Configure("disk.read:delay@ms=30,once").ok());
  BufferPool pool(8);
  const uint64_t before = disk.bytes_read();

  constexpr int kThreads = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto h = pool.Fetch(&*file, 2);
      if (h.ok() && h->data()[0] == 2) ok.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  fault::Disarm();

  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(pool.misses(), 1u);  // exactly one ReadPage for the page
  EXPECT_EQ(pool.hits(), static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(disk.bytes_read() - before, kPageSize);
  EXPECT_EQ(pool.io_in_flight(), 0);
}

// Misses on distinct pages must not read any page twice when the pool is
// large enough: misses_ == unique pages even with every fetch racing.
TEST(BufferPoolConcurrency, UniquePagesReadExactlyOnce) {
  DiskDevice disk(TestDir("unique"), kPcieSsdProfile);
  constexpr int kPages = 24;
  auto file = MakeFile(&disk, kPages);
  ASSERT_TRUE(file.ok());
  BufferPool pool(32);  // no eviction pressure

  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng_state = 1234u + t;
      for (int i = 0; i < kItersPerThread; ++i) {
        const uint64_t page = SplitMix64(rng_state) % kPages;
        auto h = pool.Fetch(&*file, page);
        if (!h.ok() || h->data()[0] != static_cast<uint8_t>(page)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.misses(), static_cast<uint64_t>(kPages));
  EXPECT_EQ(disk.bytes_read(), static_cast<uint64_t>(kPages) * kPageSize);
  EXPECT_EQ(pool.hits() + pool.misses(),
            static_cast<uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(pool.io_in_flight(), 0);
}

// Hit/miss/evict stress: more pages than frames, all threads hammering the
// pool with overlapping ranges while the CLOCK hand recycles frames under
// them. Every handle must see the right page contents.
TEST(BufferPoolConcurrency, HitMissEvictStress) {
  DiskDevice disk(TestDir("stress"), kPcieSsdProfile);
  constexpr int kPages = 64;
  auto file = MakeFile(&disk, kPages);
  ASSERT_TRUE(file.ok());
  BufferPool pool(8);  // heavy eviction pressure

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng_state = 99u * (t + 1);
      for (int i = 0; i < kItersPerThread; ++i) {
        const uint64_t page = SplitMix64(rng_state) % kPages;
        auto h = pool.Fetch(&*file, page);
        if (!h.ok() || h->data()[0] != static_cast<uint8_t>(page)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.hits() + pool.misses(),
            static_cast<uint64_t>(kThreads) * kItersPerThread);
  EXPECT_LE(pool.resident_pages(), 8);
  EXPECT_EQ(pool.io_in_flight(), 0);
  pool.DropAll();
  EXPECT_EQ(pool.resident_pages(), 0);
}

// Regression test for the pin-stall miss path: two fetchers of the same
// page race against a pool whose only frame is pinned. When the pin drops,
// exactly one of them may read the page; the other must re-probe the table
// after its stall wake and join (the old code read blindly after the wait
// and its duplicate table insert silently no-op'd, leaving a frame whose
// eviction erased the other frame's live mapping).
TEST(BufferPoolConcurrency, SamePageFetchersRaceAgainstFullPool) {
  DiskDevice disk(TestDir("stall_race"), kPcieSsdProfile);
  auto file = MakeFile(&disk, 3);
  ASSERT_TRUE(file.ok());
  BufferPool pool(1);
  pool.set_stall_timeout(std::chrono::milliseconds(5000));

  auto pinned = pool.Fetch(&*file, 0);  // fills and pins the only frame
  ASSERT_TRUE(pinned.ok());

  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      auto h = pool.Fetch(&*file, 1);  // stalls until the pin drops
      if (h.ok() && h->data()[0] == 1) ok.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  pinned->Release();  // un-pins the frame; the stalled fetchers proceed
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok.load(), 2);
  // Page 0 and page 1 were read once each — the racing fetchers shared
  // one ReadPage of page 1 instead of double-inserting the key.
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(disk.bytes_read(), 2u * kPageSize);
  // The surviving mapping must be intact: fetching page 1 again (still
  // the resident page) is a hit, not a fresh read.
  const uint64_t hits_before = pool.hits();
  auto again = pool.Fetch(&*file, 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(pool.hits(), hits_before + 1);
  EXPECT_EQ(pool.misses(), 2u);
}

// The pin-stall timeout must still fire when every frame stays pinned.
TEST(BufferPoolConcurrency, PinStallTimesOutWhenAllFramesStayPinned) {
  DiskDevice disk(TestDir("stall_timeout"), kPcieSsdProfile);
  auto file = MakeFile(&disk, 4);
  ASSERT_TRUE(file.ok());
  BufferPool pool(2);
  pool.set_stall_timeout(std::chrono::milliseconds(200));

  auto h0 = pool.Fetch(&*file, 0);
  auto h1 = pool.Fetch(&*file, 1);
  ASSERT_TRUE(h0.ok());
  ASSERT_TRUE(h1.ok());

  auto blocked = pool.Fetch(&*file, 2);
  EXPECT_TRUE(blocked.status().IsTimeout());
}

// A failed read must not strand waiters of the same page: the in-flight
// entry is withdrawn, waiters re-probe and retry the read themselves, and
// each surfaces the error (or succeeds once the fault clears).
TEST(BufferPoolConcurrency, FailedReadWakesWaitersWhoRetry) {
  DiskDevice disk(TestDir("fail_wake"), kPcieSsdProfile);
  auto file = MakeFile(&disk, 2);
  ASSERT_TRUE(file.ok());
  // First attempt stalls then fails; retries succeed. max_attempts = 1 so
  // the device surfaces the injected error instead of absorbing it.
  IoRetryPolicy policy;
  policy.max_attempts = 1;
  disk.set_retry_policy(policy);
  ASSERT_TRUE(fault::Configure("disk.read:io_error@n=1").ok());
  BufferPool pool(4);

  constexpr int kThreads = 4;
  std::atomic<int> ok{0}, failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto h = pool.Fetch(&*file, 1);
      if (h.ok() && h->data()[0] == 1) {
        ok.fetch_add(1);
      } else if (!h.ok()) {
        failed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  fault::Disarm();

  // Exactly one fetcher ate the injected error; everyone else recovered.
  EXPECT_EQ(failed.load(), 1);
  EXPECT_EQ(ok.load(), kThreads - 1);
  EXPECT_EQ(pool.io_in_flight(), 0);
  auto h = pool.Fetch(&*file, 1);  // the pool is healthy afterwards
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->data()[0], 1);
}

// Prefetched pages land in shared pool frames, pinned on arrival: they are
// visible to ResidentSubset while held, and their first reuse counts as a
// prefetch hit with no second read.
TEST(BufferPoolConcurrency, PrefetchLandsInPoolFramesPinnedOnArrival) {
  DiskDevice disk(TestDir("prefetch"), kPcieSsdProfile);
  auto file = MakeFile(&disk, 8);
  ASSERT_TRUE(file.ok());
  BufferPool pool(16);
  AsyncIoService io(2);

  std::mutex mu;
  std::vector<PageHandle> held;
  const std::vector<uint64_t> pages = {1, 3, 5};
  auto ticket = io.SubmitReads(
      &pool, &*file, pages,
      [&](uint64_t, PageHandle h) {
        std::lock_guard<std::mutex> lock(mu);
        held.push_back(std::move(h));
      },
      /*prefetch=*/true);
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_EQ(pool.io_in_flight(), 0);
  EXPECT_EQ(pool.misses(), 3u);

  // Pinned on arrival: the pages are resident while the handles are held.
  const std::vector<uint64_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(pool.ResidentSubset(&*file, all),
            (std::vector<uint64_t>{1, 3, 5}));
  held.clear();

  // First reuse of each prefetched frame is a prefetch hit, served with
  // no further disk read.
  const uint64_t read_bytes = disk.bytes_read();
  for (uint64_t p : pages) {
    auto h = pool.Fetch(&*file, p);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->data()[0], static_cast<uint8_t>(p));
  }
  EXPECT_EQ(pool.prefetch_hits(), 3u);
  EXPECT_EQ(disk.bytes_read(), read_bytes);
  // The flag is consumed: a second round of fetches are plain hits.
  for (uint64_t p : pages) ASSERT_TRUE(pool.Fetch(&*file, p).ok());
  EXPECT_EQ(pool.prefetch_hits(), 3u);
}

// An externally claimed frame (TryStartRead → kClaimed, the async path's
// claim) participates in the single-read guarantee: blocking fetchers of
// the same page wait on the in-flight frame and join it the moment
// FinishRead publishes — nobody issues a second read.
TEST(BufferPoolConcurrency, ExternalClaimJoinsBlockingFetchers) {
  DiskDevice disk(TestDir("claim_join"), kPcieSsdProfile);
  auto file = MakeFile(&disk, 2);
  ASSERT_TRUE(file.ok());
  BufferPool pool(4);

  BufferPool::StartRead sr = pool.TryStartRead(&*file, 1, false);
  ASSERT_EQ(sr.kind, BufferPool::StartRead::kClaimed);
  ASSERT_NE(sr.data, nullptr);
  EXPECT_EQ(pool.io_in_flight(), 1);

  constexpr int kThreads = 4;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto h = pool.Fetch(&*file, 1);
      if (h.ok() && h->data()[0] == 1) ok.fetch_add(1);
    });
  }
  // The fetchers are parked on the in-flight frame, not reading.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ok.load(), 0);
  EXPECT_EQ(disk.bytes_read(), 0u);

  // Complete the read ourselves and publish the frame.
  ASSERT_TRUE(disk.Read("p.pf", 1 * kPageSize, sr.data, kPageSize).ok());
  auto h = pool.FinishRead(sr.frame, false, Status::OK());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->data()[0], 1);
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), static_cast<uint64_t>(kThreads));
  EXPECT_EQ(pool.io_in_flight(), 0);
  EXPECT_EQ(disk.bytes_read(), static_cast<uint64_t>(kPageSize));
}

// A withdrawn claim (FinishRead with a failed status) must wake blocked
// fetchers instead of stranding them: they re-probe, exactly one re-reads
// the page itself, and all of them succeed (the file is healthy).
TEST(BufferPoolConcurrency, WithdrawnClaimWakesBlockedFetchers) {
  DiskDevice disk(TestDir("claim_fail"), kPcieSsdProfile);
  auto file = MakeFile(&disk, 2);
  ASSERT_TRUE(file.ok());
  BufferPool pool(4);

  BufferPool::StartRead sr = pool.TryStartRead(&*file, 1, false);
  ASSERT_EQ(sr.kind, BufferPool::StartRead::kClaimed);

  constexpr int kThreads = 4;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto h = pool.Fetch(&*file, 1);
      if (h.ok() && h->data()[0] == 1) ok.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ok.load(), 0);

  auto failed =
      pool.FinishRead(sr.frame, false, Status::IOError("injected"));
  EXPECT_FALSE(failed.ok());
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok.load(), kThreads);
  // One waiter claimed the withdrawn page and read it; the rest joined.
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(disk.bytes_read(), static_cast<uint64_t>(kPageSize));
  EXPECT_EQ(pool.io_in_flight(), 0);
}

// Async batches under eviction pressure, on every available backend: the
// claim/fallback split, the device's merged vectored reads, and the
// backend completion threads must deliver correct bytes while the CLOCK
// hand recycles frames underneath them. (Exercises the uring reaper
// thread under TSan when the kernel allows io_uring.)
TEST(BufferPoolConcurrency, AsyncSubmitStressOnEveryBackend) {
  std::vector<IoBackendKind> kinds = {IoBackendKind::kThreads};
  if (UringAvailable()) kinds.push_back(IoBackendKind::kUring);
  for (IoBackendKind kind : kinds) {
    SCOPED_TRACE(IoBackendKindName(kind));
    DiskDevice disk(TestDir(std::string("submit_stress_") +
                            IoBackendKindName(kind)),
                    kPcieSsdProfile);
    constexpr int kPages = 32;
    auto file = MakeFile(&disk, kPages);
    ASSERT_TRUE(file.ok());
    BufferPool pool(16);  // fewer frames than pages: fallbacks + eviction
    AsyncIoService io(2, -1, kind, /*queue_depth=*/8);

    constexpr int kThreads = 4;
    constexpr int kIters = 50;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        uint64_t rng_state = 7u * (t + 1);
        for (int i = 0; i < kIters; ++i) {
          const uint64_t base = SplitMix64(rng_state) % (kPages - 4);
          std::vector<uint64_t> pages = {base, base + 1, base + 2,
                                         base + 3};
          auto ticket = io.SubmitReads(
              &pool, &*file, pages, [&](uint64_t no, PageHandle h) {
                if (!h.valid() ||
                    h.data()[0] != static_cast<uint8_t>(no)) {
                  failures.fetch_add(1);
                }
                // handle drops here: unpinned immediately
              });
          if (!ticket.Wait().ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(pool.io_in_flight(), 0);
    EXPECT_LE(pool.resident_pages(), 16);
  }
}

}  // namespace
}  // namespace tgpp
