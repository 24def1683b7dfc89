// Storage engine: disk device, slotted pages, page files, buffer pool,
// async I/O.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/disk_device.h"
#include "storage/page_file.h"
#include "storage/slotted_page.h"
#include "graph/types.h"
#include "util/rng.h"
#include "test_scratch.h"

namespace tgpp {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = ScratchPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

// --- DiskDevice ---

TEST(DiskDevice, WriteReadRoundtrip) {
  DiskDevice disk(TestDir("rw"), kPcieSsdProfile);
  const std::string data = "hello turbo graph";
  ASSERT_TRUE(disk.Write("f.bin", 10, data.data(), data.size()).ok());
  std::string out(data.size(), '\0');
  ASSERT_TRUE(disk.Read("f.bin", 10, out.data(), out.size()).ok());
  EXPECT_EQ(out, data);
}

TEST(DiskDevice, CountsBytes) {
  DiskDevice disk(TestDir("count"), kPcieSsdProfile);
  char buf[100] = {0};
  ASSERT_TRUE(disk.Write("f.bin", 0, buf, 100).ok());
  ASSERT_TRUE(disk.Read("f.bin", 0, buf, 40).ok());
  EXPECT_EQ(disk.bytes_written(), 100u);
  EXPECT_EQ(disk.bytes_read(), 40u);
  EXPECT_GT(disk.ModeledIoSeconds(), 0.0);
  disk.ResetCounters();
  EXPECT_EQ(disk.bytes_written(), 0u);
}

TEST(DiskDevice, AppendReportsOffsets) {
  DiskDevice disk(TestDir("append"), kPcieSsdProfile);
  uint64_t off = 99;
  ASSERT_TRUE(disk.Append("log.bin", "aaaa", 4, &off).ok());
  EXPECT_EQ(off, 0u);
  ASSERT_TRUE(disk.Append("log.bin", "bb", 2, &off).ok());
  EXPECT_EQ(off, 4u);
  auto size = disk.FileSize("log.bin");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 6u);
}

TEST(DiskDevice, TruncateAndRemove) {
  DiskDevice disk(TestDir("trunc"), kPcieSsdProfile);
  char buf[64] = {1};
  ASSERT_TRUE(disk.Write("f.bin", 0, buf, 64).ok());
  ASSERT_TRUE(disk.Truncate("f.bin", 16).ok());
  EXPECT_EQ(*disk.FileSize("f.bin"), 16u);
  EXPECT_TRUE(disk.Exists("f.bin"));
  ASSERT_TRUE(disk.Remove("f.bin").ok());
  ASSERT_TRUE(disk.Remove("f.bin").ok());  // idempotent
}

TEST(DiskDevice, ShortReadIsError) {
  DiskDevice disk(TestDir("short"), kPcieSsdProfile);
  char buf[8] = {0};
  ASSERT_TRUE(disk.Write("f.bin", 0, buf, 8).ok());
  char big[64];
  EXPECT_TRUE(disk.Read("f.bin", 0, big, 64).IsIOError());
}

TEST(DiskDevice, StableFileIdsSurviveAndDiffer) {
  DiskDevice disk(TestDir("ids"), kPcieSsdProfile);
  const uint32_t a1 = disk.StableFileId("a.bin");
  const uint32_t b = disk.StableFileId("b.bin");
  const uint32_t a2 = disk.StableFileId("a.bin");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST(DiskDevice, ReadUpToEofSucceedsPastEofFails) {
  DiskDevice disk(TestDir("eof"), kPcieSsdProfile);
  char buf[32];
  for (size_t i = 0; i < sizeof(buf); ++i) buf[i] = static_cast<char>(i);
  ASSERT_TRUE(disk.Write("f.bin", 0, buf, 32).ok());
  char out[32] = {0};
  ASSERT_TRUE(disk.Read("f.bin", 28, out, 4).ok());  // ends exactly at EOF
  EXPECT_EQ(out[3], 31);
  // One byte past EOF is a permanent error (never retried).
  EXPECT_TRUE(disk.Read("f.bin", 29, out, 4).IsIOError());
  EXPECT_TRUE(disk.Read("f.bin", 64, out, 1).IsIOError());
  EXPECT_EQ(disk.io_retries(), 0u);
}

TEST(DiskDevice, LargeTransfersRoundtripThroughTheLoop) {
  // pread/pwrite may legally return short counts; the multi-megabyte
  // transfer exercises the completion loops in Read/Write.
  DiskDevice disk(TestDir("large"), kPcieSsdProfile);
  std::vector<uint8_t> data(6 << 20);
  uint64_t state = 99;
  for (auto& b : data) b = static_cast<uint8_t>(SplitMix64(state));
  ASSERT_TRUE(disk.Write("big.bin", 0, data.data(), data.size()).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(disk.Read("big.bin", 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk.bytes_read(), data.size());
}

// --- DiskDevice fault injection + retry (docs/FAULTS.md) ---

class DiskFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Disarm(); }
};

TEST_F(DiskFaultTest, TransientReadErrorIsRetriedAway) {
  ASSERT_TRUE(fault::Configure("disk.read:io_error@n=1").ok());
  DiskDevice disk(TestDir("retry_read"), kPcieSsdProfile);
  char buf[16] = {0};
  ASSERT_TRUE(disk.Write("f.bin", 0, buf, 16).ok());
  EXPECT_TRUE(disk.Read("f.bin", 0, buf, 16).ok());
  EXPECT_EQ(disk.io_retries(), 1u);
  EXPECT_EQ(disk.injected_faults(), 1u);
}

TEST_F(DiskFaultTest, WriteAppendSyncAreRetriedToo) {
  ASSERT_TRUE(fault::Configure("disk.write:io_error@n=1;"
                               "disk.append:io_error@n=1;"
                               "disk.sync:io_error@n=1")
                  .ok());
  DiskDevice disk(TestDir("retry_waz"), kPcieSsdProfile);
  char buf[8] = {1};
  EXPECT_TRUE(disk.Write("f.bin", 0, buf, 8).ok());
  uint64_t off = 99;
  EXPECT_TRUE(disk.Append("f.bin", buf, 8, &off).ok());
  EXPECT_EQ(off, 8u);  // retried append lands once, at the probed offset
  EXPECT_EQ(*disk.FileSize("f.bin"), 16u);
  EXPECT_TRUE(disk.Sync("f.bin").ok());
  EXPECT_EQ(disk.io_retries(), 3u);
}

TEST_F(DiskFaultTest, PersistentErrorSurfacesAfterMaxAttempts) {
  ASSERT_TRUE(fault::Configure("disk.read:io_error").ok());
  DiskDevice disk(TestDir("exhaust"), kPcieSsdProfile);
  char buf[8] = {0};
  ASSERT_TRUE(disk.Write("f.bin", 0, buf, 8).ok());
  IoRetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_micros = 1;
  disk.set_retry_policy(policy);
  EXPECT_TRUE(disk.Read("f.bin", 0, buf, 8).IsIOError());
  EXPECT_EQ(disk.io_retries(), 2u);  // attempts - 1
  EXPECT_EQ(disk.injected_faults(), 3u);
}

TEST_F(DiskFaultTest, InjectedTimeoutIsNotRetried) {
  ASSERT_TRUE(fault::Configure("disk.read:timeout@once").ok());
  DiskDevice disk(TestDir("timeout"), kPcieSsdProfile);
  char buf[8] = {0};
  ASSERT_TRUE(disk.Write("f.bin", 0, buf, 8).ok());
  EXPECT_TRUE(disk.Read("f.bin", 0, buf, 8).IsTimeout());
  EXPECT_EQ(disk.io_retries(), 0u);
  EXPECT_TRUE(disk.Read("f.bin", 0, buf, 8).ok());  // once: gone now
}

TEST_F(DiskFaultTest, DelayActionOnlyStalls) {
  ASSERT_TRUE(fault::Configure("disk.read:delay@ms=1,once").ok());
  DiskDevice disk(TestDir("delay"), kPcieSsdProfile);
  char buf[8] = {0};
  ASSERT_TRUE(disk.Write("f.bin", 0, buf, 8).ok());
  EXPECT_TRUE(disk.Read("f.bin", 0, buf, 8).ok());
  EXPECT_EQ(disk.io_retries(), 0u);
  EXPECT_EQ(disk.injected_faults(), 1u);
}

TEST_F(DiskFaultTest, MachineScopedRulesSpareOtherDevices) {
  ASSERT_TRUE(fault::Configure("machine1:disk.read:io_error").ok());
  DiskDevice disk(TestDir("scoped"), kPcieSsdProfile);
  disk.set_fault_machine(2);
  char buf[8] = {0};
  ASSERT_TRUE(disk.Write("f.bin", 0, buf, 8).ok());
  EXPECT_TRUE(disk.Read("f.bin", 0, buf, 8).ok());
  EXPECT_EQ(disk.injected_faults(), 0u);
}

// --- SlottedPage ---

TEST(SlottedPage, BuildAndReadBack) {
  std::vector<uint8_t> buffer(kPageSize);
  SlottedPageBuilder builder(buffer.data());
  const std::vector<VertexId> list1 = {5, 9, 13};
  const std::vector<VertexId> list2 = {2};
  ASSERT_TRUE(builder.AddRecord(100, list1));
  ASSERT_TRUE(builder.AddRecord(200, list2));

  SlottedPageReader reader(buffer.data());
  ASSERT_EQ(reader.num_slots(), 2u);
  EXPECT_EQ(reader.SrcAt(0), 100u);
  EXPECT_EQ(std::vector<VertexId>(reader.DstsAt(0).begin(),
                                  reader.DstsAt(0).end()),
            list1);
  EXPECT_EQ(reader.SrcAt(1), 200u);
  EXPECT_EQ(reader.DstsAt(1).size(), 1u);
  EXPECT_TRUE(reader.Validate().ok());
}

TEST(SlottedPage, RejectsWhenFull) {
  std::vector<uint8_t> buffer(kPageSize);
  SlottedPageBuilder builder(buffer.data());
  std::vector<VertexId> list(100, 7);
  uint32_t added = 0;
  while (builder.AddRecord(added, list)) ++added;
  EXPECT_GT(added, 0u);
  // Everything that was accepted must still be readable.
  SlottedPageReader reader(buffer.data());
  EXPECT_EQ(reader.num_slots(), added);
  EXPECT_TRUE(reader.Validate().ok());
}

TEST(SlottedPage, RemainingCapacityIsHonest) {
  std::vector<uint8_t> buffer(kPageSize);
  SlottedPageBuilder builder(buffer.data());
  const size_t cap = builder.RemainingCapacity();
  EXPECT_GT(cap, 8000u);  // ~64KB / 8B minus headers
  std::vector<VertexId> list(cap, 1);
  EXPECT_TRUE(builder.AddRecord(1, list));
  EXPECT_FALSE(builder.AddRecord(2, std::vector<VertexId>(
                                        builder.RemainingCapacity() + 1, 2)));
}

TEST(SlottedPage, EmptyRecordAllowed) {
  std::vector<uint8_t> buffer(kPageSize);
  SlottedPageBuilder builder(buffer.data());
  EXPECT_TRUE(builder.AddRecord(42, {}));
  SlottedPageReader reader(buffer.data());
  EXPECT_EQ(reader.num_slots(), 1u);
  EXPECT_TRUE(reader.DstsAt(0).empty());
}

TEST(SlottedPage, ValidateCatchesCorruption) {
  std::vector<uint8_t> buffer(kPageSize);
  SlottedPageBuilder builder(buffer.data());
  ASSERT_TRUE(builder.AddRecord(1, std::vector<VertexId>{1, 2, 3}));
  // Smash the slot count.
  reinterpret_cast<PageHeader*>(buffer.data())->num_slots = 60000;
  SlottedPageReader reader(buffer.data());
  EXPECT_FALSE(reader.Validate().ok());
}

// --- PageFile ---

TEST(PageFile, AppendReadClear) {
  DiskDevice disk(TestDir("pagefile"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "edges.pf");
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> page(kPageSize, 0x11);
  auto p0 = file->AppendPage(page.data());
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*p0, 0u);
  page.assign(kPageSize, 0x22);
  ASSERT_TRUE(file->AppendPage(page.data()).ok());
  EXPECT_EQ(file->num_pages(), 2u);

  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(file->ReadPage(0, out.data()).ok());
  EXPECT_EQ(out[100], 0x11);
  ASSERT_TRUE(file->ReadPage(1, out.data()).ok());
  EXPECT_EQ(out[100], 0x22);
  EXPECT_FALSE(file->ReadPage(2, out.data()).ok());

  ASSERT_TRUE(file->Clear().ok());
  EXPECT_EQ(file->num_pages(), 0u);
}

TEST(PageFile, ReopenSeesExistingPages) {
  DiskDevice disk(TestDir("reopen"), kPcieSsdProfile);
  std::vector<uint8_t> page(kPageSize, 0x33);
  {
    auto file = PageFile::Open(&disk, "x.pf");
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  auto file = PageFile::Open(&disk, "x.pf");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->num_pages(), 1u);
}

// --- BufferPool ---

TEST(BufferPool, HitsAndMisses) {
  DiskDevice disk(TestDir("pool"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < 4; ++i) {
    page[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(8);
  {
    auto h = pool.Fetch(&*file, 2);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->data()[0], 2);
  }
  auto h2 = pool.Fetch(&*file, 2);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPool, CacheSurvivesReopeningTheFile) {
  DiskDevice disk(TestDir("pool_reopen"), kPcieSsdProfile);
  std::vector<uint8_t> page(kPageSize, 0x7);
  {
    auto file = PageFile::Open(&disk, "p.pf");
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(4);
  {
    auto file = PageFile::Open(&disk, "p.pf");
    ASSERT_TRUE(pool.Fetch(&*file, 0).ok());
  }
  auto file2 = PageFile::Open(&disk, "p.pf");  // a different handle object
  ASSERT_TRUE(pool.Fetch(&*file2, 0).ok());
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPool, EvictsUnpinnedUnderPressure) {
  DiskDevice disk(TestDir("pool_evict"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  std::vector<uint8_t> page(kPageSize);
  const int kPages = 10;
  for (int i = 0; i < kPages; ++i) {
    page[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(3);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kPages; ++i) {
      auto h = pool.Fetch(&*file, i);
      ASSERT_TRUE(h.ok());
      EXPECT_EQ(h->data()[0], i);  // data always correct despite eviction
    }
  }
  EXPECT_GT(pool.misses(), static_cast<uint64_t>(kPages));
}

TEST(BufferPool, PinnedPagesAreNotEvicted) {
  DiskDevice disk(TestDir("pool_pin"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < 6; ++i) {
    page[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(4);
  auto pinned = pool.Fetch(&*file, 0);
  ASSERT_TRUE(pinned.ok());
  const uint8_t* data_before = pinned->data();
  // Cycle everything else through the remaining 3 frames.
  for (int round = 0; round < 4; ++round) {
    for (int i = 1; i < 6; ++i) {
      ASSERT_TRUE(pool.Fetch(&*file, i).ok());
    }
  }
  EXPECT_EQ(pinned->data(), data_before);
  EXPECT_EQ(pinned->data()[0], 0);
}

TEST(BufferPool, PrefetchMarksFramesAndCountsReuse) {
  DiskDevice disk(TestDir("pool_prefetch"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  std::vector<uint8_t> page(kPageSize, 0x5);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(8);
  { auto h = pool.Prefetch(&*file, 1); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.prefetch_hits(), 0u);  // not a hit until someone reuses it
  ASSERT_TRUE(pool.Fetch(&*file, 1).ok());
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.prefetch_hits(), 1u);
  // The prefetched flag is consumed by the first reuse.
  ASSERT_TRUE(pool.Fetch(&*file, 1).ok());
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.prefetch_hits(), 1u);
}

// --- PageHandle ---

TEST(PageHandle, SelfMoveAssignIsSafe) {
  DiskDevice disk(TestDir("handle_selfmove"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  std::vector<uint8_t> page(kPageSize);
  page[0] = 0x42;
  ASSERT_TRUE(file->AppendPage(page.data()).ok());
  BufferPool pool(4);
  auto h = pool.Fetch(&*file, 0);
  ASSERT_TRUE(h.ok());
  // Through an alias so -Wself-move can't see the self-assignment; the
  // guard in operator= must keep the handle (and its pin) intact.
  PageHandle& alias = *h;
  *h = std::move(alias);
  ASSERT_TRUE(h->valid());
  EXPECT_EQ(h->data()[0], 0x42);
  h->Release();
  EXPECT_FALSE(h->valid());
  // The pin count was not corrupted: the page is evictable again.
  pool.DropAll();
  EXPECT_EQ(pool.resident_pages(), 0);
}

TEST(PageHandle, DoubleReleaseIsSafe) {
  DiskDevice disk(TestDir("handle_release"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  std::vector<uint8_t> page(kPageSize);
  ASSERT_TRUE(file->AppendPage(page.data()).ok());
  BufferPool pool(4);
  auto h = pool.Fetch(&*file, 0);
  ASSERT_TRUE(h.ok());
  h->Release();
  h->Release();  // second release is a no-op, not a double-unpin
  EXPECT_FALSE(h->valid());
  pool.DropAll();
  EXPECT_EQ(pool.resident_pages(), 0);
}

TEST(PageHandle, MoveTransfersThePin) {
  DiskDevice disk(TestDir("handle_move"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  std::vector<uint8_t> page(kPageSize);
  page[0] = 0x7;
  ASSERT_TRUE(file->AppendPage(page.data()).ok());
  BufferPool pool(4);
  auto h = pool.Fetch(&*file, 0);
  ASSERT_TRUE(h.ok());
  PageHandle moved = std::move(*h);
  EXPECT_FALSE(h->valid());
  ASSERT_TRUE(moved.valid());
  EXPECT_EQ(moved.data()[0], 0x7);
  moved.Release();
  pool.DropAll();
  EXPECT_EQ(pool.resident_pages(), 0);
}

TEST(BufferPool, ResidentSubsetAndDropAll) {
  DiskDevice disk(TestDir("pool_resident"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(8);
  ASSERT_TRUE(pool.Fetch(&*file, 1).ok());
  ASSERT_TRUE(pool.Fetch(&*file, 3).ok());
  const std::vector<uint64_t> all = {0, 1, 2, 3, 4};
  EXPECT_EQ(pool.ResidentSubset(&*file, all),
            (std::vector<uint64_t>{1, 3}));
  pool.DropAll();
  EXPECT_TRUE(pool.ResidentSubset(&*file, all).empty());
}

// --- AsyncIoService ---

TEST(AsyncIo, DeliversAllPages) {
  DiskDevice disk(TestDir("async"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < 12; ++i) {
    page[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(16);
  AsyncIoService io(2);
  std::mutex mu;
  std::set<uint64_t> seen;
  std::vector<uint64_t> pages = {0, 3, 5, 7, 11};
  auto ticket = io.SubmitReads(&pool, &*file, pages,
                               [&](uint64_t no, PageHandle handle) {
                                 std::lock_guard<std::mutex> lock(mu);
                                 EXPECT_EQ(handle.data()[0], no);
                                 seen.insert(no);
                               });
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_EQ(seen, std::set<uint64_t>(pages.begin(), pages.end()));
}

TEST(AsyncIo, ReportsErrors) {
  DiskDevice disk(TestDir("async_err"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  std::vector<uint8_t> page(kPageSize);
  ASSERT_TRUE(file->AppendPage(page.data()).ok());
  BufferPool pool(4);
  AsyncIoService io(1);
  auto ticket = io.SubmitReads(&pool, &*file, {0, 99},
                               [](uint64_t, PageHandle) {});
  EXPECT_FALSE(ticket.Wait().ok());
}

TEST(AsyncIo, EmptyBatchCompletesImmediately) {
  DiskDevice disk(TestDir("async_empty"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  BufferPool pool(4);
  AsyncIoService io(1);
  auto ticket =
      io.SubmitReads(&pool, &*file, {}, [](uint64_t, PageHandle) {});
  EXPECT_TRUE(ticket.Wait().ok());
}

// --- Missing files and fd lifetime ---

// Read paths must never materialize files: a read of a file nobody wrote
// is a clean IOError and leaves no empty file behind (the old code opened
// with O_CREAT on every path, so a misspelled name silently produced a
// zero-length file and a confusing EOF error downstream).
TEST(DiskDevice, ReadMissingFileFailsCleanly) {
  const std::string dir = TestDir("missing");
  DiskDevice disk(dir, kPcieSsdProfile);
  char buf[8];
  const Status read = disk.Read("ghost.bin", 0, buf, sizeof(buf));
  EXPECT_TRUE(read.IsIOError()) << read.ToString();
  EXPECT_FALSE(disk.FileSize("ghost.bin").ok());
  EXPECT_FALSE(disk.Exists("ghost.bin"));
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) /
                                       "ghost.bin"));
  // A missing file is permanent: no retries were burned on it.
  EXPECT_EQ(disk.io_retries(), 0u);
  // Touch is the explicit way to create an empty file.
  ASSERT_TRUE(disk.Touch("ghost.bin").ok());
  EXPECT_TRUE(disk.Exists("ghost.bin"));
  auto size = disk.FileSize("ghost.bin");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
}

// Remove() of a file with a read in flight revokes the *name*, not the
// descriptor: the reader holds an FdRef, so the pread completes with the
// old contents instead of dying with EBADF (which the old code then
// burned as a spurious transient retry).
TEST_F(DiskFaultTest, RemoveDuringReadKeepsFdAlive) {
  DiskDevice disk(TestDir("rm_race"), kPcieSsdProfile);
  const std::string data(1 << 20, 'x');
  ASSERT_TRUE(disk.Write("f.bin", 0, data.data(), data.size()).ok());
  // Stall the read inside the device, after it has resolved its fd
  // (GetFdRef happens before the op scope that bumps queue_depth).
  ASSERT_TRUE(fault::Configure("disk.read:delay@ms=100,once").ok());
  std::string out(data.size(), '\0');
  Status read_status = Status::IOError("never ran");
  std::thread reader([&] {
    read_status = disk.Read("f.bin", 0, out.data(), out.size());
  });
  for (int i = 0; i < 5000 && disk.queue_depth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(disk.queue_depth(), 1);
  ASSERT_TRUE(disk.Remove("f.bin").ok());
  reader.join();
  EXPECT_TRUE(read_status.ok()) << read_status.ToString();
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk.io_retries(), 0u);  // no EBADF absorbed as a retry
  EXPECT_FALSE(disk.Exists("f.bin"));
}

// Appenders queued on the append lock are waiting, not "in the device":
// disk.queue_depth must not count their lock wait (the old code opened
// the op scope before taking the lock, so one slow append made the
// device look four-deep busy).
TEST_F(DiskFaultTest, AppendQueueDepthExcludesLockWait) {
  DiskDevice disk(TestDir("append_depth"), kPcieSsdProfile);
  ASSERT_TRUE(fault::Configure("disk.append:delay@ms=80,once").ok());

  std::atomic<bool> done{false};
  std::atomic<int64_t> max_depth{0};
  std::thread watcher([&] {
    while (!done.load()) {
      const int64_t d = disk.queue_depth();
      int64_t prev = max_depth.load();
      while (d > prev && !max_depth.compare_exchange_weak(prev, d)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kAppenders = 4;
  std::mutex mu;
  std::vector<uint64_t> offsets;
  std::atomic<int> failed{0};
  std::vector<std::thread> appenders;
  for (int t = 0; t < kAppenders; ++t) {
    appenders.emplace_back([&] {
      uint64_t off = 0;
      if (!disk.Append("log.bin", "abcd", 4, &off).ok()) {
        failed.fetch_add(1);
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      offsets.push_back(off);
    });
  }
  for (auto& th : appenders) th.join();
  done.store(true);
  watcher.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_LE(max_depth.load(), 1);
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(offsets, (std::vector<uint64_t>{0, 4, 8, 12}));
  auto size = disk.FileSize("log.bin");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 16u);
}

// --- Striped devices ---

TEST(DiskDevice, StripedRoundtripSpansAllParts) {
  const DiskProfile profile{"stripe4", 75e6, 4, 8};  // 8-byte units
  const std::string dir = TestDir("stripe_rw");
  DiskDevice disk(dir, profile);
  EXPECT_EQ(disk.stripe(), 4);
  EXPECT_DOUBLE_EQ(profile.aggregate_bandwidth_bytes_per_sec(), 300e6);

  std::string data(50, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + i % 26);
  }
  ASSERT_TRUE(disk.Write("f.bin", 0, data.data(), data.size()).ok());

  // Physical layout: four .s<d> part files, no plain "f.bin".
  namespace fs = std::filesystem;
  EXPECT_FALSE(fs::exists(fs::path(dir) / "f.bin"));
  for (int d = 0; d < 4; ++d) {
    EXPECT_TRUE(
        fs::exists(fs::path(dir) / ("f.bin.s" + std::to_string(d))));
  }

  auto size = disk.FileSize("f.bin");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 50u);

  std::string out(50, '\0');
  ASSERT_TRUE(disk.Read("f.bin", 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, data);
  // Unaligned read crossing several stripe units.
  std::string mid(29, '\0');
  ASSERT_TRUE(disk.Read("f.bin", 13, mid.data(), mid.size()).ok());
  EXPECT_EQ(mid, data.substr(13, 29));

  ASSERT_TRUE(disk.Truncate("f.bin", 21).ok());
  auto cut = disk.FileSize("f.bin");
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(*cut, 21u);
  std::string head(21, '\0');
  ASSERT_TRUE(disk.Read("f.bin", 0, head.data(), head.size()).ok());
  EXPECT_EQ(head, data.substr(0, 21));
  EXPECT_FALSE(disk.Read("f.bin", 0, out.data(), 22).ok());  // past EOF

  ASSERT_TRUE(disk.Remove("f.bin").ok());
  EXPECT_FALSE(disk.Exists("f.bin"));
  for (int d = 0; d < 4; ++d) {
    EXPECT_FALSE(
        fs::exists(fs::path(dir) / ("f.bin.s" + std::to_string(d))));
  }
}

TEST(DiskDevice, StripedAppendCrossesUnitBoundaries) {
  const DiskProfile profile{"stripe3", 75e6, 3, 8};
  DiskDevice disk(TestDir("stripe_append"), profile);
  uint64_t off = 123;
  ASSERT_TRUE(disk.Append("log.bin", "0123456789", 10, &off).ok());
  EXPECT_EQ(off, 0u);
  ASSERT_TRUE(disk.Append("log.bin", "abcdefghij", 10, &off).ok());
  EXPECT_EQ(off, 10u);
  auto size = disk.FileSize("log.bin");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 20u);
  std::string out(20, '\0');
  ASSERT_TRUE(disk.Read("log.bin", 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, "0123456789abcdefghij");
}

// --- Async read merging ---

// Eight adjacent cold pages submitted in one batch coalesce into a single
// vectored request: 7 of the 8 pages rode along merged.
TEST(AsyncIo, MergesAdjacentPageReads) {
  DiskDevice disk(TestDir("merge"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < 8; ++i) {
    page[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(16);
  AsyncIoService io(2, -1, IoBackendKind::kThreads);
  std::mutex mu;
  std::set<uint64_t> seen;
  auto ticket = io.SubmitReads(&pool, &*file, {0, 1, 2, 3, 4, 5, 6, 7},
                               [&](uint64_t no, PageHandle h) {
                                 std::lock_guard<std::mutex> lock(mu);
                                 if (h.valid() && h.data()[0] == no) {
                                   seen.insert(no);
                                 }
                               });
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(disk.merged_reads(), 7u);
  EXPECT_EQ(disk.bytes_read(), 8u * kPageSize);
}

// On a striped device with page-sized units, pages p and p+stripe are
// physically adjacent on the same backing file: a batch of 8 logical
// pages becomes one merged run per stripe, never a request that spans
// two backing files.
TEST(AsyncIo, MergedReadsRespectStripeBoundaries) {
  const DiskProfile profile{"stripe2", 75e6, 2, kPageSize};
  DiskDevice disk(TestDir("merge_stripe"), profile);
  auto file = PageFile::Open(&disk, "p.pf");
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < 8; ++i) {
    page[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(16);
  AsyncIoService io(2, -1, IoBackendKind::kThreads);
  std::mutex mu;
  std::set<uint64_t> seen;
  auto ticket = io.SubmitReads(&pool, &*file, {0, 1, 2, 3, 4, 5, 6, 7},
                               [&](uint64_t no, PageHandle h) {
                                 std::lock_guard<std::mutex> lock(mu);
                                 if (h.valid() && h.data()[0] == no) {
                                   seen.insert(no);
                                 }
                               });
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_EQ(seen.size(), 8u);
  // Two merged runs of 4 pages each (one per stripe): 2 * (4-1) merged.
  EXPECT_EQ(disk.merged_reads(), 6u);
  EXPECT_EQ(disk.bytes_read(), 8u * kPageSize);
  EXPECT_EQ(disk.stripe_queue_depth(0), 0);
  EXPECT_EQ(disk.stripe_queue_depth(1), 0);
}

// The callback contract on failures: every submitted page gets its
// callback exactly once; pages that cannot be read deliver an invalid
// handle, and the claim is withdrawn so the pool stays healthy.
TEST(AsyncIo, FailedReadsStillDeliverCallbacks) {
  DiskDevice disk(TestDir("async_cb_fail"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < 2; ++i) {
    page[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(8);
  AsyncIoService io(1, -1, IoBackendKind::kThreads);
  std::atomic<int> calls{0};
  std::atomic<int> invalid{0};
  auto ticket = io.SubmitReads(&pool, &*file, {0, 1, 7},
                               [&](uint64_t, PageHandle h) {
                                 calls.fetch_add(1);
                                 if (!h.valid()) invalid.fetch_add(1);
                               });
  const Status s = ticket.Wait();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(invalid.load(), 1);  // page 7 is past EOF
  EXPECT_EQ(pool.io_in_flight(), 0);
  // The failed claim was withdrawn, not left as a poisoned frame.
  EXPECT_FALSE(pool.Fetch(&*file, 7).ok());
  EXPECT_TRUE(pool.Fetch(&*file, 0).ok());
}

// An injected transient fault fails the whole merged request as one
// attempt; with retries left, each page falls back to a synchronous read
// that succeeds, so the batch as a whole still completes.
TEST_F(DiskFaultTest, TransientFaultOnMergedReadFallsBackPerPage) {
  DiskDevice disk(TestDir("merge_fault"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < 4; ++i) {
    page[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  ASSERT_TRUE(fault::Configure("disk.read:io_error@n=1").ok());
  BufferPool pool(8);
  AsyncIoService io(2, -1, IoBackendKind::kThreads);
  std::mutex mu;
  std::set<uint64_t> seen;
  auto ticket = io.SubmitReads(&pool, &*file, {0, 1, 2, 3},
                               [&](uint64_t no, PageHandle h) {
                                 std::lock_guard<std::mutex> lock(mu);
                                 if (h.valid() && h.data()[0] == no) {
                                   seen.insert(no);
                                 }
                               });
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(disk.injected_faults(), 1u);  // one roll per merged request
  EXPECT_EQ(disk.io_retries(), 1u);       // the group counted as one retry
  // Only the per-page fallback reads were accounted (the poisoned
  // vectored read does not count as delivered bytes).
  EXPECT_EQ(disk.bytes_read(), 4u * kPageSize);
}

// --- Backend parity ---

// Swapping the submission backend cannot change results: the same pages
// read through the thread-pool and io_uring backends are bit-identical.
TEST(AsyncIo, BackendParityBitIdentical) {
  DiskDevice disk(TestDir("parity"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  ASSERT_TRUE(file.ok());
  constexpr int kPages = 16;
  std::vector<std::vector<uint8_t>> want(kPages);
  uint64_t rng = 0xfeedbeefu;
  for (int i = 0; i < kPages; ++i) {
    want[i].resize(kPageSize);
    for (size_t b = 0; b < kPageSize; ++b) {
      want[i][b] = static_cast<uint8_t>(SplitMix64(rng));
    }
    ASSERT_TRUE(file->AppendPage(want[i].data()).ok());
  }

  auto read_all = [&](IoBackendKind kind) {
    BufferPool pool(kPages * 2);
    AsyncIoService io(2, -1, kind);
    std::vector<std::vector<uint8_t>> out(kPages);
    std::mutex mu;
    std::vector<uint64_t> pages(kPages);
    for (int i = 0; i < kPages; ++i) pages[i] = static_cast<uint64_t>(i);
    auto ticket = io.SubmitReads(
        &pool, &*file, pages, [&](uint64_t no, PageHandle h) {
          std::lock_guard<std::mutex> lock(mu);
          if (h.valid()) {
            out[no].assign(h.data(), h.data() + kPageSize);
          }
        });
    EXPECT_TRUE(ticket.Wait().ok()) << IoBackendKindName(kind);
    return out;
  };

  const auto via_threads = read_all(IoBackendKind::kThreads);
  EXPECT_EQ(via_threads, want);
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable in this kernel/container";
  }
  const auto via_uring = read_all(IoBackendKind::kUring);
  EXPECT_EQ(via_uring, want);
  EXPECT_EQ(via_uring, via_threads);
}

// The uring backend end to end: explicit selection, a queue depth smaller
// than the batch (exercising submit backpressure), and the
// disk.uring_submits instrument counting every SQE.
TEST(AsyncIo, UringBackendSubmitsThroughTheRing) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable in this kernel/container";
  }
  DiskDevice disk(TestDir("uring"), kPcieSsdProfile);
  auto file = PageFile::Open(&disk, "p.pf");
  ASSERT_TRUE(file.ok());
  constexpr int kPages = 24;
  std::vector<uint8_t> page(kPageSize);
  for (int i = 0; i < kPages; ++i) {
    page[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(kPages * 2);
  AsyncIoService io(1, -1, IoBackendKind::kUring, /*queue_depth=*/4);
  EXPECT_STREQ(io.backend_name(), "uring");
  obs::Registry registry;
  std::vector<obs::Registration> regs;
  io.RegisterMetrics(&registry, 0, &regs);

  // Every other page: 12 non-adjacent requests through a depth-4 ring.
  std::vector<uint64_t> pages;
  for (int i = 0; i < kPages; i += 2) pages.push_back(i);
  std::mutex mu;
  std::set<uint64_t> seen;
  auto ticket = io.SubmitReads(&pool, &*file, pages,
                               [&](uint64_t no, PageHandle h) {
                                 std::lock_guard<std::mutex> lock(mu);
                                 if (h.valid() && h.data()[0] == no) {
                                   seen.insert(no);
                                 }
                               });
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_EQ(seen.size(), pages.size());
  EXPECT_EQ(disk.merged_reads(), 0u);  // nothing adjacent to merge
  uint64_t submits = 0;
  registry.Visit([&](const obs::InstrumentInfo& info) {
    if (info.name == "disk.uring_submits" && info.counter != nullptr) {
      submits = info.counter->value();
    }
  });
  EXPECT_EQ(submits, pages.size());
}

}  // namespace
}  // namespace tgpp
