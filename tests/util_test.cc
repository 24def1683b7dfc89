// Utility layer: bitmap, thread pool, memory budget, histogram, RNG.

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>

#include "util/bitmap.h"
#include "util/histogram.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tgpp {
namespace {

// --- AtomicBitmap ---

TEST(Bitmap, SetTestClear) {
  AtomicBitmap bitmap(200);
  EXPECT_FALSE(bitmap.Test(0));
  bitmap.Set(0);
  bitmap.Set(63);
  bitmap.Set(64);
  bitmap.Set(199);
  EXPECT_TRUE(bitmap.Test(0));
  EXPECT_TRUE(bitmap.Test(63));
  EXPECT_TRUE(bitmap.Test(64));
  EXPECT_TRUE(bitmap.Test(199));
  EXPECT_FALSE(bitmap.Test(100));
  EXPECT_EQ(bitmap.CountSet(), 4u);
  bitmap.Clear(63);
  EXPECT_FALSE(bitmap.Test(63));
  EXPECT_EQ(bitmap.CountSet(), 3u);
}

TEST(Bitmap, TestAndSetReportsFirstSetter) {
  AtomicBitmap bitmap(64);
  EXPECT_TRUE(bitmap.TestAndSet(7));
  EXPECT_FALSE(bitmap.TestAndSet(7));
}

TEST(Bitmap, SetAllRespectsSize) {
  AtomicBitmap bitmap(70);  // crosses a word boundary
  bitmap.SetAll();
  EXPECT_EQ(bitmap.CountSet(), 70u);
  bitmap.ClearAll();
  EXPECT_EQ(bitmap.CountSet(), 0u);
  EXPECT_FALSE(bitmap.AnySet());
}

TEST(Bitmap, ForEachSetRangeBoundaries) {
  AtomicBitmap bitmap(256);
  const std::set<uint64_t> bits = {0, 1, 63, 64, 65, 127, 128, 200, 255};
  for (uint64_t b : bits) bitmap.Set(b);

  std::set<uint64_t> seen;
  bitmap.ForEachSet(1, 255, [&](uint64_t b) { seen.insert(b); });
  std::set<uint64_t> expected;
  for (uint64_t b : bits) {
    if (b >= 1 && b < 255) expected.insert(b);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(bitmap.CountSetInRange(64, 129), 4u);  // 64, 65, 127, 128
}

TEST(Bitmap, ForEachSetAscending) {
  AtomicBitmap bitmap(512);
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) bitmap.Set(rng.NextBounded(512));
  uint64_t prev = 0;
  bool first = true;
  bitmap.ForEachSet([&](uint64_t b) {
    if (!first) EXPECT_GT(b, prev);
    prev = b;
    first = false;
  });
}

TEST(Bitmap, ConcurrentSetsAllLand) {
  AtomicBitmap bitmap(4096);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&bitmap, t] {
      for (uint64_t b = t; b < 4096; b += 4) bitmap.Set(b);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bitmap.CountSet(), 4096u);
}

// --- ThreadPool ---

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, 0, 1000, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForNeverPassesAnEmptyChunk) {
  // 5 items over at most 4 chunks rounds up to chunks of 2, so only 3
  // chunks are needed; a 4th would start past the end.
  ThreadPool pool(1);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> calls;
  ParallelFor(&pool, 0, 5, 1, [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    calls.emplace_back(lo, hi);
  });
  for (const auto& [lo, hi] : calls) EXPECT_LT(lo, hi);
  EXPECT_EQ(calls.size(), 3u);
}

// Many short calls back to back: each call's mutex and condition
// variable live on its stack frame, so a worker that still touches them
// after the caller has returned shows up here (under TSan, or as a
// crash).
TEST(ThreadPool, ParallelForBackToBackCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<int64_t> sum{0};
    ParallelFor(&pool, 0, 8, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
    });
    ASSERT_EQ(sum.load(), 28) << "round " << round;
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 5, 5, 1, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, AccountsTaskCpuTime) {
  ThreadPool pool(1);
  pool.Submit([] {
    volatile uint64_t x = 0;
    for (int i = 0; i < 2000000; ++i) x += i;
  });
  pool.Wait();
  EXPECT_GT(pool.TotalTaskCpuSeconds(), 0.0);
}

// --- MemoryBudget ---

TEST(MemoryBudget, ChargeAndRelease) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryCharge(600).ok());
  EXPECT_EQ(budget.used_bytes(), 600u);
  EXPECT_EQ(budget.available_bytes(), 400u);
  EXPECT_TRUE(budget.TryCharge(400).ok());
  EXPECT_FALSE(budget.TryCharge(1).ok());
  budget.Release(500);
  EXPECT_TRUE(budget.TryCharge(500).ok());
}

TEST(MemoryBudget, OverchargeIsOutOfMemoryAndNotApplied) {
  MemoryBudget budget(100);
  Status s = budget.TryCharge(101);
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(MemoryBudget, TracksPeak) {
  MemoryBudget budget(1000);
  ASSERT_TRUE(budget.TryCharge(700).ok());
  budget.Release(700);
  ASSERT_TRUE(budget.TryCharge(100).ok());
  EXPECT_EQ(budget.peak_bytes(), 700u);
  budget.ResetUsage();
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_EQ(budget.peak_bytes(), 0u);
}

TEST(MemoryBudget, ScopedChargeReleasesOnExit) {
  MemoryBudget budget(100);
  {
    ScopedCharge charge(&budget, 60);
    EXPECT_TRUE(charge.ok());
    EXPECT_EQ(budget.used_bytes(), 60u);
  }
  EXPECT_EQ(budget.used_bytes(), 0u);
  {
    ScopedCharge charge(&budget, 200);
    EXPECT_FALSE(charge.ok());
    EXPECT_EQ(budget.used_bytes(), 0u);
  }
}

TEST(MemoryBudget, ConcurrentChargesNeverExceedTotal) {
  MemoryBudget budget(10000);
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (budget.TryCharge(7).ok()) granted.fetch_add(7);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(granted.load(), 10000u);
  EXPECT_EQ(budget.used_bytes(), granted.load());
}

// --- Histogram ---

TEST(Histogram, BasicStats) {
  Histogram h;
  for (uint64_t v : {1, 2, 4, 8, 100}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 115u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 23.0);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.Add(10);
  b.Add(20);
  b.Add(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 60u);
  EXPECT_EQ(a.max(), 30u);
}

TEST(Histogram, QuantilesAreMonotonic) {
  Histogram h;
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) h.Add(rng.NextBounded(1000000));
  EXPECT_LE(h.ApproxQuantile(0.1), h.ApproxQuantile(0.5));
  EXPECT_LE(h.ApproxQuantile(0.5), h.ApproxQuantile(0.99));
  EXPECT_LE(h.Quantile(0.1), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
}

TEST(Histogram, QuantileOfConstantDistributionIsExact) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Add(42);
  // Every value is 42, so every quantile clamps to [min, max] = [42, 42].
  for (double q : {0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 42.0) << "q=" << q;
  }
}

TEST(Histogram, QuantileOnKnownBimodalDistribution) {
  // 90 small values and 10 large ones: the median must land in the small
  // mode's bucket ([1, 2)) and p95 in the large mode's ([2^20, 2^21),
  // clamped to the observed max).
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Add(1);
  for (int i = 0; i < 10; ++i) h.Add(1u << 20);
  EXPECT_GE(h.Quantile(0.5), 1.0);
  EXPECT_LT(h.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), static_cast<double>(1u << 20));
}

TEST(Histogram, QuantileUniformWithinBucketAccuracy) {
  // Uniform over [0, 1000): exponential buckets + linear interpolation
  // within a bucket keep the estimate within one bucket's width (a factor
  // of 2) of the true quantile.
  Histogram h;
  for (uint64_t v = 0; v < 1000; ++v) h.Add(v);
  for (double q : {0.25, 0.5, 0.9}) {
    const double truth = q * 1000;
    EXPECT_GE(h.Quantile(q), truth / 2) << "q=" << q;
    EXPECT_LE(h.Quantile(q), truth * 2) << "q=" << q;
  }
}

TEST(Histogram, MergedQuantilesMatchCombinedHistogram) {
  // Merging must produce bucket-identical state to feeding one histogram
  // all the values, so the quantiles agree exactly.
  Histogram lo, hi, all;
  Xoshiro256 rng(11);
  for (int i = 0; i < 500; ++i) {
    const uint64_t small = rng.NextBounded(100);
    const uint64_t large = 10000 + rng.NextBounded(100000);
    lo.Add(small);
    hi.Add(large);
    all.Add(small);
    all.Add(large);
  }
  lo.Merge(hi);
  EXPECT_EQ(lo.count(), all.count());
  EXPECT_EQ(lo.sum(), all.sum());
  for (double q : {0.1, 0.5, 0.75, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(lo.Quantile(q), all.Quantile(q)) << "q=" << q;
  }
}

// --- RNG ---

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff_seed = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    all_equal &= (va == b.Next());
    any_diff_seed |= (va != c.Next());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, BoundedStaysInBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, Mix64IsDeterministic) {
  EXPECT_EQ(Mix64(123), Mix64(123));
  EXPECT_NE(Mix64(123), Mix64(124));
}

}  // namespace
}  // namespace tgpp
