#include "util/thread_pool.h"

#include <time.h>

#include <algorithm>

#include "util/trace.h"

namespace tgpp {

namespace {
int64_t ThreadCpuNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
}  // namespace

ThreadPool::ThreadPool(int num_threads, std::string name, int trace_machine)
    : name_(std::move(name)), trace_machine_(trace_machine) {
  TGPP_CHECK(num_threads > 0) << "pool " << name_;
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  const int64_t now =
      obs::kMetricsCompiledOut ? 0 : obs::MonotonicNanos();
  {
    std::lock_guard<std::mutex> lock(mu_);
    TGPP_CHECK(!shutdown_) << "submit after shutdown on pool " << name_;
    queue_.push_back(QueuedTask{std::move(task), now});
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

double ThreadPool::TotalTaskCpuSeconds() const {
  return static_cast<double>(task_cpu_nanos_.load(std::memory_order_relaxed)) *
         1e-9;
}

void ThreadPool::RegisterMetrics(obs::Registry* registry,
                                 const std::string& prefix, int machine,
                                 std::vector<obs::Registration>* out) {
  obs::TryRegister(registry, out, prefix + ".queue_wait_ns", machine,
                   &queue_wait_);
  obs::TryRegister(registry, out, prefix + ".task_latency_ns", machine,
                   &task_latency_);
}

void ThreadPool::WorkerLoop(int worker_id) {
  trace::SetCurrentMachine(trace_machine_);
  trace::SetCurrentThreadName(name_ + "/" + std::to_string(worker_id));
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    int64_t wall0 = 0;
    if constexpr (!obs::kMetricsCompiledOut) {
      wall0 = obs::MonotonicNanos();
      queue_wait_.Record(static_cast<uint64_t>(wall0 - task.enqueue_nanos));
    }
    const int64_t t0 = ThreadCpuNanos();
    task.fn();
    task_cpu_nanos_.fetch_add(ThreadCpuNanos() - t0,
                              std::memory_order_relaxed);
    if constexpr (!obs::kMetricsCompiledOut) {
      task_latency_.Record(
          static_cast<uint64_t>(obs::MonotonicNanos() - wall0));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<int64_t>(grain, 1);
  const int64_t n = end - begin;
  const int64_t max_chunks =
      std::min<int64_t>((n + grain - 1) / grain,
                        std::max(1, pool->num_threads() * 4));
  const int64_t chunk = (n + max_chunks - 1) / max_chunks;
  const int64_t num_chunks = (n + chunk - 1) / chunk;  // none empty

  // `remaining` changes only under `mu`: the waiter returns (destroying
  // mu and cv) as soon as it sees zero, so a worker must not decrement
  // outside the lock and notify afterwards.
  int64_t remaining = num_chunks;
  std::mutex mu;
  std::condition_variable cv;

  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t lo = begin + c * chunk;
    const int64_t hi = std::min(end, lo + chunk);
    pool->Submit([&, lo, hi] {
      fn(lo, hi);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace tgpp
