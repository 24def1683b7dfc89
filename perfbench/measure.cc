#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace hi = tgpp::histogram_internal;

namespace {

// 1-based rank of the nearest-rank pct-th percentile of n samples. The
// epsilon keeps 99.9% of 10000 at rank 9990 despite binary rounding.
double NearestRank(double pct, size_t n) {
  return std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = NearestRank(pct, values.size());
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double TailPercentileFor(size_t n, size_t min_beyond) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly above the nearest-rank percentile.
    const double rank = NearestRank(pct, n);
    if (static_cast<double>(n) - rank >= static_cast<double>(min_beyond)) {
      return pct;
    }
  }
  return 0;
}

double Ratio(double num, double base) { return base == 0 ? 0 : num / base; }

uint64_t Buckets::total() const {
  uint64_t sum = 0;
  for (uint64_t c : counts) sum += c;
  return sum;
}

double Buckets::Quantile(double q) const {
  return static_cast<double>(
      hi::QuantileFromBuckets(counts.data(), total(), q));
}

void Buckets::Add(const Buckets& other) {
  for (size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
}

Buckets BucketsOf(const tgpp::obs::LatencyHistogram& histogram) {
  // The registry exposes bucket counts only through the rendering of a
  // snapshot: one "  [lo, hi]: count" line per non-empty bucket.
  Buckets out;
  std::istringstream lines(histogram.SnapshotHistogram().ToString());
  std::string line;
  while (std::getline(lines, line)) {
    unsigned long long lo = 0, hi_bound = 0, count = 0;
    if (std::sscanf(line.c_str(), " [%llu, %llu]: %llu", &lo, &hi_bound,
                    &count) == 3) {
      out.counts[static_cast<size_t>(hi::BucketFor(lo))] += count;
    }
  }
  return out;
}

Snapshot Capture(const tgpp::obs::Registry& registry) {
  Snapshot snap;
  registry.Visit([&](const tgpp::obs::InstrumentInfo& info) {
    if (info.counter != nullptr) {
      snap.counters[info.name] += info.counter->value();
    } else if (info.histogram != nullptr) {
      snap.histograms[info.name].Add(BucketsOf(*info.histogram));
    }
  });
  return snap;
}

Delta::Delta(const Snapshot& before, const Snapshot& after) {
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    const uint64_t base = it == before.counters.end() ? 0 : it->second;
    counters_[name] = value >= base ? value - base : value;
  }
  for (const auto& [name, buckets] : after.histograms) {
    auto it = before.histograms.find(name);
    Buckets delta = buckets;
    if (it != before.histograms.end()) {
      bool reset = false;
      for (size_t i = 0; i < delta.counts.size(); ++i) {
        reset = reset || delta.counts[i] < it->second.counts[i];
      }
      if (!reset) {
        for (size_t i = 0; i < delta.counts.size(); ++i) {
          delta.counts[i] -= it->second.counts[i];
        }
      }
    }
    histograms_[name] = delta;
  }
}

uint64_t Delta::Count(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const Buckets& Delta::Histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? empty_ : it->second;
}

double Delta::Quantile(const std::string& name, double q, double scale) const {
  return Histogram(name).Quantile(q) / scale;
}

std::vector<Span> SpansOf(const std::vector<tgpp::trace::TraceEvent>& events) {
  std::vector<Span> spans;
  spans.reserve(events.size());
  for (const tgpp::trace::TraceEvent& e : events) {
    if (!e.is_span() || e.name == nullptr) continue;
    spans.push_back({e.name, e.tid, e.ts_nanos, e.ts_nanos + e.dur_nanos});
  }
  return spans;
}

std::map<std::string, int64_t> SelfTimeNanos(std::vector<Span> spans) {
  // Parents first: by thread, then start, then longest.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::map<std::string, int64_t> self;
  struct Open {
    const Span* span;
    int64_t covered;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& open) {
    const int64_t dur = open.span->end_ns - open.span->start_ns;
    self[open.span->name] += std::max<int64_t>(0, dur - open.covered);
  };
  int thread = 0;
  for (const Span& span : spans) {
    if (!stack.empty() && span.thread != thread) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
    }
    thread = span.thread;
    while (!stack.empty() && stack.back().span->end_ns <= span.start_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      const int64_t end = std::min(span.end_ns, stack.back().span->end_ns);
      stack.back().covered += end - span.start_ns;
    }
    stack.push_back({&span, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return self;
}

}  // namespace perfbench
