// The benchmark's own arithmetic: sample statistics, deltas of the obs
// registry across a span, self time of nested trace spans, and ratios
// reported with their base. Everything here is a pure function of its
// inputs (the registry and tracer are only read by the Capture helpers),
// so measure_test.cc can check it without running a workload.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/histogram.h"
#include "util/trace.h"

namespace perfbench {

// --- sample statistics -----------------------------------------------------

// Median of `values` (mean of the middle two for an even count); 0 when
// empty.
double Median(std::vector<double> values);

// Nearest-rank percentile: the smallest sample with at least pct% of the
// samples at or below it. 0 when empty.
double Percentile(std::vector<double> values, double pct);

// The highest of 99.9, 99, 95, 90, 75 and 50 that leaves at least
// `min_beyond` of `n` samples above it, or 0 when even the median does
// not. A tail percentile is only reported where enough samples lie
// beyond it to make it repeatable.
double TailPercentileFor(size_t n, size_t min_beyond = 10);

// num / base, or 0 when the base is 0. Callers report the base as its own
// metric beside the ratio.
double Ratio(double num, double base);

// --- obs registry deltas ---------------------------------------------------

// Bucket counts of one latency histogram (the util/histogram.h layout).
struct Buckets {
  std::array<uint64_t, tgpp::histogram_internal::kNumBuckets> counts{};

  uint64_t total() const;
  // Interpolated quantile, the same estimator the program's own
  // histograms use; 0 when empty.
  double Quantile(double q) const;
  void Add(const Buckets& other);
};

// Every counter and histogram in a registry at one instant, summed over
// machines. Gauges are levels, not flows, so they are not kept.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Buckets> histograms;
};

// Reads the registry (takes its lock once).
Snapshot Capture(const tgpp::obs::Registry& registry);

// Bucket counts of a live histogram.
Buckets BucketsOf(const tgpp::obs::LatencyHistogram& histogram);

// What happened between two snapshots: counter deltas and per-bucket
// histogram deltas. An instrument absent from `before` counts from zero
// (it was registered inside the span); one absent from `after` is gone
// and reads as zero. Counters never run backwards, except when an owner
// resets them inside the span; such a counter reads as its `after` value.
class Delta {
 public:
  Delta(const Snapshot& before, const Snapshot& after);

  uint64_t Count(const std::string& name) const;
  const Buckets& Histogram(const std::string& name) const;
  // Histogram quantile in the histogram's own unit (ns) divided by `scale`.
  double Quantile(const std::string& name, double q, double scale) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Buckets> histograms_;
  Buckets empty_;
};

// --- trace spans -----------------------------------------------------------

struct Span {
  std::string name;
  int thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Complete spans ('X' events) of a tracer snapshot; instants are dropped.
std::vector<Span> SpansOf(const std::vector<tgpp::trace::TraceEvent>& events);

// Total self time per span name: each span's duration minus the part of
// it that its direct children cover. A child is a span on the same thread
// that starts inside its parent; a child that outlives its parent is
// clipped to the parent's end.
std::map<std::string, int64_t> SelfTimeNanos(std::vector<Span> spans);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
