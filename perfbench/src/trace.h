#ifndef LIMEQO_PERFBENCH_TRACE_H_
#define LIMEQO_PERFBENCH_TRACE_H_

// Timing primitives shared by every workload: the clock, order statistics,
// an exact integer-nanosecond latency histogram, and the span recorder of
// the traced run (written out as Chrome trace-event JSON).

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// Seconds between two NowNs() readings.
inline double SecondsBetween(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// The q-quantile (q in [0, 1]) of `values`, interpolating linearly between
/// the two nearest order statistics. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// "p95" for 0.95.
std::string QuantileLabel(double q);

/// A latency distribution in whole nanoseconds with constant memory: one
/// counter per nanosecond below `direct_limit_ns`, raw values above it.
/// Quantiles are exact (same rule as Quantile above).
class NsHistogram {
 public:
  explicit NsHistogram(int64_t direct_limit_ns = int64_t{1} << 18);

  void Add(int64_t ns) {
    if (ns < 0) ns = 0;
    if (ns < static_cast<int64_t>(direct_.size())) {
      ++direct_[static_cast<size_t>(ns)];
    } else {
      overflow_.push_back(ns);
    }
    ++count_;
  }
  void Merge(const NsHistogram& other);
  uint64_t count() const { return count_; }
  double Quantile(double q) const;

 private:
  /// The rank-th smallest value (0-based).
  int64_t ValueAtRank(uint64_t rank) const;

  std::vector<uint32_t> direct_;
  std::vector<int64_t> overflow_;
  uint64_t count_ = 0;
};

/// One traced interval. `parent` is the id of the span that caused it (0 at
/// the root); spans of one request (an exploration step, or a sampled
/// serving batch) share `request`.
struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int tid = 0;
  /// Optional count attached to the span (ALS sweeps of a fit); -1 = none.
  int64_t arg = -1;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// In-memory span store for the traced run. Thread-safe; spans are kept
/// until the run ends and written once.
class Tracer {
 public:
  Tracer() : origin_ns_(NowNs()) {}

  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);
  void RecordAll(const std::vector<Span>& spans);

  /// Spans named `name` that started inside [begin_ns, end_ns).
  std::vector<Span> Named(const char* name, int64_t begin_ns,
                          int64_t end_ns) const;
  /// Self time of every span named `name` in the window: its duration
  /// minus the part covered by its direct children (milliseconds).
  std::vector<double> SelfMs(const char* name, int64_t begin_ns,
                             int64_t end_ns) const;
  /// Total self time per span name over the window (milliseconds).
  std::map<std::string, double> SelfMsByName(int64_t begin_ns,
                                             int64_t end_ns) const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps), loadable by Perfetto and chrome://tracing.
  bool WriteChromeJson(const std::string& path) const;

 private:
  /// Self time of each span in `spans` indexed like `spans`.
  static std::vector<int64_t> SelfNs(const std::vector<Span>& all);

  const int64_t origin_ns_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// The span a thread is currently inside: new ScopedSpans on this thread
/// take it as their parent and inherit its request id.
struct SpanContext {
  int64_t parent = 0;
  int64_t request = 0;
};
SpanContext& CurrentContext();
/// Small stable id of the calling thread, for the trace's tid field.
int ThreadTag();

/// Records one span from construction to destruction, nested under the
/// calling thread's current span. A null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(int64_t arg) { span_.arg = arg; }

 private:
  Tracer* tracer_;
  Span span_;
  SpanContext saved_;
};

}  // namespace perfbench

#endif  // LIMEQO_PERFBENCH_TRACE_H_
