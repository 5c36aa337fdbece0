#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

std::string QuantileLabel(double q) {
  char buf[16];
  const double pct = q * 100.0;
  if (std::fabs(pct - std::round(pct)) < 1e-9) {
    std::snprintf(buf, sizeof(buf), "p%d", static_cast<int>(std::round(pct)));
  } else {
    std::snprintf(buf, sizeof(buf), "p%.1f", pct);
  }
  return buf;
}

NsHistogram::NsHistogram(int64_t direct_limit_ns)
    : direct_(static_cast<size_t>(direct_limit_ns), 0) {}

void NsHistogram::Merge(const NsHistogram& other) {
  if (direct_.size() < other.direct_.size()) {
    direct_.resize(other.direct_.size(), 0);
  }
  for (size_t i = 0; i < other.direct_.size(); ++i) {
    direct_[i] += other.direct_[i];
  }
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  count_ += other.count_;
}

int64_t NsHistogram::ValueAtRank(uint64_t rank) const {
  uint64_t seen = 0;
  for (size_t ns = 0; ns < direct_.size(); ++ns) {
    seen += direct_[ns];
    if (seen > rank) return static_cast<int64_t>(ns);
  }
  std::vector<int64_t> tail = overflow_;
  const size_t index = static_cast<size_t>(rank - seen);
  std::nth_element(tail.begin(), tail.begin() + static_cast<long>(index),
                   tail.end());
  return tail[index];
}

double NsHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  const uint64_t lo = static_cast<uint64_t>(std::floor(rank));
  const uint64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = rank - static_cast<double>(lo);
  const double a = static_cast<double>(ValueAtRank(lo));
  const double b = static_cast<double>(ValueAtRank(hi));
  return a + frac * (b - a);
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::RecordAll(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<Span> Tracer::Named(const char* name, int64_t begin_ns,
                                int64_t end_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  const std::string wanted = name;
  for (const Span& s : spans_) {
    if (s.start_ns >= begin_ns && s.start_ns < end_ns && wanted == s.name) {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<int64_t> Tracer::SelfNs(const std::vector<Span>& all) {
  std::unordered_map<int64_t, size_t> index;
  index.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;
  std::vector<int64_t> self(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    self[i] = all[i].end_ns - all[i].start_ns;
  }
  // Children run inside their parent on the parent's thread and never
  // overlap each other, so the covered part is the sum of their durations.
  for (const Span& s : all) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      self[it->second] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

std::vector<double> Tracer::SelfMs(const char* name, int64_t begin_ns,
                                   int64_t end_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<int64_t> self = SelfNs(spans_);
  const std::string wanted = name;
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.start_ns >= begin_ns && s.start_ns < end_ns && wanted == s.name) {
      out.push_back(static_cast<double>(self[i]) * 1e-6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMsByName(int64_t begin_ns,
                                                   int64_t end_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<int64_t> self = SelfNs(spans_);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.start_ns >= begin_ns && s.start_ns < end_ns) {
      out[s.name] += static_cast<double>(self[i]) * 1e-6;
    }
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"limeqo\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %lld, \"parent\": %lld, "
                 "\"request\": %lld",
                 s.name, s.tid,
                 static_cast<double>(s.start_ns - origin_ns_) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
    if (s.arg >= 0) {
      std::fprintf(f, ", \"count\": %lld", static_cast<long long>(s.arg));
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

SpanContext& CurrentContext() {
  thread_local SpanContext context;
  return context;
}

int ThreadTag() {
  static std::atomic<int> next{1};
  thread_local const int tag = next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  SpanContext& context = CurrentContext();
  saved_ = context;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = context.parent;
  span_.request = context.request;
  span_.tid = ThreadTag();
  context.parent = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tracer_->Record(span_);
  CurrentContext() = saved_;
}

}  // namespace perfbench
