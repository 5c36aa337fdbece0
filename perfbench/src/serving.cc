// The serving workloads: free-running serving threads over published
// snapshots while the train plane drains, refits and republishes.
//
//   serve-hot    one ExplorationEngine over JOB after a LimeQO offline
//                pass; uniform arrivals; refits are tiny, so the
//                decision/report path is the blocking step.
//   serve-fleet  a 2-shard ShardedServingTier over a CEB-sized (3133 x 49)
//                synthetic world seeded by a Random pass; uniform
//                arrivals; observation writes and refits bound throughput
//                through queue back-pressure.
//
// Each serving thread runs a closed loop of the production batched
// protocol: claim 16 serving indices, probe the snapshot version, decide,
// look the latency up, MakeObservation + Report. The harness (latencies
// and arrivals) is a table precomputed at set-up, so the timed loop only
// looks values up.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/als.h"
#include "core/engine.h"
#include "core/explorer.h"
#include "core/policy.h"
#include "core/serialization.h"
#include "core/shard_router.h"
#include "core/simdb_backend.h"
#include "layers.h"
#include "scenarios/scenario.h"
#include "scenarios/synthetic_backend.h"
#include "trace.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

namespace core = limeqo::core;

constexpr uint64_t kBatch = 16;
constexpr int kServingThreads = 2;
/// The databases are fixed workloads (JOB's canonical instance and one
/// CEB-sized synthetic world). --seed
/// drives the workload's random input: the arrival stream and the latency
/// noise. The system's own seeds (exploration tie-breaks, the serving
/// plane's epsilon and pick streams, ALS initialisation) are settings,
/// fixed at the values bench_serving uses.
constexpr uint64_t kJobWorldSeed = 42;
constexpr uint64_t kFleetWorldSeed = 4242;
constexpr size_t kNoiseRing = size_t{1} << 12;
/// The arrival stream repeats every kArrivalRing servings. The harness's
/// memory counts in peak_rss_mb, so the ring is kept at 2 MB per table.
constexpr size_t kArrivalRing = size_t{1} << 18;
/// Traced runs time one batch in kSampleEvery layer by layer, and keep
/// spans for the first kMaxSpanBatches sampled batches of each thread.
constexpr uint64_t kSampleEvery = 256;
constexpr size_t kMaxSpanBatches = 500;

/// The harness, precomputed at set-up: serving latency is the world's true
/// latency times a seeded noise ring indexed by serving index, and the
/// query of serving s is arrivals[s mod ring]. The lookups are what the
/// timed loop pays for the harness, so they are kept to a few loads: the
/// arrival ring carries each arrival's row offset into `truth` beside it,
/// and a copy of its first kBatch entries past its end, so that any batch
/// of queries is one contiguous slice the servers pass on without copying.
struct LatencyTable {
  int n = 0;
  int k = 0;
  std::vector<double> truth;        // n * k, row-major
  std::vector<double> noise;        // kNoiseRing
  std::vector<int> arrivals;        // kArrivalRing + kBatch
  std::vector<uint32_t> row_start;  // kArrivalRing: arrivals[s] * k
  std::vector<double> default_latency;
  std::vector<double> optimal_latency;

  /// The latency of serving `seq` (whose query is Arrival(seq)) on `hint`.
  double Latency(uint64_t seq, int hint) const {
    return truth[row_start[seq & (kArrivalRing - 1)] +
                 static_cast<size_t>(hint)] *
           noise[seq & (kNoiseRing - 1)];
  }
  int Arrival(uint64_t seq) const {
    return arrivals[seq & (kArrivalRing - 1)];
  }
  /// The queries of servings [first, first + kBatch).
  std::span<const int> Batch(uint64_t first) const {
    return std::span<const int>(&arrivals[first & (kArrivalRing - 1)],
                                kBatch);
  }

  /// Sum over servings [begin, end) of per_row[query] x noise: what the
  /// servings would have cost with every row on that baseline plan.
  double BaselineSum(const std::vector<double>& per_row, uint64_t begin,
                     uint64_t end) const {
    double sum = 0.0;
    for (uint64_t s = begin; s < end; ++s) {
      sum += per_row[static_cast<size_t>(Arrival(s))] *
             noise[s & (kNoiseRing - 1)];
    }
    return sum;
  }
};

/// Arrivals are uniform over the rows, as in the repository's other serving
/// drivers; the arrival stream and the noise come from `seed`.
LatencyTable MakeTable(const limeqo::linalg::Matrix& truth, uint64_t seed) {
  LatencyTable t;
  t.n = static_cast<int>(truth.rows());
  t.k = static_cast<int>(truth.cols());
  t.truth.assign(truth.data(), truth.data() + truth.size());
  limeqo::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x7AB1E);
  t.noise.resize(kNoiseRing);
  double noise_sum = 0.0;
  for (double& v : t.noise) {
    v = rng.LogNormal(0.0, 0.05);
    noise_sum += v;
  }
  for (double& v : t.noise) v *= static_cast<double>(kNoiseRing) / noise_sum;

  t.arrivals.resize(kArrivalRing + kBatch);
  t.row_start.resize(kArrivalRing);
  for (size_t s = 0; s < kArrivalRing; ++s) {
    t.arrivals[s] =
        static_cast<int>(rng.NextUint64Below(static_cast<uint64_t>(t.n)));
    t.row_start[s] = static_cast<uint32_t>(t.arrivals[s] * t.k);
  }
  std::copy_n(t.arrivals.begin(), kBatch, t.arrivals.begin() + kArrivalRing);
  t.default_latency.resize(static_cast<size_t>(t.n));
  t.optimal_latency.resize(static_cast<size_t>(t.n));
  for (int q = 0; q < t.n; ++q) {
    double best = truth(static_cast<size_t>(q), 0);
    for (int h = 1; h < t.k; ++h) {
      best = std::min(best, truth(static_cast<size_t>(q),
                                  static_cast<size_t>(h)));
    }
    t.default_latency[static_cast<size_t>(q)] =
        truth(static_cast<size_t>(q), 0);
    t.optimal_latency[static_cast<size_t>(q)] = best;
  }
  return t;
}

core::OnlineExplorationOptions ServingOptions() {
  core::OnlineExplorationOptions online;
  online.epsilon = 0.1;
  online.min_predicted_ratio = 0.05;
  online.regret_budget_seconds = 1e9;
  online.seed = 31;
  return online;
}

core::AlsOptions ServingAlsOptions() {
  core::AlsOptions als;
  als.convergence_tol = 1e-3;
  als.seed = 7;
  return als;
}

/// The engine-side model: warm-started ALS, wrapped in a span recorder in
/// the traced run. `als_view` receives the completer for sweep counts.
std::unique_ptr<core::Predictor> MakeServingPredictor(
    Tracer* tracer, const core::AlsCompleter** als_view) {
  auto als = std::make_unique<core::AlsCompleter>(ServingAlsOptions());
  *als_view = als.get();
  auto predictor = std::make_unique<core::CompleterPredictor>(std::move(als));
  if (tracer == nullptr) return predictor;
  return std::make_unique<TracedPredictor>(std::move(predictor), *als_view,
                                           tracer, "als.refit");
}

/// What one serving thread measured.
struct ServerStats {
  NsHistogram batch_ns;
  uint64_t servings = 0;
  uint64_t bad_hints = 0;
  uint64_t reacquires = 0;
  std::vector<double> claim_ns;
  std::vector<double> choose_ns;
  std::vector<double> report_ns;
  std::vector<double> route_ns;
  std::vector<double> staleness;
  std::vector<double> backlog;
  std::vector<Span> spans;
};

/// Builds the sampled batch's spans: the batch, with its layer calls as
/// children, all sharing the batch's first serving index as request id.
class BatchSpans {
 public:
  BatchSpans(Tracer* tracer, ServerStats* stats, uint64_t first,
             int64_t start_ns)
      : tracer_(tracer), stats_(stats) {
    batch_.name = "serve.batch";
    batch_.id = tracer->NewId();
    batch_.request = static_cast<int64_t>(first);
    batch_.tid = ThreadTag();
    batch_.start_ns = start_ns;
  }
  void Child(const char* name, int64_t begin_ns, int64_t end_ns) {
    Span s;
    s.name = name;
    s.id = tracer_->NewId();
    s.parent = batch_.id;
    s.request = batch_.request;
    s.tid = batch_.tid;
    s.start_ns = begin_ns;
    s.end_ns = end_ns;
    children_.push_back(s);
  }
  void Finish(int64_t end_ns) {
    batch_.end_ns = end_ns;
    stats_->spans.push_back(batch_);
    stats_->spans.insert(stats_->spans.end(), children_.begin(),
                         children_.end());
  }

 private:
  Tracer* tracer_;
  ServerStats* stats_;
  Span batch_;
  std::vector<Span> children_;
};

/// Throughput is sampled in windows of this length while the servers run;
/// the reported throughput is the median window, which a transient stall
/// of the shared host moves less than the whole-run mean.
constexpr double kWindowSeconds = 0.1;

/// Runs `body(thread)` on kServingThreads threads released together, stops
/// them after `seconds` through `stop`, and returns the wall time from
/// release to the last join. Meanwhile the calling thread reads `claimed`
/// (servings claimed so far) every kWindowSeconds and appends each
/// window's servings per second to `window_rates`.
double RunTimed(double seconds, std::atomic<bool>* stop,
                const std::function<void(int)>& body,
                const std::function<uint64_t()>& claimed,
                std::vector<double>* window_rates) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kServingThreads);
  for (int t = 0; t < kServingThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  while (ready.load(std::memory_order_acquire) < kServingThreads) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  const int64_t t0 = NowNs();
  go.store(true, std::memory_order_release);
  const int windows = std::max(1, static_cast<int>(seconds / kWindowSeconds));
  uint64_t last_count = claimed();
  int64_t last_ns = t0;
  for (int i = 1; i <= windows; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(i * kWindowSeconds)));
    const uint64_t count = claimed();
    const int64_t now = NowNs();
    window_rates->push_back(static_cast<double>(count - last_count) /
                            SecondsBetween(last_ns, now));
    last_count = count;
    last_ns = now;
  }
  stop->store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  return SecondsBetween(t0, NowNs());
}

/// serve-hot's loop: the batched single-engine protocol.
template <bool kTraced>
void ServeHotLoop(core::ExplorationEngine* engine, const LatencyTable& table,
                  const std::atomic<bool>& stop, Tracer* tracer,
                  ServerStats* stats) {
  std::shared_ptr<const core::ServingSnapshot> snap = engine->snapshot();
  uint64_t version = snap->version();
  std::array<int, kBatch> hints{};
  const unsigned k = static_cast<unsigned>(table.k);
  uint64_t bad = 0;
  uint64_t batches = 0;
  int64_t t_prev = NowNs();
  while (!stop.load(std::memory_order_relaxed)) {
    const bool sampled = kTraced && batches % kSampleEvery == 0;
    ++batches;
    const uint64_t first = engine->AcquireServingIndices(kBatch);
    int64_t t_claimed = 0;
    if (kTraced && sampled) t_claimed = NowNs();
    if (engine->snapshot_version() != version) {
      snap = engine->snapshot();
      version = snap->version();
      if (kTraced) ++stats->reacquires;
    }
    if (kTraced && sampled) {
      const uint64_t published = snap->published_seq();
      stats->staleness.push_back(
          first > published ? static_cast<double>(first - published) : 0.0);
      stats->backlog.push_back(static_cast<double>(engine->queue_backlog()));
    }
    const std::span<const int> queries = table.Batch(first);
    int64_t t_choose = 0;
    if (kTraced && sampled) t_choose = NowNs();
    snap->ChooseHints(queries, first, std::span<int>(hints.data(), kBatch));
    int64_t t_chosen = 0;
    if (kTraced && sampled) t_chosen = NowNs();
    std::array<int64_t, kBatch> report_begin{};
    std::array<int64_t, kBatch> report_end{};
    for (size_t i = 0; i < kBatch; ++i) {
      const uint64_t seq = first + i;
      int hint = hints[i];
      if (static_cast<unsigned>(hint) >= k) {
        ++bad;
        hint = 0;
      }
      const double latency = table.Latency(seq, hint);
      const core::ServingObservation obs =
          snap->MakeObservation(seq, queries[i], hint, latency);
      if (kTraced && sampled) {
        report_begin[i] = NowNs();
        engine->Report(obs);
        report_end[i] = NowNs();
      } else {
        engine->Report(obs);
      }
    }
    const int64_t t_end = NowNs();
    stats->batch_ns.Add(t_end - t_prev);
    if (kTraced && sampled) {
      stats->claim_ns.push_back(static_cast<double>(t_claimed - t_prev));
      stats->choose_ns.push_back(static_cast<double>(t_chosen - t_choose));
      BatchSpans spans(tracer, stats, first, t_prev);
      const bool keep_spans = batches / kSampleEvery < kMaxSpanBatches;
      if (keep_spans) {
        spans.Child("engine.claim", t_prev, t_claimed);
        spans.Child("snapshot.choose", t_choose, t_chosen);
      }
      for (size_t i = 0; i < kBatch; ++i) {
        stats->report_ns.push_back(
            static_cast<double>(report_end[i] - report_begin[i]));
        if (keep_spans) {
          spans.Child("engine.report", report_begin[i], report_end[i]);
        }
      }
      if (keep_spans) spans.Finish(t_end);
    }
    t_prev = t_end;
  }
  stats->servings = batches * kBatch;
  stats->bad_hints = bad;
}

/// serve-fleet's loop: the routed protocol. Each serving of a claimed
/// global batch is routed to its shard, decided on that shard's snapshot
/// and reported under a shard-local index.
template <bool kTraced>
void ServeFleetLoop(core::ShardedServingTier* tier, const LatencyTable& table,
                    const std::atomic<bool>& stop, Tracer* tracer,
                    ServerStats* stats) {
  const int shards = tier->num_shards();
  std::vector<std::shared_ptr<const core::ServingSnapshot>> snaps(
      static_cast<size_t>(shards));
  std::vector<uint64_t> versions(static_cast<size_t>(shards), ~uint64_t{0});
  const unsigned k = static_cast<unsigned>(table.k);
  uint64_t bad = 0;
  uint64_t batches = 0;
  int64_t t_prev = NowNs();
  while (!stop.load(std::memory_order_relaxed)) {
    const bool sampled = kTraced && batches % kSampleEvery == 0;
    ++batches;
    const uint64_t first = tier->AcquireServingIndices(kBatch);
    int64_t t_claimed = 0;
    if (kTraced && sampled) t_claimed = NowNs();
    const bool keep_spans =
        kTraced && sampled && batches / kSampleEvery < kMaxSpanBatches;
    std::unique_ptr<BatchSpans> spans;
    if (keep_spans) {
      spans = std::make_unique<BatchSpans>(tracer, stats, first, t_prev);
      spans->Child("engine.claim", t_prev, t_claimed);
    }
    for (uint64_t i = 0; i < kBatch; ++i) {
      const uint64_t seq = first + i;
      const int q = table.Arrival(seq);
      int64_t t0 = 0;
      if (kTraced && sampled) t0 = NowNs();
      const int shard = tier->ShardOfRow(q);
      const int local = tier->LocalRowOf(q);
      core::ExplorationEngine& engine = tier->shard_engine(shard);
      int64_t t1 = 0;
      if (kTraced && sampled) t1 = NowNs();
      std::shared_ptr<const core::ServingSnapshot>& snap =
          snaps[static_cast<size_t>(shard)];
      if (snap == nullptr ||
          engine.snapshot_version() != versions[static_cast<size_t>(shard)]) {
        snap = engine.snapshot();
        versions[static_cast<size_t>(shard)] = snap->version();
        if (kTraced) ++stats->reacquires;
      }
      int hint = snap->ChooseHint(local, seq);
      int64_t t2 = 0;
      if (kTraced && sampled) t2 = NowNs();
      if (static_cast<unsigned>(hint) >= k) {
        ++bad;
        hint = 0;
      }
      const double latency = table.Latency(seq, hint);
      const uint64_t local_seq = engine.AcquireServingIndex();
      const core::ServingObservation obs =
          snap->MakeObservation(local_seq, local, hint, latency);
      if (kTraced && sampled) {
        const uint64_t published = snap->published_seq();
        stats->staleness.push_back(
            local_seq > published ? static_cast<double>(local_seq - published)
                                  : 0.0);
        stats->backlog.push_back(static_cast<double>(engine.queue_backlog()));
        const int64_t t3 = NowNs();
        engine.Report(obs);
        const int64_t t4 = NowNs();
        stats->route_ns.push_back(static_cast<double>(t1 - t0));
        stats->choose_ns.push_back(static_cast<double>(t2 - t1));
        stats->report_ns.push_back(static_cast<double>(t4 - t3));
        if (keep_spans) {
          spans->Child("router.route", t0, t1);
          spans->Child("snapshot.choose", t1, t2);
          spans->Child("engine.report", t3, t4);
        }
      } else {
        engine.Report(obs);
      }
    }
    const int64_t t_end = NowNs();
    stats->batch_ns.Add(t_end - t_prev);
    if (kTraced && sampled) {
      stats->claim_ns.push_back(static_cast<double>(t_claimed - t_prev));
    }
    if (keep_spans) spans->Finish(t_end);
    t_prev = t_end;
  }
  stats->servings = batches * kBatch;
  stats->bad_hints = bad;
}

/// Train-plane counters summed over a set of engines.
struct TrainCounters {
  uint64_t refits = 0;
  uint64_t refit_nanos = 0;
  uint64_t versions = 0;

  static TrainCounters Of(const std::vector<core::ExplorationEngine*>& all) {
    TrainCounters c;
    for (const core::ExplorationEngine* e : all) {
      c.refits += e->refits_completed();
      c.refit_nanos += e->refit_nanos();
      c.versions += e->snapshot_version();
    }
    return c;
  }
};

/// One timed serving phase, merged over the serving threads.
struct ServingPhase {
  double wall_s = 0.0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  uint64_t first_seq = 0;
  uint64_t servings = 0;
  TrainCounters train;
  std::vector<ServerStats> threads;
  NsHistogram batch_ns;
  std::vector<double> window_rates;
};

template <typename Loop>
ServingPhase Serve(const RunConfig& config,
                   const std::function<uint64_t()>& claimed,
                   const std::vector<core::ExplorationEngine*>& engines,
                   const Loop& loop) {
  const uint64_t first_seq = claimed();
  ServingPhase phase;
  phase.first_seq = first_seq;
  phase.threads.resize(kServingThreads);
  const TrainCounters before = TrainCounters::Of(engines);
  std::atomic<bool> stop{false};
  phase.begin_ns = NowNs();
  phase.wall_s = RunTimed(
      config.seconds, &stop,
      [&](int t) { loop(stop, &phase.threads[static_cast<size_t>(t)]); },
      claimed, &phase.window_rates);
  phase.end_ns = NowNs();
  const TrainCounters after = TrainCounters::Of(engines);
  phase.train.refits = after.refits - before.refits;
  phase.train.refit_nanos = after.refit_nanos - before.refit_nanos;
  phase.train.versions = after.versions - before.versions;
  for (const ServerStats& s : phase.threads) {
    phase.servings += s.servings;
    phase.batch_ns.Merge(s.batch_ns);
  }
  return phase;
}

std::vector<double> Merged(const ServingPhase& phase,
                           std::vector<double> ServerStats::*field) {
  std::vector<double> all;
  for (const ServerStats& s : phase.threads) {
    all.insert(all.end(), (s.*field).begin(), (s.*field).end());
  }
  return all;
}

/// Correctness shared by both serving workloads: no served hint out of
/// range, and every claimed serving drained.
void CheckServing(const ServingPhase& phase, uint64_t claimed,
                  const std::vector<core::ExplorationEngine*>& engines,
                  RunResult* result) {
  const long servings = static_cast<long>(phase.servings);
  result->attempted += servings;
  uint64_t bad = 0;
  for (const ServerStats& s : phase.threads) bad += s.bad_hints;
  result->Check(bad == 0, static_cast<long>(bad),
                "served hints out of range");
  bool drained = claimed == phase.first_seq + phase.servings;
  for (const core::ExplorationEngine* e : engines) {
    drained = drained && e->drained_servings() == e->claimed_servings();
  }
  result->Check(drained, servings,
                "drained servings differ from claimed servings after stop");
}

/// The batch-latency quantile op_tail_us reports. A run serves about a
/// million batches, so deeper tails leave plenty of samples beyond them, but
/// they measure the host more than the program: over sets of six to ten
/// runs, p99 spread (interquartile range over median) 0.12-0.23 on
/// serve-fleet, where it catches back-pressure waits, against 0.055 for
/// p95, and p99.9 moved by 35%.
constexpr double kServingTail = 0.95;

/// End-to-end metrics of an untraced serving phase.
void ReportServing(const ServingPhase& phase, RunResult* result) {
  const long batches = static_cast<long>(phase.batch_ns.count());
  result->Set("throughput", Quantile(phase.window_rates, 0.5), "1/s",
              static_cast<long>(phase.window_rates.size()));
  result->Set("op_p50_us", phase.batch_ns.Quantile(0.5) * 1e-3, "us",
              batches);
  result->Set("op_tail_us", phase.batch_ns.Quantile(kServingTail) * 1e-3,
              "us", batches);
  result->params["op_tail"] = QuantileLabel(kServingTail);
  result->params["op"] = "serving batch of 16";
}

/// Per-layer metrics of a traced serving phase. `untraced` supplies the
/// base of trace_overhead.
void ReportServingLayers(const ServingPhase& traced,
                         const ServingPhase& untraced, const Tracer& tracer,
                         const LatencyTable& table, RunResult* result) {
  auto set_quantiles = [&](const std::string& name,
                           const std::vector<double>& v, double hi,
                           const std::string& hi_label) {
    const long n = static_cast<long>(v.size());
    result->Set(name + ".p50", Quantile(v, 0.5), "ns", n);
    if (!hi_label.empty()) {
      result->Set(name + "." + hi_label, Quantile(v, hi), "ns", n);
    }
  };
  set_quantiles("engine.claim_ns", Merged(traced, &ServerStats::claim_ns),
                0.99, "p99");
  set_quantiles("snapshot.choose_ns", Merged(traced, &ServerStats::choose_ns),
                0.99, "p99");
  set_quantiles("engine.report_ns", Merged(traced, &ServerStats::report_ns),
                0.99, "p99");
  set_quantiles("router.route_ns", Merged(traced, &ServerStats::route_ns),
                0.0, "");
  uint64_t reacquires = 0;
  for (const ServerStats& s : traced.threads) reacquires += s.reacquires;
  result->Set("snapshot.reacquires_per_1k",
              1e3 * static_cast<double>(reacquires) /
                  static_cast<double>(traced.servings),
              "count", static_cast<long>(reacquires));

  const std::vector<double> staleness =
      Merged(traced, &ServerStats::staleness);
  const long stale_n = static_cast<long>(staleness.size());
  result->Set("serve.staleness_p50", Quantile(staleness, 0.5), "servings",
              stale_n);
  result->Set("serve.staleness_p99", Quantile(staleness, 0.99), "servings",
              stale_n);
  const std::vector<double> backlog = Merged(traced, &ServerStats::backlog);
  const long backlog_n = static_cast<long>(backlog.size());
  result->Set("engine.backlog.p50", Quantile(backlog, 0.5), "servings",
              backlog_n);
  result->Set("engine.backlog.p99", Quantile(backlog, 0.99), "servings",
              backlog_n);

  const long refits = static_cast<long>(traced.train.refits);
  result->Set("engine.refits", static_cast<double>(refits), "count", refits);
  result->Set("engine.refit_ms.mean",
              refits > 0 ? static_cast<double>(traced.train.refit_nanos) *
                               1e-6 / static_cast<double>(refits)
                         : 0.0,
              "ms", refits);
  result->Set("engine.publishes", static_cast<double>(traced.train.versions),
              "count", static_cast<long>(traced.train.versions));

  std::vector<double> refit_ms;
  for (const Span& s :
       tracer.Named("als.refit", traced.begin_ns, traced.end_ns)) {
    refit_ms.push_back(s.ms());
  }
  const long als_refits = static_cast<long>(refit_ms.size());
  result->Set("als.refit_ms.p50", Quantile(refit_ms, 0.5), "ms", als_refits);
  result->Set("als.refit_ms.p95", Quantile(refit_ms, 0.95), "ms", als_refits);
  result->Set("als.refits", static_cast<double>(als_refits), "count",
              als_refits);

  // Harness cost: the timed loop's only harness work is reading each
  // serving's query and looking its latency up, calibrated here on the same
  // tables. Successive servings' lookups are independent, as in the
  // servers, so the loop folds each result in with an XOR: a serial
  // floating-point sum would time its own add chain instead of the lookups.
  // Hints cycle through 0..15 (every world here has more hints).
  constexpr uint64_t kCalibration = uint64_t{1} << 22;
  uint64_t fold = 0;
  const int64_t c0 = NowNs();
  for (uint64_t s = 0; s < kCalibration; ++s) {
    fold ^= static_cast<uint64_t>(table.Arrival(s)) ^
            std::bit_cast<uint64_t>(
                table.Latency(s, static_cast<int>(s & 15)));
  }
  const double lookup_us =
      SecondsBetween(c0, NowNs()) * 1e6 / static_cast<double>(kCalibration);
  volatile uint64_t sink = fold;  // keeps the loop from being optimized away
  (void)sink;
  result->Set("harness.execute_us.mean", lookup_us, "us",
              static_cast<long>(kCalibration));
  result->Set("harness.calls", static_cast<double>(untraced.servings),
              "count", static_cast<long>(untraced.servings));
  result->Set("harness.share",
              lookup_us * 1e-6 * static_cast<double>(untraced.servings) /
                  (untraced.wall_s * kServingThreads),
              "ratio", static_cast<long>(untraced.servings));
  const double untraced_rate = Quantile(untraced.window_rates, 0.5);
  const double traced_rate = Quantile(traced.window_rates, 0.5);
  result->Set("trace_overhead", untraced_rate / traced_rate - 1.0, "ratio", 1);
}

void SetServingParams(RunResult* result, const LatencyTable& table,
                      int shards, const char* arrivals) {
  result->params["rows"] = std::to_string(table.n);
  result->params["hints"] = std::to_string(table.k);
  result->params["rank"] = std::to_string(ServingAlsOptions().rank);
  result->params["threads"] = std::to_string(kServingThreads) +
                              " serving + " +
                              std::to_string(std::max(shards, 1)) +
                              " train, linalg " +
                              std::to_string(kLinalgThreads);
  result->params["shards"] = std::to_string(shards);
  result->params["batch"] = std::to_string(kBatch);
  result->params["arrivals"] = arrivals;
}

void SetSetupLayers(RunResult* result, const std::vector<double>& world_s,
                    const std::vector<double>& seed_explore_s,
                    const std::vector<double>& first_refit_ms) {
  const long n = static_cast<long>(world_s.size());
  result->Set("setup.world_s", Quantile(world_s, 0.5), "s", n);
  result->Set("setup.seed_explore_s", Quantile(seed_explore_s, 0.5), "s", n);
  result->Set("setup.first_refit_ms", Quantile(first_refit_ms, 0.5), "ms", n);
}

/// Serving quality is measured on a deterministic schedule, so it is a pure
/// function of the seed: kQualityEpochs epochs of kQualityEpoch servings,
/// decided and reported on the calling thread, each closed by a sync
/// (drain, refit when due, publish). The free-running timed phase decides
/// on snapshots of timing-dependent age, so its served latency is not
/// repeatable; this schedule runs the same decision, report, drain and
/// refit code.
constexpr uint64_t kQualityEpoch = 2048;

/// quality_gap = (served - optimal) / (default - optimal), every term summed
/// over the same servings [first, end).
double ServedGap(const LatencyTable& table, double served, uint64_t first,
                 uint64_t end) {
  const double def = table.BaselineSum(table.default_latency, first, end);
  const double opt = table.BaselineSum(table.optimal_latency, first, end);
  return (served - opt) / (def - opt);
}

// ---------------------------------------------------------------------------
// serve-hot
// ---------------------------------------------------------------------------

constexpr int kHotQualityEpochs = 128;

/// JOB offline budget before serving, as a multiple of the default time.
constexpr double kHotOfflineBudget = 0.5;

/// serve-hot's engine. The observation queue holds 2^18 servings: at the
/// default 4096, two servers fill it during one refit (~0.7 ms on JOB) and
/// then wait on back-pressure, which makes throughput a measure of refit
/// speed. With room to absorb a refit, the decision and report path is the
/// blocking step, which is what this workload measures; serve-fleet keeps
/// the default queue and measures the back-pressure regime.
core::EngineOptions HotEngineOptions() {
  core::EngineOptions options;
  options.online = ServingOptions();
  options.queue_capacity = size_t{1} << 18;
  return options;
}

struct HotWorld {
  explicit HotWorld(limeqo::simdb::SimulatedDatabase database)
      : db(std::move(database)), backend(&db) {}

  core::ExplorationEngine& engine() { return explorer->engine(); }

  limeqo::simdb::SimulatedDatabase db;
  core::SimDbBackend backend;
  std::unique_ptr<core::ExplorationPolicy> policy;
  std::unique_ptr<core::OfflineExplorer> explorer;
  std::unique_ptr<core::Predictor> predictor;
  const core::AlsCompleter* als = nullptr;
  LatencyTable table;
  double world_s = 0.0;
  double seed_explore_s = 0.0;
  double first_refit_ms = 0.0;
  double setup_s = 0.0;
};

std::unique_ptr<HotWorld> SetUpHot(uint64_t seed, Tracer* tracer) {
  const int64_t t0 = NowNs();
  limeqo::StatusOr<limeqo::simdb::SimulatedDatabase> db =
      limeqo::workloads::MakeWorkload(limeqo::workloads::WorkloadId::kJob,
                                      1.0, kJobWorldSeed);
  if (!db.ok()) {
    std::fprintf(stderr, "perfbench: cannot build JOB: %s\n",
                 db.status().ToString().c_str());
    std::exit(2);
  }
  auto w = std::make_unique<HotWorld>(std::move(db).value());
  const int64_t t1 = NowNs();
  w->policy = limeqo::bench::MakePolicy(limeqo::bench::Technique::kLimeQo,
                                        &w->backend);
  core::ExplorerOptions options;
  options.engine = HotEngineOptions();
  w->explorer = std::make_unique<core::OfflineExplorer>(
      &w->backend, w->policy.get(), options);
  w->explorer->Explore(kHotOfflineBudget * w->db.DefaultTotal());
  const int64_t t2 = NowNs();
  w->predictor = MakeServingPredictor(tracer, &w->als);
  core::ExplorationEngine& engine = w->engine();
  engine.SetPredictor(w->predictor.get());
  engine.ConfigureServing(ServingOptions());
  engine.RefreshPredictions(/*force=*/true);
  engine.Publish();
  const int64_t t3 = NowNs();
  w->table = MakeTable(w->db.true_matrix(), seed);
  w->world_s = SecondsBetween(t0, t1);
  w->seed_explore_s = SecondsBetween(t1, t2);
  w->first_refit_ms = SecondsBetween(t2, t3) * 1e3;
  w->setup_s = SecondsBetween(t0, NowNs());
  return w;
}

ServingPhase ServeHot(HotWorld* w, const RunConfig& config, Tracer* tracer,
                      RunResult* result) {
  core::ExplorationEngine& engine = w->engine();
  const std::vector<core::ExplorationEngine*> engines = {&engine};
  const std::function<uint64_t()> claimed = [&] {
    return engine.claimed_servings();
  };
  engine.StartTraining();
  ServingPhase phase;
  if (tracer == nullptr) {
    phase = Serve(config, claimed, engines,
                  [&](const std::atomic<bool>& stop, ServerStats* s) {
                    ServeHotLoop<false>(&engine, w->table, stop, nullptr, s);
                  });
  } else {
    phase = Serve(config, claimed, engines,
                  [&](const std::atomic<bool>& stop, ServerStats* s) {
                    ServeHotLoop<true>(&engine, w->table, stop, tracer, s);
                  });
  }
  engine.StopTraining();
  CheckServing(phase, engine.claimed_servings(), engines, result);
  return phase;
}

/// serve-hot's quality: the batched protocol on the deterministic schedule.
double HotQuality(HotWorld* w, RunResult* result) {
  core::ExplorationEngine& engine = w->engine();
  const LatencyTable& table = w->table;
  const unsigned k = static_cast<unsigned>(table.k);
  const uint64_t first = engine.claimed_servings();
  std::array<int, kBatch> hints{};
  double served = 0.0;
  uint64_t bad = 0;
  for (int epoch = 0; epoch < kHotQualityEpochs; ++epoch) {
    for (uint64_t done = 0; done < kQualityEpoch; done += kBatch) {
      const uint64_t seq0 = engine.AcquireServingIndices(kBatch);
      const std::shared_ptr<const core::ServingSnapshot> snap =
          engine.snapshot();
      const std::span<const int> queries = table.Batch(seq0);
      snap->ChooseHints(queries, seq0, std::span<int>(hints.data(), kBatch));
      for (size_t i = 0; i < kBatch; ++i) {
        int hint = hints[i];
        if (static_cast<unsigned>(hint) >= k) {
          ++bad;
          hint = 0;
        }
        const double latency = table.Latency(seq0 + i, hint);
        served += latency;
        engine.Report(
            snap->MakeObservation(seq0 + i, queries[i], hint, latency));
      }
    }
    engine.SyncEpoch();
  }
  const uint64_t end = engine.claimed_servings();
  result->attempted += static_cast<long>(end - first);
  result->Check(bad == 0, static_cast<long>(bad),
                "quality schedule served hints out of range");
  result->Check(engine.drained_servings() == end,
                static_cast<long>(end - first),
                "quality schedule left servings undrained");
  return ServedGap(table, served, first, end);
}

/// Engine checkpoint: save once, then restore from disk into a standing
/// engine until it is serving-ready (restored and published), interleaved
/// with set-ups. The engine is built once, outside the timing: allocating
/// its 2^18-slot queue on every restore made the restore time swing by a
/// third between runs with the host's page-fault cost.
void RestoreHot(HotWorld* w, const RunConfig& config,
                const std::function<void()>& set_up, RunResult* result) {
  const std::string path = ScratchPath(config, "ckpt-serve-hot") + ".bin";
  const core::EngineCheckpoint checkpoint = w->engine().MakeCheckpoint();
  const int64_t t0 = NowNs();
  const limeqo::Status saved =
      core::SaveEngineCheckpointToFile(checkpoint, path);
  const double save_ms = SecondsBetween(t0, NowNs()) * 1e3;
  result->attempted += 1;
  result->Check(saved.ok(), 1, "cannot save the engine checkpoint");
  const double bytes = DiskBytes(path);

  const core::EngineOptions options = HotEngineOptions();
  const core::AlsCompleter* als = nullptr;
  std::unique_ptr<core::Predictor> predictor =
      MakeServingPredictor(nullptr, &als);
  std::vector<double> restore_s;
  const auto restored = std::make_unique<core::ExplorationEngine>(
      core::WorkloadMatrix(0, checkpoint.matrix.num_hints()), predictor.get(),
      options);
  bool same = saved.ok();
  RepeatInterleaved(set_up, [&] {
    if (!same) return false;
    const int64_t r0 = NowNs();
    limeqo::StatusOr<core::EngineCheckpoint> loaded =
        core::LoadEngineCheckpointFromFile(path);
    if (!loaded.ok()) {
      same = false;
      return false;
    }
    restored->RestoreFromCheckpoint(std::move(loaded).value());
    restored->Publish();
    restore_s.push_back(SecondsBetween(r0, NowNs()));
    same = SameMatrix(restored->matrix(), checkpoint.matrix);
    return same;
  });
  double refit_ms = 0.0;
  if (same && !restore_s.empty()) {
    const int64_t f0 = NowNs();
    restored->RefreshPredictions(/*force=*/true);
    refit_ms = SecondsBetween(f0, NowNs()) * 1e3;
  }
  std::remove(path.c_str());
  const long n = std::max<long>(1, static_cast<long>(restore_s.size()));
  result->attempted += n;
  result->Check(same, n,
                "the restored engine's matrix differs from the checkpoint");
  SetRestore(result, restore_s);
  result->Set("restore.refit_ms", refit_ms, "ms", 1);
  result->Set("restore.sweeps", als->last_iterations(), "count", 1);
  result->Set("checkpoint.save_ms", save_ms, "ms", 1);
  result->Set("checkpoint.bytes", bytes, "bytes", 1);
}

// ---------------------------------------------------------------------------
// serve-fleet
// ---------------------------------------------------------------------------

constexpr int kFleetShards = 2;
constexpr int kFleetRows = 3133;
constexpr int kFleetHints = 49;
/// Random-policy seeding pass, as a multiple of the default time.
constexpr double kFleetSeedBudget = 0.2;
constexpr int kFleetQualityEpochs = 32;

core::ShardedTierOptions FleetOptions() {
  core::ShardedTierOptions options;
  options.num_shards = kFleetShards;
  options.online = ServingOptions();
  return options;
}

struct FleetWorld {
  explicit FleetWorld(const limeqo::scenarios::ScenarioSpec& spec)
      : backend(spec) {}

  limeqo::scenarios::SyntheticBackend backend;
  core::RandomPolicy policy;
  std::unique_ptr<core::OfflineExplorer> explorer;
  std::vector<std::unique_ptr<core::Predictor>> predictors;
  std::unique_ptr<core::ShardedServingTier> tier;
  LatencyTable table;
  double world_s = 0.0;
  double seed_explore_s = 0.0;
  double first_refit_ms = 0.0;
  double setup_s = 0.0;

  std::vector<core::ExplorationEngine*> engines() {
    std::vector<core::ExplorationEngine*> all;
    for (int s = 0; s < tier->num_shards(); ++s) {
      all.push_back(&tier->shard_engine(s));
    }
    return all;
  }
};

std::unique_ptr<FleetWorld> SetUpFleet(uint64_t seed, Tracer* tracer) {
  limeqo::scenarios::ScenarioSpec spec;
  spec.name = "serve-fleet";
  spec.num_queries = kFleetRows;
  spec.num_hints = kFleetHints;
  spec.latent_rank = 5;
  spec.structure_strength = 0.9;
  spec.noise_sigma = 0.02;
  spec.online_servings = 0;
  spec.seed = kFleetWorldSeed;
  const int64_t t0 = NowNs();
  auto w = std::make_unique<FleetWorld>(spec);
  const int64_t t1 = NowNs();
  w->explorer = std::make_unique<core::OfflineExplorer>(
      &w->backend, &w->policy, core::ExplorerOptions{});
  w->explorer->Explore(kFleetSeedBudget * w->backend.DefaultWorkloadLatency());
  const int64_t t2 = NowNs();
  std::vector<core::Predictor*> predictors;
  for (int s = 0; s < kFleetShards; ++s) {
    const core::AlsCompleter* als = nullptr;
    w->predictors.push_back(MakeServingPredictor(tracer, &als));
    predictors.push_back(w->predictors.back().get());
  }
  w->tier = std::make_unique<core::ShardedServingTier>(
      w->explorer->matrix(), predictors, FleetOptions());
  w->tier->RefreshAll(/*force=*/true);
  w->tier->PublishAll();
  const int64_t t3 = NowNs();
  w->table = MakeTable(w->backend.truth(), seed);
  w->world_s = SecondsBetween(t0, t1);
  w->seed_explore_s = SecondsBetween(t1, t2);
  w->first_refit_ms = SecondsBetween(t2, t3) * 1e3;
  w->setup_s = SecondsBetween(t0, NowNs());
  return w;
}

/// Per-shard drained servings since `before`: the routed load.
std::vector<double> ShardLoad(core::ShardedServingTier* tier,
                              const std::vector<uint64_t>& before) {
  std::vector<double> load;
  for (int s = 0; s < tier->num_shards(); ++s) {
    load.push_back(static_cast<double>(
        tier->shard_engine(s).drained_servings() -
        before[static_cast<size_t>(s)]));
  }
  return load;
}

ServingPhase ServeFleet(FleetWorld* w, const RunConfig& config,
                        Tracer* tracer, RunResult* result) {
  core::ShardedServingTier* tier = w->tier.get();
  const std::vector<core::ExplorationEngine*> engines = w->engines();
  std::vector<uint64_t> drained_before;
  for (core::ExplorationEngine* e : engines) {
    drained_before.push_back(e->drained_servings());
  }
  const std::function<uint64_t()> claimed = [&] {
    return tier->claimed_servings();
  };
  tier->StartTraining();
  ServingPhase phase;
  if (tracer == nullptr) {
    phase = Serve(config, claimed, engines,
                  [&](const std::atomic<bool>& stop, ServerStats* s) {
                    ServeFleetLoop<false>(tier, w->table, stop, nullptr, s);
                  });
  } else {
    phase = Serve(config, claimed, engines,
                  [&](const std::atomic<bool>& stop, ServerStats* s) {
                    ServeFleetLoop<true>(tier, w->table, stop, tracer, s);
                  });
  }
  tier->StopTraining();
  CheckServing(phase, tier->claimed_servings(), engines, result);
  const std::vector<double> load = ShardLoad(tier, drained_before);
  const double routed = Sum(load);
  result->Check(routed == static_cast<double>(phase.servings),
                static_cast<long>(phase.servings),
                "shards drained a different number of servings than routed");
  if (tracer != nullptr) {
    double max_load = 0.0;
    for (double l : load) max_load = std::max(max_load, l);
    result->Set("router.load_imbalance",
                routed > 0.0 ? max_load / (routed / static_cast<double>(
                                                         load.size()))
                             : 0.0,
                "ratio", static_cast<long>(load.size()));
  }
  return phase;
}

/// serve-fleet's quality: the routed protocol on the deterministic
/// schedule, each epoch closed by a sync of every shard.
double FleetQuality(FleetWorld* w, RunResult* result) {
  core::ShardedServingTier* tier = w->tier.get();
  const LatencyTable& table = w->table;
  const unsigned k = static_cast<unsigned>(table.k);
  const uint64_t first = tier->claimed_servings();
  double served = 0.0;
  uint64_t bad = 0;
  for (int epoch = 0; epoch < kFleetQualityEpochs; ++epoch) {
    for (uint64_t done = 0; done < kQualityEpoch; done += kBatch) {
      const uint64_t seq0 = tier->AcquireServingIndices(kBatch);
      for (uint64_t i = 0; i < kBatch; ++i) {
        const int q = table.Arrival(seq0 + i);
        const int local = tier->LocalRowOf(q);
        core::ExplorationEngine& engine =
            tier->shard_engine(tier->ShardOfRow(q));
        const std::shared_ptr<const core::ServingSnapshot> snap =
            engine.snapshot();
        int hint = snap->ChooseHint(local, seq0 + i);
        if (static_cast<unsigned>(hint) >= k) {
          ++bad;
          hint = 0;
        }
        const double latency = table.Latency(seq0 + i, hint);
        served += latency;
        engine.Report(snap->MakeObservation(engine.AcquireServingIndex(),
                                            local, hint, latency));
      }
    }
    tier->SyncEpochAll();
  }
  const uint64_t end = tier->claimed_servings();
  bool drained = true;
  for (core::ExplorationEngine* e : w->engines()) {
    drained = drained && e->drained_servings() == e->claimed_servings();
  }
  result->attempted += static_cast<long>(end - first);
  result->Check(bad == 0, static_cast<long>(bad),
                "quality schedule served hints out of range");
  result->Check(drained, static_cast<long>(end - first),
                "quality schedule left servings undrained");
  return ServedGap(table, served, first, end);
}

/// Tier checkpoints: save once, then restore from disk into a
/// serving-ready tier (RestoreFromDirectory publishes), interleaved with
/// set-ups; each restored tier must hold the saved matrix bitwise.
void RestoreFleet(FleetWorld* w, const RunConfig& config,
                  const std::function<void()>& set_up, RunResult* result) {
  const std::string dir = ScratchPath(config, "ckpt-serve-fleet");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const core::WorkloadMatrix saved = w->tier->MergedMatrix();
  const int64_t t0 = NowNs();
  const limeqo::Status written = w->tier->SaveCheckpoints(dir);
  const double save_ms = SecondsBetween(t0, NowNs()) * 1e3;
  result->attempted += 1;
  result->Check(written.ok(), 1, "cannot save the tier checkpoints");
  const double bytes = DiskBytes(dir);

  std::vector<std::unique_ptr<core::Predictor>> owned;
  std::vector<const core::AlsCompleter*> als(kFleetShards, nullptr);
  std::vector<core::Predictor*> predictors;
  for (int s = 0; s < kFleetShards; ++s) {
    owned.push_back(MakeServingPredictor(nullptr, &als[static_cast<size_t>(s)]));
    predictors.push_back(owned.back().get());
  }
  std::vector<double> restore_s;
  std::unique_ptr<core::ShardedServingTier> restored;
  bool same = written.ok();
  RepeatInterleaved(set_up, [&] {
    if (!same) return false;
    restored.reset();
    const int64_t r0 = NowNs();
    limeqo::StatusOr<std::unique_ptr<core::ShardedServingTier>> loaded =
        core::ShardedServingTier::RestoreFromDirectory(dir, predictors,
                                                       FleetOptions());
    if (!loaded.ok()) {
      same = false;
      return false;
    }
    restored = std::move(loaded).value();
    restore_s.push_back(SecondsBetween(r0, NowNs()));
    same = SameMatrix(restored->MergedMatrix(), saved);
    return same;
  });
  double refit_ms = 0.0;
  double sweeps = 0.0;
  if (same && restored != nullptr) {
    const int64_t f0 = NowNs();
    restored->RefreshAll(/*force=*/true);
    refit_ms = SecondsBetween(f0, NowNs()) * 1e3;
    for (const core::AlsCompleter* a : als) sweeps += a->last_iterations();
    sweeps /= static_cast<double>(als.size());
  }
  restored.reset();
  std::filesystem::remove_all(dir, ec);
  const long n = std::max<long>(1, static_cast<long>(restore_s.size()));
  result->attempted += n;
  result->Check(same, n,
                "the restored tier's merged matrix differs from the saved one");
  SetRestore(result, restore_s);
  result->Set("restore.refit_ms", refit_ms, "ms", 1);
  result->Set("restore.sweeps", sweeps, "count", kFleetShards);
  result->Set("checkpoint.save_ms", save_ms, "ms", 1);
  result->Set("checkpoint.bytes", bytes, "bytes", 1);
}

/// The run loop both serving workloads share. The first set-up serves the
/// deterministic quality schedule, the second the timed phase; its state is
/// then restored repeatedly, interleaved with further set-ups. The traced
/// run repeats the quality schedule and the timed phase on fresh set-ups
/// with every layer decorated; its quality must match.
template <typename World, typename SetUpFn, typename QualityFn,
          typename ServeFn, typename RestoreFn>
RunResult RunServing(const RunConfig& config, const SetUpFn& set_up,
                     const QualityFn& quality, const ServeFn& serve,
                     const RestoreFn& restore, int shards,
                     const char* arrivals) {
  RunResult result;
  limeqo::SetNumThreads(kLinalgThreads);
  std::vector<double> setups, world_s, seed_s, refit_ms;
  const auto timed_set_up = [&] {
    std::unique_ptr<World> world = set_up(config.seed, nullptr);
    setups.push_back(world->setup_s);
    world_s.push_back(world->world_s);
    seed_s.push_back(world->seed_explore_s);
    refit_ms.push_back(world->first_refit_ms);
    return world;
  };
  const long before = result.attempted;
  const double quality_gap = quality(timed_set_up().get(), &result);
  result.Set("quality_gap", quality_gap, "ratio", result.attempted - before);

  std::unique_ptr<World> world = timed_set_up();
  SetServingParams(&result, world->table, shards, arrivals);
  const ServingPhase untraced = serve(world.get(), nullptr, &result);
  SetPeakRss(&result);
  ReportServing(untraced, &result);
  restore(world.get(), [&] { timed_set_up(); }, &result);
  world.reset();
  SetSetup(&result, setups);
  SetSetupLayers(&result, world_s, seed_s, refit_ms);

  if (config.trace) {
    Tracer tracer;
    std::unique_ptr<World> traced_world = set_up(config.seed, &tracer);
    result.Check(quality(traced_world.get(), &result) == quality_gap, 1,
                 "the traced quality schedule served differently");
    traced_world = set_up(config.seed, &tracer);
    const ServingPhase traced = serve(traced_world.get(), &tracer, &result);
    ReportServingLayers(traced, untraced, tracer, traced_world->table,
                        &result);
    for (const ServerStats& s : traced.threads) tracer.RecordAll(s.spans);
    result.self_ms = tracer.SelfMsByName(traced.begin_ns, traced.end_ns);
    WriteSpanFile(tracer, config, &result);
  }
  return result;
}

}  // namespace

RunResult RunServeHot(const RunConfig& config) {
  return RunServing<HotWorld>(
      config, SetUpHot, HotQuality,
      [&](HotWorld* w, Tracer* tracer, RunResult* result) {
        return ServeHot(w, config, tracer, result);
      },
      [&](HotWorld* w, const std::function<void()>& set_up,
          RunResult* result) { RestoreHot(w, config, set_up, result); },
      /*shards=*/0, "uniform");
}

RunResult RunServeFleet(const RunConfig& config) {
  return RunServing<FleetWorld>(
      config, SetUpFleet, FleetQuality,
      [&](FleetWorld* w, Tracer* tracer, RunResult* result) {
        return ServeFleet(w, config, tracer, result);
      },
      [&](FleetWorld* w, const std::function<void()>& set_up,
          RunResult* result) { RestoreFleet(w, config, set_up, result); },
      kFleetShards, "uniform");
}

}  // namespace perfbench
