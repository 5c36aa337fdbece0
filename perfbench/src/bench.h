#ifndef LIMEQO_PERFBENCH_BENCH_H_
#define LIMEQO_PERFBENCH_BENCH_H_

// What one benchmark run is asked to do and what it reports. main.cc parses
// the command line into a RunConfig, dispatches to one workload, and prints
// the RunResult; offline.cc and serving.cc implement the workloads.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/workload_matrix.h"

namespace perfbench {

class Tracer;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the serving workloads' timed phase. The offline workloads
  /// run a fixed set of explorations instead.
  double seconds = 10.0;
  /// Traced run: per-layer metrics, span file and trace overhead.
  bool trace = false;
  /// Directory for the span file, checkpoints and the result record.
  std::string out_dir = ".bench_out";
};

/// One reported number with its unit and the sample count behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  long samples = 0;
};

struct RunResult {
  /// Every metric the run measured, end-to-end and per-layer alike; main.cc
  /// selects the ones the requested mode prints.
  std::map<std::string, Metric> metrics;
  /// Workload parameters (rows, hints, rank, threads, shards, batch, ...).
  std::map<std::string, std::string> params;
  /// Traced run: total self time per span name over the traced window.
  std::map<std::string, double> self_ms;
  /// Operations attempted (exploration steps, servings and restores) and
  /// those covered by a failed correctness check.
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const std::string& unit,
           long samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Records a correctness check; a failed check fails the `covered`
  /// operations it vouches for.
  void Check(bool ok, long covered, const std::string& what);
};

/// Every workload pins the linalg pool to one thread. On a shared 4-vCPU
/// host a rank-5 ALS fit over CEB took 80-106 ms on one thread, 71-163 ms
/// on two and 59-209 ms on four (medians of 5 fits, 12 rounds): more
/// threads add noise, not speed.
constexpr int kLinalgThreads = 1;

/// Records the process's peak resident set so far as peak_rss_mb. Workloads
/// call it when the timed phase ends: the restore rounds that follow keep
/// extra set-ups alive beside the timed system, and how much of their freed
/// memory the allocator keeps depends on timing. Taken after them,
/// peak_rss_mb on serve-fleet read either about 61 or about 88 MB in one
/// set of ten runs.
void SetPeakRss(RunResult* result);
/// Size of a file (or the total of a directory's files) in bytes.
double DiskBytes(const std::string& path);
/// True when both matrices hold bitwise identical cells.
bool SameMatrix(const limeqo::core::WorkloadMatrix& a,
                const limeqo::core::WorkloadMatrix& b);

/// Runs `set_up` and `restore` in alternating rounds until there have been
/// three rounds and six seconds have passed (at most 2000 rounds), so both
/// series span the same long interval. Each round runs one set-up, then
/// restores for as long as the set-up took (at least one). The shared
/// host's speed changes in phases of a few seconds (a JOB world build takes
/// 5.8 ms in one and 9.3 ms in the next), and a series taken in one burst
/// measures the phase it fell in. Each callable records its own sample;
/// `restore` returns false to stop early after a failed check.
void RepeatInterleaved(const std::function<void()>& set_up,
                       const std::function<bool()>& restore);

/// `<out_dir>/<what>-<pid>`: a scratch path for checkpoints.
std::string ScratchPath(const RunConfig& config, const std::string& what);

/// Writes the traced run's spans to `<out_dir>/trace-<workload>-seed<n>.json`.
void WriteSpanFile(const Tracer& tracer, const RunConfig& config,
                   RunResult* result);

/// Records the set-up repetitions' median as setup_s.
void SetSetup(RunResult* result, const std::vector<double>& setup_seconds);

/// Records the restore repetitions' median as restore.load_ms.
void SetRestore(RunResult* result, const std::vector<double>& restore_seconds);

RunResult RunOfflineCeb(const RunConfig& config);
RunResult RunOfflineJobTcnn(const RunConfig& config);
RunResult RunServeHot(const RunConfig& config);
RunResult RunServeFleet(const RunConfig& config);

}  // namespace perfbench

#endif  // LIMEQO_PERFBENCH_BENCH_H_
