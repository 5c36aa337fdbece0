// Reproduces paper Fig. 15 (Sec. 5.5.3): sensitivity of LimeQO and LimeQO+
// to the rank hyper-parameter r in {1, 2, 3, 5, 7, 9}. The paper finds
// LimeQO needs r >= 3 to capture the workload structure, with little
// variation beyond that, while LimeQO+ is robust across ranks because the
// TCNN features compensate.

#include <cstdio>
#include <iostream>
#include <algorithm>
#include <cmath>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/als.h"
#include "common/table_printer.h"

namespace limeqo::bench {
namespace {

void Run() {
  const std::vector<int> ranks = {1, 2, 3, 5, 7, 9};
  const std::vector<double> fractions = {0.5, 1.0, 2.0};

  PrintBanner("Figure 15", "Rank sweep for LimeQO (left) and LimeQO+ (right)",
              "Cells are workload latency as % of default.");

  {
    const double kScale = 0.20;
    StatusOr<simdb::SimulatedDatabase> db =
        workloads::MakeWorkload(workloads::WorkloadId::kCeb, kScale, 42);
    LIMEQO_CHECK(db.ok());
    std::printf("\nLimeQO on CEB (n=%d), optimal %.0f%%:\n",
                db->num_queries(),
                100.0 * db->OptimalTotal() / db->DefaultTotal());
    TablePrinter table({"rank", "0.5x", "1x", "2x"});
    for (int r : ranks) {
      core::SimDbBackend backend(&*db);
      std::unique_ptr<core::ExplorationPolicy> policy =
          MakeLimeQoPolicy(r, /*censored=*/true);
      core::OfflineExplorer explorer(&backend, policy.get(),
                                     core::ExplorerOptions{});
      std::vector<std::string> row = {"r=" + std::to_string(r)};
      double spent = 0.0;
      for (double f : fractions) {
        explorer.Explore(f * db->DefaultTotal() - spent);
        spent = f * db->DefaultTotal();
        row.push_back(
            FormatDouble(100.0 * explorer.WorkloadLatency() /
                         db->DefaultTotal(), 0) + "%");
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }

  {
    const double kScale = 0.03;
    StatusOr<simdb::SimulatedDatabase> db =
        workloads::MakeWorkload(workloads::WorkloadId::kCeb, kScale, 43);
    LIMEQO_CHECK(db.ok());
    std::printf("\nLimeQO+ on CEB (n=%d), optimal %.0f%%:\n",
                db->num_queries(),
                100.0 * db->OptimalTotal() / db->DefaultTotal());
    TablePrinter table({"rank", "0.5x", "1x", "2x"});
    for (int r : ranks) {
      core::SimDbBackend backend(&*db);
      std::unique_ptr<core::ExplorationPolicy> policy =
          MakeLimeQoPlusPolicy(&backend, r, /*censored=*/true);
      core::OfflineExplorer explorer(&backend, policy.get(),
                                     core::ExplorerOptions{});
      std::vector<std::string> row = {"r=" + std::to_string(r)};
      double spent = 0.0;
      for (double f : fractions) {
        explorer.Explore(f * db->DefaultTotal() - spent);
        spent = f * db->DefaultTotal();
        row.push_back(
            FormatDouble(100.0 * explorer.WorkloadLatency() /
                         db->DefaultTotal(), 0) + "%");
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
  // Completion-accuracy view of the same question: how much of the
  // workload matrix's structure does a rank-r model capture? This is where
  // the paper's "r >= 3" requirement shows up most directly; the
  // end-to-end exploration curves above are more forgiving because the
  // baseline-plus-residual model already carries the dominant per-hint
  // effect at any rank (a robustness bonus over raw-space Algorithm 2).
  {
    const double kScale = 0.20;
    StatusOr<simdb::SimulatedDatabase> db =
        workloads::MakeWorkload(workloads::WorkloadId::kCeb, kScale, 44);
    LIMEQO_CHECK(db.ok());
    std::printf("\nALS completion accuracy vs rank (CEB, 25%% fill):\n");
    TablePrinter table({"rank", "median relative error (unobserved)"});
    Rng fill_rng(7);
    core::WorkloadMatrix w(db->num_queries(), db->num_hints());
    for (int i = 0; i < db->num_queries(); ++i) {
      w.Observe(i, 0, db->TrueLatency(i, 0));
      for (int j = 1; j < db->num_hints(); ++j) {
        if (fill_rng.Bernoulli(0.25)) w.Observe(i, j, db->TrueLatency(i, j));
      }
    }
    for (int r : ranks) {
      core::AlsOptions options;
      options.rank = r;
      core::AlsCompleter als(options);
      StatusOr<linalg::Matrix> est = als.Complete(w);
      LIMEQO_CHECK(est.ok());
      std::vector<double> errors;
      for (int i = 0; i < db->num_queries(); ++i) {
        for (int j = 0; j < db->num_hints(); ++j) {
          if (w.IsComplete(i, j)) continue;
          errors.push_back(std::abs((*est)(i, j) - db->TrueLatency(i, j)) /
                           db->TrueLatency(i, j));
        }
      }
      std::nth_element(errors.begin(), errors.begin() + errors.size() / 2,
                       errors.end());
      table.AddRow({"r=" + std::to_string(r),
                    FormatDouble(100.0 * errors[errors.size() / 2], 1) + "%"});
    }
    table.Print(std::cout);
  }

  std::printf(
      "\nShape targets (paper): LimeQO degrades at r <= 2 and is stable for "
      "r in 3..9; LimeQO+ is stable across all ranks. In this reproduction "
      "the rank effect appears in completion accuracy (above), while the "
      "exploration curves are robust even at r <= 2 thanks to the "
      "baseline-plus-residual linear model (FitSpace::kLogRatio and "
      "AlsOptions in src/core/als.h).\n");
}

}  // namespace
}  // namespace limeqo::bench

int main() { limeqo::bench::Run(); }
