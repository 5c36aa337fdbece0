// Ablations for the implementation-level design choices documented with
// FitSpace and AlsOptions in src/core/als.h and with ModelGuidedPolicy's
// min_ratio in src/core/policy.h (these are this reproduction's additions on
// top of the paper's pseudocode, so they deserve their own evidence):
//
//   * ALS fit space: raw (Algorithm 2 verbatim) vs log-ratio,
//   * minimum actionable improvement ratio: 0 (paper's r_i > 0) vs 0.05,
//   * tie-breaking among equal-ratio candidates,
//   * validation-based early stopping in ALS.
//
// Each arm runs LimeQO on the same CEB instances (2 seeds) and reports
// workload latency at 0.5x / 1x / 2x of the default total.

#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/als.h"

namespace limeqo::bench {
namespace {

struct Arm {
  std::string name;
  core::FitSpace fit_space = core::FitSpace::kLogRatio;
  bool early_stopping = true;
  double min_ratio = 0.05;
  core::ModelGuidedPolicy::TieBreak tie_break =
      core::ModelGuidedPolicy::TieBreak::kRandom;
};

void Run() {
  PrintBanner("Ablation",
              "Design choices of this reproduction (src/core/als.h FitSpace)",
              "LimeQO on CEB at scale 0.20, 2 seeds; cells are % of the "
              "default total (optimal ~35%).");

  const std::vector<Arm> arms = {
      {"default (log-ratio, es, min_ratio=.05, tie=random)"},
      {"fit space = raw (Algorithm 2 verbatim)", core::FitSpace::kRaw},
      {"no early stopping", core::FitSpace::kLogRatio, false},
      {"min_ratio = 0 (paper's r_i > 0)", core::FitSpace::kLogRatio, true,
       0.0},
      {"tie-break = cheapest probe", core::FitSpace::kLogRatio, true, 0.05,
       core::ModelGuidedPolicy::TieBreak::kCheapestProbe},
      {"tie-break = largest gain", core::FitSpace::kLogRatio, true, 0.05,
       core::ModelGuidedPolicy::TieBreak::kLargestGain},
  };
  const std::vector<double> fractions = {0.5, 1.0, 2.0};
  const int kSeeds = 2;

  TablePrinter table({"Arm", "0.5x", "1x", "2x"});
  for (const Arm& arm : arms) {
    std::vector<double> sums(fractions.size(), 0.0);
    for (int s = 0; s < kSeeds; ++s) {
      StatusOr<simdb::SimulatedDatabase> db =
          workloads::MakeWorkload(workloads::WorkloadId::kCeb, 0.20, 42 + s);
      LIMEQO_CHECK(db.ok());
      core::SimDbBackend backend(&*db);
      core::AlsOptions als;
      als.fit_space = arm.fit_space;
      als.early_stopping = arm.early_stopping;
      core::ModelGuidedPolicy policy(
          std::make_unique<core::CompleterPredictor>(
              std::make_unique<core::AlsCompleter>(als)),
          "LimeQO", arm.tie_break, arm.min_ratio);
      core::OfflineExplorer explorer(&backend, &policy,
                                     core::ExplorerOptions{});
      double spent = 0.0;
      for (size_t i = 0; i < fractions.size(); ++i) {
        explorer.Explore(fractions[i] * db->DefaultTotal() - spent);
        spent = fractions[i] * db->DefaultTotal();
        sums[i] += 100.0 * explorer.WorkloadLatency() / db->DefaultTotal();
      }
    }
    std::vector<std::string> row = {arm.name};
    for (double v : sums) row.push_back(FormatDouble(v / kSeeds, 0) + "%");
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected: the default configuration is at or near the best at "
      "every budget; raw fit space and min_ratio = 0 degrade early "
      "exploration most (the stall modes documented with FitSpace in "
      "src/core/als.h and min_ratio in src/core/policy.h).\n");
}

}  // namespace
}  // namespace limeqo::bench

int main() { limeqo::bench::Run(); }
