// Tests for sliced refits on the train plane: ExplorationEngine::TrainStep
// runs a refit as a resumable job, one bounded slice per step, and keeps
// draining and publishing between slices. Every test drives the steps by
// hand (BeginTrainSteps / TrainStep) on the calling thread, with reports
// interleaved between steps, so the interleaving is exact and repeatable.

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/als.h"
#include "core/engine.h"
#include "core/predictor.h"
#include "workloads/workloads.h"

namespace limeqo::core {
namespace {

/// One serve-fleet shard: half of a 3133 x 49 CEB-sized world. A rank-5
/// sweep on it is past AlsCompleter::kSliceMultiplyAdds, so every slice
/// is one sweep and a refit takes several steps.
constexpr int kShardRows = 1566;
constexpr int kHints = 49;

AlsOptions ServingAls() {
  AlsOptions als;
  als.convergence_tol = 1e-3;
  return als;
}

/// Defaults plus ~10% complete cells, latencies with a rank-2 structure.
WorkloadMatrix ShardMatrix(int n, int k, uint64_t seed) {
  WorkloadMatrix w(n, k);
  Rng rng(seed);
  std::vector<double> hint_scale(static_cast<size_t>(k));
  for (double& s : hint_scale) s = rng.Uniform(0.2, 3.0);
  for (int i = 0; i < n; ++i) {
    const double base = rng.Uniform(0.1, 10.0);
    const double tilt = rng.Uniform(-1.0, 1.0);
    for (int j = 0; j < k; ++j) {
      if (j != 0 && !rng.Bernoulli(0.1)) continue;
      const double hint_tilt = static_cast<double>(j % 7) / 7.0;
      w.Observe(i, j, base * hint_scale[static_cast<size_t>(j)] *
                          (1.0 + 0.3 * tilt * hint_tilt));
    }
  }
  return w;
}

bool SameBits(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameFactors(const CompletionFactors& a, const CompletionFactors& b) {
  return SameBits(a.query_factors, b.query_factors) &&
         SameBits(a.hint_factors, b.hint_factors);
}

/// An engine over one shard with an installed warm model: a whole refit
/// ran at construction, so the next refit the steps start is warm.
struct ShardEngine {
  explicit ShardEngine(WorkloadMatrix w)
      : predictor(std::make_unique<AlsCompleter>(ServingAls())),
        engine(std::move(w), &predictor) {
    EXPECT_TRUE(engine.RefreshPredictions(/*force=*/true));
    engine.Publish();
    engine.BeginTrainSteps();
  }

  /// Reports `count` servings on the default plan, row by row from
  /// `next_row`, as the serving plane would: claim an index, then report.
  void Report(int count) {
    for (int s = 0; s < count; ++s) {
      ServingObservation obs;
      obs.seq = engine.AcquireServingIndex();
      obs.query = next_row;
      obs.hint = 0;
      obs.latency = 0.5 + 0.001 * static_cast<double>(next_row);
      engine.Report(obs);
      next_row = (next_row + 1) % engine.matrix().num_queries();
    }
  }

  /// Reports enough servings to make a refit due and steps once: the step
  /// drains them and starts the refit.
  void StartRefit() {
    Report(engine.online_options().refresh_every);
    ASSERT_TRUE(engine.TrainStep());
  }

  CompleterPredictor predictor;
  ExplorationEngine engine;
  int next_row = 0;
};

TEST(SlicedRefitTest, DrainsAndPublishesBetweenSlicesWhileTheOldPairServes) {
  ShardEngine s(ShardMatrix(kShardRows, kHints, 1));
  ExplorationEngine& engine = s.engine;
  const linalg::Matrix* installed = &engine.predictions();
  const linalg::Matrix installed_copy = engine.predictions();
  const CompletionFactors factors = engine.warm_factors();
  const uint64_t refits = engine.refits_completed();

  s.StartRefit();
  ASSERT_TRUE(engine.refit_in_flight())
      << "a 1566 x 49 warm refit should take more than one slice";
  int slices = 1;
  while (engine.refit_in_flight()) {
    // Each step between slices drains what the servers reported and
    // publishes it (publish_every is 8), still over the installed pair.
    s.Report(16);
    const uint64_t version = engine.snapshot_version();
    ASSERT_TRUE(engine.TrainStep());
    ++slices;
    EXPECT_EQ(engine.drained_servings(), engine.claimed_servings());
    EXPECT_GT(engine.snapshot_version(), version);
    EXPECT_EQ(engine.snapshot()->published_seq(), engine.drained_servings());
    if (!engine.refit_in_flight()) break;
    EXPECT_EQ(engine.refits_completed(), refits);
    EXPECT_EQ(&engine.predictions(), installed);
    EXPECT_TRUE(SameBits(engine.predictions(), installed_copy));
    EXPECT_TRUE(SameFactors(engine.warm_factors(), factors));
    EXPECT_TRUE(engine.snapshot()->has_predictions());
    ASSERT_LT(slices, 100) << "the refit never finished";
  }
  EXPECT_GE(slices, 3);
  EXPECT_EQ(engine.refits_completed(), refits + 1);
  EXPECT_NE(&engine.predictions(), installed);
  EXPECT_FALSE(SameFactors(engine.warm_factors(), factors));
  // The installing step rebuilt the snapshot base over the new predictions.
  EXPECT_EQ(engine.snapshot()->delta_rows(), 0);
  EXPECT_TRUE(engine.snapshot()->has_predictions());
}

TEST(SlicedRefitTest, InstallsExactlyTheFitOfTheMatrixAtItsStart) {
  ShardEngine s(ShardMatrix(kShardRows, kHints, 2));
  ExplorationEngine& engine = s.engine;
  s.Report(engine.online_options().refresh_every);
  // Drain up front, so the step below starts the refit on exactly this
  // matrix.
  engine.Drain();
  const WorkloadMatrix at_start = engine.matrix();
  const CompletionFactors warm = engine.warm_factors();
  ASSERT_TRUE(engine.TrainStep());
  ASSERT_TRUE(engine.refit_in_flight());
  while (engine.refit_in_flight()) {
    // New complete cells (not just default-plan re-observations) land
    // between slices, so any read of the live matrix would show.
    s.Report(8);
    for (int q = 0; q < 8; ++q) {
      if (!engine.matrix().IsComplete(q, 1 + q)) {
        engine.Observe(q, 1 + q, 0.25);
      }
    }
    ASSERT_TRUE(engine.TrainStep());
  }
  EXPECT_GT(engine.matrix().NumComplete(), at_start.NumComplete());

  AlsCompleter reference(ServingAls());
  CompletionFactors factors = warm;
  StatusOr<linalg::Matrix> expected = reference.CompleteFrom(at_start, &factors);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameBits(engine.predictions(), *expected));
  EXPECT_TRUE(SameFactors(engine.warm_factors(), factors));
  // Updates drained after the fit read the matrix still count toward the
  // next refresh.
  EXPECT_GT(engine.updates_since_refresh(), 0);
}

TEST(SlicedRefitTest, CheckpointMidRefitHoldsTheInstalledPair) {
  ShardEngine s(ShardMatrix(kShardRows, kHints, 3));
  ExplorationEngine& engine = s.engine;
  const linalg::Matrix installed = engine.predictions();
  const CompletionFactors factors = engine.warm_factors();
  s.StartRefit();
  s.Report(16);
  ASSERT_TRUE(engine.TrainStep());
  ASSERT_TRUE(engine.refit_in_flight());

  const EngineCheckpoint c = engine.MakeCheckpoint();
  ASSERT_TRUE(c.have_predictions);
  EXPECT_TRUE(SameBits(c.predictions, installed));
  EXPECT_TRUE(SameFactors(c.factors, factors));
  EXPECT_EQ(c.serving_seq, engine.drained_servings());
  EXPECT_EQ(c.updates_since_refresh, engine.updates_since_refresh());
}

TEST(SlicedRefitTest, StopMidRefitLeavesEverythingDrainedAndPublished) {
  ShardEngine s(ShardMatrix(kShardRows, kHints, 4));
  ExplorationEngine& engine = s.engine;
  s.StartRefit();
  ASSERT_TRUE(engine.refit_in_flight());
  // Servings reported after the last step: only the shutdown tail (what
  // StopTraining runs once its thread has joined) can drain them.
  s.Report(100);
  engine.FinishTrainSteps();
  EXPECT_FALSE(engine.refit_in_flight());
  EXPECT_EQ(engine.drained_servings(), engine.claimed_servings());
  const std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
  EXPECT_EQ(snap->published_seq(), engine.drained_servings());
  EXPECT_EQ(snap->version(), engine.snapshot_version());
  EXPECT_TRUE(snap->has_predictions());
}

TEST(SlicedRefitTest, JobSizedWarmRefitInstallsInTheStepThatStartsIt) {
  StatusOr<simdb::SimulatedDatabase> db =
      workloads::MakeWorkload(workloads::WorkloadId::kJob, 1.0, 42);
  ASSERT_TRUE(db.ok());
  WorkloadMatrix w(db->num_queries(), db->num_hints());
  Rng rng(5);
  for (int i = 0; i < w.num_queries(); ++i) {
    w.Observe(i, 0, db->TrueLatency(i, 0));
    for (int j = 1; j < w.num_hints(); ++j) {
      if (rng.Bernoulli(0.05)) w.Observe(i, j, db->TrueLatency(i, j));
    }
  }
  ShardEngine s(std::move(w));
  ExplorationEngine& engine = s.engine;
  const uint64_t refits = engine.refits_completed();
  const linalg::Matrix* installed = &engine.predictions();
  s.StartRefit();
  EXPECT_FALSE(engine.refit_in_flight());
  EXPECT_EQ(engine.refits_completed(), refits + 1);
  EXPECT_NE(&engine.predictions(), installed);
}

}  // namespace
}  // namespace limeqo::core
