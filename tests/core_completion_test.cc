#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/als.h"
#include "core/nuclear_norm.h"
#include "core/svt.h"
#include "linalg/svd.h"
#include "simdb/database.h"
#include "workloads/workloads.h"

namespace limeqo::core {
namespace {

/// Builds a random non-negative rank-r ground truth and a WorkloadMatrix
/// with a fraction p of entries observed.
struct PlantedProblem {
  linalg::Matrix truth;
  WorkloadMatrix observed;
};

PlantedProblem MakePlanted(int n, int k, int rank, double p, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix q = linalg::Matrix::Random(n, rank, &rng, 0.1, 1.0);
  linalg::Matrix h = linalg::Matrix::Random(k, rank, &rng, 0.1, 1.0);
  PlantedProblem prob{q * h.Transposed(), WorkloadMatrix(n, k)};
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      if (rng.Bernoulli(p)) prob.observed.Observe(i, j, prob.truth(i, j));
    }
  }
  // Guarantee at least one observation.
  prob.observed.Observe(0, 0, prob.truth(0, 0));
  return prob;
}

double UnobservedRmse(const PlantedProblem& prob, const linalg::Matrix& est) {
  double se = 0.0;
  int count = 0;
  for (int i = 0; i < prob.observed.num_queries(); ++i) {
    for (int j = 0; j < prob.observed.num_hints(); ++j) {
      if (!prob.observed.IsComplete(i, j)) {
        const double d = est(i, j) - prob.truth(i, j);
        se += d * d;
        ++count;
      }
    }
  }
  return std::sqrt(se / std::max(count, 1));
}

double TruthScale(const PlantedProblem& prob) {
  return prob.truth.FrobeniusNorm() /
         std::sqrt(static_cast<double>(prob.truth.size()));
}

/// The threaded linalg core must not make completion results depend on the
/// thread count: LIMEQO_THREADS=1 and LIMEQO_THREADS=8 (here pinned via
/// SetNumThreads) have to produce bitwise-identical output.
TEST(AlsTest, CompleteIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(77);
  PlantedProblem prob = MakePlanted(120, 40, 4, 0.15, 7);
  // Mix in censored observations so the clamp path runs threaded too.
  for (int i = 0; i < prob.observed.num_queries(); ++i) {
    for (int j = 0; j < prob.observed.num_hints(); ++j) {
      if (prob.observed.IsUnobserved(i, j) && rng.Bernoulli(0.05)) {
        prob.observed.ObserveCensored(i, j, prob.truth(i, j) * 0.5);
      }
    }
  }
  for (FitSpace space : {FitSpace::kLogRatio, FitSpace::kRaw}) {
    AlsOptions opt;
    opt.rank = 4;
    opt.fit_space = space;
    SetNumThreads(1);
    AlsCompleter als_single(opt);
    StatusOr<linalg::Matrix> single = als_single.Complete(prob.observed);
    ASSERT_TRUE(single.ok());
    SetNumThreads(8);
    AlsCompleter als_multi(opt);
    StatusOr<linalg::Matrix> multi = als_multi.Complete(prob.observed);
    ASSERT_TRUE(multi.ok());
    SetNumThreads(1);
    ASSERT_EQ(single->size(), multi->size());
    EXPECT_EQ(std::memcmp(single->data(), multi->data(),
                          single->size() * sizeof(double)),
              0)
        << "ALS output depends on the thread count (fit_space="
        << static_cast<int>(space) << ")";
  }
}

TEST(SvtTest, CompleteIsBitwiseIdenticalAcrossThreadCounts) {
  PlantedProblem prob = MakePlanted(80, 30, 3, 0.3, 9);
  SetNumThreads(1);
  SvtCompleter svt_single;
  StatusOr<linalg::Matrix> single = svt_single.Complete(prob.observed);
  ASSERT_TRUE(single.ok());
  SetNumThreads(8);
  SvtCompleter svt_multi;
  StatusOr<linalg::Matrix> multi = svt_multi.Complete(prob.observed);
  ASSERT_TRUE(multi.ok());
  SetNumThreads(1);
  ASSERT_EQ(single->size(), multi->size());
  EXPECT_EQ(std::memcmp(single->data(), multi->data(),
                        single->size() * sizeof(double)),
            0)
      << "SVT output depends on the thread count";
}

TEST(AlsTest, RecoversPlantedLowRankMatrix) {
  PlantedProblem prob = MakePlanted(60, 30, 3, 0.5, 1);
  AlsOptions opt;
  opt.rank = 3;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(UnobservedRmse(prob, *est), 0.1 * TruthScale(prob));
}

TEST(AlsTest, ObservedEntriesPassThrough) {
  PlantedProblem prob = MakePlanted(20, 10, 2, 0.4, 2);
  AlsCompleter als;
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (prob.observed.IsComplete(i, j)) {
        EXPECT_DOUBLE_EQ((*est)(i, j), prob.truth(i, j));
      }
    }
  }
}

TEST(AlsTest, FactorsAreNonNegativeInRawSpace) {
  PlantedProblem prob = MakePlanted(30, 15, 3, 0.5, 3);
  AlsOptions opt;
  opt.fit_space = FitSpace::kRaw;  // Algorithm 2 verbatim
  AlsCompleter als(opt);
  ASSERT_TRUE(als.Complete(prob.observed).ok());
  EXPECT_GE(als.query_factors().data()[0], -1e-12);
  for (size_t i = 0; i < als.query_factors().size(); ++i) {
    EXPECT_GE(als.query_factors().data()[i], 0.0);
  }
  for (size_t i = 0; i < als.hint_factors().size(); ++i) {
    EXPECT_GE(als.hint_factors().data()[i], 0.0);
  }
}

TEST(AlsTest, PredictionsAreNonNegativeUnderNonNegOption) {
  PlantedProblem prob = MakePlanted(30, 15, 3, 0.3, 4);
  AlsCompleter als;
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  for (size_t i = 0; i < est->size(); ++i) {
    EXPECT_GE(est->data()[i], 0.0);
  }
}

TEST(AlsTest, ErrorsWithoutObservations) {
  WorkloadMatrix w(5, 5);
  AlsCompleter als;
  EXPECT_FALSE(als.Complete(w).ok());
}

TEST(AlsTest, CensoredClampRaisesPredictions) {
  // A cell censored at a threshold far above the low-rank prediction must
  // be predicted at or near the threshold by the censored mode, while the
  // ignore mode stays near the (too low) low-rank value.
  PlantedProblem prob = MakePlanted(40, 20, 2, 0.6, 5);
  const double huge = 50.0 * TruthScale(prob);
  prob.observed.Clear(3, 4);  // ensure the cell is not already complete
  prob.observed.ObserveCensored(3, 4, huge);

  AlsOptions censored_opt;
  censored_opt.censored_mode = CensoredMode::kCensored;
  AlsCompleter censored(censored_opt);
  StatusOr<linalg::Matrix> est_c = censored.Complete(prob.observed);
  ASSERT_TRUE(est_c.ok());

  AlsOptions ignore_opt;
  ignore_opt.censored_mode = CensoredMode::kIgnore;
  AlsCompleter ignore(ignore_opt);
  StatusOr<linalg::Matrix> est_i = ignore.Complete(prob.observed);
  ASSERT_TRUE(est_i.ok());

  EXPECT_GT((*est_c)(3, 4), (*est_i)(3, 4));
}

TEST(AlsTest, NaiveObservedTreatsTimeoutAsTruth) {
  PlantedProblem prob = MakePlanted(30, 15, 2, 0.6, 6);
  prob.observed.Clear(2, 2);
  prob.observed.ObserveCensored(2, 2, 7.0);
  AlsOptions opt;
  opt.censored_mode = CensoredMode::kNaiveObserved;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  // Naive mode passes the timeout through as an observed value.
  EXPECT_DOUBLE_EQ((*est)(2, 2), 7.0);
}

TEST(AlsTest, LogRatioRecoversScaleHeterogeneousMatrix) {
  // Rows spanning orders of magnitude: raw-space least squares is dominated
  // by the largest rows, the log-ratio space is scale-free.
  Rng rng(31);
  PlantedProblem prob = MakePlanted(60, 30, 3, 0.4, 31);
  for (int i = 0; i < 60; ++i) {
    const double scale = std::exp(rng.Gaussian(0.0, 2.0));
    for (int j = 0; j < 30; ++j) {
      prob.truth(i, j) *= scale;
      if (prob.observed.IsComplete(i, j)) {
        prob.observed.Clear(i, j);
        prob.observed.Observe(i, j, prob.truth(i, j));
      }
    }
  }
  AlsOptions opt;
  opt.fit_space = FitSpace::kLogRatio;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  // Scale-free accuracy metric: mean relative error on unobserved cells.
  double rel = 0.0;
  int count = 0;
  for (int i = 0; i < 60; ++i) {
    for (int j = 0; j < 30; ++j) {
      if (!prob.observed.IsComplete(i, j)) {
        rel += std::abs((*est)(i, j) - prob.truth(i, j)) / prob.truth(i, j);
        ++count;
      }
    }
  }
  EXPECT_LT(rel / count, 0.25);
}

TEST(AlsTest, LogRatioPredictionsArePositive) {
  PlantedProblem prob = MakePlanted(30, 15, 3, 0.3, 32);
  AlsOptions opt;
  opt.fit_space = FitSpace::kLogRatio;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  for (size_t i = 0; i < est->size(); ++i) {
    EXPECT_GT(est->data()[i], 0.0);
  }
}

TEST(SvtTest, RecoversDensePlantedMatrix) {
  PlantedProblem prob = MakePlanted(40, 25, 3, 0.6, 7);
  SvtCompleter svt;
  StatusOr<linalg::Matrix> est = svt.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(UnobservedRmse(prob, *est), 0.35 * TruthScale(prob));
}

TEST(SvtTest, ErrorsWithoutObservations) {
  WorkloadMatrix w(5, 5);
  SvtCompleter svt;
  EXPECT_FALSE(svt.Complete(w).ok());
}

TEST(NuclearNormTest, RecoversPlantedMatrix) {
  PlantedProblem prob = MakePlanted(40, 25, 3, 0.4, 8);
  NuclearNormCompleter nuc;
  StatusOr<linalg::Matrix> est = nuc.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(UnobservedRmse(prob, *est), 0.3 * TruthScale(prob));
}

TEST(NuclearNormTest, ErrorsWithoutObservations) {
  WorkloadMatrix w(4, 4);
  NuclearNormCompleter nuc;
  EXPECT_FALSE(nuc.Complete(w).ok());
}

/// Sweep: ALS accuracy across ranks and observation densities. The paper's
/// choice r = 5 should be robust for true rank <= 5 (Sec. 5.5.3).
struct AlsSweepParam {
  int true_rank;
  double density;
};

class AlsSweep : public ::testing::TestWithParam<AlsSweepParam> {};

TEST_P(AlsSweep, RecoversAcrossConfigurations) {
  PlantedProblem prob = MakePlanted(
      80, 40, GetParam().true_rank, GetParam().density,
      1000 + GetParam().true_rank * 17 +
          static_cast<uint64_t>(GetParam().density * 100));
  AlsOptions opt;
  opt.rank = 5;  // paper default
  // The sparsest configurations need more alternations to reach a good
  // iterate; validation-based early stopping keeps the best one.
  opt.iterations = 200;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(UnobservedRmse(prob, *est), 0.25 * TruthScale(prob))
      << "true_rank=" << GetParam().true_rank
      << " density=" << GetParam().density;
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndDensities, AlsSweep,
    ::testing::Values(AlsSweepParam{1, 0.2}, AlsSweepParam{2, 0.3},
                      AlsSweepParam{3, 0.3}, AlsSweepParam{4, 0.4},
                      AlsSweepParam{5, 0.5}, AlsSweepParam{2, 0.15},
                      AlsSweepParam{3, 0.6}));

TEST(AlsTest, LogRatioTransfersColumnQualityToUnseenRows) {
  // The collaborative-filtering property that drives early exploration:
  // when hint column 3 is observed to halve latency on SOME rows, the
  // model should predict that hint 3 beats the default on rows where only
  // the default has been observed.
  const int n = 60, k = 10;
  Rng rng(77);
  WorkloadMatrix w(n, k);
  std::vector<double> defaults(n);
  for (int i = 0; i < n; ++i) {
    defaults[i] = rng.LogNormal(0.0, 1.5);
    w.Observe(i, 0, defaults[i]);
  }
  // Hint 3 observed on the first 20 rows only, always ~0.5x the default.
  for (int i = 0; i < 20; ++i) {
    w.Observe(i, 3, 0.5 * defaults[i] * rng.Uniform(0.9, 1.1));
  }
  AlsCompleter als;  // default options: log-ratio fit space
  StatusOr<linalg::Matrix> est = als.Complete(w);
  ASSERT_TRUE(est.ok());
  int predicted_faster = 0;
  for (int i = 20; i < n; ++i) {
    if ((*est)(i, 3) < defaults[i]) ++predicted_faster;
  }
  EXPECT_GE(predicted_faster, (n - 20) * 9 / 10);
}

TEST(AlsTest, EarlyStoppingHarmlessOnConstantRowMatrices) {
  // A matrix where every observed cell of a row carries the same value
  // (the all-defaults start state) must not be degraded by the validation
  // split: constant rows are excluded from validation by design.
  const int n = 30, k = 8;
  Rng rng(78);
  WorkloadMatrix w(n, k);
  for (int i = 0; i < n; ++i) {
    const double d = rng.LogNormal(0.0, 1.0);
    w.Observe(i, 0, d);
    w.Observe(i, 1, d);  // same plan-equivalence class as the default
  }
  AlsOptions opt;
  opt.early_stopping = true;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(w);
  ASSERT_TRUE(est.ok());
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ((*est)(i, 0), w.observed(i, 0));
    EXPECT_DOUBLE_EQ((*est)(i, 1), w.observed(i, 1));
  }
}

/// Invariant sweep across every (censored mode, fit space) combination:
/// whatever the configuration, Complete() must pass observed values
/// through, produce positive finite predictions, and respect censoring
/// floors in kCensored mode.
struct ModeSpaceParam {
  CensoredMode mode;
  FitSpace space;
};

class AlsModeSpaceSweep : public ::testing::TestWithParam<ModeSpaceParam> {};

TEST_P(AlsModeSpaceSweep, CoreInvariantsHold) {
  PlantedProblem prob = MakePlanted(40, 20, 3, 0.35, 91);
  // Add a censored cell with a high threshold.
  prob.observed.Clear(5, 7);
  const double threshold = 20.0 * TruthScale(prob);
  prob.observed.ObserveCensored(5, 7, threshold);

  AlsOptions opt;
  opt.censored_mode = GetParam().mode;
  opt.fit_space = GetParam().space;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());

  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 20; ++j) {
      const double v = (*est)(i, j);
      EXPECT_TRUE(std::isfinite(v)) << i << "," << j;
      if (prob.observed.IsComplete(i, j)) {
        EXPECT_DOUBLE_EQ(v, prob.truth(i, j));
      }
    }
  }
  if (GetParam().mode == CensoredMode::kCensored) {
    // The censored technique never predicts below the threshold.
    EXPECT_GE((*est)(5, 7), threshold * (1.0 - 1e-9));
  }
  if (GetParam().mode == CensoredMode::kNaiveObserved) {
    EXPECT_DOUBLE_EQ((*est)(5, 7), threshold);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSpaces, AlsModeSpaceSweep,
    ::testing::Values(
        ModeSpaceParam{CensoredMode::kCensored, FitSpace::kRaw},
        ModeSpaceParam{CensoredMode::kCensored, FitSpace::kLogRatio},
        ModeSpaceParam{CensoredMode::kNaiveObserved, FitSpace::kRaw},
        ModeSpaceParam{CensoredMode::kNaiveObserved, FitSpace::kLogRatio},
        ModeSpaceParam{CensoredMode::kIgnore, FitSpace::kRaw},
        ModeSpaceParam{CensoredMode::kIgnore, FitSpace::kLogRatio}));

// FNV-1a over exact double bit patterns, so the hash pins values bitwise.
void MixBits(uint64_t* h, double v) {
  unsigned char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  for (unsigned char b : bytes) {
    *h ^= b;
    *h *= 0x100000001B3ULL;
  }
}

void MixMatrix(uint64_t* h, const linalg::Matrix& m) {
  MixBits(h, static_cast<double>(m.rows()));
  MixBits(h, static_cast<double>(m.cols()));
  for (size_t c = 0; c < m.size(); ++c) MixBits(h, m.data()[c]);
}

/// Mixes one finished completion: its output, both factor matrices and the
/// sweep count.
void MixCompletion(uint64_t* h, const AlsCompleter& als,
                   const linalg::Matrix& out) {
  MixMatrix(h, out);
  MixMatrix(h, als.query_factors());
  MixMatrix(h, als.hint_factors());
  MixBits(h, static_cast<double>(als.last_iterations()));
}

/// The exploration start state on a real workload: every default plan
/// observed, plus a seeded ~4% of complete and ~1% of timed-out cells (each
/// censored at half its true latency, a valid lower bound).
WorkloadMatrix SeededWorkloadMatrix(const simdb::SimulatedDatabase& db,
                                    uint64_t seed) {
  WorkloadMatrix w(db.num_queries(), db.num_hints());
  Rng rng(seed);
  for (int i = 0; i < db.num_queries(); ++i) {
    w.Observe(i, 0, db.TrueLatency(i, 0));
    for (int j = 1; j < db.num_hints(); ++j) {
      const double u = rng.Uniform(0.0, 1.0);
      if (u < 0.04) {
        w.Observe(i, j, db.TrueLatency(i, j));
      } else if (u < 0.05) {
        w.ObserveCensored(i, j, 0.5 * db.TrueLatency(i, j));
      }
    }
  }
  return w;
}

// Pins ALS completion bitwise on the paper's JOB (113 x 49) and CEB
// (3133 x 49) shapes: the exact bits of Complete's output, of both factor
// matrices and of last_iterations(). Each rank row mixes the censored fit
// in both fit spaces; the r5 row adds the other two censored modes, and the
// warm row a cold CompleteFrom followed by a warm refit (new observations
// and new query rows, convergence_tol = 1e-3) in both spaces. Any change to
// an accumulation order, a validation draw or the fit-problem construction
// moves a hash. Regenerate with LIMEQO_PRINT_ALS_HASH=1, but only when a
// change *intends* to alter completion numerics.
struct PinnedAls {
  workloads::WorkloadId workload;
  const char* config;
  uint64_t expected_hash;
};
constexpr PinnedAls kPinnedAls[] = {
    {workloads::WorkloadId::kJob, "r1", 0x5E8DE2150994823FULL},
    {workloads::WorkloadId::kJob, "r2", 0x3F6B626A447E814BULL},
    {workloads::WorkloadId::kJob, "r3", 0xD27005BA04A5C828ULL},
    {workloads::WorkloadId::kJob, "r5", 0x1B42CD0D01DA2A75ULL},
    {workloads::WorkloadId::kJob, "r7", 0x494EAF0DB705C409ULL},
    {workloads::WorkloadId::kJob, "r10", 0x456D9F427F4C2F5DULL},
    {workloads::WorkloadId::kJob, "r17", 0x2348447849D64809ULL},
    {workloads::WorkloadId::kJob, "warm", 0x6EDBEDB68F871C83ULL},
    {workloads::WorkloadId::kCeb, "r1", 0x3F42C55CC93E0281ULL},
    {workloads::WorkloadId::kCeb, "r2", 0x1A489751840E5732ULL},
    {workloads::WorkloadId::kCeb, "r3", 0x7B52FE795268BE64ULL},
    {workloads::WorkloadId::kCeb, "r5", 0x5DD7144590C1BFCCULL},
    {workloads::WorkloadId::kCeb, "r7", 0x20AB277517AD729AULL},
    {workloads::WorkloadId::kCeb, "r10", 0x4DB6663B5AA2A1E7ULL},
    {workloads::WorkloadId::kCeb, "r17", 0x460CC3303E6B3706ULL},
    {workloads::WorkloadId::kCeb, "warm", 0x05F9E38D66990330ULL},
};

uint64_t PinnedCompletionHash(const WorkloadMatrix& w,
                              const std::string& config,
                              const simdb::SimulatedDatabase& db) {
  uint64_t h = 0xCBF29CE484222325ULL;
  if (config == "warm") {
    for (FitSpace space : {FitSpace::kLogRatio, FitSpace::kRaw}) {
      AlsOptions opt;
      opt.fit_space = space;
      opt.convergence_tol = 1e-3;
      AlsCompleter als(opt);
      CompletionFactors factors;
      StatusOr<linalg::Matrix> cold = als.CompleteFrom(w, &factors);
      EXPECT_TRUE(cold.ok());
      if (!cold.ok()) return 0;
      MixCompletion(&h, als, *cold);
      // The refit sees a few more observations and two new query rows
      // (default only), which take the fresh-row initialization.
      WorkloadMatrix next = w;
      Rng rng(17);
      for (int s = 0; s < 40; ++s) {
        const int i = static_cast<int>(rng.UniformInt(0, w.num_queries() - 1));
        const int j = static_cast<int>(rng.UniformInt(1, w.num_hints() - 1));
        next.Observe(i, j, db.TrueLatency(i, j));
      }
      const int fresh = next.AppendQueries(2);
      next.Observe(fresh, 0, db.TrueLatency(0, 0));
      next.Observe(fresh + 1, 0, db.TrueLatency(1, 0));
      StatusOr<linalg::Matrix> warm = als.CompleteFrom(next, &factors);
      EXPECT_TRUE(warm.ok());
      if (!warm.ok()) return 0;
      MixCompletion(&h, als, *warm);
    }
    return h;
  }
  const int rank = std::atoi(config.c_str() + 1);
  std::vector<CensoredMode> modes = {CensoredMode::kCensored};
  if (rank == 5) {
    modes.push_back(CensoredMode::kNaiveObserved);
    modes.push_back(CensoredMode::kIgnore);
  }
  for (CensoredMode mode : modes) {
    for (FitSpace space : {FitSpace::kLogRatio, FitSpace::kRaw}) {
      AlsOptions opt;
      opt.rank = rank;
      opt.fit_space = space;
      opt.censored_mode = mode;
      AlsCompleter als(opt);
      StatusOr<linalg::Matrix> out = als.Complete(w);
      EXPECT_TRUE(out.ok());
      if (!out.ok()) return 0;
      MixCompletion(&h, als, *out);
    }
  }
  return h;
}

TEST(AlsTest, CompletionIsBitwisePinned) {
  const bool print_mode = std::getenv("LIMEQO_PRINT_ALS_HASH") != nullptr;
  for (workloads::WorkloadId id :
       {workloads::WorkloadId::kJob, workloads::WorkloadId::kCeb}) {
    StatusOr<simdb::SimulatedDatabase> db =
        workloads::MakeWorkload(id, 1.0, 42);
    ASSERT_TRUE(db.ok());
    const WorkloadMatrix w = SeededWorkloadMatrix(*db, 5);
    for (const PinnedAls& pinned : kPinnedAls) {
      if (pinned.workload != id) continue;
      const uint64_t h = PinnedCompletionHash(w, pinned.config, *db);
      if (print_mode) {
        std::printf("    {workloads::WorkloadId::%s, \"%s\", 0x%016llXULL},\n",
                    id == workloads::WorkloadId::kJob ? "kJob" : "kCeb",
                    pinned.config, static_cast<unsigned long long>(h));
        continue;
      }
      EXPECT_EQ(h, pinned.expected_hash)
          << "ALS completion changed bitwise ("
          << (id == workloads::WorkloadId::kJob ? "JOB" : "CEB") << ", "
          << pinned.config << ")";
    }
  }
}

/// Low-rank diagnostics: a planted workload matrix has concentrated
/// singular values, a random one does not (Fig. 14's premise).
TEST(LowRankDiagnostics, PlantedVsRandomSpectra) {
  Rng rng(99);
  PlantedProblem prob = MakePlanted(100, 49, 5, 1.0, 9);
  std::vector<double> planted_sv = linalg::SingularValues(prob.truth);
  linalg::Matrix random =
      linalg::Matrix::Random(100, 49, &rng, 0.0, 1.0);
  std::vector<double> random_sv = linalg::SingularValues(random);

  auto top5_energy = [](const std::vector<double>& sv) {
    double top = 0.0, total = 0.0;
    for (size_t i = 0; i < sv.size(); ++i) {
      total += sv[i] * sv[i];
      if (i < 5) top += sv[i] * sv[i];
    }
    return top / total;
  };
  EXPECT_GT(top5_energy(planted_sv), 0.999);
  EXPECT_LT(top5_energy(random_sv), 0.9);
}

}  // namespace
}  // namespace limeqo::core
