#ifndef LIMEQO_CORE_ALS_H_
#define LIMEQO_CORE_ALS_H_

#include <cstdint>
#include <memory>

#include "core/completer.h"

namespace limeqo::core {

/// How timed-out (censored) observations are fed to the model. The paper's
/// contribution is kCensored; the other modes exist for the Sec. 5.5.4
/// ablation and for reproducing the naive prior-work behaviour.
enum class CensoredMode {
  /// Paper Algorithm 2: censored cells are unobserved for the least-squares
  /// fit, but predictions below the censoring threshold are clamped up to it
  /// before each factor update (lines 4-5 and 9-10).
  kCensored = 0,
  /// Balsa-style: treat the timeout value as if it were the true latency
  /// (misleads the model, see paper Sec. 1 "Trouble with timeouts").
  kNaiveObserved,
  /// Discard censored observations entirely.
  kIgnore,
};

/// The space the alternating-least-squares fit operates in.
enum class FitSpace {
  /// Paper Algorithm 2 verbatim: fit raw latencies with non-negative
  /// factors. Works well once the matrix is reasonably filled (Fig. 17's
  /// p >= 0.1 on JOB), but at exploration-time fills (1-5%) the Frobenius
  /// objective is dominated by the longest queries and worst plans.
  kRaw = 0,
  /// Fit log(latency / row default) after removing a shrunk per-hint bias
  /// (the classic collaborative-filtering baseline-plus-residual model).
  /// Row normalization removes the orders-of-magnitude base-latency spread,
  /// the log compresses the bad-plan tail, and the per-hint bias captures
  /// the dominant "some hints are globally good" effect from only a handful
  /// of observations — exactly the structure Fig. 14's leading singular
  /// value reflects. Predictions are mapped back to seconds, so callers are
  /// unaffected. This is the default for exploration.
  kLogRatio,
};

/// Options for the censored, non-negative alternating-least-squares matrix
/// completion of paper Algorithm 2. Defaults are the paper's experimental
/// settings (r = 5, lambda = 0.2, t = 50).
struct AlsOptions {
  int rank = 5;
  double lambda = 0.2;
  int iterations = 50;
  /// Non-negativity projection of the factors (Algorithm 2 lines 7/12).
  /// Only meaningful in FitSpace::kRaw; the log-ratio space is signed by
  /// construction (its predictions are positive after the exp transform).
  bool non_negative = true;
  FitSpace fit_space = FitSpace::kLogRatio;
  /// Shrinkage pseudo-count for the per-hint bias in kLogRatio: the bias of
  /// a hint observed c times is weighted c / (c + shrinkage).
  double bias_shrinkage = 5.0;
  CensoredMode censored_mode = CensoredMode::kCensored;
  /// Seed for the random factor initialization.
  uint64_t seed = 7;
  /// Convergence-based early termination. 0 disables it (always runs
  /// `iterations` sweeps, the paper's fixed-t Algorithm 2). When > 0 and a
  /// validation split exists, alternation stops after convergence_patience
  /// consecutive sweeps without a relative held-out-RMSE improvement of at
  /// least this tolerance — and a warm start's *initial* factors count as
  /// the first candidate fit, so a warm start already at the fixed point
  /// exits after just the patience window while a cold start first has to
  /// climb out of its random initialization. Without a validation split
  /// the criterion falls back to the relative Frobenius-norm change of the
  /// factor pair between sweeps. The refresh path of the serving engine
  /// enables this so warm-started refits (CompleteFrom) are measurably
  /// cheaper than cold ones.
  double convergence_tol = 0.0;
  /// Sweeps without sufficient validation improvement tolerated before the
  /// convergence_tol criterion stops the alternation.
  int convergence_patience = 3;
  /// Validation-based early stopping. Filled-matrix ALS (Algorithm 2) can
  /// drift at very low observation densities: imputed entries feed back
  /// into the least-squares fit and slowly self-reinforce. Holding out a
  /// small fraction of the observed cells and keeping the factor pair with
  /// the best held-out error turns that drift into a benign early stop.
  /// Disabled automatically when there are too few observations to split.
  bool early_stopping = true;
  /// Fraction of observed cells held out when early_stopping is on.
  double validation_fraction = 0.1;
};

/// Censored non-negative ALS (paper Algorithm 2).
///
/// Solves  min_{Q,H} || M .* (W - Q H^T) ||_F^2 + lambda (||Q||_F^2 +
/// ||H||_F^2)  by alternating ridge least-squares updates of Q and H, with
/// censored clamping and non-negativity projection between updates.
class AlsCompleter : public Completer {
 public:
  explicit AlsCompleter(AlsOptions options = {});

  StatusOr<linalg::Matrix> Complete(const WorkloadMatrix& w) override;

  /// Warm-started completion (the Completer warm-start contract): seeds the
  /// alternating solve from `factors` when they are compatible — same
  /// rank, same hint count, at most as many query rows as `w` (rows that
  /// arrived since the last fit get a fresh random initialization), and
  /// neither factor all zero (zero is a fixed point of the alternation, so
  /// collapsed factors would never recover) — and writes the refit factors
  /// back. Combined with
  /// AlsOptions::convergence_tol this is what makes incremental refreshes
  /// cheap: a warm start enters the alternating loop near the fixed point
  /// and exits after a few sweeps.
  StatusOr<linalg::Matrix> CompleteFrom(const WorkloadMatrix& w,
                                        CompletionFactors* factors) override;

  /// The CompleteFrom fit as a resumable job (Completer::StartCompletion):
  /// this call reads `w` and `warm` into the fit problem, and each
  /// CompletionJob::Advance then runs whole phases (one alternating sweep,
  /// or the output pass) until about kSliceMultiplyAdds of work are done.
  /// Complete and CompleteFrom run this same job to completion, so the
  /// finished result is bitwise theirs. The job fits in the completer's
  /// own scratch, never in a borrowed arena (SetArena), because it may be
  /// advanced from a different thread on each train step; on Finish it
  /// updates query_factors(), hint_factors() and last_iterations().
  std::unique_ptr<CompletionJob> StartCompletion(
      const WorkloadMatrix& w, const CompletionFactors* warm) override;

  /// Work budget of one CompletionJob::Advance slice, in multiply-adds: a
  /// slice ends at the first phase boundary past it. A JOB-sized (113 x 49)
  /// warm refit fits in one slice; a 1566 x 49 rank-5 sweep is one slice on
  /// its own (~0.4 ms).
  static constexpr double kSliceMultiplyAdds = 1 << 20;

  std::string name() const override { return "ALS"; }

  /// Borrows `arena` for the fill / factor-update / Gram-Cholesky buffers
  /// of subsequent Complete and CompleteFrom calls (nullptr reverts to
  /// private buffers; StartCompletion jobs always use the latter). See
  /// Completer::SetArena for the ownership contract; results are bitwise
  /// identical either way because every buffer is fully overwritten before
  /// use.
  void SetArena(CompletionArena* arena) override { arena_ = arena; }

  const AlsOptions& options() const { return options_; }

  /// The factor matrices from the most recent Complete() call (n x r and
  /// k x r). Exposed for diagnostics and tests.
  const linalg::Matrix& query_factors() const { return q_; }
  const linalg::Matrix& hint_factors() const { return h_; }

  /// Alternating sweeps the most recent completion actually ran before the
  /// convergence tolerance (when enabled) stopped it; equals
  /// options().iterations otherwise. The warm-vs-cold refit win in
  /// bench_micro is visible here directly.
  int last_iterations() const { return last_iterations_; }

 private:
  /// One completion, from the matrix read to the output pass (als.cc).
  class Fit;

  AlsOptions options_;
  linalg::Matrix q_;
  linalg::Matrix h_;
  int last_iterations_ = 0;
  /// Borrowed scratch (SetArena); fallback_arena_ serves when none is set,
  /// so the no-allocation-after-first-call property holds either way.
  CompletionArena* arena_ = nullptr;
  CompletionArena fallback_arena_;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_ALS_H_
