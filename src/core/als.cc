#include "core/als.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/als_sweep.h"

namespace limeqo::core {
namespace {

// Latencies below this are clamped before the log transform.
constexpr double kEpsLatency = 1e-6;

/// The effective fit problem after censored-mode handling and (optionally)
/// the log-ratio transform, as row-sorted sparse cell lists. It is the
/// fit's only read of the WorkloadMatrix: beside the fit-space values it
/// keeps what the validation split and the output pass need of the raw
/// matrix (each cell's raw value and whether it is complete), so a fit can
/// run on after the matrix has moved on. Every sum below runs over these
/// lists in row-major order (ascending row, then column), which
/// AlsTest.CompletionIsBitwisePinned pins.
struct FitProblem {
  /// Cells the fit treats as observed: the complete cells, plus the
  /// censored cells at their timeout under kNaiveObserved. `value` holds
  /// the fit target (in log-ratio space after ToLogRatioSpace).
  linalg::RowCells observed;
  /// Per observed cell: the raw value the output passes through (the
  /// measured latency, or the timeout under kNaiveObserved), and, under
  /// kNaiveObserved only, whether the cell is complete (every observed
  /// cell is, otherwise).
  std::vector<double> observed_raw;
  std::vector<uint8_t> observed_complete;
  /// kCensored only: the censoring lower bounds, in the fit space, and
  /// their raw timeouts.
  linalg::RowCells censored;
  std::vector<double> censored_raw;
  size_t num_complete = 0;
  /// kLogRatio bias terms; empty in kRaw.
  std::vector<double> row_bias;
  std::vector<double> col_bias;
  /// kLogRatio: the smallest and largest log(value) - row bias over the
  /// complete cells (the observed ratio envelope), taken by
  /// ToLogRatioSpace.
  double lo_ratio = 0.0;
  double hi_ratio = 0.0;

  bool complete(size_t c) const {
    return observed_complete.empty() || observed_complete[c] != 0;
  }
};

/// Builds the problem in one pass over the cell states and applies the
/// censored mode: kNaiveObserved moves censored cells into the observed
/// list; kIgnore leaves them unobserved with no clamp.
FitProblem BuildProblem(const WorkloadMatrix& w, CensoredMode mode) {
  FitProblem p;
  const size_t n = static_cast<size_t>(w.num_queries());
  const size_t k = static_cast<size_t>(w.num_hints());
  // Exact capacities: a serving matrix fills up, and the lists must not
  // outgrow the dense matrices they stand in for.
  p.num_complete = static_cast<size_t>(w.NumComplete());
  const size_t num_censored = static_cast<size_t>(w.NumCensored());
  const size_t num_observed =
      p.num_complete +
      (mode == CensoredMode::kNaiveObserved ? num_censored : 0);
  const size_t num_clamped = mode == CensoredMode::kCensored ? num_censored : 0;
  p.observed.Reserve(n, num_observed);
  p.observed_raw.reserve(num_observed);
  if (mode == CensoredMode::kNaiveObserved) {
    p.observed_complete.reserve(num_observed);
  }
  p.censored.Reserve(n, num_clamped);
  p.censored_raw.reserve(num_clamped);
  const double* values = w.values().data();
  const double* timeouts = w.timeouts().data();
  const auto observe = [&p, mode](size_t j, double v, bool complete) {
    p.observed.Add(j, v);
    p.observed_raw.push_back(v);
    if (mode == CensoredMode::kNaiveObserved) {
      p.observed_complete.push_back(complete ? 1 : 0);
    }
  };
  for (size_t i = 0; i < n; ++i) {
    const CellState* states = w.row_states(static_cast<int>(i));
    for (size_t j = 0; j < k; ++j) {
      if (states[j] == CellState::kComplete) {
        observe(j, values[i * k + j], true);
      } else if (states[j] == CellState::kCensored) {
        switch (mode) {
          case CensoredMode::kCensored:
            p.censored.Add(j, timeouts[i * k + j]);
            p.censored_raw.push_back(timeouts[i * k + j]);
            break;
          case CensoredMode::kNaiveObserved:
            // Pretend the timeout was the true latency.
            observe(j, timeouts[i * k + j], false);
            break;
          case CensoredMode::kIgnore:
            break;  // fully unobserved
        }
      }
    }
    p.observed.EndRow();
    p.censored.EndRow();
  }
  return p;
}

double SafeLog(double v) { return std::log(std::max(v, kEpsLatency)); }

/// Rewrites `p` in place into log-ratio space: x = log(v) - b_i - c_j with
/// b_i the row's observed default log latency (fallback: row mean, then
/// global mean) and c_j a shrunk per-hint mean residual.
void ToLogRatioSpace(FitProblem* p, size_t k, double bias_shrinkage) {
  linalg::RowCells& obs = p->observed;
  linalg::RowCells& cens = p->censored;
  const size_t n = obs.row_start.size() - 1;
  for (double& v : obs.value) v = SafeLog(v);

  double global_sum = 0.0;
  int global_count = 0;
  for (double v : obs.value) {
    global_sum += v;
    ++global_count;
  }
  const double global_mean =
      global_count > 0 ? global_sum / global_count : 0.0;

  p->row_bias.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const size_t begin = obs.row_start[i], end = obs.row_start[i + 1];
    if (begin < end && obs.col[begin] == 0) {
      p->row_bias[i] = obs.value[begin];
      continue;
    }
    double sum = 0.0;
    int count = 0;
    for (size_t c = begin; c < end; ++c) {
      sum += obs.value[c];
      ++count;
    }
    p->row_bias[i] = count > 0 ? sum / count : global_mean;
  }

  // Residuals after the row bias; then shrunk per-hint biases. The
  // residual of each complete cell is also where the output pass's ratio
  // envelope comes from. Censored
  // cells contribute their threshold (a lower bound on the hint's true
  // latency): this is conservative Tobit-style evidence that the hint is
  // *not fast* on that row, and it is exactly the information the initial
  // all-defaults matrix lacks — without it, a hint that keeps timing out
  // retains a neutral bias and keeps attracting probes. A row's cells are
  // distinct columns, so each column still sums in ascending row order.
  std::vector<double> col_sum(k, 0.0);
  std::vector<int> col_count(k, 0);
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    const double row_bias = p->row_bias[i];
    for (size_t c = obs.row_start[i]; c < obs.row_start[i + 1]; ++c) {
      obs.value[c] -= row_bias;
      col_sum[obs.col[c]] += obs.value[c];
      ++col_count[obs.col[c]];
      if (p->complete(c)) {
        const double x = obs.value[c];
        if (!any || x < p->lo_ratio) p->lo_ratio = x;
        if (!any || x > p->hi_ratio) p->hi_ratio = x;
        any = true;
      }
    }
    for (size_t c = cens.row_start[i]; c < cens.row_start[i + 1]; ++c) {
      cens.value[c] = SafeLog(cens.value[c]) - row_bias;
      col_sum[cens.col[c]] += cens.value[c];
      ++col_count[cens.col[c]];
    }
  }
  p->col_bias.assign(k, 0.0);
  for (size_t j = 0; j < k; ++j) {
    p->col_bias[j] = col_sum[j] / (col_count[j] + bias_shrinkage);
  }

  for (size_t c = 0; c < obs.size(); ++c) {
    obs.value[c] -= p->col_bias[obs.col[c]];
  }
  for (size_t c = 0; c < cens.size(); ++c) {
    cens.value[c] -= p->col_bias[cens.col[c]];
  }
}

/// A held-out complete cell: its fit target and the raw value the output
/// passes through.
struct ValidationCell {
  uint32_t i;
  uint32_t j;
  double value;
  double raw;
};

/// Work of the phases that are not sweeps, in the slice budget's unit (one
/// sweep multiply-add): per cell read from the matrix or drawn for the
/// validation split, and per log taken by the log-ratio transform. Both
/// were timed against the sweep kernels on a 1566 x 49 serving shard.
constexpr double kCellWork = 16.0;
constexpr double kLogWork = 32.0;

bool AllZero(const linalg::Matrix& m) {
  return std::all_of(m.data(), m.data() + m.size(),
                     [](double v) { return v == 0.0; });
}

}  // namespace

/// One completion (paper Algorithm 2) as a resumable job. The constructor
/// is the fit's only read of the matrix and of the warm factors: it builds
/// the fit problem and copies the warm factors in. Advance then runs whole
/// phases — the log-ratio transform, the validation split with the factor
/// initialization, one alternating sweep, the output pass — until
/// kSliceMultiplyAdds of work are done (the read counts toward the first
/// slice) or the fit is over. Every buffer the phases share lives in the
/// job or in `arena`, so nothing but time passes between two slices.
class AlsCompleter::Fit final : public CompletionJob {
 public:
  Fit(AlsCompleter* owner, CompletionArena* arena, const WorkloadMatrix& w,
      const CompletionFactors* warm);

  bool Advance() override;
  StatusOr<linalg::Matrix> Finish(CompletionFactors* factors) override;

 private:
  enum class Phase { kTransform, kPrepare, kSweeps, kOutput, kDone };

  /// Moves a random ~validation_fraction of the complete cells of rows
  /// with two distinct values out of the fit list.
  void SplitValidation();
  /// Copies compatible warm factors into q_ and h_ (the constructor's
  /// part of Algorithm 2 line 1); returns whether they were compatible.
  bool CopyWarmFactors(const CompletionFactors* warm);
  /// The rest of Algorithm 2 line 1, on the fit list: random rows for a
  /// cold start or for the rows a warm start has no factors for.
  void InitFactors();
  /// Runs the phase at hand; returns its work.
  double RunPhase();
  double ValidationRmse() const;
  /// One alternating sweep. Returns false once the alternation is over:
  /// the iteration cap, the convergence criterion, or a failed ridge solve
  /// (recorded in status_).
  bool Sweep();
  /// Algorithm 2 line 13: the final fill into result_.
  void Output();

  AlsCompleter* owner_;
  const AlsOptions options_;
  CompletionArena* arena_;
  const size_t n_;
  const size_t k_;
  const size_t r_;
  const bool log_space_;
  FitProblem in_;
  std::vector<ValidationCell> validation_;
  linalg::Matrix q_;
  linalg::Matrix h_;
  linalg::Matrix best_q_;
  linalg::Matrix best_h_;
  /// Query rows (a prefix) and whether the hint factors came from a
  /// compatible warm start.
  size_t warm_rows_ = 0;
  bool warm_ = false;
  double best_val_rmse_ = std::numeric_limits<double>::infinity();
  int stalled_sweeps_ = 0;
  int iterations_ = 0;
  /// Work already done toward the next slice: the read, for the first.
  double carried_work_ = 0.0;
  /// Multiply-adds of one sweep (two fills, two right-hand sides, two
  /// ridge solves) and of the output pass: the slice budget's units.
  double sweep_work_ = 0.0;
  double output_work_ = 0.0;
  Phase phase_ = Phase::kTransform;
  Status status_;
  linalg::Matrix result_;
};

AlsCompleter::Fit::Fit(AlsCompleter* owner, CompletionArena* arena,
                       const WorkloadMatrix& w, const CompletionFactors* warm)
    : owner_(owner),
      options_(owner->options_),
      arena_(arena),
      n_(static_cast<size_t>(w.num_queries())),
      k_(static_cast<size_t>(w.num_hints())),
      r_(static_cast<size_t>(owner->options_.rank)),
      log_space_(owner->options_.fit_space == FitSpace::kLogRatio),
      in_(BuildProblem(w, owner->options_.censored_mode)) {
  if (in_.num_complete == 0) {
    status_ = Status::FailedPrecondition(
        "ALS needs at least one complete observation");
    phase_ = Phase::kDone;
    return;
  }
  warm_ = CopyWarmFactors(warm);
  const double nk = static_cast<double>(n_ * k_);
  const double r = static_cast<double>(r_);
  sweep_work_ = 4.0 * nk * r + static_cast<double>(n_ + k_) * r * r;
  output_work_ = nk * (r + 1.0);
  carried_work_ = nk * kCellWork;
}

double AlsCompleter::Fit::RunPhase() {
  const double cells =
      static_cast<double>(in_.observed.size() + in_.censored.size());
  switch (phase_) {
    case Phase::kTransform:
      phase_ = Phase::kPrepare;
      if (!log_space_) return 0.0;
      ToLogRatioSpace(&in_, k_, options_.bias_shrinkage);
      return cells * kLogWork;
    case Phase::kPrepare:
      SplitValidation();
      InitFactors();
      if (!validation_.empty()) {
        best_q_ = q_;
        best_h_ = h_;
        // Under the convergence criterion the *initial* factors are the
        // first candidate fit: a warm start already at the alternating
        // fixed point then exits after just the patience window. (Skipped
        // when tol == 0 so the fixed-iteration path reproduces Algorithm 2
        // byte for byte.)
        if (options_.convergence_tol > 0.0) best_val_rmse_ = ValidationRmse();
      }
      phase_ = Phase::kSweeps;
      return cells * kCellWork;
    case Phase::kSweeps:
      if (Sweep()) return sweep_work_;
      if (!status_.ok()) {
        phase_ = Phase::kDone;
        return sweep_work_;
      }
      if (!validation_.empty()) {
        q_ = std::move(best_q_);
        h_ = std::move(best_h_);
      }
      phase_ = Phase::kOutput;
      return sweep_work_;
    case Phase::kOutput:
      Output();
      phase_ = Phase::kDone;
      return output_work_;
    case Phase::kDone:
      break;
  }
  return 0.0;
}

void AlsCompleter::Fit::SplitValidation() {
  // Validation cells are left out of the fit list but still pass through
  // as observed values in the final output.
  //
  // Only cells from rows with at least two *distinct* observed values
  // qualify: workload matrices contain large plan-equivalence classes whose
  // cells share one latency, and most rows start with only the default
  // class observed. A validation set drawn from such constant rows is
  // trivially easy and biases early stopping toward factors that predict
  // "the row constant" everywhere, erasing the signal of the few genuinely
  // distinct observations. (Exact equality is intentional: equivalence
  // classes share bit-identical values by construction.)
  if (!options_.early_stopping || in_.num_complete < 20) return;
  Rng val_rng(options_.seed ^ 0x9e3779b97f4a7c15ull);
  // Held-out cells move to `validation_`; the rest of each row compacts in
  // place, so `in_.observed` becomes the fit list.
  linalg::RowCells& obs = in_.observed;
  std::vector<double>& raw = in_.observed_raw;
  std::vector<uint8_t>& flags = in_.observed_complete;
  // A diverse row draws one uniform per complete cell, in column order:
  // Bernoulli(p) is NextDouble() < p, so one bulk draw per row takes the
  // same decisions.
  std::vector<double> draws(k_);
  size_t kept = 0;
  for (size_t i = 0; i < n_; ++i) {
    const size_t begin = obs.row_start[i];
    const size_t end = obs.row_start[i + 1];
    double first_value = 0.0;
    bool have_first = false;
    bool diverse = false;
    size_t row_complete = 0;
    for (size_t c = begin; c < end; ++c) {
      if (!in_.complete(c)) continue;
      ++row_complete;
      if (!have_first) {
        first_value = raw[c];
        have_first = true;
      } else if (raw[c] != first_value) {
        diverse = true;
      }
    }
    if (diverse) val_rng.NextDoubles(draws.data(), row_complete);
    size_t draw = 0;
    obs.row_start[i] = kept;
    for (size_t c = begin; c < end; ++c) {
      if (diverse && in_.complete(c) &&
          draws[draw++] < options_.validation_fraction) {
        validation_.push_back({static_cast<uint32_t>(i), obs.col[c],
                               obs.value[c], raw[c]});
      } else {
        obs.col[kept] = obs.col[c];
        obs.value[kept] = obs.value[c];
        raw[kept] = raw[c];
        if (!flags.empty()) flags[kept] = flags[c];
        ++kept;
      }
    }
  }
  obs.row_start[n_] = kept;
  obs.col.resize(kept);
  obs.value.resize(kept);
  raw.resize(kept);
  if (!flags.empty()) flags.resize(kept);
}

bool AlsCompleter::Fit::CopyWarmFactors(const CompletionFactors* warm) {
  // A warm start (the CompleteFrom contract) copies the previous fit's
  // factors when their shapes are compatible: same rank, same hint count,
  // and at most as many query rows as today's matrix — rows that arrived
  // since the last fit fall through to the cold initialization. All-zero
  // factors are never compatible: zero is a fixed point of the alternation
  // (with H = 0 the Q update is 0, and the reverse), which a fit on a
  // defaults-only matrix reaches once the row biases absorb every target,
  // so they would pin every later warm refit at biases only.
  q_ = linalg::Matrix(n_, r_);
  h_ = linalg::Matrix(k_, r_);
  const bool compatible =
      warm != nullptr && !warm->empty() && warm->query_factors.cols() == r_ &&
      warm->hint_factors.cols() == r_ && warm->hint_factors.rows() == k_ &&
      warm->query_factors.rows() <= n_ && !AllZero(warm->query_factors) &&
      !AllZero(warm->hint_factors);
  if (!compatible) return false;
  warm_rows_ = warm->query_factors.rows();
  std::copy(warm->query_factors.data(),
            warm->query_factors.data() + warm_rows_ * r_, q_.data());
  std::copy(warm->hint_factors.data(), warm->hint_factors.data() + k_ * r_,
            h_.data());
  return true;
}

void AlsCompleter::Fit::InitFactors() {
  // Without warm factors, in raw space, positive random values scaled per
  // row so the initial prediction for query i is near its mean observed
  // latency: latencies span orders of magnitude, so a row-aware start
  // matters. In log-ratio space the biases already absorb the scale, so
  // small signed factors around zero are correct.
  const size_t n = n_, k = k_, r = r_;
  const linalg::RowCells& fit = in_.observed;
  Rng rng(options_.seed);
  double* qd = q_.data();
  double* hd = h_.data();
  // Mean fit target of row i, 1.0 for a row with none (raw-space fresh
  // rows of a warm start).
  auto fit_row_mean = [&](size_t i) {
    double row_mean = 0.0;
    int row_count = 0;
    for (size_t c = fit.row_start[i]; c < fit.row_start[i + 1]; ++c) {
      row_mean += fit.value[c];
      ++row_count;
    }
    return row_count > 0 ? row_mean / row_count : 1.0;
  };
  if (warm_) {
    // Fresh rows (queries that arrived after the warm factors were fitted)
    // get the same per-space cold initialization as below: small signed
    // factors in log-ratio space, row-mean-scaled positive factors in raw
    // space. The scale matters in raw space: the first fill seeds the
    // row's unobserved targets from these factors, so a near-zero init
    // would anchor a fresh row's predictions at ~0 and manufacture
    // phantom improvement ratios for every newly arrived query.
    for (size_t i = warm_rows_; i < n; ++i) {
      if (log_space_) {
        for (size_t c = 0; c < r; ++c) qd[i * r + c] = rng.Uniform(-0.1, 0.1);
        continue;
      }
      const double scale =
          std::max(fit_row_mean(i), 1e-6) / static_cast<double>(r);
      for (size_t c = 0; c < r; ++c) {
        qd[i * r + c] = scale * rng.Uniform(0.6, 1.4);
      }
    }
  } else if (log_space_) {
    for (size_t c = 0; c < n * r; ++c) qd[c] = rng.Uniform(-0.1, 0.1);
    for (size_t c = 0; c < k * r; ++c) hd[c] = rng.Uniform(-0.1, 0.1);
  } else {
    double global_mean = 0.0;
    int count_obs = 0;
    std::vector<double> row_mean(n, 0.0);
    std::vector<int> row_count(n, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = fit.row_start[i]; c < fit.row_start[i + 1]; ++c) {
        row_mean[i] += fit.value[c];
        ++row_count[i];
        global_mean += fit.value[c];
        ++count_obs;
      }
    }
    global_mean = std::max(global_mean / std::max(count_obs, 1), 1e-6);
    for (size_t i = 0; i < n; ++i) {
      row_mean[i] =
          row_count[i] > 0 ? row_mean[i] / row_count[i] : global_mean;
    }
    const double spread_lo = 0.6, spread_hi = 1.4;
    for (size_t i = 0; i < n; ++i) {
      // With h entries ~ O(1), a row scale of row_mean / r makes the
      // initial dot product q_i . h_j land near row_mean[i].
      const double scale =
          std::max(row_mean[i], 1e-6) / static_cast<double>(r);
      for (size_t c = 0; c < r; ++c) {
        qd[i * r + c] = scale * rng.Uniform(spread_lo, spread_hi);
      }
    }
    for (size_t c = 0; c < k * r; ++c) {
      hd[c] = rng.Uniform(spread_lo, spread_hi);
    }
  }
}

double AlsCompleter::Fit::ValidationRmse() const {
  double se = 0.0;
  for (const ValidationCell& cell : validation_) {
    const double* qi = q_.data() + size_t{cell.i} * r_;
    const double* hj = h_.data() + size_t{cell.j} * r_;
    double pred = 0.0;
    for (size_t c = 0; c < r_; ++c) pred += qi[c] * hj[c];
    const double d = pred - cell.value;
    se += d * d;
  }
  return std::sqrt(se / static_cast<double>(validation_.size()));
}

bool AlsCompleter::Fit::Advance() {
  double work = carried_work_;
  carried_work_ = 0.0;
  while (phase_ != Phase::kDone && work < kSliceMultiplyAdds) {
    work += RunPhase();
  }
  return phase_ == Phase::kDone;
}

bool AlsCompleter::Fit::Sweep() {
  // Fills W-hat = M .* W + (1 - M) .* (Q H^T) and applies the censored
  // clamp (Algorithm 2 lines 3-5 / 8-10): the factor product, then a
  // scatter of the row-sorted observed and censored lists (disjoint by
  // construction) — no dense mask scan. Every arena buffer is fully
  // overwritten before it is read, so whose arena it is cannot change a
  // bit of the result.
  const linalg::RowCells& fit = in_.observed;
  linalg::Matrix& w_hat = arena_->w_hat;
  linalg::SweepWorkspace& ws = arena_->sweep;
  linalg::Matrix& q_next = arena_->q_next;
  linalg::Matrix& h_next = arena_->h_next;
  const bool non_negative = options_.non_negative && !log_space_;
  const bool converging = options_.convergence_tol > 0.0;
  ++iterations_;
  // Q update (Algorithm 2 lines 3-7): Q <- W_hat H (H^T H + lambda I)^-1.
  linalg::SweepFill(q_, h_, &fit, &in_.censored, &ws, &w_hat);
  linalg::SweepQRhs(w_hat, h_, &ws, &q_next);
  status_ = linalg::SweepRidgeSolve(h_, options_.lambda, &ws, &q_next);
  if (!status_.ok()) return false;
  std::swap(q_, q_next);
  if (non_negative) q_.ClampMin(0.0);

  // H update (Algorithm 2 lines 8-12): H <- W_hat^T Q (Q^T Q + l I)^-1,
  // with W_hat^T never materialized.
  linalg::SweepFill(q_, h_, &fit, &in_.censored, &ws, &w_hat);
  linalg::SweepHRhs(w_hat, q_, &h_next);
  status_ = linalg::SweepRidgeSolve(q_, options_.lambda, &ws, &h_next);
  if (!status_.ok()) return false;
  std::swap(h_, h_next);
  if (non_negative) h_.ClampMin(0.0);

  if (!validation_.empty()) {
    const double val_rmse = ValidationRmse();
    const bool improved_enough =
        val_rmse < best_val_rmse_ * (1.0 - options_.convergence_tol);
    if (val_rmse < best_val_rmse_) {
      best_val_rmse_ = val_rmse;
      best_q_ = q_;
      best_h_ = h_;
    }
    // Validation-stall convergence: once held-out error stops improving
    // the best factors are frozen anyway (the early-stopping guard), so
    // further sweeps only burn time.
    if (converging) {
      stalled_sweeps_ = improved_enough ? 0 : stalled_sweeps_ + 1;
      if (stalled_sweeps_ >= options_.convergence_patience) return false;
    }
  } else if (converging) {
    // No validation split (tiny matrices): fall back to the relative
    // factor movement per sweep — q_next / h_next hold the pre-sweep
    // factors (the swaps above), so the delta costs no extra copies.
    // Serial loops keep the check thread-count-invariant.
    double delta = 0.0;
    double norm = 0.0;
    for (size_t c = 0; c < q_.size(); ++c) {
      const double d = q_.data()[c] - q_next.data()[c];
      delta += d * d;
      norm += q_.data()[c] * q_.data()[c];
    }
    for (size_t c = 0; c < h_.size(); ++c) {
      const double d = h_.data()[c] - h_next.data()[c];
      delta += d * d;
      norm += h_.data()[c] * h_.data()[c];
    }
    if (std::sqrt(delta) <=
        options_.convergence_tol * std::sqrt(norm) + 1e-30) {
      return false;
    }
  }
  return iterations_ < options_.iterations;
}

void AlsCompleter::Fit::Output() {
  // Observed entries — held-out ones included — pass through, the rest are
  // the factored predictions, mapped back to seconds in log-ratio space.
  // Predicted log ratios are clamped to the *observed* ratio envelope (with
  // a small margin): a sparse low-rank fit occasionally extrapolates a cell
  // to a speedup far beyond anything ever measured, and such phantom
  // predictions would dominate Algorithm 1's improvement-ratio ranking and
  // send exploration chasing artifacts.
  constexpr double kEnvelopeMargin = 0.2;  // ~ +/- 22% beyond observed
  const double lo_ratio = in_.lo_ratio - kEnvelopeMargin;
  const double hi_ratio = in_.hi_ratio + kEnvelopeMargin;
  const linalg::RowCells& fit = in_.observed;
  const linalg::RowCells& cens = in_.censored;
  linalg::Matrix& w_hat = arena_->w_hat;
  linalg::SweepFill(q_, h_, &fit, &cens, &arena_->sweep, &w_hat);
  // The result must outlive the job (the engine shares it into
  // snapshots), so the final fill's storage leaves the arena by move; the
  // factor-update and sweep buffers stay pooled.
  result_ = std::move(w_hat);
  double* out = result_.data();
  const size_t n = n_, k = k_;
  if (log_space_) {
    ParallelFor(
        0, n,
        [&](size_t row_begin, size_t row_end) {
          for (size_t i = row_begin; i < row_end; ++i) {
            double* o = out + i * k;
            size_t c = fit.row_start[i];
            const size_t c_end = fit.row_start[i + 1];
            for (size_t j = 0; j < k; ++j) {
              if (c < c_end && fit.col[c] == j) {
                // Exact raw passthrough of whatever the fit treated as
                // observed: the measured latency, or the timeout under
                // kNaiveObserved.
                o[j] = in_.observed_raw[c];
                ++c;
                continue;
              }
              const double log_ratio =
                  std::clamp(o[j] + in_.col_bias[j], lo_ratio, hi_ratio);
              o[j] = std::exp(log_ratio + in_.row_bias[i]);
            }
            // The censored floor survives the envelope clamp (Algorithm 2
            // lines 4-5: never predict below a known lower bound).
            for (size_t e = cens.row_start[i]; e < cens.row_start[i + 1];
                 ++e) {
              o[cens.col[e]] = std::max(o[cens.col[e]], in_.censored_raw[e]);
            }
          }
        },
        std::max<size_t>(1, 4096 / k));
  }
  // Held-out cells are observed values: they pass through raw.
  for (const ValidationCell& cell : validation_) {
    out[size_t{cell.i} * k + cell.j] = cell.raw;
  }
}

StatusOr<linalg::Matrix> AlsCompleter::Fit::Finish(
    CompletionFactors* factors) {
  LIMEQO_CHECK(phase_ == Phase::kDone);
  if (!status_.ok()) return status_;
  owner_->q_ = std::move(q_);
  owner_->h_ = std::move(h_);
  owner_->last_iterations_ = iterations_;
  if (factors != nullptr) {
    factors->query_factors = owner_->q_;
    factors->hint_factors = owner_->h_;
  }
  return std::move(result_);
}

AlsCompleter::AlsCompleter(AlsOptions options) : options_(options) {
  LIMEQO_CHECK(options_.rank > 0);
  LIMEQO_CHECK(options_.lambda > 0.0);
  LIMEQO_CHECK(options_.iterations > 0);
}

StatusOr<linalg::Matrix> AlsCompleter::Complete(const WorkloadMatrix& w) {
  return CompleteFrom(w, nullptr);
}

StatusOr<linalg::Matrix> AlsCompleter::CompleteFrom(
    const WorkloadMatrix& w, CompletionFactors* factors) {
  // The whole fit is the job run to completion, in the borrowed arena when
  // one is installed (the buffers are only held for this call).
  Fit fit(this, arena_ != nullptr ? arena_ : &fallback_arena_, w, factors);
  while (!fit.Advance()) {
  }
  return fit.Finish(factors);
}

std::unique_ptr<CompletionJob> AlsCompleter::StartCompletion(
    const WorkloadMatrix& w, const CompletionFactors* warm) {
  return std::make_unique<Fit>(this, &fallback_arena_, w, warm);
}

}  // namespace limeqo::core
