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
/// the log-ratio transform, as row-sorted sparse cell lists holding only
/// the fit-space values: raw values, timeouts and cell states are read from
/// the WorkloadMatrix itself. Every sum below runs over these lists in
/// row-major order (ascending row, then column), which
/// AlsTest.CompletionIsBitwisePinned pins.
struct FitProblem {
  /// Cells the fit treats as observed: the complete cells, plus the
  /// censored cells at their timeout under kNaiveObserved. `value` holds
  /// the fit target (in log-ratio space after ToLogRatioSpace).
  linalg::RowCells observed;
  /// kCensored only: the censoring lower bounds, in the fit space.
  linalg::RowCells censored;
  size_t num_complete = 0;
  /// kLogRatio bias terms; empty in kRaw.
  std::vector<double> row_bias;
  std::vector<double> col_bias;
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
  p.observed.Reserve(
      n, p.num_complete +
             (mode == CensoredMode::kNaiveObserved ? num_censored : 0));
  p.censored.Reserve(n, mode == CensoredMode::kCensored ? num_censored : 0);
  const double* values = w.values().data();
  const double* timeouts = w.timeouts().data();
  for (size_t i = 0; i < n; ++i) {
    const CellState* states = w.row_states(static_cast<int>(i));
    for (size_t j = 0; j < k; ++j) {
      if (states[j] == CellState::kComplete) {
        p.observed.Add(j, values[i * k + j]);
      } else if (states[j] == CellState::kCensored) {
        switch (mode) {
          case CensoredMode::kCensored:
            p.censored.Add(j, timeouts[i * k + j]);
            break;
          case CensoredMode::kNaiveObserved:
            // Pretend the timeout was the true latency.
            p.observed.Add(j, timeouts[i * k + j]);
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

  // Residuals after the row bias; then shrunk per-hint biases. Censored
  // cells contribute their threshold (a lower bound on the hint's true
  // latency): this is conservative Tobit-style evidence that the hint is
  // *not fast* on that row, and it is exactly the information the initial
  // all-defaults matrix lacks — without it, a hint that keeps timing out
  // retains a neutral bias and keeps attracting probes. A row's cells are
  // distinct columns, so each column still sums in ascending row order.
  std::vector<double> col_sum(k, 0.0);
  std::vector<int> col_count(k, 0);
  for (size_t i = 0; i < n; ++i) {
    const double row_bias = p->row_bias[i];
    for (size_t c = obs.row_start[i]; c < obs.row_start[i + 1]; ++c) {
      obs.value[c] -= row_bias;
      col_sum[obs.col[c]] += obs.value[c];
      ++col_count[obs.col[c]];
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

/// A held-out complete cell and its fit target.
struct ValidationCell {
  size_t i;
  size_t j;
  double value;
};

}  // namespace

AlsCompleter::AlsCompleter(AlsOptions options) : options_(options) {
  LIMEQO_CHECK(options_.rank > 0);
  LIMEQO_CHECK(options_.lambda > 0.0);
  LIMEQO_CHECK(options_.iterations > 0);
}

StatusOr<linalg::Matrix> AlsCompleter::Complete(const WorkloadMatrix& w) {
  return CompleteInternal(w, nullptr);
}

StatusOr<linalg::Matrix> AlsCompleter::CompleteFrom(
    const WorkloadMatrix& w, CompletionFactors* factors) {
  StatusOr<linalg::Matrix> result = CompleteInternal(w, factors);
  if (result.ok() && factors != nullptr) {
    factors->query_factors = q_;
    factors->hint_factors = h_;
  }
  return result;
}

StatusOr<linalg::Matrix> AlsCompleter::CompleteInternal(
    const WorkloadMatrix& w, const CompletionFactors* warm) {
  const size_t n = static_cast<size_t>(w.num_queries());
  const size_t k = static_cast<size_t>(w.num_hints());
  const size_t r = static_cast<size_t>(options_.rank);
  const bool log_space = options_.fit_space == FitSpace::kLogRatio;

  FitProblem in = BuildProblem(w, options_.censored_mode);
  if (in.num_complete == 0) {
    return Status::FailedPrecondition(
        "ALS needs at least one complete observation");
  }
  if (log_space) ToLogRatioSpace(&in, k, options_.bias_shrinkage);

  // Carve a validation split out of the complete observations. Validation
  // cells are left out of the fit list but still pass through as observed
  // values in the final output.
  //
  // Only cells from rows with at least two *distinct* observed values
  // qualify: workload matrices contain large plan-equivalence classes whose
  // cells share one latency, and most rows start with only the default
  // class observed. A validation set drawn from such constant rows is
  // trivially easy and biases early stopping toward factors that predict
  // "the row constant" everywhere, erasing the signal of the few genuinely
  // distinct observations. (Exact equality is intentional: equivalence
  // classes share bit-identical values by construction.)
  Rng val_rng(options_.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<ValidationCell> validation;
  const double* values = w.values().data();
  if (options_.early_stopping && in.num_complete >= 20) {
    // Held-out cells move to `validation`; the rest of each row compacts
    // in place, so `in.observed` becomes the fit list.
    linalg::RowCells& obs = in.observed;
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t begin = obs.row_start[i];
      const size_t end = obs.row_start[i + 1];
      const CellState* states = w.row_states(static_cast<int>(i));
      double first_value = 0.0;
      bool have_first = false;
      bool diverse = false;
      for (size_t c = begin; c < end && !diverse; ++c) {
        if (states[obs.col[c]] != CellState::kComplete) continue;
        const double v = values[i * k + obs.col[c]];
        if (!have_first) {
          first_value = v;
          have_first = true;
        } else if (v != first_value) {
          diverse = true;
        }
      }
      obs.row_start[i] = kept;
      for (size_t c = begin; c < end; ++c) {
        if (diverse && states[obs.col[c]] == CellState::kComplete &&
            val_rng.Bernoulli(options_.validation_fraction)) {
          validation.push_back({i, obs.col[c], obs.value[c]});
        } else {
          obs.col[kept] = obs.col[c];
          obs.value[kept] = obs.value[c];
          ++kept;
        }
      }
    }
    obs.row_start[n] = kept;
    obs.col.resize(kept);
    obs.value.resize(kept);
  }
  // The cells the sweeps fit: every observed cell but the held-out ones.
  const linalg::RowCells& fit = in.observed;

  // Initialize the factors (Algorithm 2 line 1). A warm start (the
  // CompleteFrom contract) copies the previous fit's factors when their
  // shapes are compatible: same rank, same hint count, and at most as many
  // query rows as today's matrix — rows that arrived since the last fit
  // fall through to the cold initialization below. Otherwise, in raw
  // space, positive random values scaled per row so the initial prediction
  // for query i is near its mean observed latency: latencies span orders
  // of magnitude, so a row-aware start matters. In log-ratio space the
  // biases already absorb the scale, so small signed factors around zero
  // are correct.
  const bool warm_compatible =
      warm != nullptr && !warm->empty() && warm->query_factors.cols() == r &&
      warm->hint_factors.cols() == r && warm->hint_factors.rows() == k &&
      warm->query_factors.rows() <= n;
  const size_t warm_rows = warm_compatible ? warm->query_factors.rows() : 0;
  Rng rng(options_.seed);
  q_ = linalg::Matrix(n, r);
  h_ = linalg::Matrix(k, r);
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
  if (warm_compatible) {
    std::copy(warm->query_factors.data(),
              warm->query_factors.data() + warm_rows * r, qd);
    std::copy(warm->hint_factors.data(), warm->hint_factors.data() + k * r,
              hd);
    // Fresh rows (queries that arrived after the warm factors were fitted)
    // get the same per-space cold initialization as below: small signed
    // factors in log-ratio space, row-mean-scaled positive factors in raw
    // space. The scale matters in raw space: the first fill seeds the
    // row's unobserved targets from these factors, so a near-zero init
    // would anchor a fresh row's predictions at ~0 and manufacture
    // phantom improvement ratios for every newly arrived query.
    for (size_t i = warm_rows; i < n; ++i) {
      if (log_space) {
        for (size_t c = 0; c < r; ++c) qd[i * r + c] = rng.Uniform(-0.1, 0.1);
        continue;
      }
      const double scale =
          std::max(fit_row_mean(i), 1e-6) / static_cast<double>(r);
      for (size_t c = 0; c < r; ++c) {
        qd[i * r + c] = scale * rng.Uniform(0.6, 1.4);
      }
    }
  } else if (log_space) {
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

  // Fills W-hat = M .* W + (1 - M) .* (Q H^T) and applies the censored
  // clamp (Algorithm 2 lines 3-5 / 8-10): the factor product, then a
  // scatter of the row-sorted observed and censored lists (disjoint by
  // construction) — no dense mask scan. The fill, factor-update and sweep
  // buffers come from the installed arena (the shared train plane pools
  // one per executor worker across all shards) or the private fallback.
  // Every buffer is fully overwritten before it is read, so the two paths
  // are bitwise identical.
  CompletionArena& arena = arena_ != nullptr ? *arena_ : fallback_arena_;
  linalg::Matrix& w_hat = arena.w_hat;
  linalg::SweepWorkspace& ws = arena.sweep;
  linalg::Matrix& q_next = arena.q_next;
  linalg::Matrix& h_next = arena.h_next;

  const bool non_negative = options_.non_negative && !log_space;
  linalg::Matrix best_q = q_;
  linalg::Matrix best_h = h_;
  double best_val_rmse = std::numeric_limits<double>::infinity();
  auto validation_rmse = [&]() {
    double se = 0.0;
    for (const ValidationCell& cell : validation) {
      const double* qi = q_.data() + cell.i * r;
      const double* hj = h_.data() + cell.j * r;
      double pred = 0.0;
      for (size_t c = 0; c < r; ++c) pred += qi[c] * hj[c];
      const double d = pred - cell.value;
      se += d * d;
    }
    return std::sqrt(se / static_cast<double>(validation.size()));
  };
  // Under the convergence criterion the *initial* factors are the first
  // candidate fit: a warm start already at the alternating fixed point
  // then exits after just the patience window. (Skipped when tol == 0 so
  // the fixed-iteration path reproduces Algorithm 2 byte for byte.)
  const bool converging = options_.convergence_tol > 0.0;
  if (converging && !validation.empty()) {
    best_val_rmse = validation_rmse();
    best_q = q_;
    best_h = h_;
  }
  int stalled_sweeps = 0;
  last_iterations_ = 0;
  for (int iter = 0; iter < options_.iterations; ++iter) {
    ++last_iterations_;
    // Q update (Algorithm 2 lines 3-7): Q <- W_hat H (H^T H + lambda I)^-1.
    linalg::SweepFill(q_, h_, &fit, &in.censored, &ws, &w_hat);
    linalg::SweepQRhs(w_hat, h_, &ws, &q_next);
    Status q_st = linalg::SweepRidgeSolve(h_, options_.lambda, &ws, &q_next);
    if (!q_st.ok()) return q_st;
    std::swap(q_, q_next);
    if (non_negative) q_.ClampMin(0.0);

    // H update (Algorithm 2 lines 8-12): H <- W_hat^T Q (Q^T Q + l I)^-1,
    // with W_hat^T never materialized.
    linalg::SweepFill(q_, h_, &fit, &in.censored, &ws, &w_hat);
    linalg::SweepHRhs(w_hat, q_, &h_next);
    Status h_st = linalg::SweepRidgeSolve(q_, options_.lambda, &ws, &h_next);
    if (!h_st.ok()) return h_st;
    std::swap(h_, h_next);
    if (non_negative) h_.ClampMin(0.0);

    if (!validation.empty()) {
      const double val_rmse = validation_rmse();
      const bool improved_enough =
          val_rmse < best_val_rmse * (1.0 - options_.convergence_tol);
      if (val_rmse < best_val_rmse) {
        best_val_rmse = val_rmse;
        best_q = q_;
        best_h = h_;
      }
      // Validation-stall convergence: once held-out error stops improving
      // the best factors are frozen anyway (the early-stopping guard), so
      // further sweeps only burn time.
      if (converging) {
        stalled_sweeps = improved_enough ? 0 : stalled_sweeps + 1;
        if (stalled_sweeps >= options_.convergence_patience) break;
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
        break;
      }
    }
  }
  if (!validation.empty()) {
    q_ = std::move(best_q);
    h_ = std::move(best_h);
  }

  // Final fill (Algorithm 2 line 13): observed entries — held-out ones
  // included — pass through, the rest are the factored predictions, mapped
  // back to seconds in log-ratio space. Predicted log ratios are clamped to
  // the *observed* ratio envelope (with a small margin): a sparse low-rank
  // fit occasionally extrapolates a cell to a speedup far beyond anything
  // ever measured, and such phantom predictions would dominate Algorithm
  // 1's improvement-ratio ranking and send exploration chasing artifacts.
  double lo_ratio = 0.0, hi_ratio = 0.0;
  if (log_space) {
    bool any = false;
    auto widen = [&](size_t i, size_t j) {
      const double x = SafeLog(values[i * k + j]) - in.row_bias[i];
      if (!any || x < lo_ratio) lo_ratio = x;
      if (!any || x > hi_ratio) hi_ratio = x;
      any = true;
    };
    for (size_t i = 0; i < n; ++i) {
      const CellState* states = w.row_states(static_cast<int>(i));
      for (size_t c = fit.row_start[i]; c < fit.row_start[i + 1]; ++c) {
        if (states[fit.col[c]] == CellState::kComplete) widen(i, fit.col[c]);
      }
    }
    for (const ValidationCell& cell : validation) widen(cell.i, cell.j);
    constexpr double kEnvelopeMargin = 0.2;  // ~ +/- 22% beyond observed
    lo_ratio -= kEnvelopeMargin;
    hi_ratio += kEnvelopeMargin;
  }
  linalg::SweepFill(q_, h_, &fit, &in.censored, &ws, &w_hat);
  // The result must outlive this call (the engine shares it into
  // snapshots), so the final fill's storage leaves the arena by move; the
  // factor-update and sweep buffers stay pooled.
  linalg::Matrix result = std::move(w_hat);
  double* out = result.data();
  if (log_space) {
    const double* timeouts = w.timeouts().data();
    const linalg::RowCells& cens = in.censored;
    ParallelFor(
        0, n,
        [&](size_t row_begin, size_t row_end) {
          for (size_t i = row_begin; i < row_end; ++i) {
            const CellState* states = w.row_states(static_cast<int>(i));
            double* o = out + i * k;
            size_t c = fit.row_start[i];
            const size_t c_end = fit.row_start[i + 1];
            for (size_t j = 0; j < k; ++j) {
              if (c < c_end && fit.col[c] == j) {
                // Exact raw passthrough of whatever the fit treated as
                // observed: the measured latency, or the timeout under
                // kNaiveObserved.
                const size_t cell = i * k + j;
                o[j] = states[j] == CellState::kComplete ? values[cell]
                                                         : timeouts[cell];
                ++c;
                continue;
              }
              const double log_ratio =
                  std::clamp(o[j] + in.col_bias[j], lo_ratio, hi_ratio);
              o[j] = std::exp(log_ratio + in.row_bias[i]);
            }
            // The censored floor survives the envelope clamp (Algorithm 2
            // lines 4-5: never predict below a known lower bound).
            for (size_t e = cens.row_start[i]; e < cens.row_start[i + 1];
                 ++e) {
              o[cens.col[e]] =
                  std::max(o[cens.col[e]], timeouts[i * k + cens.col[e]]);
            }
          }
        },
        std::max<size_t>(1, 4096 / k));
  }
  // Held-out cells are observed values: they pass through raw.
  for (const ValidationCell& cell : validation) {
    out[cell.i * k + cell.j] = values[cell.i * k + cell.j];
  }
  return result;
}

}  // namespace limeqo::core
