#ifndef LIMEQO_CORE_COMPLETER_H_
#define LIMEQO_CORE_COMPLETER_H_

#include <string>

#include "common/status.h"
#include "core/workload_matrix.h"
#include "linalg/matrix.h"
#include "linalg/als_sweep.h"

namespace limeqo::core {

/// The factor state a warm-startable completion algorithm carries between
/// refits: the query-side (n x r) and hint-side (k x r) factor matrices of
/// the last fit. An empty state means "cold-start the next fit". The state
/// is a pure function of the observation matrices it was fitted on — it
/// must never be reused across a data shift (see Completer::CompleteFrom).
struct CompletionFactors {
  linalg::Matrix query_factors;
  linalg::Matrix hint_factors;

  /// True when no factor state is held (the next fit cold-starts).
  bool empty() const {
    return query_factors.size() == 0 || hint_factors.size() == 0;
  }
  /// Drops the state; the next CompleteFrom cold-starts.
  void clear() {
    query_factors = linalg::Matrix();
    hint_factors = linalg::Matrix();
  }
};

/// Reusable scratch buffers for one completion job: the fill buffer, the
/// per-sweep factor-update outputs, and the sweep kernels' workspace (the
/// transposed hint factor and the Gram/Cholesky scratch of the ridge
/// solves). Every buffer is fully overwritten before it is read, so an
/// arena-backed completion is bitwise identical to one using private
/// buffers — the arena only removes the per-call allocations. Ownership
/// model: a completer holds at most a *borrowed* arena (SetArena) and the
/// borrower serializes use — the shared train executor keeps one arena per
/// worker thread and installs it into whichever shard's completer that
/// worker is currently refitting, so a fleet of N shards warms one set of
/// buffers per worker instead of N private copies.
struct CompletionArena {
  /// Dense fill buffer W-hat (n x k); re-sized by the first fill of a job.
  linalg::Matrix w_hat;
  /// Query-factor update output (n x r), swapped with the live factors.
  linalg::Matrix q_next;
  /// Hint-factor update output (k x r), swapped with the live factors.
  linalg::Matrix h_next;
  /// Sweep-kernel scratch shared by every fill and ridge solve of the job.
  linalg::SweepWorkspace sweep;
};

/// A matrix-completion algorithm: estimates the full workload matrix W-hat
/// from the partial observations in a WorkloadMatrix. Implementations:
/// AlsCompleter (the paper's Algorithm 2), SvtCompleter and
/// NuclearNormCompleter (the Sec. 5.5.5 comparison baselines).
class Completer {
 public:
  virtual ~Completer() = default;

  /// Produces the estimate W-hat. Observed (complete) entries are passed
  /// through unchanged; unobserved entries are predictions. Returns an error
  /// when the input has no complete observations to learn from.
  virtual StatusOr<linalg::Matrix> Complete(const WorkloadMatrix& w) = 0;

  /// The warm-start contract for the train plane's refresh path: complete
  /// `w`, seeding the solver from `factors` when they are compatible with
  /// the problem shape (cold-starting otherwise), and write the refit
  /// factor state back into `factors` for the next call.
  ///
  /// Contract:
  ///  * the result depends only on (w, *factors) — never on matrices fed
  ///    to earlier calls, so the caller fully controls what state leaks
  ///    between refits (clear the factors across a data shift and nothing
  ///    from the old data can influence the new fit);
  ///  * a warm-started fit must agree with the cold-started fit on the same
  ///    matrix up to the solver's convergence tolerance;
  ///  * `factors == nullptr` requests a plain cold start.
  ///
  /// The base implementation is for solvers with no factor form: it clears
  /// `factors` and delegates to Complete.
  virtual StatusOr<linalg::Matrix> CompleteFrom(const WorkloadMatrix& w,
                                                CompletionFactors* factors) {
    if (factors != nullptr) factors->clear();
    return Complete(w);
  }

  /// Installs (or, with nullptr, removes) a borrowed scratch arena for
  /// subsequent Complete/CompleteFrom calls. The caller owns the arena and
  /// must keep it alive and unshared while any completion that uses it
  /// runs. Arena-backed results are bitwise identical to arena-less ones;
  /// the base implementation ignores the arena (solvers with no reusable
  /// scratch).
  virtual void SetArena(CompletionArena* arena) { (void)arena; }

  /// Display name for reports, e.g. "ALS".
  virtual std::string name() const = 0;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_COMPLETER_H_
