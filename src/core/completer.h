#ifndef LIMEQO_CORE_COMPLETER_H_
#define LIMEQO_CORE_COMPLETER_H_

#include <memory>
#include <string>
#include <utility>

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
/// borrower serializes use — the shared train executor installs one arena
/// per thread into whichever shard's completer that thread is running a
/// whole barrier refit for. A resumable job (StartCompletion) spans train
/// steps on any thread, so it never borrows one.
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

/// One completion as a resumable job: started from a matrix and a warm
/// state, advanced one bounded slice at a time, and finished into the
/// estimate and its factor state. The job reads the matrix only when it
/// starts, so the caller may keep changing the matrix between slices; the
/// result is bitwise what a whole CompleteFrom returns on the matrix and
/// factors the job started from. The train plane drives its refits this
/// way (ExplorationEngine::TrainStep), so a long fit no longer holds the
/// observation drain for its whole length.
class CompletionJob {
 public:
  virtual ~CompletionJob() = default;

  /// Runs the next slice. Returns true once the fit has finished (further
  /// calls do nothing and return true).
  virtual bool Advance() = 0;

  /// The finished fit: the estimate, or the error that ended it. On
  /// success the fit's factor state is written into `factors` (when
  /// non-null), per the Completer::CompleteFrom contract. Call once, after
  /// Advance returned true.
  virtual StatusOr<linalg::Matrix> Finish(CompletionFactors* factors) = 0;
};

/// A job that finished when it started: what the default StartCompletion
/// and Predictor::StartRefit hooks return for models that fit whole.
class FinishedCompletionJob final : public CompletionJob {
 public:
  FinishedCompletionJob(StatusOr<linalg::Matrix> result,
                        CompletionFactors factors)
      : result_(std::move(result)), factors_(std::move(factors)) {}

  bool Advance() override { return true; }

  /// Hands over the result and the factor state the whole fit left behind
  /// (written back even on failure, as a whole CompleteFrom would have).
  StatusOr<linalg::Matrix> Finish(CompletionFactors* factors) override {
    if (factors != nullptr) *factors = std::move(factors_);
    return std::move(result_);
  }

 private:
  StatusOr<linalg::Matrix> result_;
  CompletionFactors factors_;
};

/// Runs `fit(factors)`, a whole warm-started fit with the CompleteFrom
/// signature, on a copy of `warm` (nullptr: a cold fit) and wraps the
/// outcome into a finished job, so the caller's factors stay untouched
/// until it calls Finish.
template <typename Fit>
std::unique_ptr<CompletionJob> RunAsFinishedJob(const CompletionFactors* warm,
                                                Fit&& fit) {
  CompletionFactors factors = warm != nullptr ? *warm : CompletionFactors();
  StatusOr<linalg::Matrix> result = fit(warm != nullptr ? &factors : nullptr);
  return std::make_unique<FinishedCompletionJob>(std::move(result),
                                                 std::move(factors));
}

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

  /// Starts CompleteFrom(w, warm) as a resumable job (see CompletionJob):
  /// `w` and `warm` are read before this returns and never again. At most
  /// one completion per completer runs at a time: finish or destroy a
  /// started job before the next Complete, CompleteFrom or StartCompletion
  /// call. The base implementation runs the whole CompleteFrom now and
  /// returns a finished job.
  virtual std::unique_ptr<CompletionJob> StartCompletion(
      const WorkloadMatrix& w, const CompletionFactors* warm) {
    return RunAsFinishedJob(warm, [&](CompletionFactors* factors) {
      return CompleteFrom(w, factors);
    });
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
