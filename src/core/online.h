#ifndef LIMEQO_CORE_ONLINE_H_
#define LIMEQO_CORE_ONLINE_H_

#include "core/workload_matrix.h"

namespace limeqo::core {

/// The online path of the system model (paper Fig. 2): when a query
/// arrives, the DBMS' optimizer asks LimeQO whether a better plan than the
/// default has been *verified* offline; LimeQO replies with that plan's
/// hint or with the default.
///
/// No-regressions guarantee: a non-default hint is only served when its
/// complete (non-censored) observed latency strictly beats the observed
/// default latency. Absent data shift, served plans are therefore never
/// slower than the default optimizer's choice.
class OnlineOptimizer {
 public:
  /// Does not own the matrix; it must outlive the optimizer.
  explicit OnlineOptimizer(const WorkloadMatrix* matrix) : matrix_(matrix) {
    LIMEQO_CHECK(matrix != nullptr);
  }

  /// Hint to execute `query` with: the best verified hint, else 0 (default).
  /// Reads the row through its state and value slices (one bounds check
  /// per call, not two per cell): the snapshot builder runs this for every
  /// row of a full publication.
  int ChooseHint(int query) const {
    const WorkloadMatrix& w = *matrix_;
    LIMEQO_CHECK(query >= 0 && query < w.num_queries());
    const CellState* states = w.row_states(query);
    // Default never measured: serve it.
    if (states[0] != CellState::kComplete) return 0;
    const double* values =
        w.values().data() + static_cast<size_t>(query) * w.values().cols();
    int best = 0;
    double best_latency = values[0];
    for (int j = 1; j < w.num_hints(); ++j) {
      if (states[j] == CellState::kComplete && values[j] < best_latency) {
        best_latency = values[j];
        best = j;
      }
    }
    return best;
  }

  /// True when a non-default plan has been verified for this query.
  bool HasVerifiedPlan(int query) const { return ChooseHint(query) != 0; }

 private:
  const WorkloadMatrix* matrix_;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_ONLINE_H_
