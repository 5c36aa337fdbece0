#ifndef LIMEQO_LINALG_ALS_SWEEP_H_
#define LIMEQO_LINALG_ALS_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace limeqo::linalg {

/// The kernels of one alternating-least-squares sweep (paper Algorithm 2):
/// the fill W-hat = Q H^T with its observed/censored scatter, the two
/// right-hand sides W-hat H and W-hat^T Q, the Gram matrix of a factor, and
/// the Cholesky row solve.
///
/// Each kernel body is instantiated once per rank 1-16 (picked from a
/// dispatch table by the factor's column count), so the rank loops unroll
/// and the accumulators stay in registers; larger ranks run the same body
/// at a runtime rank, which allocates its accumulators once per thread
/// chunk. The arithmetic is two-lane SSE2 through the GCC/Clang
/// `vector_size(16)` extension.
///
/// Operation-order contract: every output element starts at 0.0 and
/// accumulates in exactly the order of the matching general linalg kernel
/// (ascending c for the fill, ascending j for W-hat H, ascending i
/// for W-hat^T Q and the Gram matrix, and the same substitution order in
/// the triangular solves). A lane computes one element with the scalar
/// operations of that order, so the results equal MultiplyTransposedInto,
/// MultiplyInto, TransposedMultiplyInto, GramInto and
/// SolveCholeskyRowsInPlace bit for bit, for any thread count (each output
/// element is written by one chunk). This holds only without FMA
/// contraction: the build uses neither -march nor -mfma.

/// Cells of an n-row matrix grouped by row in ascending row order
/// (compressed sparse rows): row i owns entries [row_start[i],
/// row_start[i + 1]) of `col` and `value`.
struct RowCells {
  std::vector<size_t> row_start = {0};
  std::vector<uint32_t> col;
  std::vector<double> value;

  /// Number of cells.
  size_t size() const { return col.size(); }
  /// Reserves room for `rows` rows and `cells` cells.
  void Reserve(size_t rows, size_t cells) {
    row_start.reserve(rows + 1);
    col.reserve(cells);
    value.reserve(cells);
  }
  /// Appends a cell to the current (last open) row.
  void Add(size_t c, double v) {
    col.push_back(static_cast<uint32_t>(c));
    value.push_back(v);
  }
  /// Closes the current row; the next Add starts the following one.
  void EndRow() { row_start.push_back(col.size()); }
};

/// Scratch shared by the sweep kernels of one completion. Grows to the
/// problem's shapes on first use and is then reused without allocating.
struct SweepWorkspace {
  /// The current kernel's copy of its small operand: the transposed hint
  /// factor (fill), the hint factor with every entry in both lanes
  /// (W-hat H), or the Cholesky factor and its reciprocal diagonal in both
  /// lanes (row solve).
  std::vector<double> operand;
  /// Ridge: A^T A + lambda I and its Cholesky factor.
  Matrix gram;
  Matrix chol;
};

/// out = q h^T (q is n x r, h is k x r); then, row by row, the `observed`
/// cells overwrite their entries and the `censored` cells raise theirs to
/// at least the cell's bound (Algorithm 2 lines 3-5). Either list may be
/// null. The lists must be disjoint and describe an n-row matrix.
void SweepFill(const Matrix& q, const Matrix& h, const RowCells* observed,
               const RowCells* censored, SweepWorkspace* ws, Matrix* out);

/// out = w h (w is n x k, h is k x r): the Q-update right-hand side.
void SweepQRhs(const Matrix& w, const Matrix& h, SweepWorkspace* ws,
               Matrix* out);

/// out = w^T q (w is n x k, q is n x r): the H-update right-hand side,
/// without materializing w^T.
void SweepHRhs(const Matrix& w, const Matrix& q, Matrix* out);

/// out = a^T a (a is m x r, out is r x r), upper triangle accumulated and
/// mirrored.
void SweepGram(const Matrix& a, Matrix* out);

/// Replaces each row z of `c` by the solution of L L^T x = z^T, for the
/// lower-triangular Cholesky factor `l`.
void SweepSolveRows(const Matrix& l, SweepWorkspace* ws, Matrix* c);

/// Ridge finish of an ALS factor update: `x` holds the right-hand side
/// B A and becomes B A (A^T A + lambda I)^{-1}. InvalidArgument when the
/// Gram matrix is not positive definite.
Status SweepRidgeSolve(const Matrix& a, double lambda, SweepWorkspace* ws,
                       Matrix* x);

}  // namespace limeqo::linalg

#endif  // LIMEQO_LINALG_ALS_SWEEP_H_
