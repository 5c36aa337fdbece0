#include "linalg/als_sweep.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/lanes.h"
#include "common/thread_pool.h"
#include "linalg/solve.h"

namespace limeqo::linalg {
namespace {

using lanes::Load2;
using lanes::Splat;
using lanes::Store2;
using lanes::Vec2;

/// Writes `count` values into dst[0, 2 * count) with each one in both
/// lanes: the kernels then broadcast an operand with a load instead of a
/// shuffle (SSE2 has no broadcast load).
void SplatInto(const double* src, size_t count, double* dst) {
  for (size_t e = 0; e < count; ++e) dst[2 * e] = dst[2 * e + 1] = src[e];
}

/// Ranks with their own kernel instantiation; larger ranks share the
/// runtime-rank instantiation (rank template argument 0).
constexpr size_t kMaxFixedRank = 16;

/// Thread-chunk grain sized so one chunk is at least ~64k flops (the
/// general linalg kernels use the same rule).
size_t GrainForCost(size_t flops_per_index) {
  constexpr size_t kMinFlopsPerChunk = 1 << 16;
  return std::max<size_t>(1, kMinFlopsPerChunk / (flops_per_index + 1));
}

/// kN lane accumulators. A fixed count is a plain array the compiler keeps
/// in registers once the rank loops unroll; kN == 0 (runtime rank) holds
/// them on the heap, sized at construction.
template <size_t kN>
class LaneArray {
 public:
  explicit LaneArray(size_t /*n*/) {}
  Vec2& operator[](size_t i) { return v_[i]; }
  void Zero(size_t /*n*/) {
    for (size_t i = 0; i < kN; ++i) v_[i] = Vec2{0.0, 0.0};
  }

 private:
  Vec2 v_[kN];
};

template <>
class LaneArray<0> {
 public:
  explicit LaneArray(size_t n) : v_(n) {}
  Vec2& operator[](size_t i) { return v_[i]; }
  void Zero(size_t n) {
    std::fill(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(n),
              Vec2{0.0, 0.0});
  }

 private:
  std::vector<Vec2> v_;
};

/// Operands of one kernel call. Each chunk body reads them through a single
/// captured reference: a closure that small lives inside the
/// std::function ParallelFor takes, so a sweep makes no allocation.
struct SweepArgs {
  const double* a = nullptr;  // the n-row operand (q, or w-hat)
  const double* b = nullptr;  // the other factor, in the kernel's layout
  double* out = nullptr;
  size_t n = 0;     // rows of `a`
  size_t k = 0;     // hint count
  size_t rank = 0;  // runtime rank (the fixed rank for kR > 0)
  const RowCells* observed = nullptr;
  const RowCells* censored = nullptr;
};

/// The sweep kernel set for rank kR (0: the rank read from the operands).
/// Every body reads the rank through Rank(), which is a compile-time
/// constant for kR > 0, so the rank loops unroll.
template <size_t kR>
struct Kernels {
  static size_t Rank(size_t r) { return kR > 0 ? kR : r; }

  /// Column pairs of w accumulated together by SweepHRhs: two at small
  /// ranks, where 2 x rank accumulators still fit the sixteen SSE
  /// registers, so each pass over w-hat serves four columns.
  static constexpr size_t kBlock = kR > 0 && kR <= 6 ? 2 : 1;

  // Lanes run over output columns j: each lane is one element's ascending-c
  // dot product of a q row and an h row, read from the transposed hint
  // factor (`b`, rows padded to an even length) so a rank step loads a
  // contiguous column pair.
  static void FillRows(const SweepArgs& a, size_t row_begin, size_t row_end) {
    const size_t r = Rank(a.rank), k = a.k, kp = k + (k & 1);
    LaneArray<kR> qs(r);
    for (size_t i = row_begin; i < row_end; ++i) {
      const double* qi = a.a + i * r;
      for (size_t c = 0; c < r; ++c) qs[c] = Splat(qi[c]);
      double* o = a.out + i * k;
      size_t j = 0;
      for (; j + 8 <= k; j += 8) {
        Vec2 s0 = {0.0, 0.0}, s1 = s0, s2 = s0, s3 = s0;
#pragma GCC unroll 16
        for (size_t c = 0; c < r; ++c) {
          const double* t = a.b + c * kp + j;
          s0 += qs[c] * Load2(t);
          s1 += qs[c] * Load2(t + 2);
          s2 += qs[c] * Load2(t + 4);
          s3 += qs[c] * Load2(t + 6);
        }
        Store2(o + j, s0);
        Store2(o + j + 2, s1);
        Store2(o + j + 4, s2);
        Store2(o + j + 6, s3);
      }
      for (; j < k; j += 2) {
        Vec2 s = {0.0, 0.0};
#pragma GCC unroll 16
        for (size_t c = 0; c < r; ++c) s += qs[c] * Load2(a.b + c * kp + j);
        o[j] = s[0];
        if (j + 1 < k) o[j + 1] = s[1];
      }
      if (a.observed != nullptr) {
        const RowCells& cells = *a.observed;
        for (size_t e = cells.row_start[i]; e < cells.row_start[i + 1]; ++e) {
          o[cells.col[e]] = cells.value[e];
        }
      }
      if (a.censored != nullptr) {
        const RowCells& cells = *a.censored;
        for (size_t e = cells.row_start[i]; e < cells.row_start[i + 1]; ++e) {
          double& cell = o[cells.col[e]];
          if (cell < cells.value[e]) cell = cells.value[e];
        }
      }
    }
  }

  static void Fill(const Matrix& q, const Matrix& h, const RowCells* observed,
                   const RowCells* censored, SweepWorkspace* ws, Matrix* out) {
    LIMEQO_CHECK(q.cols() == h.cols());
    LIMEQO_CHECK(out != &q && out != &h);
    const size_t n = q.rows(), k = h.rows(), r = Rank(q.cols());
    const size_t kp = k + (k & 1);
    ws->operand.resize(r * kp);
    double* ht = ws->operand.data();
    const double* hd = h.data();
    for (size_t c = 0; c < r; ++c) {
      for (size_t j = 0; j < k; ++j) ht[c * kp + j] = hd[j * r + c];
      if (kp != k) ht[c * kp + k] = 0.0;
    }
    out->ResizeUninitialized(n, k);
    const SweepArgs args{q.data(), ht, out->data(), n, k, r, observed,
                         censored};
    ParallelFor(
        0, n, [&args](size_t b, size_t e) { FillRows(args, b, e); },
        GrainForCost(k * r));
  }

  // Lanes run over row pairs: lane 0 accumulates row i, lane 1 row i + 1,
  // each over ascending j, against the splatted hint factor `b`. A
  // trailing odd row duplicates itself into lane 1 and stores lane 0 only.
  static void QRows(const SweepArgs& a, size_t pair_begin, size_t pair_end) {
    const size_t r = Rank(a.rank), n = a.n, k = a.k;
    LaneArray<kR> acc(r);
    for (size_t p = pair_begin; p < pair_end; ++p) {
      const size_t i = 2 * p;
      const double* wa = a.a + i * k;
      const double* wb = i + 1 < n ? wa + k : wa;
      acc.Zero(r);
      for (size_t j = 0; j < k; ++j) {
        const Vec2 x = {wa[j], wb[j]};
        const double* hj = a.b + 2 * j * r;
#pragma GCC unroll 16
        for (size_t c = 0; c < r; ++c) acc[c] += x * Load2(hj + 2 * c);
      }
      for (size_t c = 0; c < r; ++c) a.out[i * r + c] = acc[c][0];
      if (i + 1 < n) {
        for (size_t c = 0; c < r; ++c) a.out[(i + 1) * r + c] = acc[c][1];
      }
    }
  }

  static void QRhs(const Matrix& w, const Matrix& h, SweepWorkspace* ws,
                   Matrix* out) {
    LIMEQO_CHECK(w.cols() == h.rows());
    LIMEQO_CHECK(out != &w && out != &h);
    const size_t n = w.rows(), k = w.cols(), r = Rank(h.cols());
    out->ResizeUninitialized(n, r);
    ws->operand.resize(2 * k * r);
    SplatInto(h.data(), k * r, ws->operand.data());
    const SweepArgs args{w.data(), ws->operand.data(), out->data(), n, k, r};
    ParallelFor(
        0, (n + 1) / 2, [&args](size_t b, size_t e) { QRows(args, b, e); },
        GrainForCost(4 * k * r));
  }

  // Lanes run over output rows j (columns of w): lane 0 accumulates column
  // j, lane 1 column j + 1, each over ascending i. With kHalf the group is
  // the single trailing column, duplicated into lane 1.
  template <size_t kB, bool kHalf>
  static void HGroup(const SweepArgs& a, size_t j,
                     LaneArray<kR * kBlock>& acc) {
    const size_t r = Rank(a.rank), k = a.k;
    acc.Zero(kB * r);
    for (size_t i = 0; i < a.n; ++i) {
      const double* wi = a.a + i * k + j;
      const double* qi = a.b + i * r;
      Vec2 x[kB];
      for (size_t b = 0; b < kB; ++b) {
        x[b] = kHalf ? Splat(wi[0]) : Load2(wi + 2 * b);
      }
#pragma GCC unroll 16
      for (size_t c = 0; c < r; ++c) {
        const Vec2 s = Splat(qi[c]);
        for (size_t b = 0; b < kB; ++b) acc[b * r + c] += x[b] * s;
      }
    }
    for (size_t b = 0; b < kB; ++b) {
      const size_t col = j + 2 * b;
      for (size_t c = 0; c < r; ++c) a.out[col * r + c] = acc[b * r + c][0];
      if (!kHalf) {
        for (size_t c = 0; c < r; ++c) {
          a.out[(col + 1) * r + c] = acc[b * r + c][1];
        }
      }
    }
  }

  static void HRows(const SweepArgs& a, size_t pair_begin, size_t pair_end) {
    LaneArray<kR * kBlock> acc(Rank(a.rank) * kBlock);
    const size_t full_pairs = a.k / 2;
    size_t p = pair_begin;
    for (; p + kBlock <= std::min(pair_end, full_pairs); p += kBlock) {
      HGroup<kBlock, false>(a, 2 * p, acc);
    }
    for (; p < pair_end; ++p) {
      if (p < full_pairs) {
        HGroup<1, false>(a, 2 * p, acc);
      } else {
        HGroup<1, true>(a, 2 * p, acc);
      }
    }
  }

  static void HRhs(const Matrix& w, const Matrix& q, Matrix* out) {
    LIMEQO_CHECK(w.rows() == q.rows());
    LIMEQO_CHECK(out != &w && out != &q);
    const size_t n = w.rows(), k = w.cols(), r = Rank(q.cols());
    out->ResizeUninitialized(k, r);
    const SweepArgs args{w.data(), q.data(), out->data(), n, k, r};
    ParallelFor(
        0, (k + 1) / 2, [&args](size_t b, size_t e) { HRows(args, b, e); },
        GrainForCost(4 * n * r));
  }

  // Serial, like GramInto. Lanes run over column pairs (p, q), (p, q + 1)
  // of the upper triangle, each over ascending i; a lane that lands below
  // the diagonal (or past an odd rank's last column) is computed and
  // dropped, and the lower triangle is mirrored from the upper.
  static void Gram(const Matrix& a, Matrix* out) {
    LIMEQO_CHECK(out != &a);
    const size_t m = a.rows(), r = Rank(a.cols());
    const size_t pairs = (r + 1) / 2;
    out->ResizeUninitialized(r, r);
    constexpr size_t kPairs = (kR + 1) / 2;
    LaneArray<kR * kPairs> acc(r * pairs);
    LaneArray<kPairs> x(pairs);
    acc.Zero(r * pairs);
    const double* ad = a.data();
    for (size_t i = 0; i < m; ++i) {
      const double* row = ad + i * r;
#pragma GCC unroll 16
      for (size_t v = 0; v < pairs; ++v) {
        x[v] = 2 * v + 1 < r ? Load2(row + 2 * v) : Splat(row[2 * v]);
      }
#pragma GCC unroll 16
      for (size_t p = 0; p < r; ++p) {
        const Vec2 s = Splat(row[p]);
#pragma GCC unroll 16
        for (size_t v = p / 2; v < pairs; ++v) acc[p * pairs + v] += s * x[v];
      }
    }
    double* o = out->data();
    for (size_t p = 0; p < r; ++p) {
      for (size_t c = p; c < r; ++c) {
        o[p * r + c] = acc[p * pairs + c / 2][c & 1];
      }
      for (size_t c = 0; c < p; ++c) o[p * r + c] = o[c * r + p];
    }
  }

  // Lanes run over row pairs of `out`, as in QRhs. The substitution order
  // is SolveCholeskyRowsInPlace's: ascending k inside each forward and back
  // step, then one multiply by the hoisted reciprocal of the diagonal. `b`
  // holds the factor and then its reciprocal diagonal, splatted.
  static void SolvePairs(const SweepArgs& a, size_t pair_begin,
                         size_t pair_end) {
    const size_t r = Rank(a.rank);
    const double* f = a.b;
    const double* inv = a.b + 2 * r * r;
    LaneArray<kR> z(r);
    for (size_t p = pair_begin; p < pair_end; ++p) {
      double* za = a.out + 2 * p * r;
      const bool pair = 2 * p + 1 < a.n;
      double* zb = pair ? za + r : za;
      for (size_t i = 0; i < r; ++i) z[i] = Vec2{za[i], zb[i]};
#pragma GCC unroll 16
      for (size_t i = 0; i < r; ++i) {
        Vec2 s = z[i];
#pragma GCC unroll 16
        for (size_t k = 0; k < i; ++k) s -= Load2(f + 2 * (i * r + k)) * z[k];
        z[i] = s * Load2(inv + 2 * i);
      }
#pragma GCC unroll 16
      for (size_t ii = r; ii > 0; --ii) {
        const size_t i = ii - 1;
        Vec2 s = z[i];
#pragma GCC unroll 16
        for (size_t k = i + 1; k < r; ++k) {
          s -= Load2(f + 2 * (k * r + i)) * z[k];
        }
        z[i] = s * Load2(inv + 2 * i);
      }
      for (size_t i = 0; i < r; ++i) za[i] = z[i][0];
      if (pair) {
        for (size_t i = 0; i < r; ++i) zb[i] = z[i][1];
      }
    }
  }

  static void SolveRows(const Matrix& l, SweepWorkspace* ws, Matrix* c) {
    const size_t r = Rank(l.rows());
    LIMEQO_CHECK(l.cols() == r && c->cols() == r);
    const size_t n = c->rows();
    ws->operand.resize(2 * (r * r + r));
    SplatInto(l.data(), r * r, ws->operand.data());
    double* inv = ws->operand.data() + 2 * r * r;
    for (size_t i = 0; i < r; ++i) {
      inv[2 * i] = inv[2 * i + 1] = 1.0 / l.data()[i * r + i];
    }
    const SweepArgs args{nullptr, ws->operand.data(), c->data(), n, 0, r};
    ParallelFor(
        0, (n + 1) / 2,
        [&args](size_t b, size_t e) { SolvePairs(args, b, e); },
        std::max<size_t>(1, 2048 / (r * r + 1)));
  }
};

/// One rank's kernels, as function pointers for the dispatch table.
struct KernelSet {
  void (*fill)(const Matrix&, const Matrix&, const RowCells*, const RowCells*,
               SweepWorkspace*, Matrix*);
  void (*q_rhs)(const Matrix&, const Matrix&, SweepWorkspace*, Matrix*);
  void (*h_rhs)(const Matrix&, const Matrix&, Matrix*);
  void (*gram)(const Matrix&, Matrix*);
  void (*solve_rows)(const Matrix&, SweepWorkspace*, Matrix*);
};

template <size_t... kRanks>
constexpr std::array<KernelSet, sizeof...(kRanks)> MakeKernelTable(
    std::index_sequence<kRanks...>) {
  return {{KernelSet{&Kernels<kRanks>::Fill, &Kernels<kRanks>::QRhs,
                     &Kernels<kRanks>::HRhs, &Kernels<kRanks>::Gram,
                     &Kernels<kRanks>::SolveRows}...}};
}

/// Entry r serves rank r; entry 0 serves every rank above kMaxFixedRank.
constexpr std::array<KernelSet, kMaxFixedRank + 1> kKernelTable =
    MakeKernelTable(std::make_index_sequence<kMaxFixedRank + 1>());

const KernelSet& KernelsFor(size_t rank) {
  LIMEQO_CHECK(rank > 0);
  return kKernelTable[rank <= kMaxFixedRank ? rank : 0];
}

}  // namespace

void SweepFill(const Matrix& q, const Matrix& h, const RowCells* observed,
               const RowCells* censored, SweepWorkspace* ws, Matrix* out) {
  KernelsFor(q.cols()).fill(q, h, observed, censored, ws, out);
}

void SweepQRhs(const Matrix& w, const Matrix& h, SweepWorkspace* ws,
               Matrix* out) {
  KernelsFor(h.cols()).q_rhs(w, h, ws, out);
}

void SweepHRhs(const Matrix& w, const Matrix& q, Matrix* out) {
  KernelsFor(q.cols()).h_rhs(w, q, out);
}

void SweepGram(const Matrix& a, Matrix* out) {
  KernelsFor(a.cols()).gram(a, out);
}

void SweepSolveRows(const Matrix& l, SweepWorkspace* ws, Matrix* c) {
  KernelsFor(l.rows()).solve_rows(l, ws, c);
}

Status SweepRidgeSolve(const Matrix& a, double lambda, SweepWorkspace* ws,
                       Matrix* x) {
  SweepGram(a, &ws->gram);
  for (size_t i = 0; i < a.cols(); ++i) ws->gram(i, i) += lambda;
  Status st = CholeskyInto(ws->gram, &ws->chol);
  if (!st.ok()) return st;
  SweepSolveRows(ws->chol, ws, x);
  return Status::Ok();
}

}  // namespace limeqo::linalg
