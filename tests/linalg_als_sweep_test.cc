// The ALS sweep kernels against the general linalg kernels they replace:
// every output must match bit for bit, for every rank-specialized body
// (ranks 1-16) and the runtime-rank body (17), at row counts that run every
// pair and block remainder path, and at 1, 2 and 4 pool threads.

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/als_sweep.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"

namespace limeqo::linalg {
namespace {

constexpr size_t kRowCounts[] = {1, 2, 3, 5, 113, 3133};
constexpr size_t kHints = 49;
constexpr int kThreadCounts[] = {1, 2, 4};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Signed values, so cancellation and negative zeros occur.
Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  return Matrix::Random(rows, cols, rng, -1.0, 1.0);
}

/// Runs `check(rank, rows)` over ranks 1-17, kRowCounts and kThreadCounts.
template <typename Check>
void ForEachShape(Check check) {
  for (int threads : kThreadCounts) {
    SetNumThreads(threads);
    for (size_t rank = 1; rank <= 17; ++rank) {
      for (size_t rows : kRowCounts) {
        SCOPED_TRACE(::testing::Message() << "rank " << rank << ", rows "
                                          << rows << ", threads " << threads);
        check(rank, rows);
      }
    }
  }
  SetNumThreads(1);
}

TEST(AlsSweepKernelTest, FillMatchesMultiplyTransposedInto) {
  Rng rng(1);
  SweepWorkspace ws;
  ForEachShape([&](size_t rank, size_t rows) {
    // The row counts run as query rows (against JOB's hint count) and as
    // hint counts (against JOB's 113 queries), so every column-block
    // remainder runs too.
    const std::pair<size_t, size_t> shapes[] = {{rows, kHints}, {113, rows}};
    for (const auto& [n, k] : shapes) {
      const Matrix q = RandomMatrix(n, rank, &rng);
      const Matrix h = RandomMatrix(k, rank, &rng);
      Matrix expected;
      MultiplyTransposedInto(q, h, &expected);
      Matrix got;
      SweepFill(q, h, nullptr, nullptr, &ws, &got);
      EXPECT_TRUE(BitwiseEqual(got, expected));

      // The scatter: observed cells overwrite, censored cells clamp from
      // below; the lists are disjoint and row-sorted.
      RowCells observed, censored;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < k; ++j) {
          const double u = rng.Uniform(0.0, 1.0);
          if (u < 0.1) {
            observed.Add(j, rng.Uniform(-1.0, 1.0));
            expected(i, j) = observed.value.back();
          } else if (u < 0.2) {
            censored.Add(j, rng.Uniform(-1.0, 1.0));
            expected(i, j) = std::max(expected(i, j), censored.value.back());
          }
        }
        observed.EndRow();
        censored.EndRow();
      }
      SweepFill(q, h, &observed, &censored, &ws, &got);
      EXPECT_TRUE(BitwiseEqual(got, expected));
    }
  });
}

TEST(AlsSweepKernelTest, QRhsMatchesMultiplyInto) {
  Rng rng(2);
  SweepWorkspace ws;
  ForEachShape([&](size_t rank, size_t rows) {
    const Matrix w = RandomMatrix(rows, kHints, &rng);
    const Matrix h = RandomMatrix(kHints, rank, &rng);
    Matrix expected, got;
    MultiplyInto(w, h, &expected);
    SweepQRhs(w, h, &ws, &got);
    EXPECT_TRUE(BitwiseEqual(got, expected));
  });
}

TEST(AlsSweepKernelTest, HRhsMatchesTransposedMultiplyInto) {
  // The output rows are the columns of w, so they take the row counts; the
  // accumulation runs over JOB's 113 queries.
  Rng rng(3);
  ForEachShape([&](size_t rank, size_t rows) {
    const Matrix w = RandomMatrix(113, rows, &rng);
    const Matrix q = RandomMatrix(113, rank, &rng);
    Matrix expected, got;
    TransposedMultiplyInto(w, q, &expected);
    SweepHRhs(w, q, &got);
    EXPECT_TRUE(BitwiseEqual(got, expected));
  });
}

TEST(AlsSweepKernelTest, GramMatchesGramInto) {
  Rng rng(4);
  ForEachShape([&](size_t rank, size_t rows) {
    const Matrix a = RandomMatrix(rows, rank, &rng);
    Matrix expected, got;
    GramInto(a, &expected);
    SweepGram(a, &got);
    EXPECT_TRUE(BitwiseEqual(got, expected));
  });
}

TEST(AlsSweepKernelTest, SolveRowsMatchesSolveCholeskyRowsInPlace) {
  Rng rng(5);
  SweepWorkspace ws;
  ForEachShape([&](size_t rank, size_t rows) {
    Matrix gram;
    GramInto(RandomMatrix(kHints, rank, &rng), &gram);
    for (size_t i = 0; i < rank; ++i) gram(i, i) += 0.2;
    Matrix l;
    ASSERT_TRUE(CholeskyInto(gram, &l).ok());
    Matrix expected = RandomMatrix(rows, rank, &rng);
    Matrix got = expected;
    SolveCholeskyRowsInPlace(l, &expected);
    SweepSolveRows(l, &ws, &got);
    EXPECT_TRUE(BitwiseEqual(got, expected));
  });
}

TEST(AlsSweepKernelTest, RidgeSolveMatchesRidgeSolveInto) {
  Rng rng(6);
  SweepWorkspace ws;
  RidgeWorkspace ridge;
  for (size_t rank : {1, 5, 17}) {
    const Matrix w = RandomMatrix(3133, kHints, &rng);
    const Matrix h = RandomMatrix(kHints, rank, &rng);
    Matrix expected;
    ASSERT_TRUE(RidgeSolveInto(w, h, 0.2, &ridge, &expected).ok());
    Matrix got;
    SweepQRhs(w, h, &ws, &got);
    ASSERT_TRUE(SweepRidgeSolve(h, 0.2, &ws, &got).ok());
    EXPECT_TRUE(BitwiseEqual(got, expected)) << "rank " << rank;
  }
}

}  // namespace
}  // namespace limeqo::linalg
