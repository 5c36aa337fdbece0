// Allocation guard for the ALS sweep. This binary replaces the global
// operator new with a counting one, so it must stay its own test
// executable. Once the completer's arena and the sweep workspace have grown
// to the problem's shapes, a completion allocates a fixed number of times
// (the sparse fit problem, the factors, the returned matrix), however many
// sweeps it runs. A per-sweep allocation (a temporary matrix, a closure too
// large for std::function's inline buffer, a growing workspace) fails this
// check structurally, before it could show up as a throughput regression.

#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/als.h"

namespace {

long g_allocations = 0;

}  // namespace

// Kept out of line: once inlined into a caller, GCC pairs the caller's
// `new` with this `free` and warns of a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace limeqo::core {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
long CountAllocations(Fn&& fn) {
  const long before = g_allocations;
  fn();
  return g_allocations - before;
}

/// An exploration-shaped matrix: defaults plus ~5% complete and ~1%
/// censored cells, enough for the validation split and the censored clamp.
WorkloadMatrix ExplorationMatrix() {
  WorkloadMatrix w(300, 49);
  Rng rng(3);
  for (int i = 0; i < w.num_queries(); ++i) {
    w.Observe(i, 0, rng.Uniform(0.1, 10.0));
    for (int j = 1; j < w.num_hints(); ++j) {
      const double u = rng.Uniform(0.0, 1.0);
      if (u < 0.05) {
        w.Observe(i, j, rng.Uniform(0.01, 10.0));
      } else if (u < 0.06) {
        w.ObserveCensored(i, j, rng.Uniform(0.01, 10.0));
      }
    }
  }
  return w;
}

TEST(AlsAllocTest, CompleteAllocationsDoNotGrowWithSweeps) {
  // One linalg thread: a multi-threaded ParallelFor allocates its chunk
  // bounds per call, which is the pool's cost, not the sweep's.
  SetNumThreads(1);
  const WorkloadMatrix w = ExplorationMatrix();
  for (FitSpace space : {FitSpace::kLogRatio, FitSpace::kRaw}) {
    AlsOptions few;
    few.fit_space = space;
    few.iterations = 5;
    AlsOptions many = few;
    many.iterations = 50;
    AlsCompleter als_few(few);
    AlsCompleter als_many(many);
    // Warm-up: grows each completer's arena to the problem's shapes.
    ASSERT_TRUE(als_few.Complete(w).ok());
    ASSERT_TRUE(als_many.Complete(w).ok());
    const long for_5 = CountAllocations([&] { (void)als_few.Complete(w); });
    const long for_50 = CountAllocations([&] { (void)als_many.Complete(w); });
    EXPECT_EQ(for_5, for_50)
        << "the ALS sweep allocates (fit_space=" << static_cast<int>(space)
        << ": 5 sweeps " << for_5 << ", 50 sweeps " << for_50 << ")";
  }
}

TEST(AlsAllocTest, CounterSeesAllocations) {
  // The guard is only meaningful if the replacement is in effect.
  const long allocations = CountAllocations([] {
    AlsCompleter als;
    (void)als.Complete(ExplorationMatrix());
  });
  EXPECT_GE(allocations, 2);
}

}  // namespace
}  // namespace limeqo::core
