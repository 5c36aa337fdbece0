// Allocation guard for the TCNN's per-sample path. This binary replaces the
// global operator new with a counting one, so it must stay its own test
// executable. Once the model's workspace has grown to the largest plan,
// TcnnModel::Train allocates a fixed number of times per call, however many
// samples it sees, and PredictLog never allocates. A per-sample allocation
// (a returned vector, a per-node copy) fails this check structurally, before
// it could show up as a throughput regression.

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/tcnn.h"
#include "plan/featurize.h"
#include "simdb/database.h"
#include "workloads/workloads.h"

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

namespace limeqo::nn {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
long CountAllocations(Fn&& fn) {
  const long before = g_allocations;
  fn();
  return g_allocations - before;
}

class TcnnAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    simdb::SimulatedDatabase db(
        std::move(
            workloads::MakeWorkload(workloads::WorkloadId::kJob, 1.0, 42))
            .value());
    // 128 (query, hint) samples over distinct real JOB plans; every
    // fourth is censored so both loss branches run.
    for (int s = 0; s < 128; ++s) {
      const int i = (s * 37) % db.num_queries();
      const int j = (s * 11) % db.num_hints();
      flats_.push_back(
          std::make_unique<plan::FlatPlan>(plan::FlattenPlan(db.Plan(i, j))));
      samples_.push_back({flats_.back().get(), i, j,
                          std::log1p(db.TrueLatency(i, j)), s % 4 == 0});
    }
    // The bench's LimeQO+ shape. A fixed epoch count keeps the per-call
    // (not per-sample) allocations equal across calls.
    TcnnOptions opt;
    opt.conv_channels = {16, 8};
    opt.fc_hidden = {16};
    opt.max_epochs = 3;
    opt.convergence_window = 1000;
    model_ = std::make_unique<TcnnModel>(db.num_queries(), db.num_hints(), opt);
    // Warm-up: grows the workspace to the largest plan.
    model_->Train(samples_);
  }

  std::vector<std::unique_ptr<plan::FlatPlan>> flats_;
  std::vector<TcnnSample> samples_;
  std::unique_ptr<TcnnModel> model_;
};

TEST_F(TcnnAllocTest, TrainAllocationsDoNotGrowWithSamples) {
  std::vector<TcnnSample> half(samples_.begin(), samples_.begin() + 64);
  std::vector<TcnnSample> full = samples_;
  const long for_64 =
      CountAllocations([&] { model_->Train(std::move(half)); });
  const long for_128 =
      CountAllocations([&] { model_->Train(std::move(full)); });
  EXPECT_EQ(for_64, for_128)
      << "TcnnModel::Train allocates per sample (64 samples: " << for_64
      << ", 128 samples: " << for_128 << ")";
}

TEST_F(TcnnAllocTest, PredictLogDoesNotAllocate) {
  double sum = 0.0;
  const long allocations = CountAllocations([&] {
    for (const TcnnSample& s : samples_) {
      sum += model_->PredictLog(*s.flat, s.query, s.hint);
    }
  });
  EXPECT_EQ(allocations, 0);
  EXPECT_TRUE(std::isfinite(sum));
}

TEST_F(TcnnAllocTest, CounterSeesAllocations) {
  // The guard is only meaningful if the replacement is in effect.
  const long allocations = CountAllocations([] {
    auto v = std::make_unique<std::vector<double>>(16);
    ASSERT_EQ(v->size(), 16u);
  });
  EXPECT_GE(allocations, 2);
}

}  // namespace
}  // namespace limeqo::nn
