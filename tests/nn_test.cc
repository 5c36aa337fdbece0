#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/tcnn.h"
#include "nn/tree_conv.h"
#include "plan/plan_node.h"
#include "simdb/database.h"
#include "workloads/workloads.h"

namespace limeqo::nn {
namespace {

using plan::FlatPlan;
using plan::Operator;
using plan::PlanNode;

FlatPlan SmallFlatPlan() {
  auto l = PlanNode::MakeScan(Operator::kSeqScan, 0, 100.0, 50.0);
  auto r = PlanNode::MakeScan(Operator::kIndexScan, 1, 20.0, 5.0);
  auto root = PlanNode::MakeJoin(Operator::kHashJoin, std::move(l),
                                 std::move(r), 200.0, 40.0);
  return plan::FlattenPlan(*root);
}

using Vec = std::vector<double>;

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear layer(2, 1, &rng);
  auto forward = [&](Vec x) {
    double y = 0.0;
    layer.Forward(x.data(), &y);
    return y;
  };
  // Read out the weights via a probe: y(e_i) - y(0) isolates column i.
  const double b = forward({0.0, 0.0});
  const double w0 = forward({1.0, 0.0}) - b;
  const double w1 = forward({0.0, 1.0}) - b;
  EXPECT_NEAR(forward({2.0, 3.0}), 2.0 * w0 + 3.0 * w1 + b, 1e-12);
}

TEST(LinearTest, GradientMatchesFiniteDifference) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  Vec x{0.5, -1.0, 2.0};
  // Loss = sum of outputs; dL/dy = (1, 1).
  Vec grad_out{1.0, 1.0};
  Vec grad_in(3, -7.0);  // overwritten, not accumulated into
  layer.Backward(grad_out.data(), x.data(), grad_in.data());
  const double eps = 1e-6;
  for (int i = 0; i < 3; ++i) {
    Vec xp = x, xm = x, yp(2), ym(2);
    xp[i] += eps;
    xm[i] -= eps;
    layer.Forward(xp.data(), yp.data());
    layer.Forward(xm.data(), ym.data());
    const double numeric =
        ((yp[0] + yp[1]) - (ym[0] + ym[1])) / (2.0 * eps);
    EXPECT_NEAR(grad_in[i], numeric, 1e-5);
  }
  // A null grad_in still accumulates the parameter gradients.
  Param* w = layer.params()[0];
  const double before = w->grad(0, 0);
  layer.Backward(grad_out.data(), x.data(), nullptr);
  EXPECT_DOUBLE_EQ(w->grad(0, 0), before + x[0]);
}

TEST(LeakyReluTest, ForwardAndBackward) {
  Vec x{-2.0, 0.0, 3.0}, y(3);
  LeakyRelu(x.data(), y.data(), 3, 0.1);
  EXPECT_DOUBLE_EQ(y[0], -0.2);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
  Vec g{1.0, 1.0, 1.0};
  LeakyReluBackward(x.data(), g.data(), 3, 0.1);
  EXPECT_DOUBLE_EQ(g[0], 0.1);
  EXPECT_DOUBLE_EQ(g[2], 1.0);
}

TEST(DropoutTest, ZeroRateKeepsEverything) {
  Rng rng(4), untouched(4);
  Vec x{1.0, 2.0, 3.0}, y(3), mask(3, 0.0);
  LeakyReluDropout(x.data(), y.data(), mask.data(), 3, 0.0, &rng);
  EXPECT_EQ(y, x);
  EXPECT_EQ(mask, (Vec{1.0, 1.0, 1.0}));
  EXPECT_EQ(rng.NextUint64(), untouched.NextUint64());  // no draws
}

TEST(DropoutTest, TrainingZerosAndRescales) {
  Rng rng(5);
  Vec x(1000, 1.0), y(1000), mask(1000);
  LeakyReluDropout(x.data(), y.data(), mask.data(), y.size(), 0.5, &rng);
  int zeros = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(y[i], mask[i]);
    if (y[i] == 0.0) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 2.0, 1e-12);  // inverted dropout scaling 1/(1-p)
    }
  }
  EXPECT_NEAR(zeros / 1000.0, 0.5, 0.08);
}

TEST(EmbeddingTest, LookupAndGrow) {
  Rng rng(6);
  Embedding e(3, 4, &rng);
  const Vec v0(e.Row(0), e.Row(0) + 4);
  e.Append(2, &rng);
  EXPECT_EQ(e.count(), 5);
  EXPECT_EQ(Vec(e.Row(0), e.Row(0) + 4), v0);  // existing rows unchanged
}

TEST(EmbeddingTest, BackwardAccumulatesIntoRow) {
  Rng rng(7);
  Embedding e(2, 3, &rng);
  const Vec g1{1.0, 2.0, 3.0}, g2{1.0, 0.0, 0.0};
  e.Backward(1, g1.data());
  e.Backward(1, g2.data());
  Param* table = e.params()[0];
  EXPECT_DOUBLE_EQ(table->grad(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(table->grad(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(table->grad(0, 0), 0.0);
}

TEST(TreeConvTest, LeafEqualsSelfFilterOnly) {
  Rng rng(8);
  FlatPlan flat = SmallFlatPlan();
  TreeConvLayer layer(plan::kNodeFeatureDim, 4, &rng);
  Vec out(3 * 4), out2(3 * 4);
  layer.Forward(flat, flat.features.data(), out.data());
  // A leaf has no children: re-running with children zeroed out changes
  // nothing for the leaf but does change the root.
  FlatPlan no_children = flat;
  no_children.left_child.assign(3, -1);
  no_children.right_child.assign(3, -1);
  layer.Forward(no_children, flat.features.data(), out2.data());
  for (size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(out[4 + c], out2[4 + c]);
  bool root_changed = false;
  for (size_t c = 0; c < 4; ++c) {
    if (std::fabs(out[c] - out2[c]) > 1e-12) root_changed = true;
  }
  EXPECT_TRUE(root_changed);
}

TEST(TreeConvTest, GradientMatchesFiniteDifference) {
  Rng rng(9);
  FlatPlan flat = SmallFlatPlan();
  TreeConvLayer layer(plan::kNodeFeatureDim, 3, &rng);
  const size_t in = plan::kNodeFeatureDim;
  const size_t n = flat.num_nodes();

  // Scalar loss: sum of all outputs.
  auto loss = [&](const Vec& inputs) {
    Vec out(n * 3);
    layer.Forward(flat, inputs.data(), out.data());
    double s = 0.0;
    for (double x : out) s += x;
    return s;
  };

  const Vec inputs = flat.features;
  Vec grad_out(n * 3, 1.0), grad_in(n * in);
  layer.Backward(flat, inputs.data(), grad_out.data(), grad_in.data());

  const double eps = 1e-6;
  for (size_t k = 0; k < inputs.size(); ++k) {
    Vec ip = inputs, im = inputs;
    ip[k] += eps;
    im[k] -= eps;
    const double numeric = (loss(ip) - loss(im)) / (2.0 * eps);
    EXPECT_NEAR(grad_in[k], numeric, 1e-4)
        << "node=" << k / in << " feature=" << k % in;
  }
}

TEST(MaxPoolTest, ForwardPicksChannelMaxima) {
  const Vec in{1.0, 9.0, 5.0, 2.0};  // 2 nodes x 2 channels
  Vec out(2);
  std::vector<int> argmax(2);
  MaxPoolForward(in.data(), 2, 2, out.data(), argmax.data());
  EXPECT_EQ(out, (Vec{5.0, 9.0}));
  EXPECT_EQ(argmax, (std::vector<int>{1, 0}));
}

TEST(MaxPoolTest, BackwardRoutesToWinners) {
  const std::vector<int> argmax{1, 0};
  const Vec grad_out{0.5, 0.25};
  Vec g(4, -1.0);
  MaxPoolBackward(grad_out.data(), argmax.data(), 2, 2, g.data());
  EXPECT_EQ(g, (Vec{0.0, 0.25, 0.5, 0.0}));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (x - 3)^2 for a single scalar parameter.
  Param p(1, 1);
  p.value(0, 0) = 0.0;
  AdamOptions opt;
  opt.learning_rate = 0.1;
  Adam adam({&p}, opt);
  for (int step = 0; step < 500; ++step) {
    p.grad(0, 0) = 2.0 * (p.value(0, 0) - 3.0);
    adam.Step(1);
  }
  EXPECT_NEAR(p.value(0, 0), 3.0, 0.01);
}

TEST(TcnnTest, FitsTinyDataset) {
  Rng rng(10);
  FlatPlan flat = SmallFlatPlan();
  TcnnOptions opt;
  opt.conv_channels = {8, 4};
  opt.fc_hidden = {8};
  opt.max_epochs = 800;
  opt.adam.learning_rate = 5e-3;
  opt.dropout_p = 0.0;  // deterministic fit for this test
  opt.convergence_window = 10000;  // disable early stop
  TcnnModel model(4, 3, opt);

  // Four (query, hint) samples with distinct targets; same plan tree, so
  // the embeddings must do the work: this checks the transductive part.
  std::vector<TcnnSample> samples;
  const double targets[4] = {1.0, 2.0, 3.0, 4.0};
  for (int i = 0; i < 4; ++i) {
    TcnnSample s;
    s.flat = &flat;
    s.query = i;
    s.hint = i % 3;
    s.target = targets[i];
    samples.push_back(s);
  }
  const double final_loss = model.Train(samples);
  EXPECT_LT(final_loss, 0.05);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(model.PredictLog(flat, i, i % 3), targets[i], 0.4);
  }
}

TEST(TcnnTest, CensoredLossIgnoresPredictionsAboveThreshold) {
  Rng rng(11);
  FlatPlan flat = SmallFlatPlan();
  TcnnOptions opt;
  opt.conv_channels = {4};
  opt.fc_hidden = {4};
  opt.max_epochs = 200;
  opt.dropout_p = 0.0;
  opt.convergence_window = 1000;
  TcnnModel model(2, 2, opt);

  // One exact sample at 5.0 and one censored sample at threshold 1.0 for
  // the same coordinates: the censored sample must not drag the prediction
  // down to 1.0 (it is already above the threshold).
  std::vector<TcnnSample> samples;
  TcnnSample exact{&flat, 0, 0, 5.0, false};
  TcnnSample censored{&flat, 0, 0, 1.0, true};
  samples.push_back(exact);
  samples.push_back(censored);
  model.Train(samples);
  EXPECT_NEAR(model.PredictLog(flat, 0, 0), 5.0, 0.5);
}

TEST(TcnnTest, GrowQueriesKeepsWorking) {
  FlatPlan flat = SmallFlatPlan();
  TcnnOptions opt;
  opt.conv_channels = {4};
  opt.fc_hidden = {4};
  opt.max_epochs = 5;
  TcnnModel model(3, 2, opt);
  std::vector<TcnnSample> samples{{&flat, 0, 0, 2.0, false}};
  model.Train(samples);
  model.GrowQueries(6);
  EXPECT_EQ(model.num_queries(), 6);
  // New rows predict without crashing and training still works.
  (void)model.PredictLog(flat, 5, 1);
  samples.push_back({&flat, 5, 1, 3.0, false});
  model.Train(samples);
}

TEST(TcnnTest, ParameterCountLargerWithEmbeddings) {
  TcnnOptions with;
  TcnnOptions without;
  without.use_embeddings = false;
  TcnnModel a(10, 5, with);
  TcnnModel b(10, 5, without);
  EXPECT_GT(a.NumParameters(), b.NumParameters());
  EXPECT_GT(b.NumParameters(), 0);
}

// FNV-1a over exact double bit patterns, so the hash pins values bitwise.
void MixBits(uint64_t* h, double v) {
  unsigned char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  for (unsigned char b : bytes) {
    *h ^= b;
    *h *= 0x100000001B3ULL;
  }
}

// Pins the TCNN's training and inference arithmetic bitwise: the bench's
// LimeQO+ shape (conv {16, 8}, fc {16}, dropout 0.3, r = 5, censored loss)
// trained on a fixed mix of complete and censored samples over the real
// JOB plans, then the exact bits of each returned loss and of PredictLog
// over every (query, hint). The same shape without embeddings (the plain
// Bao-style TCNN) is pinned alongside, as are the TcnnOptions default
// shape (conv {32, 16, 8}, fc {32, 16}: channel counts above 16 and an
// 18-wide head) and an odd-width shape (conv {5, 3}, fc {7}). Any change to
// an accumulation order, the dropout draw order, or the Adam update moves a
// hash. Regenerate with LIMEQO_PRINT_TCNN_HASH=1, but only when a change
// *intends* to alter training numerics.
struct PinnedTcnn {
  std::vector<int> conv_channels;
  std::vector<int> fc_hidden;
  bool use_embeddings;
  uint64_t expected_hash;
};
const PinnedTcnn kPinnedTcnns[] = {
    {{16, 8}, {16}, true, 0x983860C86AB182EDULL},
    {{16, 8}, {16}, false, 0xE327C62946996A6CULL},
    {{32, 16, 8}, {32, 16}, true, 0xA8DE34BFE6D190CEULL},
    {{5, 3}, {7}, true, 0xBDC59AD4C2613B93ULL},
};

TEST(TcnnTest, TrainingIsBitwisePinned) {
  simdb::SimulatedDatabase db(
      std::move(workloads::MakeWorkload(workloads::WorkloadId::kJob, 1.0, 42))
          .value());
  std::vector<std::unique_ptr<FlatPlan>> flats;
  std::vector<TcnnSample> samples;
  for (int i = 0; i < db.num_queries(); ++i) {
    for (int j = 0; j < db.num_hints(); ++j) {
      flats.push_back(
          std::make_unique<FlatPlan>(plan::FlattenPlan(db.Plan(i, j))));
      const int bucket = (7 * i + j) % 13;
      if (bucket == 0) {
        samples.push_back({flats.back().get(), i, j,
                           std::log1p(db.TrueLatency(i, j)), false});
      } else if (bucket == 5) {
        // Censored at half the true latency: a lower bound on the truth.
        samples.push_back({flats.back().get(), i, j,
                           std::log1p(0.5 * db.TrueLatency(i, j)), true});
      }
    }
  }
  ASSERT_GT(samples.size(), 500u);

  const bool print_mode = std::getenv("LIMEQO_PRINT_TCNN_HASH") != nullptr;
  for (const PinnedTcnn& pinned : kPinnedTcnns) {
    TcnnOptions opt;
    opt.conv_channels = pinned.conv_channels;
    opt.fc_hidden = pinned.fc_hidden;
    opt.dropout_p = 0.3;
    opt.embedding_dim = 5;
    opt.censored_loss = true;
    opt.use_embeddings = pinned.use_embeddings;
    opt.max_epochs = 3;
    TcnnModel model(db.num_queries(), db.num_hints(), opt);
    uint64_t h = 0xCBF29CE484222325ULL;
    // Two fits: the second continues from the retained weights and Adam
    // moments, as successive exploration steps do.
    MixBits(&h, model.Train(samples));
    MixBits(&h, model.Train(samples));
    for (int i = 0; i < db.num_queries(); ++i) {
      for (int j = 0; j < db.num_hints(); ++j) {
        const FlatPlan& flat =
            *flats[static_cast<size_t>(i) * db.num_hints() + j];
        MixBits(&h, model.PredictLog(flat, i, j));
      }
    }
    if (print_mode) {
      std::printf("    %s, 0x%016llXULL\n",
                  pinned.use_embeddings ? "true" : "false",
                  static_cast<unsigned long long>(h));
      continue;
    }
    EXPECT_EQ(h, pinned.expected_hash)
        << "TCNN numerics changed bitwise (conv layers "
        << pinned.conv_channels.size() << ", use_embeddings="
        << pinned.use_embeddings << ")";
  }
}

}  // namespace
}  // namespace limeqo::nn
