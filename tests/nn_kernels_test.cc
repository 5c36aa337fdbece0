// Checks every lane kernel of the TCNN (nn/kernels.h, the Adam step) bit for
// bit against the scalar loops they replaced, which live on here only as
// references: the out-major Linear and TreeConvLayer loops, the separate
// LeakyReLU / Dropout passes, the scalar max pool and the scalar Adam step.
// Widths cover one-lane, odd, exactly-one-block, two-block and
// beyond-two-block shapes; trees cover leaves, one-child and two-child
// nodes; inputs hold signed zeros.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/kernels.h"
#include "nn/layers.h"

namespace limeqo::nn {
namespace {

using Vec = std::vector<double>;

constexpr int kWidths[] = {1, 2, 3, 5, 8, 16, 17};

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectBitwiseEqual(const Vec& got, const Vec& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(Bits(got[k]), Bits(want[k]))
        << what << " element " << k << ": " << got[k] << " vs " << want[k];
  }
}

/// Values in [-1, 1) with about one in five a signed zero, so products and
/// sums that land on -0.0 and +0.0 both occur.
Vec RandomValues(size_t n, Rng* rng) {
  Vec v(n);
  for (double& x : v) {
    const double u = rng->NextDouble();
    if (u < 0.1) {
      x = 0.0;
    } else if (u < 0.2) {
      x = -0.0;
    } else {
      x = rng->Uniform(-1.0, 1.0);
    }
  }
  return v;
}

/// Out-major (out x in) filter f of an input-major (filters x in x out)
/// weight buffer.
Vec OutMajor(const Vec& w, int f, int in, int out) {
  Vec o(static_cast<size_t>(in) * out);
  for (int c = 0; c < out; ++c) {
    for (int j = 0; j < in; ++j) {
      o[static_cast<size_t>(c) * in + j] =
          w[(static_cast<size_t>(f) * in + j) * out + c];
    }
  }
  return o;
}

// ---------------------------------------------------------------------------
// Scalar references: the loops the lane kernels replaced.
// ---------------------------------------------------------------------------

/// Linear::Forward: each output from its bias, inputs in ascending order.
void RefLinearForward(const Vec& w, const double* b, int in, int out,
                      const double* x, double* y) {
  for (int i = 0; i < out; ++i) {
    const double* w_row = w.data() + static_cast<size_t>(i) * in;
    double s = b[i];
    for (int j = 0; j < in; ++j) s += w_row[j] * x[j];
    y[i] = s;
  }
}

/// Linear::Backward.
void RefLinearBackward(const Vec& w, int in, int out, const double* grad_out,
                       const double* input, double* w_grad, double* b_grad,
                       double* grad_in) {
  if (grad_in != nullptr) std::fill(grad_in, grad_in + in, 0.0);
  for (int i = 0; i < out; ++i) {
    const double g = grad_out[i];
    if (b_grad != nullptr) b_grad[i] += g;
    const size_t row = static_cast<size_t>(i) * in;
    for (int j = 0; j < in; ++j) w_grad[row + j] += g * input[j];
    if (grad_in == nullptr) continue;
    for (int j = 0; j < in; ++j) grad_in[j] += g * w[row + j];
  }
}

struct Tree {
  std::vector<int> left;
  std::vector<int> right;
  int nodes() const { return static_cast<int>(left.size()); }
};

/// Preorder tree with every node kind: 0 -> (1, 5) two children; 1 -> (2,
/// -) left only; 2 -> (3, 4); 3, 4 leaves; 5 -> (-, 6) right only; 6 leaf.
Tree MixedTree() {
  return {{1, 2, 3, -1, -1, -1, -1}, {5, -1, 4, -1, -1, 6, -1}};
}

/// TreeConvLayer::Forward over three out-major Linear filters (the child
/// filters have zero bias) and a tmp buffer.
void RefTreeConvForward(const Vec (&w)[3], const Vec& b, int in, int out,
                        const Tree& tree, const Vec& x, Vec* y) {
  const Vec zero_bias(out, 0.0);
  Vec tmp(out);
  for (int i = 0; i < tree.nodes(); ++i) {
    double* yi = y->data() + static_cast<size_t>(i) * out;
    RefLinearForward(w[0], b.data(), in, out, x.data() + i * in, yi);
    const int children[2] = {tree.left[i], tree.right[i]};
    for (int f = 1; f <= 2; ++f) {
      const int child = children[f - 1];
      if (child < 0) continue;
      RefLinearForward(w[f], zero_bias.data(), in, out,
                       x.data() + child * in, tmp.data());
      for (int c = 0; c < out; ++c) yi[c] += tmp[c];
    }
  }
}

/// TreeConvLayer::Backward: node by node, self (with the bias), then left,
/// then right; each filter's input gradient summed into tmp, then added.
void RefTreeConvBackward(const Vec (&w)[3], int in, int out, const Tree& tree,
                         const Vec& x, const Vec& g, Vec (&dw)[3], Vec* db,
                         Vec* grad_in) {
  const int n = tree.nodes();
  if (grad_in != nullptr) std::fill(grad_in->begin(), grad_in->end(), 0.0);
  Vec tmp(in);
  for (int i = 0; i < n; ++i) {
    const int sources[3] = {i, tree.left[i], tree.right[i]};
    for (int f = 0; f < 3; ++f) {
      const int node = sources[f];
      if (node < 0) continue;
      RefLinearBackward(w[f], in, out, g.data() + i * out,
                        x.data() + node * in, dw[f].data(),
                        f == 0 ? db->data() : nullptr,
                        grad_in != nullptr ? tmp.data() : nullptr);
      if (grad_in == nullptr) continue;
      for (int j = 0; j < in; ++j) (*grad_in)[node * in + j] += tmp[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Layer kernels.
// ---------------------------------------------------------------------------

TEST(NnKernelsTest, DenseLayerMatchesLinearLoops) {
  Rng rng(101);
  for (int in : kWidths) {
    for (int out : kWidths) {
      const std::string shape =
          "dense " + std::to_string(in) + "->" + std::to_string(out);
      const Vec w = RandomValues(static_cast<size_t>(in) * out, &rng);
      const Vec b = RandomValues(out, &rng);
      const Vec x = RandomValues(in, &rng);
      const Vec g = RandomValues(out, &rng);
      const Vec ref_w = OutMajor(w, 0, in, out);
      LayerView view;
      view.w = w.data();
      view.b = b.data();
      view.in = in;
      view.out = out;

      Vec y(out), ref_y(out);
      LayerForward(view, x.data(), y.data());
      RefLinearForward(ref_w, b.data(), in, out, x.data(), ref_y.data());
      ExpectBitwiseEqual(y, ref_y, shape + " forward");

      // Gradients accumulate onto what is already there.
      Vec dw = RandomValues(w.size(), &rng), db = RandomValues(out, &rng);
      Vec ref_dw = OutMajor(dw, 0, in, out), ref_db = db;
      Vec grad_in(in, 7.0), ref_grad_in(in);
      LayerParamGrads(view, x.data(), g.data(), dw.data(), db.data());
      LayerInputGrads(view, g.data(), grad_in.data());
      RefLinearBackward(ref_w, in, out, g.data(), x.data(), ref_dw.data(),
                        ref_db.data(), ref_grad_in.data());
      ExpectBitwiseEqual(OutMajor(dw, 0, in, out), ref_dw,
                         shape + " weight grads");
      ExpectBitwiseEqual(db, ref_db, shape + " bias grads");
      ExpectBitwiseEqual(grad_in, ref_grad_in, shape + " input grads");
    }
  }
}

TEST(NnKernelsTest, TreeConvMatchesLayerLoops) {
  Rng rng(202);
  const Tree tree = MixedTree();
  const int n = tree.nodes();
  for (int in : kWidths) {
    for (int out : kWidths) {
      const std::string shape =
          "tree conv " + std::to_string(in) + "->" + std::to_string(out);
      const size_t filter = static_cast<size_t>(in) * out;
      const Vec w = RandomValues(3 * filter, &rng);
      Vec b = RandomValues(out, &rng);
      Vec x = RandomValues(static_cast<size_t>(n) * in, &rng);
      // Node 4 (a leaf, right child of node 2) reads all -0.0 inputs and
      // channel 0 has a -0.0 bias: node 4's self sum stays -0.0 there, and
      // node 2's right-child sum must start from +0.0 as before.
      std::fill(x.begin() + 4 * in, x.begin() + 5 * in, -0.0);
      b[0] = -0.0;
      const Vec g = RandomValues(static_cast<size_t>(n) * out, &rng);
      const Vec ref_w[3] = {OutMajor(w, 0, in, out), OutMajor(w, 1, in, out),
                            OutMajor(w, 2, in, out)};
      LayerView view;
      view.w = w.data();
      view.b = b.data();
      view.in = in;
      view.out = out;
      view.nodes = n;
      view.left = tree.left.data();
      view.right = tree.right.data();

      Vec y(static_cast<size_t>(n) * out), ref_y(y.size());
      LayerForward(view, x.data(), y.data());
      RefTreeConvForward(ref_w, b, in, out, tree, x, &ref_y);
      ExpectBitwiseEqual(y, ref_y, shape + " forward");

      Vec dw = RandomValues(w.size(), &rng), db = RandomValues(out, &rng);
      Vec ref_dw[3] = {OutMajor(dw, 0, in, out), OutMajor(dw, 1, in, out),
                       OutMajor(dw, 2, in, out)};
      Vec ref_db = db;
      Vec grad_in(x.size(), 7.0), ref_grad_in(x.size());
      LayerParamGrads(view, x.data(), g.data(), dw.data(), db.data());
      LayerInputGrads(view, g.data(), grad_in.data());
      RefTreeConvBackward(ref_w, in, out, tree, x, g, ref_dw, &ref_db,
                          &ref_grad_in);
      for (int f = 0; f < 3; ++f) {
        ExpectBitwiseEqual(OutMajor(dw, f, in, out), ref_dw[f],
                           shape + " weight grads, filter " +
                               std::to_string(f));
      }
      ExpectBitwiseEqual(db, ref_db, shape + " bias grads");
      ExpectBitwiseEqual(grad_in, ref_grad_in, shape + " input grads");
    }
  }
}

TEST(NnKernelsTest, TreeConvSignedZeroChildSumsStartFromPositiveZero) {
  // One parent with two leaf children whose inputs are all -0.0, positive
  // weights and a -0.0 bias: each product is -0.0, so the parent's self
  // sum is -0.0 and each child sum, started from +0.0, is +0.0. The output
  // is +0.0; summing the child products straight into the self sum would
  // give -0.0.
  const int in = 3, out = 5;
  const Tree tree{{1, -1, -1}, {2, -1, -1}};
  const Vec w(3 * in * out, 0.5), b(out, -0.0);
  const Vec x(3 * in, -0.0);
  LayerView view;
  view.w = w.data();
  view.b = b.data();
  view.in = in;
  view.out = out;
  view.nodes = 3;
  view.left = tree.left.data();
  view.right = tree.right.data();
  Vec y(3 * out);
  LayerForward(view, x.data(), y.data());
  for (int c = 0; c < out; ++c) {
    EXPECT_EQ(Bits(y[c]), Bits(0.0)) << "parent channel " << c;
    EXPECT_EQ(Bits(y[out + c]), Bits(-0.0)) << "leaf channel " << c;
  }
}

// ---------------------------------------------------------------------------
// Element-wise passes.
// ---------------------------------------------------------------------------

constexpr double kLeak = 0.01;

double RefLeaky(double x) { return x > 0.0 ? x : kLeak * x; }

TEST(NnKernelsTest, LeakyReluPassesMatchScalarLoops) {
  Rng rng(303);
  for (size_t n : {1, 2, 5, 16, 17}) {
    const Vec x = RandomValues(n, &rng), g = RandomValues(n, &rng);
    Vec y(n), ref_y(n);
    LeakyRelu(x.data(), y.data(), n);
    for (size_t i = 0; i < n; ++i) ref_y[i] = RefLeaky(x[i]);
    ExpectBitwiseEqual(y, ref_y, "leaky relu n=" + std::to_string(n));

    Vec grad = g, ref_grad = g;
    LeakyReluBackward(x.data(), grad.data(), n);
    for (size_t i = 0; i < n; ++i) ref_grad[i] *= x[i] > 0.0 ? 1.0 : kLeak;
    ExpectBitwiseEqual(grad, ref_grad,
                       "leaky relu backward n=" + std::to_string(n));
  }
}

TEST(NnKernelsTest, LeakyReluDropoutMatchesSeparatePasses) {
  Rng values(404);
  for (double p : {0.0, 0.3}) {
    for (size_t n : {1, 2, 5, 16, 17}) {
      const std::string what =
          "p=" + std::to_string(p) + " n=" + std::to_string(n);
      const Vec x = RandomValues(n, &values);
      // The replaced passes: LeakyReLU, then Dropout with one Bernoulli
      // draw per unit (none when p = 0).
      Rng rng(55), ref_rng(55);
      Vec y(n), mask(n), ref_y(n), ref_mask(n);
      LeakyReluDropout(x.data(), y.data(), mask.data(), n, p, &rng);
      const double keep_scale = 1.0 / (1.0 - p);
      for (size_t i = 0; i < n; ++i) {
        ref_y[i] = RefLeaky(x[i]);
        ref_mask[i] = p > 0.0 && ref_rng.Bernoulli(p) ? 0.0 : keep_scale;
        ref_y[i] *= ref_mask[i];
      }
      ExpectBitwiseEqual(y, ref_y, what + " output");
      ExpectBitwiseEqual(mask, ref_mask, what + " mask");
      EXPECT_EQ(rng.NextUint64(), ref_rng.NextUint64()) << what << " state";

      // Backward: the dropout factors, then the leak.
      const Vec g = RandomValues(n, &values);
      Vec grad = g, ref_grad = g;
      LeakyReluDropoutBackward(x.data(), mask.data(), grad.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ref_grad[i] *= ref_mask[i];
        ref_grad[i] *= x[i] > 0.0 ? 1.0 : kLeak;
      }
      ExpectBitwiseEqual(grad, ref_grad, what + " backward");
    }
  }
}

TEST(NnKernelsTest, MaxPoolMatchesScalarLoop) {
  Rng rng(505);
  for (int channels : kWidths) {
    for (int n : {1, 4, 9}) {
      Vec in = RandomValues(static_cast<size_t>(n) * channels, &rng);
      // Ties (the first winner keeps it) and -inf entries.
      if (n > 1) in[channels] = in[0];
      in.back() = -std::numeric_limits<double>::infinity();
      Vec out(channels), ref_out(channels);
      std::vector<int> argmax(channels, -1), ref_argmax(channels);
      MaxPoolForward(in.data(), n, channels, out.data(), argmax.data());
      for (int c = 0; c < channels; ++c) {
        ref_out[c] = -std::numeric_limits<double>::infinity();
        ref_argmax[c] = 0;
        for (int i = 0; i < n; ++i) {
          if (in[static_cast<size_t>(i) * channels + c] > ref_out[c]) {
            ref_out[c] = in[static_cast<size_t>(i) * channels + c];
            ref_argmax[c] = i;
          }
        }
      }
      const std::string what = "channels=" + std::to_string(channels) +
                               " n=" + std::to_string(n);
      ExpectBitwiseEqual(out, ref_out, what);
      EXPECT_EQ(argmax, ref_argmax) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Adam.
// ---------------------------------------------------------------------------

TEST(NnKernelsTest, AdamStepMatchesScalarUpdate) {
  Rng rng(606);
  AdamOptions options;
  options.learning_rate = 3e-3;
  std::vector<Param> params;
  for (int size : kWidths) params.emplace_back(size, 3);  // odd and even
  std::vector<Param*> pointers;
  for (Param& p : params) pointers.push_back(&p);
  // Small starting values (some exactly zero), so an update's low bits
  // are not rounded away when it is subtracted.
  for (Param& p : params) {
    const Vec start = RandomValues(p.value.size(), &rng);
    for (size_t k = 0; k < start.size(); ++k) {
      p.value.data()[k] = 1e-3 * start[k];
    }
  }
  std::vector<Vec> ref_value, ref_m, ref_v;
  for (const Param& p : params) {
    ref_value.emplace_back(p.value.data(), p.value.data() + p.value.size());
    ref_m.emplace_back(p.value.size(), 0.0);
    ref_v.emplace_back(p.value.size(), 0.0);
  }
  Adam adam(pointers, options);
  const int batch = 7;
  for (long step = 1; step <= 4; ++step) {
    std::vector<Vec> grads;
    for (Param& p : params) {
      grads.push_back(RandomValues(p.grad.size(), &rng));
      std::copy(grads.back().begin(), grads.back().end(), p.grad.data());
    }
    adam.Step(batch);
    // The scalar update the lanes replaced.
    const double bc1 = 1.0 - std::pow(options.beta1, step);
    const double bc2 = 1.0 - std::pow(options.beta2, step);
    for (size_t p = 0; p < params.size(); ++p) {
      for (size_t k = 0; k < ref_value[p].size(); ++k) {
        const double g = grads[p][k] / batch;
        double& m = ref_m[p][k];
        double& v = ref_v[p][k];
        m = options.beta1 * m + (1.0 - options.beta1) * g;
        v = options.beta2 * v + (1.0 - options.beta2) * g * g;
        const double m_hat = m / bc1;
        const double v_hat = v / bc2;
        ref_value[p][k] -= options.learning_rate * m_hat /
                           (std::sqrt(v_hat) + options.epsilon);
      }
      const Param& param = params[p];
      ExpectBitwiseEqual(
          Vec(param.value.data(), param.value.data() + param.value.size()),
          ref_value[p], "step " + std::to_string(step) + " param " +
                            std::to_string(p));
      for (size_t k = 0; k < param.grad.size(); ++k) {
        EXPECT_EQ(param.grad.data()[k], 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace limeqo::nn
