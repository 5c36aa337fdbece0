#include "nn/kernels.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "common/lanes.h"

namespace limeqo::nn {
namespace {

using lanes::Load2;
using lanes::Mask2;
using lanes::Select;
using lanes::Splat;
using lanes::Store2;
using lanes::Vec2;

/// Widest block; wider layers run several blocks.
constexpr int kMaxBlock = 8;

/// The source rows a node reads: the node itself for the self filter, then
/// each present child (left before right), with the filter serving it.
struct NodeStreams {
  int count = 0;
  int filter[3] = {};
  int src[3] = {};

  NodeStreams(const LayerView& layer, int i) {
    Add(0, i);
    if (layer.left == nullptr) return;
    if (layer.left[i] >= 0) Add(1, layer.left[i]);
    if (layer.right[i] >= 0) Add(2, layer.right[i]);
  }
  void Add(int f, int s) {
    filter[count] = f;
    src[count] = s;
    ++count;
  }
};

/// The kernels for one block of kW (1-8) values: output channels
/// [c0, c0 + kW) for Forward and ParamGrads, inputs [j0, j0 + kW) for
/// InputGrads. The streams of one node (self and each present child)
/// accumulate side by side, each into its own registers, so the adds of one
/// step do not wait on each other; every element still sees its own
/// stream's operations in order.
template <int kW>
struct Block {
  static constexpr int kPairs = (kW + 1) / 2;
  /// The last pair of an odd block holds one value; lane 1 is zero.
  static constexpr bool kOdd = kW % 2 == 1;

  static Vec2 Load(const double* row, int p) {
    if (kOdd && p == kPairs - 1) return Vec2{row[2 * p], 0.0};
    return Load2(row + 2 * p);
  }
  static void Store(double* row, int p, Vec2 v) {
    if (kOdd && p == kPairs - 1) {
      row[2 * p] = v[0];
    } else {
      Store2(row + 2 * p, v);
    }
  }

  /// acc[s] += sum over ascending j of x[s][j] * w[s][j * stride + block
  /// channels], for the first kStreams streams.
  template <int kStreams>
  static void Accumulate(const double* const* w, const double* const* x,
                         size_t stride, size_t in, Vec2 (*acc)[kPairs]) {
    for (size_t j = 0; j < in; ++j) {
#pragma GCC unroll 3
      for (int s = 0; s < kStreams; ++s) {
        const Vec2 xs = Splat(x[s][j]);
        const double* row = w[s] + j * stride;
#pragma GCC unroll 8
        for (int p = 0; p < kPairs; ++p) acc[s][p] += xs * Load(row, p);
      }
    }
  }

  static void Forward(const LayerView& layer, int c0, const double* x,
                      double* y) {
    const size_t in = layer.in, out = layer.out, filter = in * out;
    for (int i = 0; i < layer.nodes; ++i) {
      const NodeStreams streams(layer, i);
      const double* w[3];
      const double* xs[3];
      for (int s = 0; s < streams.count; ++s) {
        w[s] = layer.w + streams.filter[s] * filter + c0;
        xs[s] = x + streams.src[s] * in;
      }
      // The self stream starts from the bias, each child's from 0.0.
      Vec2 acc[3][kPairs] = {};
      for (int p = 0; p < kPairs; ++p) acc[0][p] = Load(layer.b + c0, p);
      switch (streams.count) {
        case 1: Accumulate<1>(w, xs, out, in, acc); break;
        case 2: Accumulate<2>(w, xs, out, in, acc); break;
        default: Accumulate<3>(w, xs, out, in, acc); break;
      }
      for (int s = 1; s < streams.count; ++s) {
        for (int p = 0; p < kPairs; ++p) acc[0][p] += acc[s][p];
      }
      double* yi = y + i * out + c0;
      for (int p = 0; p < kPairs; ++p) Store(yi, p, acc[0][p]);
    }
  }

  // Register tile: two weight rows (inputs j, j + 1) of one filter across
  // the block's channels, accumulated over every node before it is stored.
  static void ParamGrads(const LayerView& layer, int c0, const double* x,
                         const double* g, double* dw, double* db) {
    const size_t in = layer.in, out = layer.out, filter = in * out;
    Vec2 bias[kPairs];
    for (int p = 0; p < kPairs; ++p) bias[p] = Load(db + c0, p);
    for (int i = 0; i < layer.nodes; ++i) {
      for (int p = 0; p < kPairs; ++p) bias[p] += Load(g + i * out + c0, p);
    }
    for (int p = 0; p < kPairs; ++p) Store(db + c0, p, bias[p]);

    for (int f = 0; f < layer.filters(); ++f) {
      const int* child = f == 0 ? nullptr : f == 1 ? layer.left : layer.right;
      double* dwf = dw + f * filter + c0;
      size_t j = 0;
      for (; j + 2 <= in; j += 2) {
        double* row0 = dwf + j * out;
        double* row1 = row0 + out;
        Vec2 a0[kPairs], a1[kPairs];
        for (int p = 0; p < kPairs; ++p) {
          a0[p] = Load(row0, p);
          a1[p] = Load(row1, p);
        }
        for (int i = 0; i < layer.nodes; ++i) {
          const int src = child == nullptr ? i : child[i];
          if (src < 0) continue;
          const double* xs = x + src * in + j;
          const Vec2 x0 = Splat(xs[0]), x1 = Splat(xs[1]);
          const double* gi = g + i * out + c0;
#pragma GCC unroll 8
          for (int p = 0; p < kPairs; ++p) {
            const Vec2 gp = Load(gi, p);
            a0[p] += gp * x0;
            a1[p] += gp * x1;
          }
        }
        for (int p = 0; p < kPairs; ++p) {
          Store(row0, p, a0[p]);
          Store(row1, p, a1[p]);
        }
      }
      if (j < in) {
        double* row = dwf + j * out;
        Vec2 a[kPairs];
        for (int p = 0; p < kPairs; ++p) a[p] = Load(row, p);
        for (int i = 0; i < layer.nodes; ++i) {
          const int src = child == nullptr ? i : child[i];
          if (src < 0) continue;
          const Vec2 xs = Splat(x[src * in + j]);
          const double* gi = g + i * out + c0;
          for (int p = 0; p < kPairs; ++p) a[p] += Load(gi, p) * xs;
        }
        for (int p = 0; p < kPairs; ++p) Store(row, p, a[p]);
      }
    }
  }

  /// {w[2p][c], w[2p + 1][c]} for weight rows of length `stride` (inputs
  /// 2p and 2p + 1 of the block, output channel c).
  static Vec2 Column(const double* w, size_t stride, int p, size_t c) {
    const double* top = w + 2 * p * stride + c;
    if (kOdd && p == kPairs - 1) return Vec2{top[0], 0.0};
    return Vec2{top[0], top[stride]};
  }

  /// sum[s] += sum over ascending c of g[c] * w[s] column c, for the first
  /// kStreams streams.
  template <int kStreams>
  static void ColumnSums(const double* const* w, const double* g, size_t out,
                         Vec2 (*sum)[kPairs]) {
    for (size_t c = 0; c < out; ++c) {
      const Vec2 gc = Splat(g[c]);
#pragma GCC unroll 3
      for (int s = 0; s < kStreams; ++s) {
#pragma GCC unroll 8
        for (int p = 0; p < kPairs; ++p) {
          sum[s][p] += gc * Column(w[s], out, p, c);
        }
      }
    }
  }

  static void InputGrads(const LayerView& layer, int j0, const double* g,
                         double* grad_in) {
    const size_t in = layer.in, out = layer.out, filter = in * out;
    for (int i = 0; i < layer.nodes; ++i) {
      const NodeStreams streams(layer, i);
      const double* w[3];
      for (int s = 0; s < streams.count; ++s) {
        w[s] = layer.w + streams.filter[s] * filter + j0 * out;
      }
      Vec2 sum[3][kPairs] = {};
      const double* gi = g + i * out;
      switch (streams.count) {
        case 1: ColumnSums<1>(w, gi, out, sum); break;
        case 2: ColumnSums<2>(w, gi, out, sum); break;
        default: ColumnSums<3>(w, gi, out, sum); break;
      }
      for (int s = 0; s < streams.count; ++s) {
        double* row = grad_in + streams.src[s] * in + j0;
        for (int p = 0; p < kPairs; ++p) {
          Store(row, p, Load(row, p) + sum[s][p]);
        }
      }
    }
  }
};

struct BlockKernels {
  void (*forward)(const LayerView&, int, const double*, double*);
  void (*param_grads)(const LayerView&, int, const double*, const double*,
                      double*, double*);
  void (*input_grads)(const LayerView&, int, const double*, double*);
};

template <int... kWidths>
constexpr std::array<BlockKernels, sizeof...(kWidths)> MakeBlockTable(
    std::integer_sequence<int, kWidths...>) {
  return {{BlockKernels{&Block<kWidths + 1>::Forward,
                        &Block<kWidths + 1>::ParamGrads,
                        &Block<kWidths + 1>::InputGrads}...}};
}

/// Entry w - 1 serves a block of w values.
constexpr std::array<BlockKernels, kMaxBlock> kBlockTable =
    MakeBlockTable(std::make_integer_sequence<int, kMaxBlock>());

/// Calls fn(kernels, offset) for each block of a width, in ascending order.
template <typename Fn>
void ForEachBlock(int width, Fn fn) {
  for (int offset = 0; offset < width; offset += kMaxBlock) {
    fn(kBlockTable[std::min(kMaxBlock, width - offset) - 1], offset);
  }
}

}  // namespace

void LayerForward(const LayerView& layer, const double* x, double* y) {
  ForEachBlock(layer.out, [&](const BlockKernels& k, int c0) {
    k.forward(layer, c0, x, y);
  });
}

void LayerParamGrads(const LayerView& layer, const double* x, const double* g,
                     double* dw, double* db) {
  ForEachBlock(layer.out, [&](const BlockKernels& k, int c0) {
    k.param_grads(layer, c0, x, g, dw, db);
  });
}

void LayerInputGrads(const LayerView& layer, const double* g,
                     double* grad_in) {
  std::fill(grad_in, grad_in + static_cast<size_t>(layer.nodes) * layer.in,
            0.0);
  ForEachBlock(layer.in, [&](const BlockKernels& k, int j0) {
    k.input_grads(layer, j0, g, grad_in);
  });
}

void LeakyRelu(const double* x, double* y, size_t n, double leak) {
  const Vec2 zero = {0.0, 0.0}, lv = Splat(leak);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const Vec2 v = Load2(x + i);
    Store2(y + i, Select(v > zero, v, lv * v));
  }
  if (i < n) y[i] = x[i] > 0.0 ? x[i] : leak * x[i];
}

void LeakyReluBackward(const double* input, double* grad, size_t n,
                       double leak) {
  const Vec2 zero = {0.0, 0.0}, one = Splat(1.0), lv = Splat(leak);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const Vec2 factor = Select(Load2(input + i) > zero, one, lv);
    Store2(grad + i, Load2(grad + i) * factor);
  }
  if (i < n) grad[i] *= input[i] > 0.0 ? 1.0 : leak;
}

void LeakyReluDropout(const double* x, double* y, double* mask, size_t n,
                      double p, Rng* rng, double leak) {
  const double keep_scale = 1.0 / (1.0 - p);
  // The draws go to `mask` first. p = 0 makes no draws: a stand-in draw of
  // 1.0 never falls below p, so every unit keeps factor 1.
  if (p > 0.0) {
    rng->NextDoubles(mask, n);
  } else {
    std::fill(mask, mask + n, 1.0);
  }
  const Vec2 zero = {0.0, 0.0}, lv = Splat(leak), pv = Splat(p),
             keep = Splat(keep_scale);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // A unit whose draw falls below p is dropped (Rng::Bernoulli(p)).
    const Vec2 m = Select(Load2(mask + i) < pv, zero, keep);
    const Vec2 v = Load2(x + i);
    Store2(mask + i, m);
    Store2(y + i, Select(v > zero, v, lv * v) * m);
  }
  if (i < n) {
    mask[i] = mask[i] < p ? 0.0 : keep_scale;
    y[i] = (x[i] > 0.0 ? x[i] : leak * x[i]) * mask[i];
  }
}

void LeakyReluDropoutBackward(const double* input, const double* mask,
                              double* grad, size_t n, double leak) {
  const Vec2 zero = {0.0, 0.0}, one = Splat(1.0), lv = Splat(leak);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const Vec2 factor = Select(Load2(input + i) > zero, one, lv);
    Store2(grad + i, Load2(grad + i) * Load2(mask + i) * factor);
  }
  if (i < n) grad[i] = grad[i] * mask[i] * (input[i] > 0.0 ? 1.0 : leak);
}

// Lanes run over channel pairs, each over ascending nodes; the winning
// node's index rides in a double lane beside the running maximum.
void MaxPoolForward(const double* inputs, int n, int channels, double* out,
                    int* argmax) {
  const size_t width = static_cast<size_t>(channels);
  const Vec2 lowest = Splat(-std::numeric_limits<double>::infinity());
  size_t c = 0;
  for (; c + 2 <= width; c += 2) {
    Vec2 best = lowest, winner = {0.0, 0.0};
    for (int i = 0; i < n; ++i) {
      const Vec2 v = Load2(inputs + static_cast<size_t>(i) * width + c);
      const Mask2 wins = v > best;
      best = Select(wins, v, best);
      winner = Select(wins, Splat(i), winner);
    }
    Store2(out + c, best);
    argmax[c] = static_cast<int>(winner[0]);
    argmax[c + 1] = static_cast<int>(winner[1]);
  }
  if (c < width) {
    out[c] = -std::numeric_limits<double>::infinity();
    argmax[c] = 0;
    for (int i = 0; i < n; ++i) {
      const double v = inputs[static_cast<size_t>(i) * width + c];
      if (v > out[c]) {
        out[c] = v;
        argmax[c] = i;
      }
    }
  }
}

void MaxPoolBackward(const double* grad_out, const int* argmax, int n,
                     int channels, double* grad_in) {
  std::fill(grad_in, grad_in + static_cast<size_t>(n) * channels, 0.0);
  for (int c = 0; c < channels; ++c) {
    grad_in[static_cast<size_t>(argmax[c]) * channels + c] += grad_out[c];
  }
}

}  // namespace limeqo::nn
