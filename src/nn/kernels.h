#ifndef LIMEQO_NN_KERNELS_H_
#define LIMEQO_NN_KERNELS_H_

#include <cstddef>

#include "common/rng.h"

namespace limeqo::nn {

/// The per-sample arithmetic of a TCNN layer, written as two-lane SSE2
/// kernels through the GCC/Clang `vector_size(16)` extension.
///
/// One kernel set serves both layer kinds. A tree convolution layer has
/// `nodes` nodes and three filters (self, left, right): node i's output is
///   y_i = b + W_self x_i + W_left x_l + W_right x_r
/// with absent children (index -1) skipped. A dense layer is the same with
/// one node, one filter and null child arrays.
///
/// Layout: the filters are stored input-major, `w[(f * in + j) * out + c]`
/// (filter f, input j, output channel c), so a row of a filter is one
/// input's weights to every output channel and a lane pair loads two
/// adjacent channels. Buffers of node values are row-major node x width.
///
/// Lanes run over output channels (forward, parameter gradients) or over
/// inputs (input gradients), in blocks of at most eight values. A node's
/// streams (self and each present child) accumulate side by side, one
/// register set each, and the weight gradients hold a two-input tile of a
/// filter in registers across all of the nodes; at eight values a block's
/// accumulators still fit the sixteen SSE registers. Each block width 1-8
/// is its own instantiation of one body, so the lane loops unroll; any
/// width is a run of eight-wide blocks plus one narrower block, with no
/// runtime-width body. An odd block's last pair computes its second lane
/// from zeros and never stores it.
///
/// Operation-order contract: every element is computed with the scalar
/// operations, in the order, of the layer loops these kernels replaced,
/// so the results are identical bit for bit:
///  - forward: y starts from the bias and adds w_self[j] * x[j] for
///    ascending j; each present child filter sums its products from 0.0,
///    in ascending j, into its own accumulator, which is then added (left
///    before right). The zero start matters for signed zeros: a child
///    whose products are all -0.0 adds +0.0.
///  - parameter gradients: dW_f[j][c] += g_i[c] * x_src[j] and, for the
///    bias, db[c] += g_i[c], over nodes i in ascending order (src is i for
///    the self filter, else the child; absent children add nothing).
///  - input gradients: the buffer is zeroed, then node by node in
///    ascending order, each present filter's sum over ascending c of
///    g_i[c] * w_f[j][c], started from 0.0, is added to its source row.
/// This holds only without FMA contraction: the build uses neither -march
/// nor -mfma.
struct LayerView {
  const double* w = nullptr;  ///< filters x in x out, input-major.
  const double* b = nullptr;  ///< out biases.
  int in = 0;
  int out = 0;
  /// Node count (1 for a dense layer).
  int nodes = 1;
  /// Per-node child indices, -1 when absent; both null for a dense layer,
  /// both set for a tree convolution.
  const int* left = nullptr;
  const int* right = nullptr;

  /// Filters stored in `w`: three for a tree convolution, one for dense.
  int filters() const { return left != nullptr ? 3 : 1; }
};

/// y (nodes x out) = the layer applied to x (nodes x in).
void LayerForward(const LayerView& layer, const double* x, double* y);

/// Accumulates the weight gradients into dw (shaped like layer.w) and the
/// bias gradients into db, given the forward input x (nodes x in) and the
/// output gradients g (nodes x out).
void LayerParamGrads(const LayerView& layer, const double* x, const double* g,
                     double* dw, double* db);

/// Overwrites grad_in (nodes x in) with the input gradients given the
/// output gradients g (nodes x out).
void LayerInputGrads(const LayerView& layer, const double* g,
                     double* grad_in);

// Element-wise passes. Each element gets the scalar operations of the loop
// it replaced; a lane selects between two computed values where that loop
// branched.

/// Leaky ReLU y = x > 0 ? x : leak * x over n units.
void LeakyRelu(const double* x, double* y, size_t n, double leak = 0.01);

/// Backward of LeakyRelu in place: grad[i] *= (input[i] > 0 ? 1 : leak),
/// given the forward *input*.
void LeakyReluBackward(const double* input, double* grad, size_t n,
                       double leak = 0.01);

/// Training-time LeakyRelu followed by inverted dropout over n units: one
/// Bernoulli draw per unit in index order (all drawn up front by
/// Rng::NextDoubles), kept units scaled by 1/(1-p) so inference needs no
/// rescaling (paper uses p = 0.3 between tree convolution layers). `mask`
/// receives each unit's factor (0 or 1/(1-p); all 1 and no draws when
/// p = 0) and y[i] = leaky(x[i]) * mask[i].
void LeakyReluDropout(const double* x, double* y, double* mask, size_t n,
                      double p, Rng* rng, double leak = 0.01);

/// Backward of LeakyReluDropout in place over n units: grad[i] *= mask[i],
/// then grad[i] *= (input[i] > 0 ? 1 : leak), given the forward *input*.
void LeakyReluDropoutBackward(const double* input, const double* mask,
                              double* grad, size_t n, double leak = 0.01);

/// Dynamic max pooling over an n x channels buffer (paper Sec. 4.3.2):
/// out[c] = max_i in[i][c], argmax[c] = the first winning node (0 when no
/// value exceeds -inf). Reduces a variable-size tree to a fixed-size vector.
void MaxPoolForward(const double* inputs, int n, int channels, double* out,
                    int* argmax);

/// Overwrites grad_in (n x channels) with each channel's gradient routed to
/// its winning node and zero elsewhere.
void MaxPoolBackward(const double* grad_out, const int* argmax, int n,
                     int channels, double* grad_in);

}  // namespace limeqo::nn

#endif  // LIMEQO_NN_KERNELS_H_
