#ifndef LIMEQO_NN_TREE_CONV_H_
#define LIMEQO_NN_TREE_CONV_H_

#include <vector>

#include "nn/layers.h"
#include "plan/featurize.h"

namespace limeqo::nn {

/// One tree convolution layer (Mou et al. 2016, as used by Neo/Bao and the
/// paper's Sec. 4.3.2): for every node i of a binarized plan tree with
/// children l and r,
///   out_i = W_self x_i + W_left x_l + W_right x_r + b
/// with absent children treated as zero vectors. The same filters slide
/// over every (parent, left, right) triangle of the tree, giving the
/// structural inductive bias that makes TCNNs effective on query plans.
/// Buffers are row-major node x channel; child indices come from `flat`.
class TreeConvLayer {
 public:
  TreeConvLayer(int in_dim, int out_dim, Rng* rng);

  /// Writes every node's out_dim outputs into `out` (n x out_dim). Each
  /// child filter sums into `tmp` (out_dim) before it is added.
  void Forward(const plan::FlatPlan& flat, const double* inputs, double* out,
               double* tmp) const;

  /// Accumulates parameter gradients node by node (self, left, right).
  /// Unless null, `grad_in` (n x in_dim) is overwritten with the input
  /// gradients, each filter's summed into `tmp` (in_dim) before it is added.
  void Backward(const plan::FlatPlan& flat, const double* inputs,
                const double* grad_out, double* grad_in, double* tmp);

  int in_dim() const { return w_self_.in_dim(); }
  int out_dim() const { return w_self_.out_dim(); }

  std::vector<Param*> params();

 private:
  // Implemented with three Linear filters; w_self_ carries the bias.
  Linear w_self_;
  Linear w_left_;
  Linear w_right_;
};

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

#endif  // LIMEQO_NN_TREE_CONV_H_
