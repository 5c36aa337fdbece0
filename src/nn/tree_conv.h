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
/// The three filters are one input-major parameter (nn/kernels.h).
class TreeConvLayer {
 public:
  /// Filters (self, left, right) from InputMajorFilters, zero bias.
  TreeConvLayer(int in_dim, int out_dim, Rng* rng);

  /// Writes every node's out_dim outputs into `out` (n x out_dim).
  void Forward(const plan::FlatPlan& flat, const double* inputs,
               double* out) const;

  /// Accumulates parameter gradients over the nodes. Unless null,
  /// `grad_in` (n x in_dim) is overwritten with the input gradients.
  void Backward(const plan::FlatPlan& flat, const double* inputs,
                const double* grad_out, double* grad_in);

  int in_dim() const { return static_cast<int>(w_.value.rows()) / 3; }
  int out_dim() const { return static_cast<int>(w_.value.cols()); }

  /// Parameters for the optimizer (the three filters, then the bias).
  std::vector<Param*> params() { return {&w_, &b_}; }

 private:
  LayerView View(const plan::FlatPlan& flat) const;

  Param w_;  // (3 x in) x out: self, left, right filters, input-major
  Param b_;  // out x 1
};

}  // namespace limeqo::nn

#endif  // LIMEQO_NN_TREE_CONV_H_
