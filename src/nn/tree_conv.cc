#include "nn/tree_conv.h"

namespace limeqo::nn {

TreeConvLayer::TreeConvLayer(int in_dim, int out_dim, Rng* rng)
    : w_(InputMajorFilters(3, in_dim, out_dim, rng)), b_(out_dim, 1) {}

LayerView TreeConvLayer::View(const plan::FlatPlan& flat) const {
  LayerView view;
  view.w = w_.value.data();
  view.b = b_.value.data();
  view.in = in_dim();
  view.out = out_dim();
  view.nodes = flat.num_nodes();
  view.left = flat.left_child.data();
  view.right = flat.right_child.data();
  return view;
}

void TreeConvLayer::Forward(const plan::FlatPlan& flat, const double* inputs,
                            double* out) const {
  LayerForward(View(flat), inputs, out);
}

void TreeConvLayer::Backward(const plan::FlatPlan& flat, const double* inputs,
                             const double* grad_out, double* grad_in) {
  const LayerView view = View(flat);
  LayerParamGrads(view, inputs, grad_out, w_.grad.data(), b_.grad.data());
  if (grad_in != nullptr) LayerInputGrads(view, grad_out, grad_in);
}

}  // namespace limeqo::nn
