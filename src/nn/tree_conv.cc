#include "nn/tree_conv.h"

#include <algorithm>
#include <limits>

namespace limeqo::nn {

TreeConvLayer::TreeConvLayer(int in_dim, int out_dim, Rng* rng)
    : w_self_(in_dim, out_dim, rng),
      w_left_(in_dim, out_dim, rng, /*has_bias=*/false),
      w_right_(in_dim, out_dim, rng, /*has_bias=*/false) {}

void TreeConvLayer::Forward(const plan::FlatPlan& flat, const double* inputs,
                            double* out, double* tmp) const {
  const size_t in = in_dim();
  const int od = out_dim();
  for (int i = 0; i < flat.num_nodes(); ++i) {
    double* y = out + static_cast<size_t>(i) * od;
    w_self_.Forward(inputs + i * in, y);
    auto add_child = [&](const Linear& filter, int child) {
      if (child < 0) return;
      filter.Forward(inputs + child * in, tmp);
      for (int c = 0; c < od; ++c) y[c] += tmp[c];
    };
    add_child(w_left_, flat.left_child[i]);
    add_child(w_right_, flat.right_child[i]);
  }
}

void TreeConvLayer::Backward(const plan::FlatPlan& flat, const double* inputs,
                             const double* grad_out, double* grad_in,
                             double* tmp) {
  const int n = flat.num_nodes();
  const size_t in = in_dim();
  if (grad_in != nullptr) std::fill(grad_in, grad_in + n * in, 0.0);
  for (int i = 0; i < n; ++i) {
    const double* g = grad_out + static_cast<size_t>(i) * out_dim();
    // Self contribution (includes the bias gradient), then the children.
    auto filter_backward = [&](Linear& filter, int node) {
      if (node < 0) return;
      filter.Backward(g, inputs + node * in, grad_in ? tmp : nullptr);
      if (grad_in == nullptr) return;
      for (size_t c = 0; c < in; ++c) grad_in[node * in + c] += tmp[c];
    };
    filter_backward(w_self_, i);
    filter_backward(w_left_, flat.left_child[i]);
    filter_backward(w_right_, flat.right_child[i]);
  }
}

std::vector<Param*> TreeConvLayer::params() {
  std::vector<Param*> all;
  for (Param* p : w_self_.params()) all.push_back(p);
  for (Param* p : w_left_.params()) all.push_back(p);
  for (Param* p : w_right_.params()) all.push_back(p);
  return all;
}

void MaxPoolForward(const double* inputs, int n, int channels, double* out,
                    int* argmax) {
  std::fill(out, out + channels, -std::numeric_limits<double>::infinity());
  std::fill(argmax, argmax + channels, 0);
  for (int i = 0; i < n; ++i) {
    const double* row = inputs + static_cast<size_t>(i) * channels;
    for (int c = 0; c < channels; ++c) {
      if (row[c] > out[c]) {
        out[c] = row[c];
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
