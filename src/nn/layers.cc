#include "nn/layers.h"

#include <algorithm>
#include <cmath>

namespace limeqo::nn {

Linear::Linear(int in_dim, int out_dim, Rng* rng, bool has_bias)
    : has_bias_(has_bias) {
  LIMEQO_CHECK(in_dim > 0 && out_dim > 0);
  const double scale = std::sqrt(2.0 / in_dim);
  w_ = Param(out_dim, in_dim);
  b_ = Param(out_dim, 1);
  for (size_t i = 0; i < w_.value.rows(); ++i) {
    for (size_t j = 0; j < w_.value.cols(); ++j) {
      w_.value(i, j) = rng->Gaussian(0.0, scale);
    }
  }
}

void Linear::Forward(const double* x, double* y) const {
  const int in = in_dim();
  for (int i = 0; i < out_dim(); ++i) {
    const double* w_row = w_.value.data() + static_cast<size_t>(i) * in;
    double s = b_.value.data()[i];
    for (int j = 0; j < in; ++j) s += w_row[j] * x[j];
    y[i] = s;
  }
}

void Linear::Backward(const double* grad_out, const double* input,
                      double* grad_in) {
  const int in = in_dim();
  const double* w = w_.value.data();
  double* w_grad = w_.grad.data();
  double* b_grad = b_.grad.data();
  if (grad_in != nullptr) std::fill(grad_in, grad_in + in, 0.0);
  for (int i = 0; i < out_dim(); ++i) {
    const double g = grad_out[i];
    if (has_bias_) b_grad[i] += g;
    const size_t row = static_cast<size_t>(i) * in;
    for (int j = 0; j < in; ++j) w_grad[row + j] += g * input[j];
    if (grad_in == nullptr) continue;
    for (int j = 0; j < in; ++j) grad_in[j] += g * w[row + j];
  }
}

void LeakyRelu(const double* x, double* y, size_t n, double leak) {
  for (size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : leak * x[i];
}

void LeakyReluBackward(const double* input, double* grad, size_t n,
                       double leak) {
  for (size_t i = 0; i < n; ++i) grad[i] *= input[i] > 0.0 ? 1.0 : leak;
}

void Dropout(double p, Rng* rng, double* x, double* mask, size_t n) {
  const double keep_scale = 1.0 / (1.0 - p);
  for (size_t i = 0; i < n; ++i) {
    // p = 0 keeps every unit (factor 1) and makes no draws.
    mask[i] = p > 0.0 && rng->Bernoulli(p) ? 0.0 : keep_scale;
    x[i] *= mask[i];
  }
}

Embedding::Embedding(int count, int dim, Rng* rng) {
  LIMEQO_CHECK(count > 0 && dim > 0);
  table_ = Param(count, dim);
  for (size_t i = 0; i < table_.value.rows(); ++i) {
    for (size_t j = 0; j < table_.value.cols(); ++j) {
      table_.value(i, j) = rng->Gaussian(0.0, 0.1);
    }
  }
}

const double* Embedding::Row(int index) const {
  LIMEQO_CHECK(index >= 0 && index < count());
  return table_.value.data() + static_cast<size_t>(index) * dim();
}

void Embedding::Backward(int index, const double* grad_out) {
  LIMEQO_CHECK(index >= 0 && index < count());
  double* row = table_.grad.data() + static_cast<size_t>(index) * dim();
  for (int j = 0; j < dim(); ++j) row[j] += grad_out[j];
}

void Embedding::Append(int additional, Rng* rng) {
  LIMEQO_CHECK(additional > 0);
  const int d = dim();
  for (int a = 0; a < additional; ++a) {
    std::vector<double> row(d);
    for (double& x : row) x = rng->Gaussian(0.0, 0.1);
    table_.value.AppendRow(row);
    table_.grad.AppendRow(std::vector<double>(d, 0.0));
  }
}

}  // namespace limeqo::nn
