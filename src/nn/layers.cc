#include "nn/layers.h"

#include <cmath>

namespace limeqo::nn {

Param InputMajorFilters(int filters, int in_dim, int out_dim, Rng* rng) {
  LIMEQO_CHECK(filters > 0 && in_dim > 0 && out_dim > 0);
  const double scale = std::sqrt(2.0 / in_dim);
  const size_t in = static_cast<size_t>(in_dim);
  Param w(static_cast<size_t>(filters) * in, out_dim);
  for (size_t f = 0; f < static_cast<size_t>(filters); ++f) {
    for (size_t c = 0; c < w.value.cols(); ++c) {
      for (size_t j = 0; j < in; ++j) {
        w.value(f * in + j, c) = rng->Gaussian(0.0, scale);
      }
    }
  }
  return w;
}

Linear::Linear(int in_dim, int out_dim, Rng* rng)
    : w_(InputMajorFilters(1, in_dim, out_dim, rng)), b_(out_dim, 1) {}

LayerView Linear::View() const {
  LayerView view;
  view.w = w_.value.data();
  view.b = b_.value.data();
  view.in = in_dim();
  view.out = out_dim();
  return view;
}

void Linear::Forward(const double* x, double* y) const {
  LayerForward(View(), x, y);
}

void Linear::Backward(const double* grad_out, const double* input,
                      double* grad_in) {
  const LayerView view = View();
  LayerParamGrads(view, input, grad_out, w_.grad.data(), b_.grad.data());
  if (grad_in != nullptr) LayerInputGrads(view, grad_out, grad_in);
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
