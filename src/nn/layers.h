#ifndef LIMEQO_NN_LAYERS_H_
#define LIMEQO_NN_LAYERS_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "nn/kernels.h"

namespace limeqo::nn {

// The layers below read and write slices of caller-owned row-major buffers
// (the TCNN's workspace) through the kernels of nn/kernels.h and allocate
// nothing. Shapes are the caller's contract, checked by TcnnModel once per
// sample and layer.

/// A trainable parameter: value plus accumulated gradient of the same shape.
struct Param {
  linalg::Matrix value;
  linalg::Matrix grad;

  Param() = default;
  Param(size_t rows, size_t cols) : value(rows, cols), grad(rows, cols) {}

  void ZeroGrad() { grad *= 0.0; }
};

/// `filters` stacked input-major weight filters (filters * in_dim rows of
/// out_dim weights; see nn/kernels.h) with He-style initialization scaled
/// for ReLU nonlinearities, drawn filter by filter, output by output, each
/// output's inputs in ascending order.
Param InputMajorFilters(int filters, int in_dim, int out_dim, Rng* rng);

/// y = W x + b, with W stored input-major (in x out; see nn/kernels.h).
/// Gradients accumulate across samples until ZeroGrad.
class Linear {
 public:
  /// Weights from InputMajorFilters, zero bias.
  Linear(int in_dim, int out_dim, Rng* rng);

  /// Writes y[0, out_dim) from x[0, in_dim). Each output starts from its
  /// bias and adds the inputs in ascending index order.
  void Forward(const double* x, double* y) const;

  /// Accumulates dL/dW and dL/db given dL/dy and the forward input, and
  /// overwrites grad_in[0, in_dim) with dL/dx unless grad_in is null.
  void Backward(const double* grad_out, const double* input, double* grad_in);

  int in_dim() const { return static_cast<int>(w_.value.rows()); }
  int out_dim() const { return static_cast<int>(w_.value.cols()); }

  /// Parameters for the optimizer (weight matrix, then bias).
  std::vector<Param*> params() { return {&w_, &b_}; }

 private:
  LayerView View() const;

  Param w_;  // in x out
  Param b_;  // out x 1
};

/// Lookup table of `count` learnable vectors of size `dim`. Provides the
/// query/hint embeddings of the transductive TCNN (paper Fig. 4); rows are
/// exactly the Q / H factors of the linear decomposition, learned jointly
/// with the network.
class Embedding {
 public:
  Embedding(int count, int dim, Rng* rng);

  /// The dim() values of row `index`.
  const double* Row(int index) const;

  /// Accumulates grad_out[0, dim) into the indexed row's gradient.
  void Backward(int index, const double* grad_out);

  /// Grows the table for newly arrived queries (workload shift).
  void Append(int additional, Rng* rng);

  int count() const { return static_cast<int>(table_.value.rows()); }
  int dim() const { return static_cast<int>(table_.value.cols()); }

  std::vector<Param*> params() { return {&table_}; }

 private:
  Param table_;  // count x dim
};

}  // namespace limeqo::nn

#endif  // LIMEQO_NN_LAYERS_H_
