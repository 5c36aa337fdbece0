#ifndef LIMEQO_NN_LAYERS_H_
#define LIMEQO_NN_LAYERS_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace limeqo::nn {

// The kernels below read and write slices of caller-owned row-major buffers
// (the TCNN's workspace) and allocate nothing. Shapes are the caller's
// contract, checked by TcnnModel once per sample and layer.

/// A trainable parameter: value plus accumulated gradient of the same shape.
struct Param {
  linalg::Matrix value;
  linalg::Matrix grad;

  Param() = default;
  Param(size_t rows, size_t cols) : value(rows, cols), grad(rows, cols) {}

  void ZeroGrad() { grad *= 0.0; }
};

/// y = W x + b. Gradients accumulate across samples until ZeroGrad.
class Linear {
 public:
  /// He-style initialization scaled for ReLU nonlinearities. With
  /// `has_bias` false the layer computes y = W x (used for the child
  /// filters of tree convolution, which share the parent filter's bias).
  Linear(int in_dim, int out_dim, Rng* rng, bool has_bias = true);

  /// Writes y[0, out_dim) from x[0, in_dim). Each output starts from its
  /// bias and adds the inputs in ascending index order.
  void Forward(const double* x, double* y) const;

  /// Accumulates dL/dW and dL/db given dL/dy and the forward input, and
  /// overwrites grad_in[0, in_dim) with dL/dx unless grad_in is null.
  void Backward(const double* grad_out, const double* input, double* grad_in);

  int in_dim() const { return static_cast<int>(w_.value.cols()); }
  int out_dim() const { return static_cast<int>(w_.value.rows()); }

  /// Parameters for the optimizer (weight matrix, then bias if present).
  std::vector<Param*> params() {
    if (!has_bias_) return {&w_};
    return {&w_, &b_};
  }

 private:
  Param w_;  // out x in
  Param b_;  // out x 1 (all zeros when has_bias_ is false)
  bool has_bias_ = true;
};

/// Element-wise leaky ReLU y = x > 0 ? x : leak * x over n units.
void LeakyRelu(const double* x, double* y, size_t n, double leak = 0.01);

/// Backward of LeakyRelu in place: grad[i] *= (input[i] > 0 ? 1 : leak),
/// given the forward *input*.
void LeakyReluBackward(const double* input, double* grad, size_t n,
                       double leak = 0.01);

/// Inverted dropout at training time, in place over n units: one Bernoulli
/// draw per unit in index order, kept units scaled by 1/(1-p) so inference
/// needs no rescaling (paper uses p = 0.3 between tree convolution layers).
/// `mask` receives each unit's factor (0 or 1/(1-p); all 1 when p = 0).
void Dropout(double p, Rng* rng, double* x, double* mask, size_t n);

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
