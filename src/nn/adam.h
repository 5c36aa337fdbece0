#ifndef LIMEQO_NN_ADAM_H_
#define LIMEQO_NN_ADAM_H_

#include <vector>

#include "nn/layers.h"

namespace limeqo::nn {

/// Options for the Adam optimizer (Kingma & Ba 2015), used to train the
/// (transductive) TCNN (paper Sec. 5 experimental setup).
struct AdamOptions {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// Adam over a fixed set of parameters. Gradients are accumulated into
/// Param::grad by the layers; Step() consumes and zeroes them.
class Adam {
 public:
  Adam(std::vector<Param*> params, AdamOptions options = {});

  /// Applies one update using the currently accumulated gradients divided
  /// by `batch_size`, then zeroes all gradients. Every parameter must still
  /// have the shape it was (re)bound with.
  void Step(int batch_size);

  /// Re-binds to a (possibly larger) parameter set, e.g. after an embedding
  /// table grew. Moment estimates for existing entries are preserved when
  /// shapes still match; changed parameters restart their moments.
  void Rebind(std::vector<Param*> params);

 private:
  std::vector<Param*> params_;
  std::vector<linalg::Matrix> m_;
  std::vector<linalg::Matrix> v_;
  AdamOptions options_;
  long step_ = 0;
};

}  // namespace limeqo::nn

#endif  // LIMEQO_NN_ADAM_H_
