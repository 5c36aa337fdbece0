#include "nn/adam.h"

#include <cmath>

namespace limeqo::nn {

Adam::Adam(std::vector<Param*> params, AdamOptions options)
    : options_(options) {
  Rebind(std::move(params));
}

void Adam::Rebind(std::vector<Param*> params) {
  std::vector<linalg::Matrix> m, v;
  m.reserve(params.size());
  v.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    if (i < params_.size() && params_[i] == params[i] &&
        m_[i].rows() == params[i]->value.rows() &&
        m_[i].cols() == params[i]->value.cols()) {
      m.push_back(m_[i]);
      v.push_back(v_[i]);
    } else {
      m.emplace_back(params[i]->value.rows(), params[i]->value.cols());
      v.emplace_back(params[i]->value.rows(), params[i]->value.cols());
    }
  }
  params_ = std::move(params);
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::Step(int batch_size) {
  LIMEQO_CHECK(batch_size > 0);
  ++step_;
  const double bc1 = 1.0 - std::pow(options_.beta1, step_);
  const double bc2 = 1.0 - std::pow(options_.beta2, step_);
  for (size_t p = 0; p < params_.size(); ++p) {
    Param& param = *params_[p];
    // A parameter that changed shape (a grown embedding) needs Rebind.
    LIMEQO_CHECK(m_[p].size() == param.value.size());
    double* value = param.value.data();
    const double* grad = param.grad.data();
    double* m = m_[p].data();
    double* v = v_[p].data();
    for (size_t k = 0; k < param.value.size(); ++k) {
      const double g = grad[k] / batch_size;
      m[k] = options_.beta1 * m[k] + (1.0 - options_.beta1) * g;
      v[k] = options_.beta2 * v[k] + (1.0 - options_.beta2) * g * g;
      const double m_hat = m[k] / bc1;
      const double v_hat = v[k] / bc2;
      value[k] -= options_.learning_rate * m_hat /
                  (std::sqrt(v_hat) + options_.epsilon);
    }
    param.ZeroGrad();
  }
}

}  // namespace limeqo::nn
