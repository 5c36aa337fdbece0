#include "nn/adam.h"

#include <cmath>

#include "common/lanes.h"

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
  // Lanes run over element pairs; each lane repeats the scalar update
  //   g = grad / batch, m = beta1 m + (1 - beta1) g,
  //   v = beta2 v + (1 - beta2) g g,
  //   value -= lr (m / bc1) / (sqrt(v / bc2) + epsilon)
  // in that operation order. An odd count's last element rides in lane 0
  // beside zeros.
  using lanes::Load2;
  using lanes::Splat;
  using lanes::Store2;
  using lanes::Vec2;
  const Vec2 beta1 = Splat(options_.beta1), beta2 = Splat(options_.beta2),
             rest1 = Splat(1.0 - options_.beta1),
             rest2 = Splat(1.0 - options_.beta2), bc1v = Splat(bc1),
             bc2v = Splat(bc2), lr = Splat(options_.learning_rate),
             eps = Splat(options_.epsilon), batch = Splat(batch_size);
  for (size_t p = 0; p < params_.size(); ++p) {
    Param& param = *params_[p];
    // A parameter that changed shape (a grown embedding) needs Rebind.
    LIMEQO_CHECK(m_[p].size() == param.value.size());
    double* value = param.value.data();
    const double* grad = param.grad.data();
    double* m = m_[p].data();
    double* v = v_[p].data();
    const size_t n = param.value.size();
    for (size_t k = 0; k < n; k += 2) {
      const bool pair = k + 1 < n;
      auto load = [&](const double* a) {
        return pair ? Load2(a + k) : Vec2{a[k], 0.0};
      };
      auto store = [&](double* a, Vec2 x) {
        if (pair) {
          Store2(a + k, x);
        } else {
          a[k] = x[0];
        }
      };
      const Vec2 g = load(grad) / batch;
      const Vec2 mk = beta1 * load(m) + rest1 * g;
      const Vec2 vk = beta2 * load(v) + rest2 * g * g;
      const Vec2 m_hat = mk / bc1v;
      const Vec2 v_hat = vk / bc2v;
      const Vec2 root = {std::sqrt(v_hat[0]), std::sqrt(v_hat[1])};
      store(m, mk);
      store(v, vk);
      store(value, load(value) - lr * m_hat / (root + eps));
    }
    param.ZeroGrad();
  }
}

}  // namespace limeqo::nn
