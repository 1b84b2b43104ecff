#include "nn/optimizer.h"
#include "nn/parameter.h"

#include <cmath>

namespace gnndm {

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  if (momentum_ > 0.0f) {
    velocity_.reserve(params_.size());
    for (Parameter* p : params_) {
      velocity_.emplace_back(p->value.rows(), p->value.cols());
    }
  }
}

void Sgd::Step() {
  // Parameter tensors are tiny (hidden_dim^2 floats).
  // Serial: the memory-bound update is too small to be worth scheduling.
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    float* w = p->value.data();
    float* g = p->grad.data();
    if (momentum_ > 0.0f) {
      float* v = velocity_[i].data();
      for (size_t j = 0; j < p->value.size(); ++j) {
        v[j] = momentum_ * v[j] + g[j] + weight_decay_ * w[j];
        w[j] -= lr_ * v[j];
      }
    } else {
      for (size_t j = 0; j < p->value.size(); ++j) {
        w[j] -= lr_ * (g[j] + weight_decay_ * w[j]);
      }
    }
    p->ZeroGrad();
  }
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1,
           float beta2, float epsilon, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  // Parameter tensors are tiny (hidden_dim^2 floats).
  // Serial: the memory-bound update is too small to be worth scheduling.
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    float* w = p->value.data();
    float* g = p->grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (size_t j = 0; j < p->value.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      const float m_hat = m[j] / bc1;
      const float v_hat = v[j] / bc2;
      w[j] -= lr_ * (m_hat / (std::sqrt(v_hat) + epsilon_) +
                     weight_decay_ * w[j]);
    }
    p->ZeroGrad();
  }
}

}  // namespace gnndm
