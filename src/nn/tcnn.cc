#include "nn/tcnn.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

namespace limeqo::nn {

TcnnModel::TcnnModel(int num_queries, int num_hints,
                     const TcnnOptions& options)
    : options_(options), rng_(options.seed) {
  LIMEQO_CHECK(num_queries > 0 && num_hints > 0);
  LIMEQO_CHECK(!options_.conv_channels.empty());
  LIMEQO_CHECK(!options_.fc_hidden.empty());
  LIMEQO_CHECK(options_.dropout_p >= 0.0 && options_.dropout_p < 1.0);

  int in_dim = plan::kNodeFeatureDim;
  for (int channels : options_.conv_channels) {
    conv_layers_.emplace_back(in_dim, channels, &rng_);
    in_dim = channels;
    ws_.widest = std::max(ws_.widest, channels);
  }

  int head_in = options_.conv_channels.back();
  if (options_.use_embeddings) {
    query_embedding_ =
        std::make_unique<Embedding>(num_queries, options_.embedding_dim, &rng_);
    hint_embedding_ =
        std::make_unique<Embedding>(num_hints, options_.embedding_dim, &rng_);
    head_in += 2 * options_.embedding_dim;
  }
  int fc_in = head_in;
  ws_.widest = std::max(ws_.widest, head_in);
  for (int hidden : options_.fc_hidden) {
    fc_layers_.emplace_back(fc_in, hidden, &rng_);
    fc_in = hidden;
    ws_.widest = std::max(ws_.widest, hidden);
  }
  fc_layers_.emplace_back(fc_in, 1, &rng_);

  adam_ = std::make_unique<Adam>(AllParams(), options_.adam);
  ws_.conv.resize(conv_layers_.size());
  ws_.fc.resize(fc_layers_.size());
  ws_.argmax.resize(options_.conv_channels.back());
}

std::vector<Param*> TcnnModel::AllParams() {
  std::vector<Param*> all;
  for (auto& layer : conv_layers_) {
    for (Param* p : layer.params()) all.push_back(p);
  }
  for (auto& layer : fc_layers_) {
    for (Param* p : layer.params()) all.push_back(p);
  }
  if (query_embedding_) {
    for (Param* p : query_embedding_->params()) all.push_back(p);
  }
  if (hint_embedding_) {
    for (Param* p : hint_embedding_->params()) all.push_back(p);
  }
  return all;
}

int TcnnModel::num_queries() const {
  return query_embedding_ ? query_embedding_->count() : 0;
}

long TcnnModel::NumParameters() {
  long total = 0;
  for (Param* p : AllParams()) total += static_cast<long>(p->value.size());
  return total;
}

void TcnnModel::Prepare(const plan::FlatPlan& flat) {
  const int n = flat.num_nodes();
  LIMEQO_CHECK(n > 0 && static_cast<int>(flat.right_child.size()) == n);
  LIMEQO_CHECK(flat.features.size() ==
               static_cast<size_t>(n) * plan::kNodeFeatureDim);
  for (int i = 0; i < n; ++i) {
    LIMEQO_CHECK(flat.left_child[i] >= -1 && flat.left_child[i] < n);
    LIMEQO_CHECK(flat.right_child[i] >= -1 && flat.right_child[i] < n);
  }
  if (n <= ws_.max_nodes) return;

  // Grow. Every slice is `widest` doubles per row: n rows for the per-node
  // slices, one row for the head's.
  ws_.max_nodes = n;
  const size_t widest = ws_.widest, rows = static_cast<size_t>(n) * widest;
  ws_.data.assign((3 * ws_.conv.size() + 2) * rows +
                      (2 * ws_.fc.size() + 3) * widest,
                  0.0);
  double* next = ws_.data.data();
  auto take = [&next](size_t count) {
    return std::exchange(next, next + count);
  };
  for (auto& conv : ws_.conv) conv = {take(rows), take(rows), take(rows)};
  for (double*& grad : ws_.node_grad) grad = take(rows);
  for (auto& fc : ws_.fc) fc = {take(widest), take(widest)};
  for (double** row : {&ws_.head, &ws_.head_grad[0], &ws_.head_grad[1]}) {
    *row = take(widest);
  }
  LIMEQO_CHECK(next == ws_.data.data() + ws_.data.size());
}

double TcnnModel::Forward(const plan::FlatPlan& flat, int query, int hint,
                          bool training) {
  Prepare(flat);
  const int n = flat.num_nodes();

  // Tree convolution stack.
  const double* x = flat.features.data();
  const double p = options_.dropout_p;
  int width = plan::kNodeFeatureDim;
  for (size_t l = 0; l < conv_layers_.size(); ++l) {
    const TreeConvLayer& conv = conv_layers_[l];
    LIMEQO_CHECK(conv.in_dim() == width);
    width = conv.out_dim();
    const size_t size = static_cast<size_t>(n) * width;
    const Workspace::Conv& buf = ws_.conv[l];
    conv.Forward(flat, x, buf.pre);
    // Dropout between tree convolution layers (paper Sec. 5); draws are
    // node-major, then channel.
    if (training) {
      LeakyReluDropout(buf.pre, buf.act, buf.mask, size, p, &rng_);
    } else {
      LeakyRelu(buf.pre, buf.act, size);
    }
    x = buf.act;
  }

  // Dynamic max pooling straight into the head input, then the low-rank
  // embeddings (transductive part, Fig. 4).
  MaxPoolForward(x, n, width, ws_.head, ws_.argmax.data());
  if (options_.use_embeddings) {
    const int r = options_.embedding_dim;
    std::copy_n(query_embedding_->Row(query), r, ws_.head + width);
    std::copy_n(hint_embedding_->Row(hint), r, ws_.head + width + r);
    width += 2 * r;
  }

  // Fully connected head; LeakyReLU between layers, linear output.
  x = ws_.head;
  for (size_t l = 0; l < fc_layers_.size(); ++l) {
    LIMEQO_CHECK(fc_layers_[l].in_dim() == width);
    width = fc_layers_[l].out_dim();
    fc_layers_[l].Forward(x, ws_.fc[l].pre);
    LeakyRelu(ws_.fc[l].pre, ws_.fc[l].act, width);
    x = ws_.fc[l].act;
  }
  LIMEQO_CHECK(width == 1);
  return ws_.fc.back().pre[0];
}

void TcnnModel::Backward(const plan::FlatPlan& flat, int query, int hint,
                         double grad_prediction) {
  const int n = flat.num_nodes();

  // FC head, last layer first; the output layer is linear.
  double* grad = ws_.head_grad[0];
  double* grad_in = ws_.head_grad[1];
  grad[0] = grad_prediction;
  for (size_t li = fc_layers_.size(); li > 0; --li) {
    const size_t l = li - 1;
    Linear& fc = fc_layers_[l];
    if (l + 1 < fc_layers_.size()) {
      LeakyReluBackward(ws_.fc[l].pre, grad, fc.out_dim());
    }
    fc.Backward(grad, l == 0 ? ws_.head : ws_.fc[l - 1].act, grad_in);
    std::swap(grad, grad_in);
  }

  // The head gradient splits into the pooled part and the embeddings.
  const int pooled_dim = options_.conv_channels.back();
  if (options_.use_embeddings) {
    const int r = options_.embedding_dim;
    query_embedding_->Backward(query, grad + pooled_dim);
    hint_embedding_->Backward(hint, grad + pooled_dim + r);
  }

  // Un-pool to per-node gradients.
  double* grad_nodes = ws_.node_grad[0];
  double* grad_nodes_in = ws_.node_grad[1];
  MaxPoolBackward(grad, ws_.argmax.data(), n, pooled_dim, grad_nodes);

  // Conv stack, last layer first: dropout -> leaky relu -> tree conv.
  for (size_t li = conv_layers_.size(); li > 0; --li) {
    const size_t l = li - 1;
    TreeConvLayer& conv = conv_layers_[l];
    const size_t c = static_cast<size_t>(conv.out_dim());
    const Workspace::Conv& buf = ws_.conv[l];
    for (int i = 0; i < n; ++i) {
      // Known defect, kept so training stays bitwise: every node's gradient
      // is masked with the *last* node's dropout factors instead of its own
      // (buf.mask + i * c). Fixing it changes training, so the fix must be
      // judged on exploration quality.
      const double* mask = buf.mask + static_cast<size_t>(n - 1) * c;
      const size_t row = static_cast<size_t>(i) * c;
      LeakyReluDropoutBackward(buf.pre + row, mask, grad_nodes + row, c);
    }
    // Layer 0's input gradient (w.r.t. the plan features) is not needed.
    conv.Backward(flat, l == 0 ? flat.features.data() : ws_.conv[l - 1].act,
                  grad_nodes, l == 0 ? nullptr : grad_nodes_in);
    std::swap(grad_nodes, grad_nodes_in);
  }
}

double TcnnModel::Train(std::vector<TcnnSample> samples) {
  LIMEQO_CHECK(!samples.empty());
  std::deque<double> recent_losses;
  double epoch_loss = 0.0;
  for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
    rng_.Shuffle(&samples);
    epoch_loss = 0.0;
    int counted = 0;
    for (size_t start = 0; start < samples.size();
         start += options_.batch_size) {
      const size_t end =
          std::min(samples.size(), start + options_.batch_size);
      int batch_contributing = 0;
      for (size_t s = start; s < end; ++s) {
        const TcnnSample& sample = samples[s];
        const double pred =
            Forward(*sample.flat, sample.query, sample.hint, true);
        // Eq. 8: a censored sample is only penalized for predictions below
        // its timeout threshold.
        const bool penalized = !(sample.censored && options_.censored_loss) ||
                               pred < sample.target;
        const double d = penalized ? pred - sample.target : 0.0;
        const double loss = d * d;
        const double grad = 2.0 * d;
        epoch_loss += loss;
        ++counted;
        if (grad != 0.0) {
          Backward(*sample.flat, sample.query, sample.hint, grad);
          ++batch_contributing;
        }
      }
      if (batch_contributing > 0) adam_->Step(batch_contributing);
    }
    epoch_loss /= std::max(counted, 1);

    // Convergence: < threshold relative decrease over the window.
    recent_losses.push_back(epoch_loss);
    if (static_cast<int>(recent_losses.size()) >
        options_.convergence_window) {
      const double before = recent_losses.front();
      recent_losses.pop_front();
      if (before > 0.0 &&
          (before - epoch_loss) / before < options_.convergence_threshold) {
        break;
      }
    }
  }
  return epoch_loss;
}

double TcnnModel::PredictLog(const plan::FlatPlan& flat, int query,
                             int hint) {
  return Forward(flat, query, hint, false);
}

double TcnnModel::Predict(const plan::FlatPlan& flat, int query, int hint) {
  const double log_pred = PredictLog(flat, query, hint);
  // Clamp the exponent so early untrained models cannot overflow.
  return std::expm1(std::clamp(log_pred, 0.0, 30.0));
}

void TcnnModel::GrowQueries(int new_num_queries) {
  if (!query_embedding_) return;
  const int additional = new_num_queries - query_embedding_->count();
  if (additional <= 0) return;
  query_embedding_->Append(additional, &rng_);
  adam_->Rebind(AllParams());
}

}  // namespace limeqo::nn
