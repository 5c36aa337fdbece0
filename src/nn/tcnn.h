#ifndef LIMEQO_NN_TCNN_H_
#define LIMEQO_NN_TCNN_H_

#include <memory>
#include <vector>

#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/tree_conv.h"
#include "plan/featurize.h"

namespace limeqo::nn {

/// Hyper-parameters of the (transductive) TCNN. Defaults follow the paper's
/// setup: Bao's TCNN architecture plus dropout p = 0.3 between tree
/// convolution layers, embedding dimension r = 5, Adam with batch size 32,
/// trained for up to max_epochs epochs or until the training loss decreases
/// by less than 1% over 10 epochs.
struct TcnnOptions {
  std::vector<int> conv_channels = {32, 16, 8};
  std::vector<int> fc_hidden = {32, 16};
  /// With embeddings this is the transductive TCNN of Sec. 4.3.2 (LimeQO+);
  /// without, it is the plain Bao-style TCNN used by the Sec. 5.5.1
  /// ablation and the Bao-Cache baseline.
  bool use_embeddings = true;
  int embedding_dim = 5;
  double dropout_p = 0.3;
  AdamOptions adam;
  int batch_size = 32;
  int max_epochs = 100;
  /// Convergence: stop when loss decreased < convergence_threshold
  /// (relative) over the last convergence_window epochs.
  double convergence_threshold = 0.01;
  int convergence_window = 10;
  /// Censored loss (Eq. 8) for timed-out samples; when false, censored
  /// samples are treated as exact observations (ablation Sec. 5.5.4).
  bool censored_loss = true;
  uint64_t seed = 17;
};

/// One training example: a plan tree plus its (query, hint) coordinates and
/// the (log-transformed) observed latency. For censored samples `target`
/// holds the log timeout threshold, a lower bound on the truth.
struct TcnnSample {
  const plan::FlatPlan* flat = nullptr;
  int query = 0;
  int hint = 0;
  /// log1p(latency) for complete cells; log1p(timeout) for censored cells.
  double target = 0.0;
  bool censored = false;
};

/// The (transductive) tree convolutional neural network of Sec. 4.3.2.
///
/// Pipeline per sample: node features -> [TreeConv -> LeakyReLU ->
/// Dropout]* -> dynamic max pool -> concat(query embedding, hint embedding)
/// -> fully connected layers -> scalar prediction of log1p(latency).
/// Training uses the censored loss of Eq. 8: a censored sample only incurs
/// loss when the model predicts *below* the timeout threshold. The model is
/// retained across exploration steps (paper: "initialized with the weights
/// from the previous step").
class TcnnModel {
 public:
  TcnnModel(int num_queries, int num_hints, const TcnnOptions& options);

  /// Predicted log1p(latency); inference mode (no dropout).
  double PredictLog(const plan::FlatPlan& flat, int query, int hint);

  /// Predicted latency in seconds.
  double Predict(const plan::FlatPlan& flat, int query, int hint);

  /// Trains on the samples; returns the mean training loss of the final
  /// epoch. Stops early on the paper's convergence criterion.
  double Train(std::vector<TcnnSample> samples);

  /// Grows the query embedding table when new queries arrive (Sec. 5.3).
  void GrowQueries(int new_num_queries);

  int num_queries() const;
  const TcnnOptions& options() const { return options_; }

  /// Total trainable scalar parameters (for overhead reporting).
  long NumParameters();

 private:
  /// Per-sample scratch: one contiguous buffer cut into row-major
  /// node x channel slices, sized for the largest plan seen and then
  /// reused, so Train and PredictLog allocate nothing per sample. Forward
  /// leaves in it everything Backward reads.
  struct Workspace {
    int max_nodes = 0;
    int widest = plan::kNodeFeatureDim;  ///< Row width of every slice.
    std::vector<double> data;
    /// Per conv layer (n x channels): pre-activation, activation after
    /// LeakyReLU and dropout (the next layer's input), dropout factors.
    struct Conv { double *pre, *act, *mask; };
    std::vector<Conv> conv;
    /// Per fc layer: pre-activation and LeakyReLU output.
    struct Fc { double *pre, *act; };
    std::vector<Fc> fc;
    /// Head input (pooled conv output, then the two embeddings), ping-pong
    /// node (n x widest) and head gradients.
    double *head = nullptr, *node_grad[2] = {}, *head_grad[2] = {};
    std::vector<int> argmax;
  };

  /// Checks the plan's shapes once per sample (node count, feature width,
  /// child indices) and grows the workspace to its node count.
  void Prepare(const plan::FlatPlan& flat);

  /// Forward pass over the workspace; dropout only when training.
  double Forward(const plan::FlatPlan& flat, int query, int hint,
                 bool training);

  /// Backward pass of the preceding Forward's sample given dLoss/dPred.
  void Backward(const plan::FlatPlan& flat, int query, int hint,
                double grad_prediction);

  std::vector<Param*> AllParams();

  TcnnOptions options_;
  std::vector<TreeConvLayer> conv_layers_;
  std::vector<Linear> fc_layers_;
  std::unique_ptr<Embedding> query_embedding_;
  std::unique_ptr<Embedding> hint_embedding_;
  std::unique_ptr<Adam> adam_;
  Rng rng_;
  Workspace ws_;
};

}  // namespace limeqo::nn

#endif  // LIMEQO_NN_TCNN_H_
