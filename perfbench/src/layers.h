#ifndef LIMEQO_PERFBENCH_LAYERS_H_
#define LIMEQO_PERFBENCH_LAYERS_H_

// Forwarding decorators that time calls into the library's layers from the
// benchmark's own code. Each forwards every virtual of the interface it
// wraps, so a decorated run executes the same program as an undecorated
// one: a decorator that dropped Predictor::PredictFrom, for example, would
// silently turn the engine's warm-started refits into cold fits.

#include <memory>
#include <string>
#include <vector>

#include "core/als.h"
#include "core/backend.h"
#include "core/policy.h"
#include "core/predictor.h"
#include "trace.h"

namespace perfbench {

/// Wraps the exploration policy. Every SelectBatch entry is a step
/// boundary of OfflineExplorer::Explore, so the wrapper clocks step wall
/// times in every run. With a tracer it also opens one "explorer.step"
/// span per step (the request id is the step number) and a
/// "policy.select" span around the forwarded call; the executions and the
/// model fit nest under them.
class StepPolicy : public limeqo::core::ExplorationPolicy {
 public:
  StepPolicy(std::unique_ptr<limeqo::core::ExplorationPolicy> inner,
             Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  limeqo::StatusOr<std::vector<limeqo::core::Candidate>> SelectBatch(
      const limeqo::core::WorkloadMatrix& w, int batch_size,
      limeqo::Rng* rng) override {
    const int64_t now = NowNs();
    CloseStep(now);
    step_start_ns_ = now;
    if (tracer_ == nullptr) return inner_->SelectBatch(w, batch_size, rng);
    step_span_ = Span{};
    step_span_.name = "explorer.step";
    step_span_.id = tracer_->NewId();
    step_span_.request = static_cast<int64_t>(step_ms_.size()) + 1;
    step_span_.tid = ThreadTag();
    step_span_.start_ns = now;
    CurrentContext() = SpanContext{step_span_.id, step_span_.request};
    ScopedSpan select(tracer_, "policy.select");
    return inner_->SelectBatch(w, batch_size, rng);
  }

  std::string name() const override { return inner_->name(); }

  /// Ends the step in progress when Explore returns.
  void Finish() { CloseStep(NowNs()); }

  /// Wall time of every finished step, in milliseconds.
  const std::vector<double>& step_ms() const { return step_ms_; }

 private:
  void CloseStep(int64_t now) {
    if (step_start_ns_ < 0) return;
    step_ms_.push_back(static_cast<double>(now - step_start_ns_) * 1e-6);
    step_start_ns_ = -1;
    if (tracer_ != nullptr) {
      step_span_.end_ns = now;
      tracer_->Record(step_span_);
      CurrentContext() = SpanContext{};
    }
  }

  std::unique_ptr<limeqo::core::ExplorationPolicy> inner_;
  Tracer* tracer_;
  int64_t step_start_ns_ = -1;
  Span step_span_;
  std::vector<double> step_ms_;
};

/// Wraps a Predictor and records one span per fit, named `span_name`
/// ("als.fit", "als.refit", "tcnn.fit"). When the model is an ALS
/// completer, the span carries the fit's sweep count.
class TracedPredictor : public limeqo::core::Predictor {
 public:
  TracedPredictor(std::unique_ptr<limeqo::core::Predictor> inner,
                  const limeqo::core::AlsCompleter* als, Tracer* tracer,
                  const char* span_name)
      : inner_(std::move(inner)),
        als_(als),
        tracer_(tracer),
        span_name_(span_name) {}

  limeqo::StatusOr<limeqo::linalg::Matrix> Predict(
      const limeqo::core::WorkloadMatrix& w) override {
    ScopedSpan span(tracer_, span_name_);
    limeqo::StatusOr<limeqo::linalg::Matrix> out = inner_->Predict(w);
    if (als_ != nullptr) span.set_arg(als_->last_iterations());
    return out;
  }

  limeqo::StatusOr<limeqo::linalg::Matrix> PredictFrom(
      const limeqo::core::WorkloadMatrix& w,
      limeqo::core::CompletionFactors* factors) override {
    ScopedSpan span(tracer_, span_name_);
    limeqo::StatusOr<limeqo::linalg::Matrix> out =
        inner_->PredictFrom(w, factors);
    if (als_ != nullptr) span.set_arg(als_->last_iterations());
    return out;
  }

  void Reset() override { inner_->Reset(); }

  void SetCompletionArena(limeqo::core::CompletionArena* arena) override {
    inner_->SetCompletionArena(arena);
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<limeqo::core::Predictor> inner_;
  const limeqo::core::AlsCompleter* als_;
  Tracer* tracer_;
  const char* span_name_;
};

/// Wraps the simulated database the explorer executes against: the
/// harness. Once armed with the explorer's matrix it records a
/// "harness.execute" span per execution and counts executions that lowered
/// their row's best observed latency.
class TracedBackend : public limeqo::core::WorkloadBackend {
 public:
  TracedBackend(limeqo::core::WorkloadBackend* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void Arm(const limeqo::core::WorkloadMatrix* matrix) { matrix_ = matrix; }

  int num_queries() const override { return inner_->num_queries(); }
  int num_hints() const override { return inner_->num_hints(); }

  limeqo::core::BackendResult Execute(int query, int hint,
                                      double timeout_seconds) override {
    if (matrix_ == nullptr) return inner_->Execute(query, hint, timeout_seconds);
    const double row_best = matrix_->RowMinObserved(query);
    limeqo::core::BackendResult r;
    {
      ScopedSpan span(tracer_, "harness.execute");
      r = inner_->Execute(query, hint, timeout_seconds);
    }
    ++calls_;
    if (!r.failed && !r.timed_out && r.observed_latency < row_best) {
      ++improving_;
    }
    return r;
  }

  double OptimizerCost(int query, int hint) const override {
    return inner_->OptimizerCost(query, hint);
  }
  const limeqo::plan::PlanNode* Plan(int query, int hint) const override {
    return inner_->Plan(query, hint);
  }
  std::vector<int> EquivalentHints(int query, int hint) const override {
    return inner_->EquivalentHints(query, hint);
  }

  long calls() const { return calls_; }
  long improving() const { return improving_; }

 private:
  limeqo::core::WorkloadBackend* inner_;
  Tracer* tracer_;
  const limeqo::core::WorkloadMatrix* matrix_ = nullptr;
  long calls_ = 0;
  long improving_ = 0;
};

}  // namespace perfbench

#endif  // LIMEQO_PERFBENCH_LAYERS_H_
