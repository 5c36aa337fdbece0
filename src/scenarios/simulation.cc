#include "scenarios/simulation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/status.h"
#include "core/als.h"
#include "core/explorer.h"
#include "core/nuclear_norm.h"
#include "core/online.h"
#include "core/shard_router.h"
#include "core/online_explorer.h"
#include "core/policy.h"
#include "core/svt.h"
#include "nn/tcnn_predictor.h"
#include "scenarios/simdb_bridge.h"

namespace limeqo::scenarios {
namespace {

std::unique_ptr<core::Completer> MakeCompleter(CompleterKind kind,
                                               uint64_t seed) {
  switch (kind) {
    case CompleterKind::kAls: {
      core::AlsOptions options;
      options.seed = seed;
      return std::make_unique<core::AlsCompleter>(options);
    }
    case CompleterKind::kSvt:
      return std::make_unique<core::SvtCompleter>();
    case CompleterKind::kNuclearNorm:
      return std::make_unique<core::NuclearNormCompleter>();
  }
  LIMEQO_CHECK(false);
  return nullptr;
}

/// Display name of the predictive model picked by `config` (feeds the
/// "<model>-greedy" policy name).
std::string ModelName(const RunConfig& config) {
  switch (config.arm) {
    case PredictorArm::kCompleter:
      return CompleterKindName(config.completer);
    case PredictorArm::kTcnn:
      return "TCNN";
    case PredictorArm::kLimeQoPlus:
      return "LimeQO+";
  }
  return "?";
}

/// Builds the predictive model for `config`. Neural arms featurize plan
/// trees from `backend`, which must outlive the predictor.
std::unique_ptr<core::Predictor> MakePredictor(const RunConfig& config,
                                               const ScenarioBackend* backend,
                                               uint64_t seed) {
  switch (config.arm) {
    case PredictorArm::kCompleter:
      return std::make_unique<core::CompleterPredictor>(
          MakeCompleter(config.completer, seed));
    case PredictorArm::kTcnn:
    case PredictorArm::kLimeQoPlus: {
      nn::TcnnOptions options = config.tcnn;
      options.use_embeddings = config.arm == PredictorArm::kLimeQoPlus;
      options.seed = seed;
      return std::make_unique<nn::TcnnPredictor>(backend, options,
                                                 ModelName(config));
    }
  }
  LIMEQO_CHECK(false);
  return nullptr;
}

std::unique_ptr<core::ExplorationPolicy> MakePolicy(
    const RunConfig& config, const ScenarioBackend* backend, uint64_t seed) {
  switch (config.policy) {
    case PolicyKind::kRandom:
      return std::make_unique<core::RandomPolicy>();
    case PolicyKind::kGreedy:
      return std::make_unique<core::GreedyPolicy>(config.revisit_censored);
    case PolicyKind::kModelGuided:
      return std::make_unique<core::ModelGuidedPolicy>(
          MakePredictor(config, backend, seed),
          ModelName(config) + "-greedy" +
              (config.revisit_censored ? "+revisit" : ""),
          core::ModelGuidedPolicy::TieBreak::kRandom,
          /*min_ratio=*/0.05, config.revisit_censored);
  }
  LIMEQO_CHECK(false);
  return nullptr;
}

void Violate(SimulationResult* result, const std::string& invariant,
             const std::string& detail) {
  result->violations.push_back(invariant + ": " + detail);
}

/// Executes the default hint until the backend produces a usable result —
/// the synchronous-mode degradation fallback. The default plan is the
/// always-available one, and every Execute call rolls fresh fault
/// decisions, so for any failure probability < 1 this terminates almost
/// surely; a backend failing this many calls in a row is permanently
/// broken, not faulty.
core::BackendResult ExecuteDefaultFallback(core::WorkloadBackend* backend,
                                           int query) {
  constexpr int kMaxFallbackAttempts = 10000;
  for (int i = 0; i < kMaxFallbackAttempts; ++i) {
    const core::BackendResult r = backend->Execute(query, 0, 0.0);
    if (!r.failed) return r;
  }
  LIMEQO_CHECK(false);  // backend permanently failing the default plan
  return core::BackendResult{};
}

/// The serving rule's no-regression guarantee (Algorithm 1 lines 13-15),
/// checked against the hints a serving component chose — not re-derived
/// here, so a regression in OnlineOptimizer or
/// WorkloadMatrix::BestObservedHint is what trips it. A non-default serving
/// must be a complete (never censored) observation no slower than the
/// observed default.
void CheckNoRegression(const core::WorkloadMatrix& m,
                       const std::vector<int>& served_hints,
                       const std::string& phase, SimulationResult* result) {
  LIMEQO_CHECK(static_cast<int>(served_hints.size()) == m.num_queries());
  for (int q = 0; q < m.num_queries(); ++q) {
    const int served = served_hints[q];
    if (served == 0) continue;  // the default is always safe to serve
    if (m.state(q, served) != core::CellState::kComplete) {
      std::ostringstream os;
      os << phase << " query " << q << " serves unverified hint " << served
         << " (state "
         << static_cast<int>(m.state(q, served)) << ")";
      Violate(result, "no-regression", os.str());
      continue;
    }
    if (m.IsComplete(q, 0) && m.observed(q, served) > m.observed(q, 0)) {
      std::ostringstream os;
      os << phase << " query " << q << " serves hint " << served << " ("
         << m.observed(q, served) << "s) over default ("
         << m.observed(q, 0) << "s)";
      Violate(result, "no-regression", os.str());
    }
  }
}

/// The three aligned matrices must stay mutually consistent (Algorithm 2's
/// input contract): mask marks exactly the complete cells, thresholds exist
/// exactly for censored cells, and a censored cell's value is its
/// threshold.
void CheckMatrixConsistency(const core::WorkloadMatrix& m,
                            SimulationResult* result) {
  for (int q = 0; q < m.num_queries(); ++q) {
    for (int j = 0; j < m.num_hints(); ++j) {
      const core::CellState state = m.state(q, j);
      const double value = m.values()(q, j);
      const double mask = m.mask()(q, j);
      const double threshold = m.timeouts()(q, j);
      bool ok = true;
      switch (state) {
        case core::CellState::kComplete:
          ok = mask == 1.0 && threshold == 0.0 && value >= 0.0;
          break;
        case core::CellState::kCensored:
          ok = mask == 0.0 && threshold > 0.0 && value == threshold;
          break;
        case core::CellState::kUnobserved:
          ok = mask == 0.0 && threshold == 0.0 && value == 0.0;
          break;
      }
      if (!ok) {
        std::ostringstream os;
        os << "cell (" << q << "," << j << ") state/value/mask/threshold = "
           << static_cast<int>(state) << "/" << value << "/" << mask << "/"
           << threshold;
        Violate(result, "matrix-consistency", os.str());
      }
    }
  }
}

/// The served-matrix check after each phase: the matrix stays consistent,
/// and both serving rules keep the no-regression guarantee on it — the
/// verified best (WorkloadMatrix::BestObservedHint, what
/// OfflineExplorer::BestHints serves) as `phase`, and the online path's
/// OnlineOptimizer rule as `phase`-serving.
void CheckServedMatrix(const core::WorkloadMatrix& m, const std::string& phase,
                       SimulationResult* result) {
  CheckMatrixConsistency(m, result);
  core::OnlineOptimizer serving(&m);
  std::vector<int> best(m.num_queries());
  std::vector<int> served(m.num_queries());
  for (int q = 0; q < m.num_queries(); ++q) {
    best[q] = std::max(0, m.BestObservedHint(q));
    served[q] = serving.ChooseHint(q);
  }
  CheckNoRegression(m, best, phase, result);
  CheckNoRegression(m, served, phase + "-serving", result);
}

/// One entry of the merged drift+arrival timeline. Events sort by budget
/// mark; at equal marks, drift events apply before arrivals and spec order
/// is preserved within each kind (stable sort over drift-then-arrival
/// construction order), so replay is platform-independent.
struct TimelineEvent {
  double at = 0.0;
  bool is_arrival = false;
  double severity = 0.0;  // drift events
  int count = 0;          // arrival events
};

std::vector<TimelineEvent> BuildTimeline(const ScenarioSpec& spec) {
  std::vector<TimelineEvent> events;
  events.reserve(spec.drift.size() + spec.arrivals.size());
  for (const DriftEvent& d : spec.drift) {
    events.push_back(
        {std::clamp(d.after_budget_fraction, 0.0, 1.0), false, d.severity, 0});
  }
  for (const ArrivalEvent& a : spec.arrivals) {
    LIMEQO_CHECK(a.count >= 1);
    events.push_back(
        {std::clamp(a.after_budget_fraction, 0.0, 1.0), true, 0.0, a.count});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TimelineEvent& x, const TimelineEvent& y) {
                     return x.at < y.at;
                   });
  return events;
}

/// Applies one arrival through OfflineExplorer::AddNewQueries while
/// machine-checking the arrival-integrity invariants: every pre-existing
/// cell survives bitwise, and each new row joins with exactly its default
/// plan class observed (everything else unobserved).
void ApplyArrivalChecked(core::OfflineExplorer* explorer,
                         const ScenarioBackend& backend, int count,
                         SimulationResult* result) {
  const core::WorkloadMatrix& m = explorer->matrix();
  const int old_n = m.num_queries();
  const int k = m.num_hints();
  const linalg::Matrix values = m.values();
  const linalg::Matrix mask = m.mask();
  const linalg::Matrix timeouts = m.timeouts();
  std::vector<core::CellState> states(static_cast<size_t>(old_n) * k);
  for (int q = 0; q < old_n; ++q) {
    for (int j = 0; j < k; ++j) {
      states[static_cast<size_t>(q) * k + j] = m.state(q, j);
    }
  }

  explorer->AddNewQueries(count);

  for (int q = 0; q < old_n; ++q) {
    for (int j = 0; j < k; ++j) {
      const bool intact =
          m.state(q, j) == states[static_cast<size_t>(q) * k + j] &&
          m.values()(q, j) == values(q, j) && m.mask()(q, j) == mask(q, j) &&
          m.timeouts()(q, j) == timeouts(q, j);
      if (!intact) {
        std::ostringstream os;
        os << "cell (" << q << "," << j << ") changed during arrival of "
           << count << " queries";
        Violate(result, "arrival-preserves-observations", os.str());
      }
    }
  }
  for (int q = old_n; q < old_n + count; ++q) {
    const std::vector<int> default_class = backend.EquivalentHints(q, 0);
    for (int j = 0; j < k; ++j) {
      const bool in_default_class =
          std::find(default_class.begin(), default_class.end(), j) !=
          default_class.end();
      const core::CellState expected = in_default_class
                                           ? core::CellState::kComplete
                                           : core::CellState::kUnobserved;
      if (m.state(q, j) != expected) {
        std::ostringstream os;
        os << "new row " << q << " hint " << j << " arrived in state "
           << static_cast<int>(m.state(q, j)) << ", expected "
           << static_cast<int>(expected);
        Violate(result, "arrival-fresh-rows", os.str());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Run phases. Each writes its metrics and violations into the
// SimulationResult; SimulationDriver::Run is their sequence.
// ---------------------------------------------------------------------------

/// Queue capacity of every free-running engine. A queue much smaller than
/// the serving phase makes the staleness bound meaningful
/// (2 * capacity + threads * batch + publish_every must undercut the total
/// servings): producers more than a lap ahead of the drain block, so the
/// bound is a hard invariant, not a heuristic.
constexpr size_t kFreeRunningQueueCapacity = 64;
/// Global serving indices a free-running thread claims per atomic RMW.
constexpr uint64_t kDecisionBatch = 16;

/// Everything one run builds before it explores: the scenario backend
/// (fault-wrapped under a fault world), the exploration policy, and the
/// offline explorer that owns the engine.
struct World {
  std::unique_ptr<ScenarioBackend> backend;
  /// The fault decorator inside `backend`; null without a fault world.
  FaultyBackend* fault_injector = nullptr;
  std::unique_ptr<core::ExplorationPolicy> policy;
  std::unique_ptr<core::OfflineExplorer> explorer;
};

World BuildWorld(const ScenarioSpec& spec, const RunConfig& config,
                 SimulationResult* result) {
  // Plan trees only exist behind the bridge; a neural arm on the bare
  // surface is a configuration error, not a world property.
  LIMEQO_CHECK(config.arm == PredictorArm::kCompleter ||
               config.world == WorldKind::kSimDb);
  LIMEQO_CHECK(!config.free_running || config.serve_threads >= 1);
  result->scenario = spec.name;
  result->seed = spec.seed;
  result->world = WorldKindName(config.world);

  World world;
  if (config.world == WorldKind::kSimDb) {
    world.backend = std::make_unique<SimDbScenarioBackend>(spec);
  } else {
    world.backend = std::make_unique<SyntheticBackend>(spec);
  }
  // Under a fault world the whole run talks to the decorator: exploration,
  // serving, and the invariant checks all see the faulted surface, and the
  // decorator's own accounting (timeouts_reported, max_single_charge)
  // describes what the run actually observed.
  if (config.faults.any()) {
    auto faulty = std::make_unique<FaultyBackend>(
        std::move(world.backend), config.faults, config.max_retries,
        config.retry_backoff_seconds);
    world.fault_injector = faulty.get();
    world.backend = std::move(faulty);
  }
  result->default_latency = world.backend->DefaultWorkloadLatency();
  result->optimal_latency = world.backend->OptimalWorkloadLatency();

  world.policy =
      MakePolicy(config, world.backend.get(), MixSeed(spec.seed, 0x504Fu));
  result->policy = world.policy->name();

  int total_arrivals = 0;
  for (const ArrivalEvent& a : spec.arrivals) total_arrivals += a.count;
  // Arrivals covering the whole workload is the cold-start fleet: the
  // explorer is stood up over an empty matrix (initial_queries == 0) and
  // every query attaches later through the arrival schedule.
  LIMEQO_CHECK(total_arrivals <= spec.num_queries);

  core::ExplorerOptions options;
  options.batch_size = spec.batch_size;
  options.timeout_alpha = spec.timeout_alpha;
  options.use_timeouts = spec.use_timeouts;
  options.seed = MixSeed(spec.seed, 0x4558u);
  options.initial_queries =
      total_arrivals > 0 ? spec.num_queries - total_arrivals : -1;
  options.engine.delta_publication = !config.full_snapshot_rebuild;
  if (config.free_running) {
    options.engine.queue_capacity = kFreeRunningQueueCapacity;
  }
  world.explorer = std::make_unique<core::OfflineExplorer>(
      world.backend.get(), world.policy.get(), options);
  return world;
}

/// The offline loop, drift + arrival events at their budget marks, then
/// the offline invariants.
void RunOffline(const ScenarioSpec& spec, World* world,
                SimulationResult* result) {
  core::OfflineExplorer& explorer = *world->explorer;
  ScenarioBackend& backend = *world->backend;
  const std::vector<TimelineEvent> events = BuildTimeline(spec);
  const double budget = spec.budget_fraction * backend.DefaultWorkloadLatency();
  double spent_fraction = 0.0;
  for (size_t e = 0; e <= events.size(); ++e) {
    const double until = e < events.size() ? events[e].at : 1.0;
    const std::vector<core::TrajectoryPoint> trajectory =
        explorer.Explore((until - spent_fraction) * budget);
    spent_fraction = until;
    // Between events observations only accumulate on unobserved cells, so
    // the served workload latency can only improve.
    for (size_t t = 1; t < trajectory.size(); ++t) {
      if (trajectory[t].workload_latency >
          trajectory[t - 1].workload_latency + 1e-9) {
        std::ostringstream os;
        os << "segment " << e << " step " << t << ": "
           << trajectory[t - 1].workload_latency << "s -> "
           << trajectory[t].workload_latency << "s";
        Violate(result, "offline-monotonicity", os.str());
      }
    }
    if (e < events.size()) {
      if (events[e].is_arrival) {
        ApplyArrivalChecked(&explorer, backend, events[e].count, result);
        result->arrivals += events[e].count;
      } else {
        backend.ApplyDrift(events[e].severity);
        explorer.ResetAfterDataShift();
      }
    }
  }

  result->offline_seconds = explorer.offline_seconds();
  result->overhead_seconds = explorer.overhead_seconds();
  result->executions = explorer.num_executions();
  result->timeouts = explorer.num_timeouts();

  // Each Explore call may overshoot its deadline by at most one execution's
  // charge, and the event timeline splits the budget into events.size() + 1
  // calls — so that is the exact end-to-end overshoot bound.
  const double overshoot_allowance =
      static_cast<double>(events.size() + 1) * explorer.max_single_charge();
  if (explorer.offline_seconds() > budget + overshoot_allowance + 1e-9) {
    std::ostringstream os;
    os << explorer.offline_seconds() << "s spent vs budget " << budget
       << "s + " << events.size() + 1 << " segments x max charge "
       << explorer.max_single_charge() << "s";
    Violate(result, "offline-budget", os.str());
  }
  if (explorer.num_timeouts() != backend.timeouts_reported()) {
    std::ostringstream os;
    os << "explorer counted " << explorer.num_timeouts()
       << " timeouts, backend reported " << backend.timeouts_reported();
    Violate(result, "timeout-accounting", os.str());
  }
  if (!spec.use_timeouts && (explorer.num_timeouts() != 0 ||
                             explorer.matrix().NumCensored() != 0)) {
    std::ostringstream os;
    os << explorer.num_timeouts() << " timeouts / "
       << explorer.matrix().NumCensored()
       << " censored cells with timeouts disabled";
    Violate(result, "timeout-accounting", os.str());
  }
  if (explorer.matrix().num_queries() != spec.num_queries) {
    std::ostringstream os;
    os << explorer.matrix().num_queries() << " matrix rows after the "
       << "arrival schedule, expected " << spec.num_queries;
    Violate(result, "arrival-fresh-rows", os.str());
  }
  CheckServedMatrix(explorer.matrix(), "offline", result);
}

/// How one serving's faults resolved (OnlineContext::Resolve).
struct ResolvedServing {
  int hint = 0;                  // hint actually served
  int failures = 0;              // attempts that failed
  bool degraded = false;         // fell back to the default hint
  double backoff_seconds = 0.0;  // seeded retry backoff accounted
};

/// What every online serving mode reads: the run's spec and config, the
/// fleet serving options, and the world's backend.
struct OnlineContext {
  const ScenarioSpec& spec;
  const RunConfig& config;
  ScenarioBackend& backend;
  core::OnlineExplorationOptions online;
  SimulationResult* result;

  /// Resolves which hint a faulted serving actually serves: retry the
  /// chosen hint up to max_retries extra attempts (accounting seeded
  /// exponential backoff per retry), then degrade to the default hint,
  /// which never fails. Pure in (backend schedule, query, chosen, seq), so
  /// serving traces stay bitwise identical at any thread count under
  /// faults.
  ResolvedServing Resolve(int query, int chosen, uint64_t seq) const {
    ResolvedServing r;
    r.hint = chosen;
    for (int attempt = 0;; ++attempt) {
      if (!backend.ServeAttemptFails(query, r.hint, seq, attempt)) break;
      ++r.failures;
      if (attempt >= config.max_retries) {
        // Graceful degradation: the chosen plan keeps failing, the serving
        // must still answer — fall back to the default hint (never fails).
        r.hint = 0;
        r.degraded = true;
        break;
      }
      Rng jitter(
          MixSeed(config.faults.seed, seq, static_cast<uint64_t>(attempt)));
      r.backoff_seconds += config.retry_backoff_seconds *
                           std::ldexp(1.0, attempt) *
                           (0.5 + jitter.NextDouble());
    }
    return r;
  }
};

/// What a serving mode hands to the shared online checks.
struct ServedPhase {
  /// How far past the regret budget the mode's gate may let the ledger
  /// run (the "online bounds" of SimulationDriver), and what it is made
  /// of: the gate reads a live ledger (synchronous), a snapshot's frozen
  /// one (epoch), or one that in-flight servings have not reached yet.
  double regret_allowance = 0.0;
  const char* allowance_kind = "one serving";
  /// The tier's merged reassembly — the ground truth the fleet observed —
  /// captured before any freeze probe; empty when the explorer's own
  /// engine served.
  std::optional<core::WorkloadMatrix> merged;
};

/// Adds one serving's fault outcome to the result's fault block. Callers
/// sum in serving order, so the totals are deterministic even when the
/// run is not.
void AccountServingFaults(const ResolvedServing& r, SimulationResult* result) {
  result->fault_serve_failures += r.failures;
  if (r.degraded) ++result->fault_serve_fallbacks;
  result->fault_backoff_seconds += r.backoff_seconds;
}

/// An exhausted budget must freeze exploration for good: `frozen`
/// explorations before the freeze probe, `now` after it.
void CheckFrozen(const std::string& who, int frozen, int now,
                 SimulationResult* result) {
  if (now == frozen) return;
  std::ostringstream os;
  os << who << now - frozen << " explorations after budget exhaustion";
  Violate(result, "online-budget-freeze", os.str());
}

/// Records a serving mode's headline metrics; every mode calls it before
/// its freeze probe adds diagnostic traffic.
void RecordTotals(int servings, int explorations, double regret,
                  const core::WorkloadMatrix& served,
                  SimulationResult* result) {
  result->servings = servings;
  result->explorations = explorations;
  result->regret_spent = regret;
  result->final_latency = served.CurrentWorkloadLatency();
}

/// Synchronous serving: one thread acting as both planes through
/// OnlineExplorationOptimizer, the paper's Algorithm 1 with a live ledger.
ServedPhase ServeSynchronous(const OnlineContext& ctx,
                             core::ExplorationEngine& engine) {
  SimulationResult* result = ctx.result;
  const int n = ctx.spec.num_queries;
  core::OnlineExplorationOptimizer optimizer(&engine, ctx.online);
  double max_served = 0.0;
  for (int s = 0; s < ctx.spec.online_servings; ++s) {
    const int q = s % n;
    const int hint = optimizer.ChooseHint(q);
    const core::BackendResult r =
        ctx.backend.Execute(q, hint, /*timeout_seconds=*/0.0);
    if (r.failed) {
      // Graceful degradation, synchronous flavor: the chosen plan's
      // execution kept failing, so this serving answers with the default
      // hint instead. The fallback bypasses the optimizer — it is an
      // infrastructure fault, not an exploration decision — and is
      // reported non-exploratory with zero regret, so the ledger and the
      // gate/freeze invariants never see fault cost.
      const core::BackendResult fb = ExecuteDefaultFallback(&ctx.backend, q);
      ++result->fault_serve_fallbacks;
      max_served = std::max(max_served, fb.observed_latency);
      engine.ObserveServing(q, 0, fb.observed_latency,
                            /*exploratory=*/false, /*regret_delta=*/0.0);
      continue;
    }
    max_served = std::max(max_served, r.observed_latency);
    optimizer.ReportLatency(q, hint, r.observed_latency);
  }
  ServedPhase phase;
  phase.regret_allowance = max_served;

  RecordTotals(optimizer.servings(), optimizer.explorations(),
               optimizer.regret_spent(), engine.matrix(), result);

  if (optimizer.budget_exhausted()) {
    const int frozen = optimizer.explorations();
    for (int s = 0; s < 50; ++s) {
      const int q = s % n;
      const int hint = optimizer.ChooseHint(q);
      const core::BackendResult r = ctx.backend.Execute(q, hint, 0.0);
      if (r.failed) continue;  // a dropped probe can't unfreeze anything
      optimizer.ReportLatency(q, hint, r.observed_latency);
    }
    CheckFrozen("", frozen, optimizer.explorations(), result);
  }
  return phase;
}

/// RecordTotals for a tier run, capturing the merged reassembly the final
/// checks read.
void RecordTierTotals(const core::ShardedServingTier& tier, int total,
                      ServedPhase* phase, SimulationResult* result) {
  phase->merged = tier.MergedMatrix();
  RecordTotals(total, tier.explorations(), tier.regret_spent(),
               *phase->merged, result);
}

/// Per-shard freeze: a shard whose slice is exhausted (published, after
/// the epoch barrier or StopTraining) must not explore again through 50
/// more schedule servings in publish_every epochs; the other shards may
/// keep exploring theirs. Runs after the headline metrics are recorded.
void CheckTierFreeze(const OnlineContext& ctx,
                     core::ShardedServingTier& tier) {
  std::vector<int> frozen(tier.num_shards(), -1);
  bool any_exhausted = false;
  for (int i = 0; i < tier.num_shards(); ++i) {
    if (!tier.shard_engine(i).budget_exhausted()) continue;
    frozen[i] = tier.shard_engine(i).explorations();
    any_exhausted = true;
  }
  if (!any_exhausted) return;
  const uint64_t from = tier.scheduled_servings();
  const uint64_t epoch_len = static_cast<uint64_t>(ctx.online.publish_every);
  for (uint64_t epoch = from; epoch < from + 50; epoch += epoch_len) {
    tier.ServeSchedule(epoch, std::min(from + 50, epoch + epoch_len), 1,
                       [&](int q, int chosen, uint64_t seq) {
                         core::ServedOutcome out;
                         out.hint = chosen;
                         out.latency = ctx.backend.ServeLatency(q, chosen, seq);
                         return out;
                       });
  }
  for (int i = 0; i < tier.num_shards(); ++i) {
    if (frozen[i] < 0) continue;
    CheckFrozen("shard " + std::to_string(i) + ": ", frozen[i],
                tier.shard_engine(i).explorations(), ctx.result);
  }
}

/// Epoch-synchronized serving through the tier: ServeSchedule preassigns
/// shard-local sequence numbers in global order, so the merged trace is
/// bitwise identical at every serving thread count (and at one shard
/// equals the bare engine's epoch serving, tests/shard_router_test.cc).
/// Epochs are publish_every servings long; each shard refits on its own
/// refresh_every cadence inside the epoch barrier.
ServedPhase ServeTierEpochs(const OnlineContext& ctx,
                            core::ShardedServingTier& tier) {
  SimulationResult* result = ctx.result;
  const int total = ctx.spec.online_servings;
  const int shards = tier.num_shards();
  const int publish_every = ctx.online.publish_every;
  result->serving_trace.resize(total);
  // Written by the serving thread that owns each index.
  std::vector<ResolvedServing> faults(total);
  std::vector<double> shard_epoch_regret(shards, 0.0);
  std::vector<double> regret_before(shards, 0.0);
  for (int epoch = 0; epoch < total; epoch += publish_every) {
    for (int i = 0; i < shards; ++i) {
      regret_before[i] = tier.shard_engine(i).regret_spent();
    }
    tier.ServeSchedule(
        epoch, std::min(total, epoch + publish_every),
        ctx.config.serve_threads,
        [&](int q, int chosen, uint64_t seq) {
          const ResolvedServing served = ctx.Resolve(q, chosen, seq);
          faults[seq] = served;
          core::ServedOutcome out;
          out.hint = served.hint;
          out.degraded = served.degraded;
          out.latency = ctx.backend.ServeLatency(q, served.hint, seq);
          return out;
        },
        [&](uint64_t seq, int q, int hint, double latency) {
          result->serving_trace[seq] = ServingRecord{q, hint, latency};
        });
    for (int i = 0; i < shards; ++i) {
      shard_epoch_regret[i] =
          std::max(shard_epoch_regret[i],
                   tier.shard_engine(i).regret_spent() - regret_before[i]);
    }
  }
  for (const ResolvedServing& f : faults) AccountServingFaults(f, result);

  // Each shard's slice can be overshot by one epoch of its own
  // exploratory regret, so the fleet allowance is the sum.
  ServedPhase phase;
  for (int i = 0; i < shards; ++i) {
    phase.regret_allowance += shard_epoch_regret[i];
  }
  phase.allowance_kind = "one epoch per shard";
  RecordTierTotals(tier, total, &phase, result);
  CheckTierFreeze(ctx, tier);
  return phase;
}

/// One free-running serving, written once by the serving thread that
/// claimed its global index (no locking required).
struct FreeRecord {
  int query = 0;
  ResolvedServing served;     // the hint actually served and its faults
  double latency = 0.0;
  bool exploratory = false;
  double regret_delta = 0.0;
  int shard = 0;              // engine that served it (0 without a tier)
  uint64_t local_seq = 0;     // that engine's sequence number
  uint64_t snapshot_seq = 0;  // published_seq of the deciding snapshot
};

/// Serves one free-running decision: resolves faults, observes the
/// latency, records the serving at global index `seq`, and reports the
/// observation to `engine` under its local sequence number.
void ServeFree(const OnlineContext& ctx, const core::ServingSnapshot& snap,
               core::ExplorationEngine& engine, int shard, uint64_t seq,
               uint64_t local_seq, int query, int local_row, int chosen,
               std::vector<FreeRecord>* records) {
  const ResolvedServing served = ctx.Resolve(query, chosen, seq);
  const double latency = ctx.backend.ServeLatency(query, served.hint, seq);
  core::ServingObservation obs =
      snap.MakeObservation(local_seq, local_row, served.hint, latency);
  if (served.degraded) {
    // A degraded fallback is fault cost, not an exploration decision: it
    // must neither charge the ledger nor look like a budgeted probe to the
    // free-gate/freeze invariants.
    obs.exploratory = false;
    obs.regret_delta = 0.0;
  }
  (*records)[seq] = {query,           served,           latency,
                     obs.exploratory, obs.regret_delta, shard,
                     local_seq,       snap.published_seq()};
  engine.Report(obs);
}

/// Runs `body` on `threads` serving threads and joins them.
void RunServingThreads(int threads, const std::function<void()>& body) {
  std::vector<std::thread> servers;
  servers.reserve(threads);
  for (int t = 0; t < threads; ++t) servers.emplace_back(body);
  for (std::thread& t : servers) t.join();
}

/// One engine of a free-running run, as the replay sees it.
struct FreeShard {
  const core::ExplorationEngine* engine;
  double slice;  // the regret budget it gates on
  int rows;      // query rows it holds
};

/// The free-running replay, shared by the engine loop (one shard holding
/// every row) and the tier loop: sequence accounting, then per engine in
/// local order ledger consistency, slice-gated exploration, and the local
/// and composed global staleness bounds. Records the staleness percentiles
/// and returns the summed per-engine in-flight regret windows, or nullopt
/// when the sequence accounting failed and the replay could not run.
std::optional<double> ReplayFreeRunning(const OnlineContext& ctx,
                                        const std::vector<FreeRecord>& records,
                                        const std::vector<FreeShard>& shards) {
  SimulationResult* result = ctx.result;
  const int total = static_cast<int>(records.size());
  const uint64_t n = static_cast<uint64_t>(ctx.spec.num_queries);
  const uint64_t threads = static_cast<uint64_t>(ctx.config.serve_threads);
  const size_t num_shards = shards.size();

  // No serving lost or double-counted: each engine's local sequence
  // numbers are exactly 0..count-1 for the servings routed to it, and it
  // drained exactly those.
  std::vector<uint64_t> routed(num_shards, 0);
  for (const FreeRecord& r : records) ++routed[r.shard];
  std::vector<std::vector<int>> local_to_global(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    local_to_global[i].assign(static_cast<size_t>(routed[i]), -1);
  }
  bool seq_ok = true;
  for (int s = 0; s < total; ++s) {
    const FreeRecord& r = records[s];
    if (r.local_seq >= local_to_global[r.shard].size() ||
        local_to_global[r.shard][r.local_seq] != -1) {
      std::ostringstream os;
      os << "serving " << s << " drained at shard " << r.shard
         << " local seq " << r.local_seq
         << " (out of range or double-counted)";
      Violate(result, "shard-seq-accounting", os.str());
      seq_ok = false;
      continue;
    }
    local_to_global[r.shard][r.local_seq] = s;
  }
  for (size_t i = 0; i < num_shards; ++i) {
    if (shards[i].engine->drained_servings() != routed[i]) {
      std::ostringstream os;
      os << "shard " << i << " drained "
         << shards[i].engine->drained_servings() << " servings, "
         << routed[i] << " were routed to it";
      Violate(result, "shard-seq-accounting", os.str());
      seq_ok = false;
    }
  }
  if (!seq_ok) return std::nullopt;

  double summed_inflight = 0.0;
  std::vector<uint64_t> global_staleness;
  global_staleness.reserve(static_cast<size_t>(total));
  for (size_t i = 0; i < num_shards; ++i) {
    const std::vector<int>& order = local_to_global[i];
    const uint64_t count = routed[i];
    // prefix[l] is the regret drained before local serving l — bitwise
    // the ledger any snapshot published at drain front l froze, because
    // the drain applies deltas in the same order with the same additions.
    std::vector<double> prefix(static_cast<size_t>(count) + 1, 0.0);
    for (uint64_t l = 0; l < count; ++l) {
      prefix[l + 1] = prefix[l] + records[order[l]].regret_delta;
    }
    const double spent = shards[i].engine->regret_spent();
    if (std::abs(prefix[count] - spent) > 1e-9) {
      std::ostringstream os;
      os << "shard " << i << " drained ledger " << spent
         << "s != replayed per-serving deltas " << prefix[count] << "s";
      Violate(result, "free-ledger-consistency", os.str());
    }
    // The local bound: a producer of local serving l blocks until the
    // drain passes l - capacity, the train loop's publications lag the
    // drain front by < capacity + publish_every (capacity-capped batches,
    // publish at >= publish_every lag), and at most threads *
    // kDecisionBatch acquired indices are unreported at any instant.
    const uint64_t local_bound =
        2 * shards[i].engine->queue_capacity() + threads * kDecisionBatch +
        static_cast<uint64_t>(ctx.online.publish_every);
    const uint64_t rows_here = static_cast<uint64_t>(shards[i].rows);
    // Shard i holds rows_here of the n round-robin queries, so a
    // local-sequence gap of d spans at most (d / rows_here + 2) windows of
    // n global indices *in schedule order*. Free-running threads report
    // claimed batches out of schedule order by at most the in-flight
    // window (threads * kDecisionBatch claimed-but-unreported globals at
    // either end of the gap), which widens the rank gap by
    // 2 * threads * kDecisionBatch.
    const uint64_t skew = 2 * threads * kDecisionBatch;
    const uint64_t global_bound =
        rows_here > 0 ? ((local_bound + skew) / rows_here + 2) * n : 0;
    double max_inflight = 0.0;
    for (uint64_t l = 0; l < count; ++l) {
      const FreeRecord& r = records[order[l]];
      const uint64_t p = r.snapshot_seq;
      if (p > l) {
        std::ostringstream os;
        os << "shard " << i << " local serving " << l
           << " decided on snapshot seq " << p << " ahead of itself";
        Violate(result, "free-gate", os.str());
        continue;
      }
      // Gate correctness + the explicit slack term: every exploration's
      // deciding snapshot must have been under the slice, and the ledger
      // can pass it only by what some single decision could not yet see.
      if (r.exploratory) {
        if (prefix[p] >= shards[i].slice) {
          std::ostringstream os;
          os << "shard " << i << " serving " << order[l] << " (query "
             << r.query << ", hint " << r.served.hint << ", " << r.latency
             << "s) explored on a snapshot whose ledger (" << prefix[p]
             << "s) already exhausted the slice (" << shards[i].slice
             << "s)";
          Violate(result, "free-gate", os.str());
        }
        max_inflight = std::max(max_inflight, prefix[l + 1] - prefix[p]);
      }
      if (l - p > local_bound) {
        std::ostringstream os;
        os << "shard " << i << " local staleness " << l - p
           << " exceeds the per-shard bound " << local_bound;
        Violate(result, "free-staleness", os.str());
      }
      const uint64_t deciding_global =
          static_cast<uint64_t>(p < count ? order[p] : order[l]);
      const uint64_t s = static_cast<uint64_t>(order[l]);
      const uint64_t gstale = s > deciding_global ? s - deciding_global : 0;
      global_staleness.push_back(gstale);
      if (gstale > global_bound) {
        std::ostringstream os;
        os << "serving " << s << " global staleness " << gstale
           << " exceeds the composed tier bound " << global_bound
           << " (shard " << i << ", " << rows_here << "/" << n << " rows)";
        Violate(result, "free-staleness", os.str());
      }
    }
    summed_inflight += max_inflight;
  }
  std::sort(global_staleness.begin(), global_staleness.end());
  if (!global_staleness.empty()) {
    const size_t size = global_staleness.size();
    result->staleness_p50 = static_cast<double>(global_staleness[size / 2]);
    result->staleness_p95 =
        static_cast<double>(global_staleness[(95 * (size - 1)) / 100]);
    result->staleness_max = static_cast<double>(global_staleness.back());
  }
  return summed_inflight;
}

/// Sums a free-running run's faults and replays it into `phase`'s
/// in-flight allowance. Runs after the headline metrics are recorded.
void FinishFreeRunning(const OnlineContext& ctx,
                       const std::vector<FreeRecord>& records,
                       const std::vector<FreeShard>& shards,
                       ServedPhase* phase) {
  for (const FreeRecord& r : records) {
    AccountServingFaults(r.served, ctx.result);
  }
  if (const std::optional<double> inflight =
          ReplayFreeRunning(ctx, records, shards)) {
    phase->regret_allowance = *inflight;
    phase->allowance_kind = "summed per-shard in-flight windows";
    ctx.result->regret_slack = std::max(
        0.0, ctx.result->regret_spent - ctx.online.regret_budget_seconds);
  }
}

/// Free-running serving on the explorer's own engine: a real background
/// train thread against serve_threads free-running serving threads. Kept
/// beside the tier's free-running loop because one engine-wide claim
/// counter gives it a hard staleness bound the tier's separate global and
/// local claims do not.
ServedPhase ServeEngineFreeRunning(const OnlineContext& ctx,
                                   core::ExplorationEngine& engine) {
  SimulationResult* result = ctx.result;
  engine.ConfigureServing(ctx.online);
  engine.RefreshPredictions(/*force=*/true);
  engine.Publish();

  const int total = ctx.spec.online_servings;
  const int n = ctx.spec.num_queries;
  std::vector<FreeRecord> records(total);
  engine.StartTraining();
  RunServingThreads(ctx.config.serve_threads, [&] {
    std::shared_ptr<const core::ServingSnapshot> snap = engine.snapshot();
    uint64_t version = snap->version();
    // Each thread claims kDecisionBatch consecutive indices per atomic RMW
    // and decides them with one batched ChooseHints call (decision-identical
    // to per-index scalar calls) — the version probe, snapshot pin, and
    // index acquisition are amortized across the batch. Indices claimed at
    // or past `total` are simply never reported: nothing below them is left
    // unreported, so the drain cleanly stops at the `total` front.
    std::array<int, kDecisionBatch> queries;
    std::array<int, kDecisionBatch> hints;
    for (;;) {
      const uint64_t first = engine.AcquireServingIndices(kDecisionBatch);
      if (first >= static_cast<uint64_t>(total)) break;
      const size_t cnt = static_cast<size_t>(std::min<uint64_t>(
          kDecisionBatch, static_cast<uint64_t>(total) - first));
      // Steady-state read path: one relaxed version probe per batch; the
      // pointer handoff only happens on an actual publication.
      if (engine.snapshot_version() != version) {
        snap = engine.snapshot();
        version = snap->version();
      }
      for (size_t i = 0; i < cnt; ++i) {
        queries[i] = static_cast<int>((first + i) % n);
      }
      snap->ChooseHints(std::span<const int>(queries.data(), cnt), first,
                        std::span<int>(hints.data(), cnt));
      for (size_t i = 0; i < cnt; ++i) {
        const uint64_t seq = first + i;
        ServeFree(ctx, *snap, engine, /*shard=*/0, seq, seq, queries[i],
                  queries[i], hints[i], &records);
      }
    }
  });
  engine.StopTraining();  // final drain + publish

  RecordTotals(total, engine.explorations(), engine.regret_spent(),
               engine.matrix(), result);
  ServedPhase phase;
  FinishFreeRunning(ctx, records,
                    {{&engine, ctx.online.regret_budget_seconds, n}}, &phase);

  // Eventual freeze: once the exhausted ledger is published (the final
  // StopTraining publish at the latest), no serving may explore again.
  // Probe with schedule-assigned sequence numbers so the queue stays
  // contiguous past the threads' unreported overshoot indices.
  if (engine.budget_exhausted()) {
    const int frozen = engine.explorations();
    std::shared_ptr<const core::ServingSnapshot> snap = engine.snapshot();
    for (int i = 0; i < 50; ++i) {
      const uint64_t seq = static_cast<uint64_t>(total) + i;
      const int q = static_cast<int>(seq % n);
      const int hint = snap->ChooseHint(q, seq);
      const double latency = ctx.backend.ServeLatency(q, hint, seq);
      engine.Report(snap->MakeObservation(seq, q, hint, latency));
    }
    engine.SyncEpoch();
    CheckFrozen("", frozen, engine.explorations(), result);
  }
  return phase;
}

/// Free-running serving through the tier: every shard trains in the
/// background; serving threads claim *global* index batches, route each
/// serving to its shard, and report under shard-local sequence numbers.
ServedPhase ServeTierFreeRunning(const OnlineContext& ctx,
                                 core::ShardedServingTier& tier) {
  const int total = ctx.spec.online_servings;
  const int n = ctx.spec.num_queries;
  const int shards = tier.num_shards();
  std::vector<FreeRecord> records(total);
  tier.StartTraining();
  RunServingThreads(ctx.config.serve_threads, [&] {
    std::vector<std::shared_ptr<const core::ServingSnapshot>> snaps(shards);
    std::vector<uint64_t> versions(shards, ~uint64_t{0});
    for (;;) {
      const uint64_t first = tier.AcquireServingIndices(kDecisionBatch);
      if (first >= static_cast<uint64_t>(total)) break;
      const uint64_t cnt = std::min<uint64_t>(
          kDecisionBatch, static_cast<uint64_t>(total) - first);
      for (uint64_t i = 0; i < cnt; ++i) {
        const uint64_t seq = first + i;
        const int q = static_cast<int>(seq % n);
        const int shard = tier.ShardOfRow(q);
        const int local_row = tier.LocalRowOf(q);
        core::ExplorationEngine& eng = tier.shard_engine(shard);
        // Claim the local slot before probing the snapshot: the
        // unreported slot holds the shard's drain back, so the deciding
        // snapshot cannot fall more than the local bound behind it. A
        // thread preempted between probe and claim would hold no slot,
        // and its staleness would have no bound.
        const uint64_t local_seq = eng.AcquireServingIndex();
        if (snaps[shard] == nullptr ||
            eng.snapshot_version() != versions[shard]) {
          snaps[shard] = eng.snapshot();
          versions[shard] = snaps[shard]->version();
        }
        ServeFree(ctx, *snaps[shard], eng, shard, seq, local_seq, q,
                  local_row, snaps[shard]->ChooseHint(local_row, seq),
                  &records);
      }
    }
  });
  tier.StopTraining();

  ServedPhase phase;
  RecordTierTotals(tier, total, &phase, ctx.result);
  std::vector<FreeShard> engines;
  for (int i = 0; i < shards; ++i) {
    engines.push_back(
        {&tier.shard_engine(i), tier.shard_budget(i), tier.ShardRowCount(i)});
  }
  FinishFreeRunning(ctx, records, engines, &phase);

  CheckTierFreeze(ctx, tier);
  return phase;
}

/// Serves the online phase through a ShardedServingTier of
/// max(1, shards) engines over the explorer's matrix. Decisions stay keyed
/// by *global* serving index, so the fleet consumes exactly one
/// epsilon-gate draw per serving like a single engine would.
ServedPhase ServeThroughTier(const OnlineContext& ctx,
                             const core::WorkloadMatrix& matrix) {
  const RunConfig& config = ctx.config;
  const int shards = std::max(1, config.shards);
  // A neural arm featurizes plans by global row; only at one shard are the
  // shard-local rows the global ones.
  LIMEQO_CHECK(config.arm == PredictorArm::kCompleter || shards == 1);
  std::vector<std::unique_ptr<core::Predictor>> predictors;
  std::vector<core::Predictor*> predictor_ptrs;
  for (int i = 0; i < shards; ++i) {
    // Per-shard instances of the same predictor configuration (same
    // derived seed): refits are per-shard-matrix pure functions.
    predictors.push_back(MakePredictor(config, &ctx.backend,
                                       MixSeed(ctx.spec.seed, 0x4F4Eu)));
    predictor_ptrs.push_back(predictors.back().get());
  }
  core::ShardedTierOptions options;
  options.num_shards = shards;
  options.online = ctx.online;
  options.engine.delta_publication = !config.full_snapshot_rebuild;
  if (config.free_running) {
    options.engine.queue_capacity = kFreeRunningQueueCapacity;
  }
  core::ShardedServingTier tier(matrix, predictor_ptrs, options);
  tier.RefreshAll(/*force=*/true);
  tier.PublishAll();
  return config.free_running ? ServeTierFreeRunning(ctx, tier)
                             : ServeTierEpochs(ctx, tier);
}

/// The checks every serving mode shares: the regret budget plus the
/// mode's allowance, the binomial epsilon cap, and the served-matrix check
/// on what the serving plane observed.
void CheckOnline(const OnlineContext& ctx, const ServedPhase& phase,
                 const core::WorkloadMatrix& served) {
  SimulationResult* result = ctx.result;
  if (result->regret_spent >
      ctx.online.regret_budget_seconds + phase.regret_allowance + 1e-9) {
    std::ostringstream os;
    os << result->regret_spent << "s regret vs budget "
       << ctx.online.regret_budget_seconds << "s + " << phase.allowance_kind
       << " (" << phase.regret_allowance << "s)";
    Violate(result, "online-regret-budget", os.str());
  }
  // Exploration is gated by one Bernoulli(epsilon) per serving: the count
  // is stochastically dominated by Binomial(servings, epsilon). A 4-sigma
  // band never flakes with deterministic seeds.
  const double epsilon = ctx.spec.epsilon;
  const double n = static_cast<double>(result->servings);
  const double cap =
      n * epsilon + 4.0 * std::sqrt(n * epsilon * (1.0 - epsilon)) + 2.0;
  if (result->explorations > cap) {
    std::ostringstream os;
    os << result->explorations << " explorations in " << result->servings
       << " servings exceeds epsilon cap " << cap;
    Violate(result, "online-epsilon-cap", os.str());
  }
  if (epsilon == 0.0 && result->explorations != 0) {
    Violate(result, "online-epsilon-cap", "explorations with epsilon = 0");
  }
  CheckServedMatrix(served, "online", result);
}

/// The online phase: dispatches to the serving mode `config` names, then
/// runs the shared online checks.
void RunOnline(const ScenarioSpec& spec, const RunConfig& config,
               World* world, SimulationResult* result) {
  core::OfflineExplorer& explorer = *world->explorer;
  if (spec.online_servings <= 0) {
    result->final_latency = explorer.matrix().CurrentWorkloadLatency();
    return;
  }
  OnlineContext ctx{spec, config, *world->backend, {}, result};
  ctx.online.epsilon = spec.epsilon;
  ctx.online.min_predicted_ratio = spec.min_predicted_ratio;
  ctx.online.regret_budget_seconds = spec.online_regret_budget_seconds;
  ctx.online.seed = MixSeed(spec.seed, 0x534Fu);

  ServedPhase phase;
  if (config.serve_threads <= 0 ||
      (config.free_running && config.shards <= 0)) {
    // The explorer's own engine serves.
    std::unique_ptr<core::Predictor> predictor = MakePredictor(
        config, world->backend.get(), MixSeed(spec.seed, 0x4F4Eu));
    core::ExplorationEngine& engine = explorer.engine();
    engine.SetPredictor(predictor.get());
    phase = config.serve_threads <= 0 ? ServeSynchronous(ctx, engine)
                                      : ServeEngineFreeRunning(ctx, engine);
    engine.SetPredictor(nullptr);  // the predictor dies with this scope
  } else {
    phase = ServeThroughTier(ctx, explorer.matrix());
  }
  CheckOnline(ctx, phase, phase.merged ? *phase.merged : explorer.matrix());
}

/// No-double-charge under a fault world: every Execute call the decorator
/// dropped must have been dropped whole by its caller too — the explorer's
/// failed-call count can never exceed what the backend actually refused
/// (serving fallbacks and free-observation retries consume the rest).
void CheckFaultAccounting(const World& world, SimulationResult* result) {
  const FaultyBackend* faults = world.fault_injector;
  if (faults == nullptr) return;
  result->fault_exec_failures = faults->exec_failures();
  result->fault_exec_retries = faults->exec_retries();
  result->fault_exec_exhausted = faults->exec_exhausted();
  result->fault_backoff_seconds += faults->backoff_seconds();
  const int dropped = world.explorer->num_failed_executions();
  if (dropped > faults->exec_exhausted()) {
    std::ostringstream os;
    os << "explorer dropped " << dropped
       << " executions but the backend only refused "
       << faults->exec_exhausted();
    Violate(result, "fault-accounting", os.str());
  }
}

}  // namespace

std::string PolicyKindName(PolicyKind p) {
  switch (p) {
    case PolicyKind::kRandom:
      return "Random";
    case PolicyKind::kGreedy:
      return "Greedy";
    case PolicyKind::kModelGuided:
      return "ModelGuided";
  }
  return "?";
}

std::string CompleterKindName(CompleterKind c) {
  switch (c) {
    case CompleterKind::kAls:
      return "ALS";
    case CompleterKind::kSvt:
      return "SVT";
    case CompleterKind::kNuclearNorm:
      return "NuclearNorm";
  }
  return "?";
}

std::string PredictorArmName(PredictorArm a) {
  switch (a) {
    case PredictorArm::kCompleter:
      return "Completer";
    case PredictorArm::kTcnn:
      return "TCNN";
    case PredictorArm::kLimeQoPlus:
      return "LimeQO+";
  }
  return "?";
}

std::string WorldKindName(WorldKind w) {
  switch (w) {
    case WorldKind::kSynthetic:
      return "Synthetic";
    case WorldKind::kSimDb:
      return "SimDb";
  }
  return "?";
}

nn::TcnnOptions ScenarioTcnnOptions() {
  nn::TcnnOptions options;
  options.conv_channels = {16, 8};
  options.fc_hidden = {16};
  options.embedding_dim = 4;
  options.dropout_p = 0.15;
  options.batch_size = 16;
  options.max_epochs = 12;
  options.convergence_window = 4;
  return options;
}

std::string SimulationResult::Summary() const {
  std::ostringstream os;
  os << "scenario=" << scenario << " policy=" << policy << " world=" << world
     << " seed=" << seed
     << " default=" << default_latency << "s final=" << final_latency
     << "s optimal=" << optimal_latency << "s offline=" << offline_seconds
     << "s execs=" << executions << " timeouts=" << timeouts
     << " arrivals=" << arrivals
     << " servings=" << servings << " explorations=" << explorations
     << " regret=" << regret_spent << "s violations=" << violations.size();
  if (staleness_max > 0.0 || regret_slack > 0.0) {
    os << " staleness[p50/p95/max]=" << staleness_p50 << "/" << staleness_p95
       << "/" << staleness_max << " slack=" << regret_slack << "s";
  }
  if (fault_exec_failures > 0 || fault_serve_failures > 0 ||
      fault_serve_fallbacks > 0) {
    os << " faults[exec-fail/retry/dropped]=" << fault_exec_failures << "/"
       << fault_exec_retries << "/" << fault_exec_exhausted
       << " faults[serve-fail/fallback]=" << fault_serve_failures << "/"
       << fault_serve_fallbacks << " backoff=" << fault_backoff_seconds
       << "s";
  }
  for (const std::string& v : violations) os << "\n  VIOLATED " << v;
  return os.str();
}

SimulationResult SimulationDriver::Run(PolicyKind policy,
                                       CompleterKind completer) {
  RunConfig config;
  config.policy = policy;
  config.completer = completer;
  return Run(config);
}

SimulationResult SimulationDriver::Run(const RunConfig& config) {
  SimulationResult result;
  World world = BuildWorld(spec_, config, &result);
  RunOffline(spec_, &world, &result);
  RunOnline(spec_, config, &world, &result);
  CheckFaultAccounting(world, &result);
  return result;
}

}  // namespace limeqo::scenarios
