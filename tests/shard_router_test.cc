// Sharded serving tier: N ExplorationEngine shards behind the deterministic
// router of src/core/shard_router.h. The pinning contract is differential:
// a 1-shard tier's ServeSchedule must serve a trace, ledger and matrix
// bitwise identical to the bare engine's ServeEpochResolved, K-shard tiers
// must satisfy every SimulationDriver invariant at 1, 2 and 4 shards under
// 1/2/4 serving threads with a thread-count-independent merged trace, and
// per-shard checkpoints must reassemble into a fleet whose remaining trace
// equals the fleet that never died. Part of the CI ThreadSanitizer target
// (`ctest -R "...|shard_router_test"`).

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/als.h"
#include "core/engine.h"
#include "core/predictor.h"
#include "core/shard_router.h"
#include "core/workload_matrix.h"
#include "scenarios/scenario.h"
#include "scenarios/simulation.h"
#include "scenarios/synthetic_backend.h"

namespace limeqo::scenarios {
namespace {

ScenarioSpec GridWorld(const std::string& name) {
  for (const ScenarioSpec& s : ScenarioGrid()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no grid world named " << name;
  return ScenarioSpec{};
}

SimulationResult RunSharded(const ScenarioSpec& spec, int shards, int threads,
                            PolicyKind policy = PolicyKind::kModelGuided,
                            bool free_running = false) {
  RunConfig config;
  config.policy = policy;
  config.serve_threads = threads;
  config.shards = shards;
  config.free_running = free_running;
  return SimulationDriver(spec).Run(config);
}

::testing::AssertionResult TracesIdentical(const SimulationResult& a,
                                           const SimulationResult& b) {
  if (a.serving_trace.size() != b.serving_trace.size()) {
    return ::testing::AssertionFailure()
           << "trace lengths " << a.serving_trace.size() << " vs "
           << b.serving_trace.size();
  }
  for (size_t s = 0; s < a.serving_trace.size(); ++s) {
    if (!(a.serving_trace[s] == b.serving_trace[s])) {
      return ::testing::AssertionFailure()
             << "serving " << s << " diverges: (" << a.serving_trace[s].query
             << "," << a.serving_trace[s].hint << ","
             << a.serving_trace[s].latency << ") vs ("
             << b.serving_trace[s].query << "," << b.serving_trace[s].hint
             << "," << b.serving_trace[s].latency << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// K-shard tiers: the merged trace is independent of serving thread count,
// and every driver invariant holds at K in {1, 2, 4} x threads in {1, 2, 4}.
// ---------------------------------------------------------------------------

class ShardedTraceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedTraceTest, MergedTraceIndependentOfThreadCount) {
  const ScenarioSpec spec = GridWorld(GetParam());
  for (int shards : {1, 2, 4}) {
    const SimulationResult single = RunSharded(spec, shards, 1);
    ASSERT_TRUE(single.ok())
        << shards << " shards, 1 thread: " << single.Summary();
    ASSERT_EQ(static_cast<int>(single.serving_trace.size()),
              spec.online_servings);
    for (int threads : {2, 4}) {
      const SimulationResult multi = RunSharded(spec, shards, threads);
      ASSERT_TRUE(multi.ok())
          << shards << " shards, " << threads << " threads: "
          << multi.Summary();
      ASSERT_TRUE(TracesIdentical(single, multi))
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(single.final_latency, multi.final_latency);
      EXPECT_EQ(single.regret_spent, multi.regret_spent);
      EXPECT_EQ(single.explorations, multi.explorations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, ShardedTraceTest,
    ::testing::Values("baseline", "noisy-observations", "heavy-tail-extreme",
                      "plan-equivalence", "online-tight-budget"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ShardedServingTest, GridInvariantsHoldAtTwoShards) {
  for (const ScenarioSpec& spec : ScenarioGrid()) {
    for (PolicyKind policy :
         {PolicyKind::kRandom, PolicyKind::kGreedy, PolicyKind::kModelGuided}) {
      const SimulationResult result = RunSharded(spec, 2, 2, policy);
      EXPECT_TRUE(result.ok())
          << "spec {" << Describe(spec) << "} policy "
          << PolicyKindName(policy) << " 2 shards\n"
          << result.Summary();
    }
  }
}

// ---------------------------------------------------------------------------
// Free-running fleet: per-shard train threads against serving threads that
// claim global batches. Traces are timing-dependent; the driver checks the
// per-shard statistical invariants plus the fleet compositions (summed
// slack, composed staleness bound, fleet freeze). TSan coverage target.
// ---------------------------------------------------------------------------

TEST(ShardedFreeRunningTest, InvariantsHoldAcrossShardAndThreadCounts) {
  const ScenarioSpec spec = GridWorld("baseline");
  for (int shards : {2, 4}) {
    for (int threads : {1, 2, 4}) {
      const SimulationResult result = RunSharded(
          spec, shards, threads, PolicyKind::kModelGuided,
          /*free_running=*/true);
      ASSERT_TRUE(result.ok()) << shards << " shards, " << threads
                               << " threads: " << result.Summary();
      EXPECT_EQ(result.servings, spec.online_servings);
      EXPECT_LE(result.staleness_p50, result.staleness_p95);
      EXPECT_LE(result.staleness_p95, result.staleness_max);
    }
  }
}

TEST(ShardedFreeRunningTest, TightBudgetFreezesEveryShard) {
  const ScenarioSpec spec = GridWorld("online-tight-budget");
  const SimulationResult result = RunSharded(
      spec, 2, 4, PolicyKind::kModelGuided, /*free_running=*/true);
  EXPECT_TRUE(result.ok()) << result.Summary();
  EXPECT_GE(result.regret_slack, 0.0);
}

// ---------------------------------------------------------------------------
// Direct-tier tests: checkpoint reassembly and growth/rebalance, against a
// synthetic backend without the driver in between.
// ---------------------------------------------------------------------------

struct TierFixture {
  ScenarioSpec spec;
  std::unique_ptr<SyntheticBackend> backend;
  std::vector<std::unique_ptr<core::Predictor>> predictors;
  std::vector<core::Predictor*> predictor_ptrs;
  core::ShardedTierOptions options;
  std::unique_ptr<core::ShardedServingTier> tier;

  // `backend_rows` sizes the synthetic world (>= rows when the test will
  // append queries later); the tier starts from the first `rows` of it.
  TierFixture(int rows, int hints, int shards, uint64_t seed,
              int backend_rows = -1) {
    spec.name = "tier-fixture";
    spec.num_queries = backend_rows < 0 ? rows : backend_rows;
    spec.num_hints = hints;
    spec.latent_rank = 2;
    spec.noise_sigma = 0.1;
    spec.seed = seed;
    backend = std::make_unique<SyntheticBackend>(spec);
    core::WorkloadMatrix matrix(rows, hints);
    for (int q = 0; q < rows; ++q) {
      matrix.Observe(q, 0, backend->TrueLatency(q, 0));
    }
    MakePredictors(shards, seed);
    options.num_shards = shards;
    options.online.epsilon = 0.25;
    options.online.min_predicted_ratio = 0.05;
    options.online.regret_budget_seconds = 50.0;
    options.online.refresh_every = 8;
    options.online.publish_every = 4;
    options.online.seed = seed ^ 0x5EEDu;
    tier = std::make_unique<core::ShardedServingTier>(matrix, predictor_ptrs,
                                                      options);
    tier->RefreshAll(/*force=*/true);
    tier->PublishAll();
  }

  // A fresh, independent predictor set with the same configuration (the
  // restore path must not share fitted state with the dead fleet).
  void MakePredictors(int shards, uint64_t seed) {
    predictors.clear();
    predictor_ptrs.clear();
    for (int i = 0; i < shards; ++i) {
      core::AlsOptions als;
      als.rank = 2;
      als.iterations = 10;
      als.seed = seed ^ 0xA15u;
      predictors.push_back(std::make_unique<core::CompleterPredictor>(
          std::make_unique<core::AlsCompleter>(als)));
      predictor_ptrs.push_back(predictors.back().get());
    }
  }

  // Serves [begin, end) of the global schedule and appends to `trace`
  // (indexed by global seq - base).
  void Serve(core::ShardedServingTier& t, uint64_t begin, uint64_t end,
             int threads, uint64_t base, std::vector<ServingRecord>* trace) {
    t.ServeSchedule(
        begin, end, threads,
        [this](int q, int chosen, uint64_t seq) {
          core::ServedOutcome out;
          out.hint = chosen;
          out.latency = backend->ServeLatency(q, chosen, seq);
          return out;
        },
        [base, trace](uint64_t seq, int q, int hint, double latency) {
          (*trace)[seq - base] = ServingRecord{q, hint, latency};
        });
  }
};

::testing::AssertionResult MatricesIdentical(const core::WorkloadMatrix& a,
                                             const core::WorkloadMatrix& b) {
  if (a.num_queries() != b.num_queries() || a.num_hints() != b.num_hints()) {
    return ::testing::AssertionFailure()
           << "shape " << a.num_queries() << "x" << a.num_hints() << " vs "
           << b.num_queries() << "x" << b.num_hints();
  }
  for (int q = 0; q < a.num_queries(); ++q) {
    for (int j = 0; j < a.num_hints(); ++j) {
      if (a.values()(q, j) != b.values()(q, j) ||
          a.mask()(q, j) != b.mask()(q, j) ||
          a.timeouts()(q, j) != b.timeouts()(q, j) ||
          a.state(q, j) != b.state(q, j)) {
        return ::testing::AssertionFailure()
               << "cell (" << q << "," << j << ") differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// The headline differential: a 1-shard tier's ServeSchedule is the bare
// engine's ServeEpochResolved, bitwise — same matrix, same predictor
// configuration, same serving options, at 1 and 4 serving threads, with
// degraded servings in the mix. Traces, ledgers (fleet and per row),
// exploration counts and the final matrices must all agree.
// ---------------------------------------------------------------------------

TEST(ShardEquivalenceTest, OneShardTierMatchesEngineEpochsBitwise) {
  int explored = 0;
  for (const std::string name :
       {"baseline", "heavy-tail-extreme", "plan-equivalence",
        "online-tight-budget"}) {
    const ScenarioSpec spec = GridWorld(name);
    const SyntheticBackend backend(spec);
    // A partially explored matrix: every default plus a seed-pure third of
    // the other cells, half of those censored at half their latency.
    core::WorkloadMatrix matrix(spec.num_queries, spec.num_hints);
    for (int q = 0; q < spec.num_queries; ++q) {
      matrix.Observe(q, 0, backend.TrueLatency(q, 0));
      for (int j = 1; j < spec.num_hints; ++j) {
        const uint64_t roll = MixSeed(spec.seed, static_cast<uint64_t>(q),
                                      static_cast<uint64_t>(j)) % 6;
        if (roll == 0) matrix.Observe(q, j, backend.TrueLatency(q, j));
        if (roll == 1) {
          matrix.ObserveCensored(q, j, 0.5 * backend.TrueLatency(q, j));
        }
      }
    }
    // Epsilon at least 0.25: at the grid's own epsilons too few servings
    // explore for a refit to change any pick.
    core::OnlineExplorationOptions online;
    online.epsilon = std::max(spec.epsilon, 0.25);
    online.min_predicted_ratio = spec.min_predicted_ratio;
    online.regret_budget_seconds = spec.online_regret_budget_seconds;
    online.seed = MixSeed(spec.seed, 0x534Fu);
    auto make_predictor = [&] {
      core::AlsOptions als;
      als.seed = MixSeed(spec.seed, 0x4F4Eu);
      return std::make_unique<core::CompleterPredictor>(
          std::make_unique<core::AlsCompleter>(als));
    };
    // Every 23rd serving degrades to the default plan.
    const auto resolve = [&](int q, int chosen, uint64_t seq) {
      core::ServedOutcome out;
      out.degraded = seq % 23 == 7 && chosen != 0;
      out.hint = out.degraded ? 0 : chosen;
      out.latency = backend.ServeLatency(q, out.hint, seq);
      return out;
    };
    const uint64_t total = static_cast<uint64_t>(spec.online_servings);
    const uint64_t epoch_len = static_cast<uint64_t>(online.publish_every);

    for (const int threads : {1, 4}) {
      const std::unique_ptr<core::Predictor> engine_pred = make_predictor();
      core::EngineOptions engine_options;
      engine_options.online = online;
      core::ExplorationEngine engine(matrix, engine_pred.get(),
                                     engine_options);
      engine.RefreshPredictions(/*force=*/true);
      engine.Publish();

      const std::unique_ptr<core::Predictor> tier_pred = make_predictor();
      core::ShardedTierOptions tier_options;
      tier_options.num_shards = 1;
      tier_options.online = online;
      core::ShardedServingTier tier(matrix, {tier_pred.get()}, tier_options);
      tier.RefreshAll(/*force=*/true);
      tier.PublishAll();

      std::vector<ServingRecord> engine_trace(total);
      std::vector<ServingRecord> tier_trace(total);
      for (uint64_t epoch = 0; epoch < total; epoch += epoch_len) {
        const uint64_t end = std::min(total, epoch + epoch_len);
        engine.ServeEpochResolved(
            epoch, end, threads, resolve,
            [&](uint64_t seq, int q, int hint, double latency) {
              engine_trace[seq] = ServingRecord{q, hint, latency};
            });
        tier.ServeSchedule(
            epoch, end, threads, resolve,
            [&](uint64_t seq, int q, int hint, double latency) {
              tier_trace[seq] = ServingRecord{q, hint, latency};
            });
      }
      for (uint64_t s = 0; s < total; ++s) {
        ASSERT_TRUE(engine_trace[s] == tier_trace[s])
            << name << " serving " << s << " diverges at " << threads
            << " threads: (" << engine_trace[s].query << ","
            << engine_trace[s].hint << "," << engine_trace[s].latency
            << ") vs (" << tier_trace[s].query << "," << tier_trace[s].hint
            << "," << tier_trace[s].latency << ")";
      }
      EXPECT_EQ(engine.regret_spent(), tier.regret_spent()) << name;
      EXPECT_EQ(engine.explorations(), tier.explorations()) << name;
      explored += tier.explorations();
      const core::ExplorationEngine& shard = tier.shard_engine(0);
      for (int q = 0; q < spec.num_queries; ++q) {
        ASSERT_EQ(tier.LocalRowOf(q), q) << name;
        EXPECT_EQ(engine.row_regret(q), shard.row_regret(q)) << name;
        EXPECT_EQ(engine.row_explorations(q), shard.row_explorations(q))
            << name;
      }
      EXPECT_TRUE(MatricesIdentical(engine.matrix(), tier.MergedMatrix()))
          << name << " at " << threads << " threads";
    }
  }
  // The differential must cover exploratory servings, not only exploits.
  EXPECT_GT(explored, 0);
}

std::string UniqueTierDir(const char* tag) {
  static std::atomic<int> counter{0};
  std::string dir = ::testing::TempDir() + "limeqo_tier_" + tag + "_" +
                    std::to_string(counter.fetch_add(1));
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(TierCheckpointTest, RestoredFleetReplaysBitwiseAtEveryThreadCount) {
  TierFixture fx(/*rows=*/13, /*hints=*/5, /*shards=*/3, /*seed=*/77);
  const uint64_t kill = 64;
  const uint64_t total = 128;
  std::vector<ServingRecord> trace_a(total);
  fx.Serve(*fx.tier, 0, kill, /*threads=*/2, 0, &trace_a);

  const std::string dir = UniqueTierDir("kill_restore");
  const Status saved = fx.tier->SaveCheckpoints(dir);
  ASSERT_TRUE(saved.ok()) << saved.message();

  // The reference fleet lives on.
  fx.Serve(*fx.tier, kill, total, /*threads=*/2, 0, &trace_a);

  for (const int threads : {1, 2, 4}) {
    TierFixture twin(13, 5, 3, 77);  // fresh predictors, same configuration
    StatusOr<std::unique_ptr<core::ShardedServingTier>> restored =
        core::ShardedServingTier::RestoreFromDirectory(
            dir, twin.predictor_ptrs, twin.options);
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    core::ShardedServingTier& b = **restored;
    ASSERT_EQ(b.scheduled_servings(), kill);
    ASSERT_EQ(b.num_shards(), 3);

    std::vector<ServingRecord> trace_b(total - kill);
    fx.Serve(b, kill, total, threads, kill, &trace_b);
    for (uint64_t s = kill; s < total; ++s) {
      ASSERT_TRUE(trace_a[s] == trace_b[s - kill])
          << "serving " << s << " diverges at " << threads << " threads";
    }
    EXPECT_TRUE(MatricesIdentical(fx.tier->MergedMatrix(), b.MergedMatrix()));
    EXPECT_EQ(fx.tier->regret_spent(), b.regret_spent());
    EXPECT_EQ(fx.tier->explorations(), b.explorations());
    // The per-row ledger slices came back through the tier manifest.
    for (int g = 0; g < b.num_queries(); ++g) {
      const auto& ea = fx.tier->shard_engine(fx.tier->ShardOfRow(g));
      const auto& eb = b.shard_engine(b.ShardOfRow(g));
      EXPECT_EQ(ea.row_regret(fx.tier->LocalRowOf(g)),
                eb.row_regret(b.LocalRowOf(g)))
          << "row " << g;
      EXPECT_EQ(ea.row_explorations(fx.tier->LocalRowOf(g)),
                eb.row_explorations(b.LocalRowOf(g)))
          << "row " << g;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(TierCheckpointTest, CorruptManifestIsRejected) {
  TierFixture fx(8, 4, 2, 5);
  std::vector<ServingRecord> trace(32);
  fx.Serve(*fx.tier, 0, 32, 1, 0, &trace);
  const std::string dir = UniqueTierDir("corrupt");
  ASSERT_TRUE(fx.tier->SaveCheckpoints(dir).ok());
  // Flip one byte in the manifest body; the CRC must catch it.
  const std::string path = dir + "/tier.manifest";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    f.seekp(static_cast<std::streamoff>(size) - 2);
    f.put('#');
  }
  TierFixture twin(8, 4, 2, 5);
  StatusOr<std::unique_ptr<core::ShardedServingTier>> restored =
      core::ShardedServingTier::RestoreFromDirectory(dir, twin.predictor_ptrs,
                                                     twin.options);
  EXPECT_FALSE(restored.ok());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Growth and rebalancing smoke: AppendQueries routes new rows by the same
// hash, RebalanceHotShards converges to the advertised bound, and the
// fleet ledgers survive migration exactly.
// ---------------------------------------------------------------------------

TEST(TierGrowthTest, PartitionIsStableAndSeedPure) {
  for (int shards : {1, 2, 4, 7}) {
    for (int row = 0; row < 64; ++row) {
      const int a = core::ShardedServingTier::PartitionShard(0xABCu, row,
                                                             shards);
      const int b = core::ShardedServingTier::PartitionShard(0xABCu, row,
                                                             shards);
      ASSERT_EQ(a, b);
      ASSERT_GE(a, 0);
      ASSERT_LT(a, shards);
    }
  }
  // Different seeds really produce different partitions (not a constant).
  int diffs = 0;
  for (int row = 0; row < 64; ++row) {
    diffs += core::ShardedServingTier::PartitionShard(1, row, 4) !=
             core::ShardedServingTier::PartitionShard(2, row, 4);
  }
  EXPECT_GT(diffs, 0);
}

TEST(TierGrowthTest, AppendRoutesByHashAndServingContinues) {
  TierFixture fx(10, 4, 2, 11, /*backend_rows=*/14);
  std::vector<ServingRecord> trace(40);
  fx.Serve(*fx.tier, 0, 40, 2, 0, &trace);

  const int first = fx.tier->AppendQueries(4);
  EXPECT_EQ(first, 10);
  EXPECT_EQ(fx.tier->num_queries(), 14);
  int mapped = 0;
  for (int g = 10; g < 14; ++g) {
    const int shard = fx.tier->ShardOfRow(g);
    EXPECT_EQ(shard, core::ShardedServingTier::PartitionShard(
                         fx.options.partition_seed, g, 2));
    EXPECT_EQ(fx.tier->GlobalRowOf(shard, fx.tier->LocalRowOf(g)), g);
    ++mapped;
    // Bring the new row up the way the driver does: observe the default
    // hint so the serving plane has a verified cell.
    fx.tier->shard_engine(shard).Observe(fx.tier->LocalRowOf(g), 0,
                                         fx.backend->TrueLatency(g, 0));
  }
  EXPECT_EQ(mapped, 4);
  fx.tier->RefreshAll(true);
  fx.tier->PublishAll();

  std::vector<ServingRecord> more(42);
  fx.Serve(*fx.tier, 40, 82, 2, 40, &more);
  for (const ServingRecord& rec : more) {
    EXPECT_GE(rec.query, 0);
    EXPECT_LT(rec.query, 14);
  }
  // Budget slices re-split proportionally and still sum to the fleet
  // budget.
  double sum = 0.0;
  for (int i = 0; i < 2; ++i) sum += fx.tier->shard_budget(i);
  EXPECT_NEAR(sum, fx.options.online.regret_budget_seconds, 1e-9);
}

TEST(TierGrowthTest, RebalancePreservesLedgersAndConvergesToBound) {
  TierFixture fx(12, 4, 3, 23);
  std::vector<ServingRecord> trace(96);
  fx.Serve(*fx.tier, 0, 96, 2, 0, &trace);

  // Pile every row of shard 1 and 2 onto shard 0 to manufacture a hot
  // shard, then let the rebalancer spread it back out.
  for (int g = 0; g < fx.tier->num_queries(); ++g) {
    if (fx.tier->ShardOfRow(g) != 0) fx.tier->MigrateRow(g, 0);
  }
  ASSERT_EQ(fx.tier->ShardRowCount(0), 12);
  const double regret_before = fx.tier->regret_spent();
  const int explorations_before = fx.tier->explorations();

  const int moved = fx.tier->RebalanceHotShards();
  EXPECT_GT(moved, 0);
  const double bound =
      fx.options.rebalance_factor * (12.0 / 3.0);
  EXPECT_LE(fx.tier->ShardRowCount(0), static_cast<int>(bound) + 1);
  // Migration moves ledger slices; the fleet totals must not drift beyond
  // float re-association noise, and exploration counts are integers.
  EXPECT_NEAR(fx.tier->regret_spent(), regret_before, 1e-9);
  EXPECT_EQ(fx.tier->explorations(), explorations_before);

  // Router maps stay a bijection and serving continues.
  for (int g = 0; g < fx.tier->num_queries(); ++g) {
    const int shard = fx.tier->ShardOfRow(g);
    ASSERT_EQ(fx.tier->GlobalRowOf(shard, fx.tier->LocalRowOf(g)), g);
  }
  std::vector<ServingRecord> more(24);
  fx.Serve(*fx.tier, 96, 120, 2, 96, &more);
  for (const ServingRecord& rec : more) {
    EXPECT_GE(rec.hint, 0);
    EXPECT_LT(rec.hint, 4);
  }
}

}  // namespace
}  // namespace limeqo::scenarios
