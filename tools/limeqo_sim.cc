// limeqo_sim: command-line driver for offline exploration on the simulated
// workloads, with workload-matrix persistence so exploration can be run in
// increments across invocations (the deployment pattern of Fig. 2's offline
// path: explore during idle windows, keep the matrix on disk in between).
//
// Examples:
//   # Explore CEB at 20% scale with LimeQO for half the default time.
//   limeqo_sim --workload=ceb --scale=0.2 --policy=limeqo --budget=0.5 \
//              --save=ceb_matrix.txt
//   # Continue where the previous run left off.
//   limeqo_sim --workload=ceb --scale=0.2 --policy=limeqo --budget=0.5 \
//              --load=ceb_matrix.txt --save=ceb_matrix.txt

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/als.h"
#include "core/engine.h"
#include "core/explorer.h"
#include "core/serialization.h"
#include "core/shard_router.h"
#include "core/simdb_backend.h"
#include "scenarios/faulty_backend.h"
#include "workloads/workloads.h"

namespace limeqo {
namespace {

struct Args {
  std::string workload = "job";
  double scale = 1.0;
  std::string policy = "limeqo";
  double budget = 1.0;  // multiples of the default workload time
  uint64_t seed = 42;
  std::string load;
  std::string save;
  bool list = false;
  /// Online servings pushed through the serving plane after exploration
  /// (0 skips the serving phase).
  int serve = 0;
  /// Serving threads for the serving phase (deterministic schedule: the
  /// merged trace is identical at any thread count).
  int serve_threads = 1;
  /// Shard the serving phase across N engines behind the deterministic
  /// router (0 = bare engine). At 1 shard the tier serves the bare
  /// engine's trace bitwise; with --checkpoint-dir each epoch writes
  /// per-shard checkpoints plus a tier manifest, and --restore=DIR
  /// reassembles the fleet from them.
  int shards = 0;
  /// Drive the sharded tier's epoch barriers through the shared
  /// TrainExecutor (one prioritized worker pool for the whole fleet)
  /// instead of the serial per-shard loop. Requires --shards >= 1; the
  /// merged trace is bitwise unchanged.
  bool shared_train = false;
  /// Directory for crash-consistent engine checkpoints: one is written
  /// after exploration and after every serving epoch (atomic temp + fsync
  /// + rename, so a kill at any instant leaves a loadable file).
  std::string checkpoint_dir;
  /// Warm-restart from an engine checkpoint written by --checkpoint-dir.
  /// An unusable checkpoint (truncated, corrupted, wrong shape) is
  /// reported and the run falls back to a cold start.
  std::string restore;
  /// Fault world for the serving phase (see FaultWorlds(): none, flaky,
  /// spiky, storms, chaos). Failed servings retry up to --max-retries
  /// times, then degrade to the default hint (non-exploratory, zero
  /// regret).
  std::string faults;
  /// Retries before a faulted serving degrades to the default hint.
  int max_retries = 3;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: limeqo_sim [--workload=job|ceb|stack|dsb|stack2017]\n"
      "                  [--scale=F] [--seed=N]\n"
      "                  [--policy=limeqo|limeqo+|greedy|random|qo-advisor|"
      "bao-cache|tcnn]\n"
      "                  [--budget=F]   exploration budget, x default time\n"
      "                  [--load=PATH]  resume from a saved matrix\n"
      "                  [--save=PATH]  save the matrix afterwards\n"
      "                  [--serve=N]    online servings after exploring\n"
      "                  [--serve-threads=T]  serving threads (default 1)\n"
      "                  [--shared-train]  one shared train-plane executor\n"
      "                                 for the fleet (requires --shards)\n"
      "                  [--shards=N]   shard serving across N engines behind\n"
      "                                 the deterministic router (default 0 =\n"
      "                                 bare engine)\n"
      "                  [--checkpoint-dir=DIR]  write crash-consistent\n"
      "                                 engine checkpoints to DIR/engine.ckpt\n"
      "                                 (with --shards: DIR/shard-<i>.ckpt per\n"
      "                                 shard plus DIR/tier.manifest)\n"
      "                  [--restore=PATH]  warm-restart from a checkpoint\n"
      "                                 (with --shards: PATH is the checkpoint\n"
      "                                 directory; the tier manifest is\n"
      "                                 authoritative for the shard count)\n"
      "                                 (falls back to cold start if unusable)\n"
      "                  [--faults=W]   serving fault world: none|flaky|\n"
      "                                 spiky|storms|chaos\n"
      "                  [--max-retries=N]  serving retries before degrading\n"
      "                                 to the default hint (default 3)\n"
      "                  [--list]      list workloads and exit\n");
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--scale=")) {
      args->scale = std::atof(v);
    } else if (const char* v = value("--policy=")) {
      args->policy = v;
    } else if (const char* v = value("--budget=")) {
      args->budget = std::atof(v);
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--load=")) {
      args->load = v;
    } else if (const char* v = value("--save=")) {
      args->save = v;
    } else if (const char* v = value("--serve=")) {
      args->serve = std::atoi(v);
    } else if (const char* v = value("--serve-threads=")) {
      args->serve_threads = std::atoi(v);
    } else if (const char* v = value("--shards=")) {
      args->shards = std::atoi(v);
    } else if (const char* v = value("--checkpoint-dir=")) {
      args->checkpoint_dir = v;
    } else if (const char* v = value("--restore=")) {
      args->restore = v;
    } else if (const char* v = value("--faults=")) {
      args->faults = v;
    } else if (const char* v = value("--max-retries=")) {
      args->max_retries = std::atoi(v);
    } else if (arg == "--shared-train") {
      args->shared_train = true;
    } else if (arg == "--list") {
      args->list = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

StatusOr<workloads::WorkloadId> ParseWorkload(const std::string& name) {
  if (name == "job") return workloads::WorkloadId::kJob;
  if (name == "ceb") return workloads::WorkloadId::kCeb;
  if (name == "stack") return workloads::WorkloadId::kStack;
  if (name == "dsb") return workloads::WorkloadId::kDsb;
  if (name == "stack2017") return workloads::WorkloadId::kStack2017;
  return Status::InvalidArgument("unknown workload: " + name);
}

StatusOr<bench::Technique> ParseTechnique(const std::string& name) {
  if (name == "limeqo") return bench::Technique::kLimeQo;
  if (name == "limeqo+") return bench::Technique::kLimeQoPlus;
  if (name == "greedy") return bench::Technique::kGreedy;
  if (name == "random") return bench::Technique::kRandom;
  if (name == "qo-advisor") return bench::Technique::kQoAdvisor;
  if (name == "bao-cache") return bench::Technique::kBaoCache;
  if (name == "tcnn") return bench::Technique::kTcnn;
  return Status::InvalidArgument("unknown policy: " + name);
}

int Run(const Args& args) {
  if (args.list) {
    for (const workloads::WorkloadSpec& spec : workloads::AllWorkloadSpecs()) {
      std::printf("%-10s %5d queries  default %8.0f s  optimal %8.0f s\n",
                  spec.name.c_str(), spec.num_queries,
                  spec.default_total_seconds, spec.optimal_total_seconds);
    }
    return 0;
  }

  StatusOr<workloads::WorkloadId> id = ParseWorkload(args.workload);
  if (!id.ok()) {
    std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
    return 2;
  }
  StatusOr<bench::Technique> technique = ParseTechnique(args.policy);
  if (!technique.ok()) {
    std::fprintf(stderr, "%s\n", technique.status().ToString().c_str());
    return 2;
  }
  StatusOr<simdb::SimulatedDatabase> db =
      workloads::MakeWorkload(*id, args.scale, args.seed);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 2;
  }

  core::SimDbBackend backend(&*db);
  std::unique_ptr<core::ExplorationPolicy> policy =
      bench::MakePolicy(*technique, &backend);
  core::OfflineExplorer explorer(&backend, policy.get(),
                                 core::ExplorerOptions{});

  scenarios::FaultSpec fault_spec;
  if (!args.faults.empty()) {
    StatusOr<scenarios::FaultSpec> world =
        scenarios::FaultWorldByName(args.faults);
    if (!world.ok()) {
      std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
      return 2;
    }
    fault_spec = *world;
  }
  if (!args.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.checkpoint_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create checkpoint dir %s: %s\n",
                   args.checkpoint_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  const std::string checkpoint_path =
      args.checkpoint_dir.empty() || args.shards >= 1
          ? std::string()
          : args.checkpoint_dir + "/engine.ckpt";

  // A sharded --restore names the checkpoint *directory* and reassembles
  // the fleet in the serving phase below; the bare path restores the
  // single engine checkpoint here.
  if (!args.restore.empty() && args.shards <= 0) {
    StatusOr<core::EngineCheckpoint> ckpt =
        core::LoadEngineCheckpointFromFile(args.restore);
    if (!ckpt.ok()) {
      // The documented recovery: any unusable checkpoint means cold start.
      std::fprintf(stderr,
                   "checkpoint unusable (%s); starting cold instead\n",
                   ckpt.status().ToString().c_str());
    } else if (ckpt->matrix.num_queries() != db->num_queries() ||
               ckpt->matrix.num_hints() != db->num_hints()) {
      std::fprintf(stderr,
                   "checkpoint shape %dx%d does not match workload %dx%d "
                   "(same --workload/--scale/--seed?); starting cold\n",
                   ckpt->matrix.num_queries(), ckpt->matrix.num_hints(),
                   db->num_queries(), db->num_hints());
    } else {
      std::printf(
          "warm restart from %s: %d complete / %d censored cells, serving "
          "seq %llu, regret spent %.2f s\n",
          args.restore.c_str(), ckpt->matrix.NumComplete(),
          ckpt->matrix.NumCensored(),
          static_cast<unsigned long long>(ckpt->serving_seq),
          ckpt->regret_spent);
      explorer.engine().RestoreFromCheckpoint(std::move(*ckpt));
    }
  }

  if (!args.load.empty()) {
    StatusOr<core::WorkloadMatrix> loaded =
        core::LoadWorkloadMatrixFromFile(args.load);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    if (loaded->num_queries() != db->num_queries() ||
        loaded->num_hints() != db->num_hints()) {
      std::fprintf(stderr,
                   "loaded matrix shape %dx%d does not match workload "
                   "%dx%d (same --workload/--scale/--seed?)\n",
                   loaded->num_queries(), loaded->num_hints(),
                   db->num_queries(), db->num_hints());
      return 2;
    }
    explorer.LoadMatrix(*loaded);
    std::printf("resumed: %d complete / %d censored cells\n",
                loaded->NumComplete(), loaded->NumCensored());
  }

  const double before = explorer.WorkloadLatency();
  explorer.Explore(args.budget * db->DefaultTotal());
  if (!checkpoint_path.empty()) {
    Status st = core::SaveEngineCheckpointToFile(
        explorer.engine().MakeCheckpoint(), checkpoint_path);
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  std::printf(
      "%s on %s (n=%d): %.0f s -> %.0f s of %.0f s default (optimal %.0f "
      "s)\n"
      "offline time spent: %.0f s, model overhead: %.2f s\n",
      policy->name().c_str(), args.workload.c_str(), db->num_queries(),
      before, explorer.WorkloadLatency(), db->DefaultTotal(),
      db->OptimalTotal(), explorer.offline_seconds(),
      explorer.overhead_seconds());

  // ---- Online serving phase (the engine's concurrent serving plane) ----
  if (args.serve > 0) {
    const int threads = std::max(1, args.serve_threads);
    core::AlsOptions als;
    als.convergence_tol = 1e-3;  // warm-started refreshes stop early
    core::OnlineExplorationOptions online;
    online.epsilon = 0.1;
    online.min_predicted_ratio = 0.05;
    online.regret_budget_seconds = 0.02 * db->DefaultTotal();
    online.seed = args.seed;
    std::vector<std::unique_ptr<core::Predictor>> predictors;
    std::vector<core::Predictor*> predictor_ptrs;
    auto make_predictors = [&](int count) {
      predictors.clear();
      predictor_ptrs.clear();
      for (int i = 0; i < count; ++i) {
        predictors.push_back(std::make_unique<core::CompleterPredictor>(
            std::make_unique<core::AlsCompleter>(als)));
        predictor_ptrs.push_back(predictors.back().get());
      }
    };

    // Sharded serving tier: N engines behind the deterministic router.
    // Decisions stay keyed by global serving index, so at --shards=1 the
    // tier serves the bare engine's trace bitwise. Without --shards the
    // explorer's own engine serves.
    std::unique_ptr<core::ShardedServingTier> tier;
    core::ExplorationEngine& engine = explorer.engine();
    if (args.shards >= 1) {
      core::ShardedTierOptions tier_options;
      tier_options.num_shards = args.shards;
      tier_options.online = online;
      tier_options.shared_train_plane = args.shared_train;
      tier_options.executor.workers = threads;
      make_predictors(args.shards);
      if (!args.restore.empty()) {
        // The tier manifest is authoritative for the shard count and the
        // row->shard assignment; --shards only shapes a cold start.
        StatusOr<std::unique_ptr<core::ShardedServingTier>> restored =
            core::ShardedServingTier::RestoreFromDirectory(
                args.restore, predictor_ptrs, tier_options);
        if (restored.ok()) {
          tier = std::move(*restored);
          std::printf(
              "fleet restart from %s: %d shards, %d rows, serving seq %llu, "
              "regret spent %.2f s\n",
              args.restore.c_str(), tier->num_shards(), tier->num_queries(),
              static_cast<unsigned long long>(tier->scheduled_servings()),
              tier->regret_spent());
        } else {
          std::fprintf(stderr,
                       "tier checkpoints unusable (%s); starting cold\n",
                       restored.status().ToString().c_str());
        }
      }
      if (tier == nullptr) {
        make_predictors(args.shards);  // untouched by a failed restore
        tier = std::make_unique<core::ShardedServingTier>(
            explorer.matrix(), predictor_ptrs, tier_options);
      }
      tier->RefreshAll(/*force=*/true);
      tier->PublishAll();
    } else {
      make_predictors(1);
      engine.SetPredictor(predictor_ptrs[0]);
      engine.ConfigureServing(online);
      engine.RefreshPredictions(/*force=*/true);
      engine.Publish();
    }

    const double before_serving = explorer.WorkloadLatency();
    const auto t0 = std::chrono::steady_clock::now();
    const int epoch_len = online.refresh_every;
    // A warm restart resumes the serving sequence where the checkpoint
    // left off; a fresh engine or fleet starts at 0.
    const uint64_t base =
        tier ? tier->scheduled_servings() : engine.drained_servings();
    // Serving faults retry up to max_retries attempts, then degrade to the
    // default hint — reported non-exploratory with zero regret, so fault
    // cost never touches the exploration ledger. The counters are atomics
    // because the resolver runs on the serving threads.
    std::atomic<long> serve_failures{0};
    std::atomic<long> serve_fallbacks{0};
    const auto resolve = [&](int q, int chosen,
                             uint64_t seq) -> core::ServedOutcome {
      core::ServedOutcome out;
      out.hint = chosen;
      for (int attempt = 0;; ++attempt) {
        if (!scenarios::FaultyBackend::AttemptFails(fault_spec, q, out.hint,
                                                    seq, attempt)) {
          break;
        }
        serve_failures.fetch_add(1, std::memory_order_relaxed);
        if (attempt >= args.max_retries) {
          out.hint = 0;  // graceful degradation: serve the default plan
          out.degraded = true;
          serve_fallbacks.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      // The online path always runs to completion; the simulated latency
      // is the database's ground truth.
      out.latency = db->TrueLatency(q, out.hint);
      return out;
    };
    for (uint64_t epoch = base; epoch < base + args.serve;
         epoch += epoch_len) {
      const uint64_t end =
          std::min<uint64_t>(base + args.serve, epoch + epoch_len);
      // Epoch boundaries are op boundaries: the drained matrices, the
      // ledgers, and the published snapshots agree, so each checkpoint is
      // warm-restartable bitwise (tests/engine_checkpoint_test.cc), and a
      // fleet's shard checkpoints plus tier manifest reassemble through
      // RestoreFromDirectory (tests/shard_router_test.cc).
      Status st;
      if (tier != nullptr) {
        tier->ServeSchedule(epoch, end, threads, resolve);
        if (!args.checkpoint_dir.empty()) {
          st = tier->SaveCheckpoints(args.checkpoint_dir);
        }
      } else {
        engine.ServeEpochResolved(epoch, end, threads, resolve);
        if (!checkpoint_path.empty()) {
          st = core::SaveEngineCheckpointToFile(engine.MakeCheckpoint(),
                                                checkpoint_path);
        }
      }
      if (!st.ok()) {
        std::fprintf(stderr, "%scheckpoint failed: %s\n",
                     tier != nullptr ? "tier " : "", st.ToString().c_str());
        return 2;
      }
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (tier != nullptr) {
      // Fold the merged reassembly back into the explorer so the final
      // latency report and --save reflect what the fleet observed.
      explorer.LoadMatrix(tier->MergedMatrix());
      std::printf("served %d queries across %d shard(s)", args.serve,
                  tier->num_shards());
    } else {
      std::printf("served %d queries", args.serve);
    }
    std::printf(
        " on %d thread(s) in %.3f s (%.0f servings/s)\n"
        "  workload latency %.0f s -> %.0f s, explorations: %d, regret "
        "spent: %.2f / %.2f s\n",
        threads, wall, args.serve / std::max(wall, 1e-9), before_serving,
        explorer.WorkloadLatency(),
        tier ? tier->explorations() : engine.explorations(),
        tier ? tier->regret_spent() : engine.regret_spent(),
        online.regret_budget_seconds);
    if (fault_spec.any()) {
      std::printf(
          "  fault world '%s': %ld failed serving attempts, %ld degraded "
          "to the default hint\n",
          fault_spec.name.c_str(), serve_failures.load(),
          serve_fallbacks.load());
    }
    // The predictor is block-scoped; detach it before it goes away.
    if (tier == nullptr) engine.SetPredictor(nullptr);
  }

  if (!args.save.empty()) {
    Status st = core::SaveWorkloadMatrixToFile(explorer.matrix(), args.save);
    if (!st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("matrix saved to %s\n", args.save.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace limeqo

int main(int argc, char** argv) {
  limeqo::Args args;
  if (!limeqo::Parse(argc, argv, &args)) {
    limeqo::Usage();
    return 2;
  }
  return limeqo::Run(args);
}
