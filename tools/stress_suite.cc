// Adversarial contention/skew stress suite (PR8).
//
// One parameterized binary driving five scenarios that are deliberately
// hostile to the engine's weak spots, each against a fresh database over the
// simulated NVMM device:
//
//   zipf_sweep     hot-key skew: single-key RMWs with zipfian key choice,
//                  swept over theta in {0.50, 0.90, 0.99, 1.20}. Rising theta
//                  concentrates version-array growth on ever-fewer rows.
//   rmw_storm      every transaction is a read-modify-write on one of 8 rows:
//                  the worst case for per-row version arrays and minor GC.
//   aria_deferral  Aria concurrency control with 64 conflicting RMWs per
//                  epoch over 16 rows: most of each batch is deterministically
//                  deferred, building a multi-epoch deferral chain that the
//                  suite then drains to empty.
//   cold_thrash    working set larger than the DRAM cache (256 entries over
//                  2048 pool-backed rows, cache_k = 1) with the cold tier
//                  enabled: every epoch demotes cold rows and promotes them
//                  right back.
//   range_mix      ordered table under a scan/write/insert/delete mix; the
//                  identical stream is replayed with a caller barrier
//                  (WaitIdle after every epoch) and at another worker count
//                  (4 when the suite runs 1 worker, else 1), and all three
//                  final states must hash equal (scan digests
//                  are committed state, so a scan divergence anywhere shows
//                  up in the hash).
//
// Every scenario derives its workload RNG from seed ^ FNV(scenario name) —
// never from the shared base seed directly, so reordering scenarios or
// running one in isolation (--scenario=NAME) cannot change its stream — and
// runs twice with that same seed; the two runs must produce identical oracle
// StateHash values or the suite fails. Per-scenario throughput, abort and
// deferral rates, and per-phase profiler attribution (wall/busy ms and NVM
// bytes per epoch phase) land in BENCH_PR8.json.
//
// Usage: stress_suite [--out=PATH] [--scale=F] [--workers=N] [--seed=N]
//                     [--scenario=NAME]
//   --scale (or NVC_BENCH_SCALE) multiplies epochs per scenario; 0.2 is the
//   CI smoke setting. Absolute throughput depends on the host; the JSON is
//   for shape and rate comparisons, and `healthy` asserts only determinism
//   and cross-engine agreement.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/profiler.h"
#include "src/common/rng.h"
#include "src/core/database.h"
#include "src/core/oracle.h"
#include "src/sim/nvm_device.h"
#include "tests/test_util.h"

namespace {

using nvc::Key;
using nvc::ProfileReport;
using nvc::Rng;
using nvc::SplitMix64;
using nvc::ZipfGenerator;
using nvc::core::Database;
using nvc::core::DatabaseSpec;
using nvc::core::EpochResult;
using nvc::sim::NvmConfig;
using nvc::sim::NvmDevice;
using nvc::txn::Transaction;

std::uint64_t FnvHash(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

using EpochFn =
    std::function<std::vector<std::unique_ptr<Transaction>>(Rng&, std::size_t)>;

struct Scenario {
  std::string name;
  std::string detail;
  DatabaseSpec spec;
  bool cold = false;
  std::size_t load_rows = 0;         // BulkLoad keys [0, load_rows)
  std::uint32_t load_value_bytes = 8;
  std::size_t epochs = 0;
  std::size_t txns_per_epoch = 0;
  bool drain_deferrals = false;  // run empty epochs until the backlog is gone
  EpochFn make_epoch;
};

struct RunOutcome {
  double seconds = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t deferred = 0;
  std::size_t drain_epochs = 0;
  std::size_t max_deferred_per_epoch = 0;
  std::uint64_t state_hash = 0;
  ProfileReport profile;
};

struct ScenarioResult {
  std::string name;
  std::string detail;
  double txns_per_sec = 0;
  RunOutcome run;
  bool deterministic = false;  // double-run StateHash equality
  bool engines_agree = true;   // range_mix only; trivially true elsewhere
  std::vector<std::pair<std::string, double>> extras;
};

void LoadRows(Database& db, std::size_t rows, std::uint32_t value_bytes) {
  std::vector<std::uint8_t> value(value_bytes);
  for (std::size_t key = 0; key < rows; ++key) {
    if (value_bytes == 8) {
      const std::uint64_t v = 5000 + key;
      std::memcpy(value.data(), &v, 8);
    } else {
      for (std::uint32_t i = 0; i < value_bytes; ++i) {
        value[i] = static_cast<std::uint8_t>(key * 7 + i);
      }
    }
    db.BulkLoad(0, key, value.data(), value_bytes);
  }
  db.FinalizeLoad();
}

NvmConfig HotDeviceConfig(const DatabaseSpec& spec) {
  NvmConfig config;
  config.size_bytes = Database::RequiredDeviceBytes(spec);
  return config;
}

NvmConfig ColdDeviceConfig(const DatabaseSpec& spec) {
  NvmConfig config;
  config.size_bytes = Database::RequiredColdDeviceBytes(spec);
  config.access_granule = 4096;
  return config;
}

// One full scenario execution on a fresh database. The workload RNG is
// seeded from `seed` alone, so two calls with the same seed replay the same
// stream transaction for transaction. A `barrier` run waits for every
// epoch's persistence tail before submitting the next epoch.
RunOutcome RunOnce(const Scenario& scenario, const DatabaseSpec& spec, std::uint64_t seed,
                   bool barrier = false) {
  NvmDevice device(HotDeviceConfig(spec));
  std::unique_ptr<NvmDevice> cold;
  if (scenario.cold) {
    cold = std::make_unique<NvmDevice>(ColdDeviceConfig(spec));
  }
  Database db(device, spec, cold.get());
  db.Format();
  LoadRows(db, scenario.load_rows, scenario.load_value_bytes);

  nvc::ProfilerConfig profiler_config;
  profiler_config.enabled = true;
  db.ConfigureProfiler(profiler_config);

  Rng rng(seed);
  RunOutcome outcome;
  for (std::size_t e = 0; e < scenario.epochs; ++e) {
    const EpochResult r = db.ExecuteEpoch(scenario.make_epoch(rng, e));
    if (barrier && !db.WaitIdle().ok()) {
      std::fprintf(stderr, "stress_suite: WaitIdle failed in %s\n", scenario.name.c_str());
      std::exit(1);
    }
    outcome.seconds += r.seconds;
    outcome.committed += r.committed;
    outcome.aborted += r.aborted;
    outcome.deferred += r.deferred;
    outcome.max_deferred_per_epoch = std::max(outcome.max_deferred_per_epoch, r.deferred);
  }
  if (scenario.drain_deferrals) {
    // The Aria backlog re-runs at the front of each next batch; empty epochs
    // let the chain collapse (each drain epoch commits the min-SID writers).
    for (std::size_t guard = 0; guard < 200; ++guard) {
      const EpochResult r = db.ExecuteEpoch({});
      outcome.seconds += r.seconds;
      outcome.committed += r.committed;
      outcome.aborted += r.aborted;
      ++outcome.drain_epochs;
      if (r.deferred == 0) {
        break;
      }
      outcome.deferred += r.deferred;
    }
  }
  if (!db.WaitIdle().ok()) {
    std::fprintf(stderr, "stress_suite: WaitIdle failed in %s\n", scenario.name.c_str());
    std::exit(1);
  }
  outcome.state_hash = nvc::core::StateHash(nvc::core::CaptureState(db));
  outcome.profile = db.ProfileReport();

  // The ordered index must stay consistent with the hash index under any mix.
  std::string ordered_diff;
  if (nvc::core::ValidateOrderedIndex(db, &ordered_diff) != 0) {
    std::fprintf(stderr, "stress_suite: ordered index inconsistent in %s:\n%s",
                 scenario.name.c_str(), ordered_diff.c_str());
    std::exit(1);
  }
  return outcome;
}

// Runs the scenario twice with the same per-scenario seed and asserts the
// committed states hash identical — the determinism contract every recovery
// and equivalence argument in this engine rests on.
ScenarioResult RunScenario(const Scenario& scenario, std::uint64_t base_seed) {
  const std::uint64_t seed = base_seed ^ FnvHash(scenario.name);
  ScenarioResult result;
  result.name = scenario.name;
  result.detail = scenario.detail;
  result.run = RunOnce(scenario, scenario.spec, seed);
  const RunOutcome second = RunOnce(scenario, scenario.spec, seed);
  result.deterministic = result.run.state_hash == second.state_hash;
  const double txns =
      static_cast<double>(scenario.epochs * scenario.txns_per_epoch);
  result.txns_per_sec = result.run.seconds > 0 ? txns / result.run.seconds : 0;
  return result;
}

// ---- Scenario definitions ---------------------------------------------------

DatabaseSpec BaseSpec(std::size_t workers, std::size_t rows, bool ordered = false) {
  DatabaseSpec spec = nvc::test::SmallKvSpec(workers, ordered);
  spec.tables[0].capacity_rows = rows + 512;
  spec.tables[0].freelist_capacity = rows + 512;
  spec.value_blocks_per_core = 2 * rows + 2048;
  spec.value_freelist_capacity = 2 * (2 * rows + 2048);
  spec.log_bytes = 8u << 20;
  return spec;
}

Scenario MakeRmwStorm(std::size_t workers, std::size_t epochs) {
  Scenario s;
  s.name = "rmw_storm";
  s.detail = "all transactions RMW one of 8 rows (version-array worst case)";
  s.spec = BaseSpec(workers, 64);
  s.load_rows = 64;
  s.epochs = epochs;
  s.txns_per_epoch = 256;
  s.make_epoch = [](Rng& rng, std::size_t) {
    std::vector<std::unique_ptr<Transaction>> txns;
    txns.reserve(256);
    for (std::size_t i = 0; i < 256; ++i) {
      txns.push_back(
          std::make_unique<nvc::test::KvRmwTxn>(rng.NextBounded(8), rng.NextBounded(1000)));
    }
    return txns;
  };
  return s;
}

Scenario MakeAriaDeferral(std::size_t workers, std::size_t epochs) {
  Scenario s;
  s.name = "aria_deferral";
  s.detail = "Aria: 64 conflicting RMWs/epoch over 16 rows; backlog drained at end";
  s.spec = BaseSpec(workers, 64);
  s.spec.concurrency = nvc::core::ConcurrencyControl::kAria;
  s.load_rows = 64;
  s.epochs = epochs;
  s.txns_per_epoch = 64;
  s.drain_deferrals = true;
  s.make_epoch = [](Rng& rng, std::size_t) {
    std::vector<std::unique_ptr<Transaction>> txns;
    txns.reserve(64);
    for (std::size_t i = 0; i < 64; ++i) {
      txns.push_back(
          std::make_unique<nvc::test::KvRmwTxn>(rng.NextBounded(16), rng.NextBounded(1000)));
    }
    return txns;
  };
  return s;
}

Scenario MakeColdThrash(std::size_t workers, std::size_t epochs) {
  Scenario s;
  s.name = "cold_thrash";
  s.detail = "2048 pool-backed rows vs a 256-entry cache, cold tier on (thrash)";
  s.spec = BaseSpec(workers, 2048);
  s.spec.enable_cold_tier = true;
  s.spec.cache_max_entries = 256;
  s.spec.cache_k = 1;
  s.spec.cold_block_size = 1024;
  s.spec.cold_blocks_per_core = 2 * 2048 + 2048;
  s.spec.cold_freelist_capacity = 2 * (2 * 2048 + 2048);
  s.cold = true;
  s.load_rows = 2048;
  s.load_value_bytes = nvc::test::kBigValueSize;  // pool-allocated, demotable
  s.epochs = epochs;
  s.txns_per_epoch = 256;
  s.make_epoch = [](Rng& rng, std::size_t) {
    std::vector<std::unique_ptr<Transaction>> txns;
    txns.reserve(256);
    for (std::size_t i = 0; i < 256; ++i) {
      const Key key = rng.NextBounded(2048);
      if (rng.NextPercent(30)) {
        txns.push_back(std::make_unique<nvc::test::KvBigPutTxn>(key, rng.Next()));
      } else {
        txns.push_back(std::make_unique<nvc::test::KvRmwTxn>(key, rng.NextBounded(1000)));
      }
    }
    return txns;
  };
  return s;
}

Scenario MakeRangeMix(std::size_t workers, std::size_t epochs) {
  Scenario s;
  s.name = "range_mix";
  s.detail = "ordered table: 45% put / 25% scan-digest / 20% insert-delete / 10% rmw";
  s.spec = BaseSpec(workers, 4096, /*ordered=*/true);
  s.load_rows = 2048;  // keys [2048, 2560) churn via insert/delete
  s.epochs = epochs;
  s.txns_per_epoch = 256;
  // dyn_live must be captured per run, not per scenario: a shared_ptr inside
  // the closure would leak one run's churn state into the next and break the
  // double-run determinism assert. Keying it off epoch 0 resets it.
  auto dyn_live = std::make_shared<std::set<Key>>();
  s.make_epoch = [dyn_live](Rng& rng, std::size_t epoch) {
    if (epoch == 0) {
      dyn_live->clear();
    }
    std::set<Key> dyn_touched;
    std::vector<std::unique_ptr<Transaction>> txns;
    txns.reserve(256);
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint64_t pick = rng.NextBounded(100);
      if (pick < 45) {
        txns.push_back(
            std::make_unique<nvc::test::KvPutTxn>(rng.NextBounded(2048), rng.Next()));
      } else if (pick < 70) {
        const Key lo = rng.NextBounded(2560);
        const Key hi = lo + 1 + rng.NextBounded(64);
        const auto limit = static_cast<std::uint32_t>(1 + rng.NextBounded(32));
        const Key out_key = rng.NextBounded(2048);
        txns.push_back(std::make_unique<nvc::test::KvScanSumTxn>(lo, hi, limit, out_key));
      } else if (pick < 90) {
        const Key key = 2048 + rng.NextBounded(512);
        if (!dyn_touched.insert(key).second) {
          txns.push_back(
              std::make_unique<nvc::test::KvPutTxn>(rng.NextBounded(2048), rng.Next()));
        } else if (dyn_live->count(key) != 0) {
          dyn_live->erase(key);
          txns.push_back(std::make_unique<nvc::test::KvDeleteTxn>(key));
        } else {
          dyn_live->insert(key);
          txns.push_back(std::make_unique<nvc::test::KvInsertTxn>(key, rng.Next()));
        }
      } else {
        txns.push_back(std::make_unique<nvc::test::KvRmwTxn>(rng.NextBounded(2048),
                                                             rng.NextBounded(1000)));
      }
    }
    return txns;
  };
  return s;
}

// zipf_sweep runs one sub-run per theta on a fresh database and reports the
// per-theta throughput; the scenario hash folds all four final states.
ScenarioResult RunZipfSweep(std::size_t workers, std::size_t epochs,
                            std::uint64_t base_seed) {
  constexpr double kThetas[] = {0.50, 0.90, 0.99, 1.20};
  constexpr std::size_t kRows = 4096;
  constexpr std::size_t kTxns = 256;

  ScenarioResult result;
  result.name = "zipf_sweep";
  result.detail = "single-key RMWs, zipfian keys over 4096 rows, theta sweep";
  const std::uint64_t seed = base_seed ^ FnvHash(result.name);

  Scenario s;
  s.name = result.name;
  s.spec = BaseSpec(workers, kRows);
  s.load_rows = kRows;
  s.epochs = epochs;
  s.txns_per_epoch = kTxns;

  result.deterministic = true;
  std::uint64_t combined = 0;
  double total_seconds = 0;
  for (const double theta : kThetas) {
    // The generator is rebuilt per run from (rows, theta): its draws consume
    // the run RNG, so determinism follows from the seed alone.
    auto zipf = std::make_shared<ZipfGenerator>(kRows, theta, /*scatter=*/true);
    s.make_epoch = [zipf](Rng& rng, std::size_t) {
      std::vector<std::unique_ptr<Transaction>> txns;
      txns.reserve(kTxns);
      for (std::size_t i = 0; i < kTxns; ++i) {
        txns.push_back(
            std::make_unique<nvc::test::KvRmwTxn>(zipf->Next(rng), rng.NextBounded(1000)));
      }
      return txns;
    };
    const std::uint64_t theta_seed = seed ^ SplitMix64(static_cast<std::uint64_t>(theta * 100));
    const RunOutcome first = RunOnce(s, s.spec, theta_seed);
    const RunOutcome second = RunOnce(s, s.spec, theta_seed);
    result.deterministic = result.deterministic && first.state_hash == second.state_hash;
    combined ^= SplitMix64(first.state_hash);
    total_seconds += first.seconds;
    result.run.committed += first.committed;
    result.run.aborted += first.aborted;
    result.run.seconds += first.seconds;
    result.run.profile = first.profile;  // last theta's attribution
    char label[64];
    std::snprintf(label, sizeof(label), "theta_%.2f_txns_per_sec", theta);
    result.extras.emplace_back(
        label, first.seconds > 0
                   ? static_cast<double>(epochs * kTxns) / first.seconds
                   : 0);
  }
  result.run.state_hash = combined;
  result.txns_per_sec =
      total_seconds > 0
          ? static_cast<double>(std::size(kThetas) * epochs * kTxns) / total_seconds
          : 0;
  return result;
}

// range_mix additionally replays the identical stream with a caller barrier
// after every epoch and at another worker count (4 when the scenario runs 1
// worker, else the serial 1-worker engine): all three final state hashes
// must agree, which proves RangeScan/Scan results (committed via scan
// digests) are invariant under tail timing and worker fan-out.
ScenarioResult RunRangeMix(std::size_t workers, std::size_t epochs,
                           std::uint64_t base_seed) {
  Scenario scenario = MakeRangeMix(workers, epochs);
  ScenarioResult result = RunScenario(scenario, base_seed);
  const std::uint64_t seed = base_seed ^ FnvHash(scenario.name);

  const RunOutcome barrier_run = RunOnce(scenario, scenario.spec, seed, /*barrier=*/true);

  DatabaseSpec fanout = scenario.spec;
  fanout.workers = scenario.spec.workers == 1 ? 4 : 1;
  const RunOutcome fanout_run = RunOnce(scenario, fanout, seed);

  result.engines_agree = result.run.state_hash == barrier_run.state_hash &&
                         result.run.state_hash == fanout_run.state_hash;
  result.extras.emplace_back("barrier_txns_per_sec",
                             barrier_run.seconds > 0
                                 ? static_cast<double>(scenario.epochs * scenario.txns_per_epoch) /
                                       barrier_run.seconds
                                 : 0);
  result.extras.emplace_back("other_workers_txns_per_sec",
                             fanout_run.seconds > 0
                                 ? static_cast<double>(scenario.epochs * scenario.txns_per_epoch) /
                                       fanout_run.seconds
                                 : 0);
  return result;
}

// ---- Reporting --------------------------------------------------------------

void WriteScenarioJson(std::FILE* f, const ScenarioResult& r, bool last) {
  const double total = static_cast<double>(r.run.committed + r.run.aborted + r.run.deferred);
  std::fprintf(f, "    {\n");
  std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
  std::fprintf(f, "      \"detail\": \"%s\",\n", r.detail.c_str());
  std::fprintf(f, "      \"txns_per_sec\": %.1f,\n", r.txns_per_sec);
  std::fprintf(f, "      \"committed\": %zu,\n", r.run.committed);
  std::fprintf(f, "      \"aborted\": %zu,\n", r.run.aborted);
  std::fprintf(f, "      \"deferred\": %zu,\n", r.run.deferred);
  std::fprintf(f, "      \"abort_rate\": %.4f,\n",
               total > 0 ? static_cast<double>(r.run.aborted) / total : 0);
  std::fprintf(f, "      \"deferral_rate\": %.4f,\n",
               total > 0 ? static_cast<double>(r.run.deferred) / total : 0);
  std::fprintf(f, "      \"max_deferred_per_epoch\": %zu,\n", r.run.max_deferred_per_epoch);
  std::fprintf(f, "      \"drain_epochs\": %zu,\n", r.run.drain_epochs);
  std::fprintf(f, "      \"state_hash\": \"0x%016llx\",\n",
               static_cast<unsigned long long>(r.run.state_hash));
  std::fprintf(f, "      \"deterministic\": %s,\n", r.deterministic ? "true" : "false");
  std::fprintf(f, "      \"engines_agree\": %s,\n", r.engines_agree ? "true" : "false");
  for (const auto& [key, value] : r.extras) {
    std::fprintf(f, "      \"%s\": %.1f,\n", key.c_str(), value);
  }
  std::fprintf(f, "      \"phases\": [\n");
  bool first_phase = true;
  for (std::size_t p = 0; p < nvc::kPhaseCount; ++p) {
    const nvc::PhaseAggregate& agg = r.run.profile.phases[p];
    if (agg.activations == 0 && agg.worker_spans == 0) {
      continue;
    }
    std::fprintf(f,
                 "%s        {\"phase\": \"%s\", \"wall_ms\": %.3f, \"busy_ms\": %.3f, "
                 "\"nvm_write_bytes\": %llu, \"nvm_read_bytes\": %llu}",
                 first_phase ? "" : ",\n", nvc::PhaseName(static_cast<nvc::Phase>(p)),
                 agg.wall_ms, agg.busy_ms,
                 static_cast<unsigned long long>(agg.ops.nvm_write_bytes),
                 static_cast<unsigned long long>(agg.ops.nvm_read_bytes));
    first_phase = false;
  }
  std::fprintf(f, "\n      ]\n");
  std::fprintf(f, "    }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_PR8.json";
  double scale = 1.0;
  if (const char* env = std::getenv("NVC_BENCH_SCALE"); env != nullptr && env[0] != '\0') {
    const double parsed = std::atof(env);
    if (parsed > 0) {
      scale = parsed;
    }
  }
  std::size_t workers = 1;
  std::uint64_t base_seed = 42;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      const double parsed = std::atof(arg + 8);
      if (parsed <= 0) {
        std::fprintf(stderr, "--scale requires a positive number\n");
        return 2;
      }
      scale = parsed;
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      const long parsed = std::atol(arg + 10);
      if (parsed <= 0) {
        std::fprintf(stderr, "--workers requires a positive integer\n");
        return 2;
      }
      workers = static_cast<std::size_t>(parsed);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      base_seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--scenario=", 11) == 0) {
      only = arg + 11;
    } else {
      std::fprintf(stderr,
                   "usage: stress_suite [--out=PATH] [--scale=F] [--workers=N] "
                   "[--seed=N] [--scenario=NAME]\n");
      return 2;
    }
  }
  const auto epochs = static_cast<std::size_t>(std::max(1.0, 12.0 * scale));

  std::printf("stress_suite: %zu epochs/scenario, %zu workers, seed %llu\n", epochs, workers,
              static_cast<unsigned long long>(base_seed));

  std::vector<ScenarioResult> results;
  const auto want = [&only](const char* name) { return only.empty() || only == name; };
  if (want("zipf_sweep")) {
    results.push_back(RunZipfSweep(workers, epochs, base_seed));
  }
  if (want("rmw_storm")) {
    results.push_back(RunScenario(MakeRmwStorm(workers, epochs), base_seed));
  }
  if (want("aria_deferral")) {
    results.push_back(RunScenario(MakeAriaDeferral(workers, epochs), base_seed));
  }
  if (want("cold_thrash")) {
    results.push_back(RunScenario(MakeColdThrash(workers, epochs), base_seed));
  }
  if (want("range_mix")) {
    results.push_back(RunRangeMix(workers, epochs, base_seed));
  }
  if (results.empty()) {
    std::fprintf(stderr, "unknown scenario '%s' (zipf_sweep rmw_storm aria_deferral "
                 "cold_thrash range_mix)\n", only.c_str());
    return 2;
  }

  bool healthy = true;
  std::printf("%-14s %12s %10s %10s %10s  %s\n", "scenario", "txn/s", "aborted", "deferred",
              "determin.", "notes");
  for (const ScenarioResult& r : results) {
    healthy = healthy && r.deterministic && r.engines_agree;
    std::string notes;
    if (!r.deterministic) {
      notes += "STATE HASH DIVERGED BETWEEN SAME-SEED RUNS ";
    }
    if (!r.engines_agree) {
      notes += "ENGINES DISAGREE ";
    }
    if (r.run.drain_epochs > 0) {
      notes += "drained backlog in " + std::to_string(r.run.drain_epochs) + " epochs ";
    }
    std::printf("%-14s %12.0f %10zu %10zu %10s  %s\n", r.name.c_str(), r.txns_per_sec,
                r.run.aborted, r.run.deferred, r.deterministic ? "yes" : "NO",
                notes.c_str());
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"pr8_stress_suite\",\n");
  std::fprintf(f, "  \"scale\": %.2f,\n", scale);
  std::fprintf(f, "  \"epochs_per_scenario\": %zu,\n", epochs);
  std::fprintf(f, "  \"workers\": %zu,\n", workers);
  std::fprintf(f, "  \"seed\": %llu,\n", static_cast<unsigned long long>(base_seed));
  std::fprintf(f, "  \"healthy\": %s,\n", healthy ? "true" : "false");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    WriteScenarioJson(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!healthy) {
    std::printf("FAIL\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
