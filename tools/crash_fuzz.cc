// Crash-consistency chaos harness (the paper's section 5 failure model,
// exercised adversarially).
//
// For a sweep of engine configurations x workload seeds x crash sites, each
// run:
//   1. executes a seeded deterministic KV workload on a shadow-tracked
//      NvmDevice with a crash hook armed for one site;
//   2. when the hook fires, simulates the power failure in one of three
//      modes: clean (revert all unfenced lines), chaos (each dirty line
//      independently survives with a swept keep-probability), or torn (each
//      staged-but-unfenced persist torn at cache-line granularity);
//   3. recovers a fresh Database over the surviving image and finishes the
//      remaining epochs;
//   4. diffs the full recovered state — every table, every row, every
//      counter — against an oracle that re-executed the same input stream
//      crash-free, and cross-checks the persistent NVMM index when enabled.
//
// Any divergence is a correctness bug in the engine's persistence ordering
// or recovery repair logic. The tool reports per-site reach/fire counts so a
// sweep that silently stopped exercising a recovery branch is visible.
//
// The engine runs each epoch's persistence tail on an asynchronous tail
// thread, so a tail-site crash surfaces on the NEXT ExecuteEpoch (or at
// WaitIdle for the final epoch) while that epoch's front half has already
// run and been cancelled. The harness therefore derives the resume point
// from the recovered header instead of loop bookkeeping. The barrier
// configurations drive the engine caller-synchronously instead — WaitIdle
// after every epoch, as the sharded engine does — so a tail crash surfaces
// in its own epoch and that timing stays fuzzed too.
//
// Half of the runs (deterministically chosen from the run seed) drive the
// crashing execution through the DbService group-commit front-end instead of
// hand-batched ExecuteEpoch calls: transactions are submitted one by one,
// the pacer cuts size-triggered epochs matching the stream's composition,
// and the crash fires mid-Drain(). The service must fail every in-flight
// ticket with the crash status, and recovery over the surviving image must
// still replay to the crash-free oracle state — proving the front-end adds
// no persistence-ordering behavior of its own.
//
// Usage: crash_fuzz [--smoke] [--seeds N] [--verbose]
//   --smoke    small sweep for CI (fewer seeds and configurations)
//   --seeds N  workload seeds per configuration (default 20, smoke 3)
//   --verbose  per-run output instead of per-config summaries
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/database.h"
#include "src/core/oracle.h"
#include "src/service/db_service.h"
#include "src/shard/sharded_db.h"
#include "src/sim/nvm_device.h"
#include "tests/test_util.h"

namespace {

using nvc::Epoch;
using nvc::Key;
using nvc::Rng;
using nvc::core::CrashSite;
using nvc::core::CrashSiteCoverage;
using nvc::core::CrashSiteName;
using nvc::core::Database;
using nvc::core::DatabaseSpec;
using nvc::core::kAllCrashSites;
using nvc::core::kCrashSiteCount;
using nvc::core::OracleState;
using nvc::sim::NvmConfig;
using nvc::sim::NvmDevice;
using nvc::service::DbService;
using nvc::service::ServiceSpec;

// ---- Workload ---------------------------------------------------------------
//
// Key ranges: [0, kBaseRows) hold 8-byte values (Put/Rmw/Abort), [kBigBase,
// kBigBase + kBigRows) hold pool-allocated values (BigPut/VarPut; these feed
// major GC, caching, and cold-tier demotion), and [kDynBase, kDynBase +
// kDynRows) churn through Insert/Delete.

constexpr std::size_t kBaseRows = 40;
constexpr std::size_t kBigBase = 40;
constexpr std::size_t kBigRows = 40;
constexpr std::size_t kDynBase = 80;
constexpr std::size_t kDynRows = 24;
constexpr std::size_t kEpochs = 5;
constexpr std::size_t kTxnsPerEpoch = 24;

enum class Kind { kPut, kRmw, kBigPut, kVarPut, kInsert, kDelete, kAbort, kScan };

struct TxnSpec {
  Kind kind;
  Key key;  // lo for kScan
  std::uint64_t arg;  // out_key for kScan
  std::uint32_t size;
  Key hi = 0;              // kScan only
  std::uint32_t limit = 0; // kScan only
};
using StreamSpec = std::vector<std::vector<TxnSpec>>;

// Deterministic from the seed alone, so the crash run, any re-execution after
// recovery, and the oracle run all see byte-identical inputs. Ordered configs
// (with_scans) mix in range-scan-digest transactions whose observed rows are
// folded into a committed output key — so a scan that sees a phantom, a stale
// row, or a wrong ordering after recovery diverges the oracle diff.
StreamSpec GenerateStream(std::uint64_t seed, bool with_scans) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::set<Key> dyn_live;
  StreamSpec stream(kEpochs);
  for (auto& epoch : stream) {
    std::set<Key> dyn_touched;  // at most one insert/delete per key per epoch
    for (std::size_t i = 0; i < kTxnsPerEpoch; ++i) {
      const std::uint64_t pick = rng.NextBounded(100);
      if (with_scans && pick >= 86 && pick < 96) {
        // Scans cover the whole keyspace: base rows (mutated by Put/Rmw and by
        // other scans' output keys), big rows, and the insert/delete churn
        // band, so rebuild and phantom bugs in any band are observable.
        const Key lo = rng.NextBounded(kDynBase + kDynRows);
        const Key hi = lo + 1 + rng.NextBounded(32);
        const auto limit = static_cast<std::uint32_t>(1 + rng.NextBounded(16));
        const Key out_key = rng.NextBounded(kBaseRows);
        epoch.push_back({Kind::kScan, lo, out_key, 0, hi, limit});
        continue;
      }
      if (pick < 25) {
        epoch.push_back({Kind::kPut, rng.NextBounded(kBaseRows), rng.Next(), 0});
      } else if (pick < 45) {
        epoch.push_back({Kind::kRmw, rng.NextBounded(kBaseRows), rng.NextBounded(1000), 0});
      } else if (pick < 60) {
        epoch.push_back({Kind::kBigPut, kBigBase + rng.NextBounded(kBigRows), rng.Next(), 0});
      } else if (pick < 75) {
        epoch.push_back({Kind::kVarPut, kBigBase + rng.NextBounded(kBigRows), rng.Next(),
                         static_cast<std::uint32_t>(8 + rng.NextBounded(393))});
      } else if (pick < 90) {
        const Key key = kDynBase + rng.NextBounded(kDynRows);
        if (!dyn_touched.insert(key).second) {
          epoch.push_back({Kind::kPut, rng.NextBounded(kBaseRows), rng.Next(), 0});
        } else if (dyn_live.count(key) != 0) {
          dyn_live.erase(key);
          epoch.push_back({Kind::kDelete, key, 0, 0});
        } else {
          dyn_live.insert(key);
          epoch.push_back({Kind::kInsert, key, rng.Next(), 0});
        }
      } else {
        epoch.push_back({Kind::kAbort, rng.NextBounded(kBaseRows), 0, 0});
      }
    }
  }
  return stream;
}

std::vector<std::unique_ptr<nvc::txn::Transaction>> Materialize(
    const std::vector<TxnSpec>& specs) {
  std::vector<std::unique_ptr<nvc::txn::Transaction>> txns;
  txns.reserve(specs.size());
  for (const TxnSpec& s : specs) {
    switch (s.kind) {
      case Kind::kPut:
        txns.push_back(std::make_unique<nvc::test::KvPutTxn>(s.key, s.arg));
        break;
      case Kind::kRmw:
        txns.push_back(std::make_unique<nvc::test::KvRmwTxn>(s.key, s.arg));
        break;
      case Kind::kBigPut:
        txns.push_back(std::make_unique<nvc::test::KvBigPutTxn>(s.key, s.arg));
        break;
      case Kind::kVarPut:
        txns.push_back(std::make_unique<nvc::test::KvVarPutTxn>(s.key, s.size, s.arg));
        break;
      case Kind::kInsert:
        txns.push_back(std::make_unique<nvc::test::KvInsertTxn>(s.key, s.arg));
        break;
      case Kind::kDelete:
        txns.push_back(std::make_unique<nvc::test::KvDeleteTxn>(s.key));
        break;
      case Kind::kAbort:
        txns.push_back(std::make_unique<nvc::test::KvAbortTxn>(s.key));
        break;
      case Kind::kScan:
        txns.push_back(
            std::make_unique<nvc::test::KvScanSumTxn>(s.key, s.hi, s.limit, s.arg));
        break;
    }
  }
  return txns;
}

void LoadAll(Database& db) {
  for (std::size_t i = 0; i < kBigBase + kBigRows; ++i) {
    const std::uint64_t value = 5000 + i;
    db.BulkLoad(0, i, &value, sizeof(value));
  }
  db.FinalizeLoad();
}

// ---- Engine configurations --------------------------------------------------

struct FuzzConfig {
  std::string name;
  DatabaseSpec spec;
  bool cold = false;
  bool ordered = false;  // table 0 ordered: stream gains scan transactions
  bool sync = false;     // caller-synchronous: WaitIdle after every epoch
};

// Runs one epoch; returns false when it crashed. A caller-synchronous config
// also waits for the epoch's persistence tail, so a tail-site crash surfaces
// in its own epoch.
bool RunEpoch(Database& db, const FuzzConfig& config,
              std::vector<std::unique_ptr<nvc::txn::Transaction>> txns) {
  if (db.ExecuteEpoch(std::move(txns)).crashed) {
    return false;
  }
  return !config.sync || db.WaitIdle().ok();
}

std::vector<FuzzConfig> BuildConfigs(bool smoke) {
  std::vector<FuzzConfig> configs;
  configs.push_back({"default", nvc::test::SmallKvSpec(), false});

  {
    DatabaseSpec spec = nvc::test::SmallKvSpec();
    spec.enable_batch_append = true;
    configs.push_back({"batch-append", spec, false});
  }
  {
    DatabaseSpec spec = nvc::test::SmallKvSpec();
    spec.enable_cache = false;
    configs.push_back({"no-cache", spec, false});
  }
  {
    DatabaseSpec spec = nvc::test::SmallKvSpec();
    spec.enable_persistent_index = true;
    configs.push_back({"persistent-index", spec, false});
  }
  {
    DatabaseSpec spec = nvc::test::SmallKvSpec();
    spec.enable_cold_tier = true;
    spec.cache_k = 1;  // short LRU window so demotions happen within the run
    spec.cold_block_size = 1024;
    spec.cold_blocks_per_core = 4096;
    spec.cold_freelist_capacity = 8192;
    configs.push_back({"cold-tier", spec, true});
  }
  {
    DatabaseSpec spec = nvc::test::SmallKvSpec();
    spec.enable_instant_recovery = true;
    configs.push_back({"instant", spec, false});
  }
  // Ordered-table configs: table 0 carries the skiplist secondary index, the
  // stream mixes in scan-digest transactions, and recovery must rebuild the
  // ordered index identically (kMidOrderedIndexRebuild crashes the rebuild
  // itself). Instant recovery rejects ordered tables by design, so these rows
  // and the instant rows stay disjoint.
  {
    DatabaseSpec spec = nvc::test::SmallKvSpec(/*workers=*/1, /*ordered=*/true);
    configs.push_back({"ordered", spec, false, true});
  }
  {
    DatabaseSpec spec = nvc::test::SmallKvSpec(/*workers=*/1, /*ordered=*/true);
    spec.enable_persistent_index = true;
    configs.push_back({"ordered-pindex", spec, false, true});
  }
  // Barrier rows: the caller waits for every epoch's tail, so tail crashes
  // surface in their own epoch instead of the next one's front half.
  configs.push_back({"barrier", nvc::test::SmallKvSpec(), false, false, true});
  {
    DatabaseSpec spec = nvc::test::SmallKvSpec();
    spec.enable_persistent_index = true;
    configs.push_back({"barrier-pindex", spec, false, false, true});
  }
  if (!smoke) {
    {
      DatabaseSpec spec = nvc::test::SmallKvSpec();
      spec.enable_instant_recovery = true;
      spec.enable_persistent_index = true;
      configs.push_back({"instant-pindex", spec, false});
    }
    {
      DatabaseSpec spec = nvc::test::SmallKvSpec(/*workers=*/4);
      spec.enable_instant_recovery = true;
      configs.push_back({"instant-mt", spec, false});
    }
    {
      DatabaseSpec spec = nvc::test::SmallKvSpec();
      spec.enable_minor_gc = false;
      configs.push_back({"no-minor-gc", spec, false});
    }
    {
      DatabaseSpec mt = nvc::test::SmallKvSpec(/*workers=*/4);
      configs.push_back({"multi-worker", mt, false});
    }
    {
      DatabaseSpec spec = nvc::test::SmallKvSpec(/*workers=*/4, /*ordered=*/true);
      configs.push_back({"ordered-mt", spec, false, true});
    }
    configs.push_back({"ordered-barrier",
                       nvc::test::SmallKvSpec(/*workers=*/1, /*ordered=*/true), false, true,
                       true});
  }
  return configs;
}

NvmConfig ColdDeviceConfig(const DatabaseSpec& spec) {
  NvmConfig config;
  config.size_bytes = Database::RequiredColdDeviceBytes(spec);
  config.crash_tracking = nvc::sim::CrashTracking::kShadow;
  config.access_granule = 4096;
  return config;
}

// How many times a run may let a site pass before firing: dense sites are
// reached many times per epoch, sparse ones once, so the fire index doubles
// as a crash-epoch / crash-depth randomizer.
// The two recovery-window sites are reached once per still-pending key on a
// recovering database (see RunRecoverySiteCase); a small bound fires them
// reliably even when chaos shrinks the pending set.
bool IsRecoverySite(CrashSite site) {
  return site == CrashSite::kMidInstantRecoveryOnDemand || site == CrashSite::kMidBackfill;
}

std::uint64_t FireIndexBound(CrashSite site) {
  switch (site) {
    case CrashSite::kMidExecution:
      return kEpochs * kTxnsPerEpoch / 2;
    case CrashSite::kMidInstantRecoveryOnDemand:
    case CrashSite::kMidBackfill:
      return 8;
    case CrashSite::kDuringIndexApply:
      return kEpochs * 8;
    case CrashSite::kDuringGcPass2:
      return kEpochs * 4;
    case CrashSite::kDuringDemotion:
      return 3;
    case CrashSite::kMidOverlapExecute:
    case CrashSite::kMidOverlapTailPersist:
      return kEpochs;  // once per epoch (front half / async tail)
    default:
      return kEpochs;  // reached at most once per epoch: picks the epoch
  }
}

// ---- Sweep ------------------------------------------------------------------

struct SweepStats {
  std::size_t runs = 0;
  std::size_t crashed_runs = 0;
  std::size_t missed_runs = 0;   // the armed site was never reached
  std::size_t service_runs = 0;  // driven through the DbService front-end
  std::size_t divergences = 0;
  std::size_t index_inconsistencies = 0;
  std::size_t ordered_inconsistencies = 0;
  CrashSiteCoverage coverage;
  std::array<std::uint64_t, kCrashSiteCount> armed{};
  std::array<std::uint64_t, kCrashSiteCount> armed_fired{};
};

const OracleState& ReferenceState(const FuzzConfig& config, std::size_t config_index,
                                  std::uint64_t seed, const StreamSpec& stream) {
  static std::map<std::pair<std::size_t, std::uint64_t>, OracleState> cache;
  auto it = cache.find({config_index, seed});
  if (it != cache.end()) {
    return it->second;
  }
  NvmDevice device(nvc::test::ShadowDeviceConfig(config.spec));
  std::unique_ptr<NvmDevice> cold;
  if (config.cold) {
    cold = std::make_unique<NvmDevice>(ColdDeviceConfig(config.spec));
  }
  Database db(device, config.spec, cold.get());
  db.Format();
  LoadAll(db);
  for (const auto& epoch : stream) {
    RunEpoch(db, config, Materialize(epoch));
  }
  return cache.emplace(std::make_pair(config_index, seed), nvc::core::CaptureState(db))
      .first->second;
}

constexpr double kKeepSweep[] = {0.0, 0.25, 0.5, 0.75, 1.0};

// Simulates the power failure on the hot (and optional cold) device.
void CrashDevices(NvmDevice& device, NvmDevice* cold, int mode, std::uint64_t crash_seed,
                  double keep) {
  switch (mode) {
    case 0:
      device.Crash();
      if (cold) cold->Crash();
      break;
    case 1:
      device.CrashChaos(crash_seed, keep);
      if (cold) cold->CrashChaos(crash_seed ^ 0x5bd1e995, keep);
      break;
    default:
      device.CrashTorn(crash_seed, keep);
      if (cold) cold->CrashTorn(crash_seed ^ 0x5bd1e995, keep);
      break;
  }
}

// Full-state diff against the oracle; returns a failure description.
std::string DiffAgainstOracle(const OracleState& expected, Database& db, SweepStats* stats) {
  std::string failure;
  const OracleState actual = nvc::core::CaptureState(db);
  std::string diff;
  const std::size_t divergences = nvc::core::DiffStates(expected, actual, &diff);
  stats->divergences += divergences;
  if (divergences != 0) {
    failure += "state diverged (" + std::to_string(divergences) + "):\n" + diff;
  }
  std::string index_diff;
  const std::size_t index_bad = nvc::core::ValidatePersistentIndex(db, &index_diff);
  stats->index_inconsistencies += index_bad;
  if (index_bad != 0) {
    failure += "persistent index inconsistent (" + std::to_string(index_bad) + "):\n" +
               index_diff;
  }
  std::string ordered_diff;
  const std::size_t ordered_bad = nvc::core::ValidateOrderedIndex(db, &ordered_diff);
  stats->ordered_inconsistencies += ordered_bad;
  if (ordered_bad != 0) {
    failure += "ordered index inconsistent (" + std::to_string(ordered_bad) + "):\n" +
               ordered_diff;
  }
  return failure;
}

// Double-crash run targeting the instant-recovery window itself: crash the
// epoch tail, recover instantly, then crash AGAIN while either a foreground
// read drives on-demand redo (kMidInstantRecoveryOnDemand) or the background
// backfill is sweeping (kMidBackfill). The third recovery must still reach
// the oracle state — the proof that no instant-recovery step makes a
// persistent mutation the next recovery cannot absorb.
std::string RunRecoverySiteCase(const FuzzConfig& config, std::size_t config_index,
                                std::uint64_t seed, CrashSite site, SweepStats* stats,
                                bool verbose) {
  const StreamSpec stream = GenerateStream(seed, config.ordered);
  const OracleState& expected = ReferenceState(config, config_index, seed, stream);

  Rng run_rng(seed * 1000003 + static_cast<std::uint64_t>(site) * 101 + config_index * 31 + 7);
  const std::uint64_t crash_epoch = run_rng.NextBounded(kEpochs);
  const std::uint64_t fire_index = 1 + run_rng.NextBounded(FireIndexBound(site));
  const int mode = static_cast<int>(run_rng.NextBounded(3));
  const double keep = kKeepSweep[run_rng.NextBounded(5)];
  const std::uint64_t crash_seed = run_rng.Next();
  const int mode2 = static_cast<int>(run_rng.NextBounded(3));
  const double keep2 = kKeepSweep[run_rng.NextBounded(5)];
  const std::uint64_t crash_seed2 = run_rng.Next();

  NvmDevice device(nvc::test::ShadowDeviceConfig(config.spec));
  std::unique_ptr<NvmDevice> cold;
  if (config.cold) {
    cold = std::make_unique<NvmDevice>(ColdDeviceConfig(config.spec));
  }

  ++stats->runs;
  ++stats->armed[static_cast<std::size_t>(site)];

  // First crash: at the epoch tail, so the whole epoch is pending-replay.
  {
    Database db(device, config.spec, cold.get());
    db.Format();
    LoadAll(db);
    std::atomic<std::uint64_t> reached{0};
    db.SetCrashHook([&reached, crash_epoch](CrashSite s) {
      return s == CrashSite::kBeforeEpochPersist && ++reached == crash_epoch + 1;
    });
    bool crashed = false;
    for (std::size_t e = 0; e < stream.size(); ++e) {
      if (!RunEpoch(db, config, Materialize(stream[e]))) {
        crashed = true;
        break;
      }
    }
    if (!crashed && !db.WaitIdle().ok()) {
      crashed = true;  // tail-site crash in the final epoch
    }
    stats->coverage.Merge(db.crash_coverage());
    if (!crashed) {
      return "kBeforeEpochPersist unexpectedly never reached";
    }
  }
  CrashDevices(device, cold.get(), mode, crash_seed, keep);

  // Recover with the window-site hook armed; a chaos/torn first crash may
  // have destroyed the digest or the log, in which case the window never
  // opens and the run counts as a miss.
  bool fired = false;
  auto db = std::make_unique<Database>(device, config.spec, cold.get());
  {
    std::atomic<std::uint64_t> reached{0};
    db->SetCrashHook([&reached, site, fire_index](CrashSite s) {
      return s == site && ++reached == fire_index;
    });
    const nvc::core::RecoveryReport report = db->Recover(nvc::test::KvRegistry()).value();
    if (report.instant) {
      if (site == CrashSite::kMidInstantRecoveryOnDemand) {
        // Foreground traffic: read the whole keyspace during the window.
        std::uint8_t buffer[512];
        for (Key key = 0; key < kDynBase + kDynRows && !fired; ++key) {
          const nvc::StatusOr<std::uint32_t> n = db->ReadCommitted(0, key, buffer, sizeof(buffer));
          if (!n.ok() && n.status().code() == nvc::StatusCode::kAborted) {
            fired = true;
          }
        }
      }
      if (!fired && !db->CompleteBackfill().ok()) {
        fired = true;
      }
    } else if (!report.replayed) {
      RunEpoch(*db, config, Materialize(stream[crash_epoch]));
    }
    stats->coverage.Merge(db->crash_coverage());
  }

  if (fired) {
    ++stats->crashed_runs;
    ++stats->armed_fired[static_cast<std::size_t>(site)];
    db.reset();
    CrashDevices(device, cold.get(), mode2, crash_seed2, keep2);
    db = std::make_unique<Database>(device, config.spec, cold.get());
    const nvc::core::RecoveryReport report = db->Recover(nvc::test::KvRegistry()).value();
    if (report.instant) {
      const nvc::Status st = db->CompleteBackfill();
      if (!st.ok()) {
        return "CompleteBackfill failed after double crash: " + st.message();
      }
    } else if (!report.replayed) {
      RunEpoch(*db, config, Materialize(stream[crash_epoch]));
    }
    stats->coverage.Merge(db->crash_coverage());
  } else {
    ++stats->missed_runs;
  }

  for (std::size_t e = crash_epoch + 1; e < stream.size(); ++e) {
    RunEpoch(*db, config, Materialize(stream[e]));
  }
  const std::string failure = DiffAgainstOracle(expected, *db, stats);
  if (verbose || !failure.empty()) {
    static constexpr const char* kModeNames[] = {"crash", "chaos", "torn"};
    std::printf("[%s seed=%llu site=%s mode=%s/%s keep=%.2f/%.2f fire=%llu] %s\n",
                config.name.c_str(), static_cast<unsigned long long>(seed),
                CrashSiteName(site), kModeNames[mode], kModeNames[mode2], keep, keep2,
                static_cast<unsigned long long>(fire_index),
                failure.empty() ? (fired ? "ok" : "miss") : "FAIL");
  }
  return failure;
}

// Double-crash run targeting the ordered-index rebuild inside Recover(): crash
// the epoch tail, then crash AGAIN while the recovery scan (or the fast
// persistent-index path) is re-inserting keys into the skiplist. Recover()
// surfaces that as kAborted — a power failure mid-recovery — and the NEXT
// recovery over the re-crashed image must still reach the oracle state,
// proving the rebuild makes no persistent mutation recovery cannot absorb.
std::string RunRebuildSiteCase(const FuzzConfig& config, std::size_t config_index,
                               std::uint64_t seed, SweepStats* stats, bool verbose) {
  constexpr CrashSite site = CrashSite::kMidOrderedIndexRebuild;
  const StreamSpec stream = GenerateStream(seed, config.ordered);
  const OracleState& expected = ReferenceState(config, config_index, seed, stream);

  Rng run_rng(seed * 1000003 + static_cast<std::uint64_t>(site) * 101 + config_index * 31 + 7);
  const std::uint64_t crash_epoch = run_rng.NextBounded(kEpochs);
  // The site is reached once per live ordered row; the bulk-loaded base and
  // big bands alone keep ~80 rows live through any crash, so a small bound
  // fires reliably while still varying the rebuild depth.
  const std::uint64_t fire_index = 1 + run_rng.NextBounded(30);
  const int mode = static_cast<int>(run_rng.NextBounded(3));
  const double keep = kKeepSweep[run_rng.NextBounded(5)];
  const std::uint64_t crash_seed = run_rng.Next();
  const int mode2 = static_cast<int>(run_rng.NextBounded(3));
  const double keep2 = kKeepSweep[run_rng.NextBounded(5)];
  const std::uint64_t crash_seed2 = run_rng.Next();

  NvmDevice device(nvc::test::ShadowDeviceConfig(config.spec));
  std::unique_ptr<NvmDevice> cold;
  if (config.cold) {
    cold = std::make_unique<NvmDevice>(ColdDeviceConfig(config.spec));
  }

  ++stats->runs;
  ++stats->armed[static_cast<std::size_t>(site)];

  // First crash: at the epoch tail, so recovery has an epoch to repair.
  {
    Database db(device, config.spec, cold.get());
    db.Format();
    LoadAll(db);
    std::atomic<std::uint64_t> reached{0};
    db.SetCrashHook([&reached, crash_epoch](CrashSite s) {
      return s == CrashSite::kBeforeEpochPersist && ++reached == crash_epoch + 1;
    });
    bool crashed = false;
    for (std::size_t e = 0; e < stream.size(); ++e) {
      if (!RunEpoch(db, config, Materialize(stream[e]))) {
        crashed = true;
        break;
      }
    }
    if (!crashed && !db.WaitIdle().ok()) {
      crashed = true;  // tail-site crash in the final epoch
    }
    stats->coverage.Merge(db.crash_coverage());
    if (!crashed) {
      return "kBeforeEpochPersist unexpectedly never reached";
    }
  }
  CrashDevices(device, cold.get(), mode, crash_seed, keep);

  // Recover with the rebuild site armed: a fire aborts Recover() exactly as a
  // real power failure mid-recovery would leave the process dead.
  bool fired = false;
  auto db = std::make_unique<Database>(device, config.spec, cold.get());
  bool replayed = false;
  {
    std::atomic<std::uint64_t> reached{0};
    db->SetCrashHook([&reached, fire_index](CrashSite s) {
      return s == site && ++reached == fire_index;
    });
    const nvc::StatusOr<nvc::core::RecoveryReport> report =
        db->Recover(nvc::test::KvRegistry());
    stats->coverage.Merge(db->crash_coverage());
    if (!report.ok()) {
      fired = true;
    } else {
      replayed = report->replayed;
    }
  }

  if (fired) {
    ++stats->crashed_runs;
    ++stats->armed_fired[static_cast<std::size_t>(site)];
    db.reset();
    CrashDevices(device, cold.get(), mode2, crash_seed2, keep2);
    db = std::make_unique<Database>(device, config.spec, cold.get());
    replayed = db->Recover(nvc::test::KvRegistry()).value().replayed;
  } else {
    ++stats->missed_runs;
  }
  if (!replayed) {
    RunEpoch(*db, config, Materialize(stream[crash_epoch]));
  }
  for (std::size_t e = crash_epoch + 1; e < stream.size(); ++e) {
    RunEpoch(*db, config, Materialize(stream[e]));
  }
  const std::string failure = DiffAgainstOracle(expected, *db, stats);
  if (verbose || !failure.empty()) {
    static constexpr const char* kModeNames[] = {"crash", "chaos", "torn"};
    std::printf("[%s seed=%llu site=%s mode=%s/%s keep=%.2f/%.2f fire=%llu] %s\n",
                config.name.c_str(), static_cast<unsigned long long>(seed),
                CrashSiteName(site), kModeNames[mode], kModeNames[mode2], keep, keep2,
                static_cast<unsigned long long>(fire_index),
                failure.empty() ? (fired ? "ok" : "miss") : "FAIL");
  }
  return failure;
}

// One crash-and-recover run. Returns a failure description, empty on success.
std::string RunCase(const FuzzConfig& config, std::size_t config_index, std::uint64_t seed,
                    CrashSite site, SweepStats* stats, bool verbose) {
  if (IsRecoverySite(site)) {
    return RunRecoverySiteCase(config, config_index, seed, site, stats, verbose);
  }
  if (site == CrashSite::kMidOrderedIndexRebuild) {
    return RunRebuildSiteCase(config, config_index, seed, stats, verbose);
  }
  const StreamSpec stream = GenerateStream(seed, config.ordered);
  const OracleState& expected = ReferenceState(config, config_index, seed, stream);

  // Per-run deterministic choices: crash mode, keep-probability, fire index.
  Rng run_rng(seed * 1000003 + static_cast<std::uint64_t>(site) * 101 + config_index * 31 + 7);
  const std::uint64_t fire_index = 1 + run_rng.NextBounded(FireIndexBound(site));
  const int mode = static_cast<int>(run_rng.NextBounded(3));
  const double keep = kKeepSweep[run_rng.NextBounded(5)];
  const std::uint64_t crash_seed = run_rng.Next();
  // Barrier rows always drive the engine directly: the service's pacer does
  // not wait for each tail.
  const bool use_service = run_rng.NextBounded(2) == 1 && !config.sync;

  NvmDevice device(nvc::test::ShadowDeviceConfig(config.spec));
  std::unique_ptr<NvmDevice> cold;
  if (config.cold) {
    cold = std::make_unique<NvmDevice>(ColdDeviceConfig(config.spec));
  }

  ++stats->runs;
  ++stats->armed[static_cast<std::size_t>(site)];

  bool crashed = false;
  {
    auto dbp = std::make_unique<Database>(device, config.spec, cold.get());
    dbp->Format();
    LoadAll(*dbp);
    std::atomic<std::uint64_t> reached{0};
    dbp->SetCrashHook([&reached, site, fire_index](CrashSite s) {
      return s == site && ++reached == fire_index;
    });
    if (use_service) {
      // Drive the same stream through the group-commit front-end. Size-only
      // batching (the delay bound far exceeds the run) makes the pacer cut
      // exactly kTxnsPerEpoch-sized epochs in submission order, so the batch
      // composition — and therefore the cached oracle state and crash_epoch
      // bookkeeping — matches the hand-batched path bit for bit.
      ++stats->service_runs;
      ServiceSpec sspec;
      sspec.max_epoch_txns = kTxnsPerEpoch;
      sspec.max_epoch_delay = std::chrono::minutes(1);
      sspec.queue_capacity = kEpochs * kTxnsPerEpoch;
      DbService svc(std::move(dbp), sspec);
      bool submit_ok = true;
      for (std::size_t e = 0; submit_ok && e < stream.size(); ++e) {
        for (auto& txn : Materialize(stream[e])) {
          if (!svc.Submit(std::move(txn)).ok()) {
            submit_ok = false;  // already failed over the crash; Drain reports it
            break;
          }
        }
      }
      crashed = !svc.Drain().ok();
      dbp = svc.TakeDatabase();
    } else {
      for (std::size_t e = 0; e < stream.size(); ++e) {
        if (!RunEpoch(*dbp, config, Materialize(stream[e]))) {
          crashed = true;
          break;
        }
      }
      if (!crashed && !dbp->WaitIdle().ok()) {
        // A tail-site crash in the final epoch surfaces only when the
        // asynchronous tail is joined.
        crashed = true;
      }
    }
    stats->coverage.Merge(dbp->crash_coverage());
  }

  std::unique_ptr<Database> db;
  if (crashed) {
    ++stats->crashed_runs;
    ++stats->armed_fired[static_cast<std::size_t>(site)];
    switch (mode) {
      case 0:
        device.Crash();
        if (cold) cold->Crash();
        break;
      case 1:
        device.CrashChaos(crash_seed, keep);
        if (cold) cold->CrashChaos(crash_seed ^ 0x5bd1e995, keep);
        break;
      default:
        device.CrashTorn(crash_seed, keep);
        if (cold) cold->CrashTorn(crash_seed ^ 0x5bd1e995, keep);
        break;
    }
    db = std::make_unique<Database>(device, config.spec, cold.get());
    const nvc::core::RecoveryReport report = db->Recover(nvc::test::KvRegistry()).value();
    // The resume point is derived from the durable image, not from loop
    // bookkeeping: a tail crash of epoch N can surface while epoch N+1's
    // (cancelled) front half is running, so the crashing loop's
    // index can overshoot the epoch that actually lost its tail. stream[e]
    // ran as engine epoch e+2 (FinalizeLoad leaves the engine at epoch 1),
    // and a replay advances the recovered header by one.
    const std::size_t resume = static_cast<std::size_t>(report.recovered_epoch) +
                               (report.replayed ? 1 : 0) - 1;
    if (report.replayed && report.instant && run_rng.NextBounded(2) == 1) {
      // Half the instant runs retire the backfill eagerly; the other half let
      // the next ExecuteEpoch pre-finish it, covering both admission paths.
      const nvc::Status st = db->CompleteBackfill();
      if (!st.ok()) {
        return "CompleteBackfill failed: " + st.message();
      }
    }
    for (std::size_t e = resume; e < stream.size(); ++e) {
      RunEpoch(*db, config, Materialize(stream[e]));
    }
    if (db->instant_recovery_pending()) {
      // CaptureState reads the store directly (no on-demand redo), so a run
      // that crashed in its final epoch must retire the window first.
      const nvc::Status st = db->CompleteBackfill();
      if (!st.ok()) {
        return "CompleteBackfill failed: " + st.message();
      }
    }
  } else {
    // The armed site was never reached (e.g. no demotion happened this run).
    // The completed run still doubles as a no-crash consistency check.
    ++stats->missed_runs;
    db = std::make_unique<Database>(device, config.spec, cold.get());
    db->Recover(nvc::test::KvRegistry()).value();
  }

  const std::string failure = DiffAgainstOracle(expected, *db, stats);

  if (verbose || !failure.empty()) {
    static constexpr const char* kModeNames[] = {"crash", "chaos", "torn"};
    std::printf("[%s seed=%llu site=%s mode=%s keep=%.2f fire=%llu via=%s] %s\n",
                config.name.c_str(), static_cast<unsigned long long>(seed),
                CrashSiteName(site), kModeNames[mode], keep,
                static_cast<unsigned long long>(fire_index),
                use_service ? "service" : "direct",
                failure.empty() ? (crashed ? "ok" : "miss") : "FAIL");
  }
  return failure;
}

// ---- Sharded sweep ----------------------------------------------------------
//
// The multi-shard config partitions the keyspace across two engines behind
// one global epoch (src/shard). Each run arms one crash site on ONE shard,
// crashes every device at the moment the global epoch fails (a power failure
// takes the whole fleet), recovers a fresh ShardedDatabase — which must land
// every shard on one consistent global epoch — resumes the remaining stream,
// and diffs all shards against a crash-free sharded oracle.
//
// The stream is deferral-free by construction: every epoch front-loads its
// cross-shard transfers over mutually disjoint key pairs before any write,
// so the router admits all of them (a deferral held in memory would be lost
// across the crash and the resumed run would diverge by design, not by bug;
// deferral behavior is covered by unit tests instead). The harness asserts
// this.

constexpr std::size_t kShardCount = 2;
constexpr std::size_t kShardEpochs = 4;
constexpr std::size_t kXfersPerEpoch = 4;

// Engine sites reachable under the sharded spec (instant recovery forced
// off; table 0 unordered; no persistent index; every shard waits for its
// tail) plus the two shard-layer sites, which only this sweep can fire.
constexpr CrashSite kShardedSites[] = {
    CrashSite::kAfterLog,          CrashSite::kAfterInsert,
    CrashSite::kDuringMajorGc,     CrashSite::kAfterGcPersist,
    CrashSite::kAfterAppend,       CrashSite::kMidExecution,
    CrashSite::kAfterExecution,    CrashSite::kBeforeEpochPersist,
    CrashSite::kMidOverlapTailPersist,
    CrashSite::kMidShardExchange,  CrashSite::kMidShardEpochBarrier,
};

std::vector<std::unique_ptr<nvc::txn::Transaction>> ShardEpochBatch(std::uint64_t seed,
                                                                    std::size_t epoch) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + epoch * 1000003 + 17);
  std::vector<std::unique_ptr<nvc::txn::Transaction>> txns;
  // Disjoint transfer pairs drawn from a per-epoch shuffle of the base band.
  std::array<Key, kBaseRows> keys{};
  for (std::size_t i = 0; i < kBaseRows; ++i) {
    keys[i] = i;
  }
  for (std::size_t i = 0; i < 2 * kXfersPerEpoch; ++i) {
    const std::size_t j = i + rng.NextBounded(kBaseRows - i);
    std::swap(keys[i], keys[j]);
  }
  for (std::size_t i = 0; i < kXfersPerEpoch; ++i) {
    txns.push_back(std::make_unique<nvc::test::KvXferTxn>(keys[2 * i], keys[2 * i + 1],
                                                          1 + rng.NextBounded(20)));
  }
  // Single-shard tail (never router-deferred): small and pool-allocated
  // writes so the engines' GC sites stay reachable, plus user aborts.
  for (std::size_t i = 0; i < 12; ++i) {
    const std::uint64_t pick = rng.NextBounded(100);
    if (pick < 40) {
      txns.push_back(std::make_unique<nvc::test::KvPutTxn>(rng.NextBounded(kBaseRows),
                                                           rng.Next()));
    } else if (pick < 60) {
      txns.push_back(std::make_unique<nvc::test::KvRmwTxn>(rng.NextBounded(kBaseRows),
                                                           rng.NextBounded(1000)));
    } else if (pick < 90) {
      txns.push_back(std::make_unique<nvc::test::KvBigPutTxn>(
          kBigBase + rng.NextBounded(kBigRows), rng.Next()));
    } else {
      txns.push_back(std::make_unique<nvc::test::KvAbortTxn>(rng.NextBounded(kBaseRows)));
    }
  }
  return txns;
}

nvc::sim::NvmConfig ShardDeviceConfig(const DatabaseSpec& base) {
  NvmConfig config;
  config.size_bytes = nvc::shard::ShardedDatabase::RequiredDeviceBytes(base);
  config.crash_tracking = nvc::sim::CrashTracking::kShadow;
  return config;
}

void LoadSharded(nvc::shard::ShardedDatabase& db) {
  for (std::size_t i = 0; i < kBigBase + kBigRows; ++i) {
    const std::uint64_t value = 5000 + i;
    db.BulkLoad(0, i, &value, sizeof(value));
  }
  db.FinalizeLoad();
}

// Final per-shard oracle states of a crash-free sharded run, cached per seed.
const std::vector<OracleState>& ShardedReferenceState(std::uint64_t seed) {
  static std::map<std::uint64_t, std::vector<OracleState>> cache;
  auto it = cache.find(seed);
  if (it != cache.end()) {
    return it->second;
  }
  const DatabaseSpec base = nvc::test::SmallKvSpec();
  std::vector<std::unique_ptr<NvmDevice>> owned;
  std::vector<NvmDevice*> devices;
  for (std::size_t s = 0; s < kShardCount; ++s) {
    owned.push_back(std::make_unique<NvmDevice>(ShardDeviceConfig(base)));
    devices.push_back(owned.back().get());
  }
  nvc::shard::ShardedDatabase db(devices, base);
  db.Format();
  LoadSharded(db);
  for (std::size_t e = 0; e < kShardEpochs; ++e) {
    db.ExecuteEpoch(ShardEpochBatch(seed, e));
  }
  std::vector<OracleState> states;
  for (std::size_t s = 0; s < kShardCount; ++s) {
    states.push_back(nvc::core::CaptureState(db.shard(s)));
  }
  return cache.emplace(seed, std::move(states)).first->second;
}

// One sharded crash-and-recover run: arm `site` on `crash_shard` only.
std::string RunShardedCase(std::uint64_t seed, CrashSite site, std::size_t crash_shard,
                           SweepStats* stats, bool verbose) {
  const std::vector<OracleState>& expected = ShardedReferenceState(seed);
  const DatabaseSpec base = nvc::test::SmallKvSpec();

  Rng run_rng(seed * 1000003 + static_cast<std::uint64_t>(site) * 101 + crash_shard * 31 + 9);
  const bool shard_site = site == CrashSite::kMidShardExchange ||
                          site == CrashSite::kMidShardEpochBarrier;
  // Shard-layer sites are reached exactly once per shard per global epoch;
  // a tight bound keeps them firing in every armed run.
  const std::uint64_t bound = shard_site ? kShardEpochs : FireIndexBound(site);
  const std::uint64_t fire_index = 1 + run_rng.NextBounded(bound);
  const int mode = static_cast<int>(run_rng.NextBounded(3));
  const double keep = kKeepSweep[run_rng.NextBounded(5)];
  const std::uint64_t crash_seed = run_rng.Next();

  std::vector<std::unique_ptr<NvmDevice>> owned;
  std::vector<NvmDevice*> devices;
  for (std::size_t s = 0; s < kShardCount; ++s) {
    owned.push_back(std::make_unique<NvmDevice>(ShardDeviceConfig(base)));
    devices.push_back(owned.back().get());
  }

  ++stats->runs;
  ++stats->armed[static_cast<std::size_t>(site)];

  bool crashed = false;
  {
    auto db = std::make_unique<nvc::shard::ShardedDatabase>(devices, base);
    db->Format();
    LoadSharded(*db);
    std::atomic<std::uint64_t> reached{0};
    db->SetCrashHook([&reached, site, crash_shard, fire_index](std::size_t shard,
                                                               CrashSite s) {
      return shard == crash_shard && s == site && ++reached == fire_index;
    });
    for (std::size_t e = 0; e < kShardEpochs; ++e) {
      const nvc::shard::ShardedEpochResult result = db->ExecuteEpoch(ShardEpochBatch(seed, e));
      if (result.deferred != 0) {
        return "sharded stream unexpectedly router-deferred " +
               std::to_string(result.deferred) + " transactions (harness bug)";
      }
      if (result.crashed) {
        crashed = true;
        break;
      }
    }
    stats->coverage.Merge(db->crash_coverage());
  }

  std::unique_ptr<nvc::shard::ShardedDatabase> db;
  if (crashed) {
    ++stats->crashed_runs;
    ++stats->armed_fired[static_cast<std::size_t>(site)];
    // The power failure takes the whole fleet: the armed shard's device gets
    // the swept failure mode, the survivors lose their unfenced lines too.
    for (std::size_t s = 0; s < kShardCount; ++s) {
      if (s == crash_shard) {
        switch (mode) {
          case 0:
            devices[s]->Crash();
            break;
          case 1:
            devices[s]->CrashChaos(crash_seed, keep);
            break;
          default:
            devices[s]->CrashTorn(crash_seed, keep);
            break;
        }
      } else {
        devices[s]->Crash();
      }
    }
  } else {
    ++stats->missed_runs;
  }

  db = std::make_unique<nvc::shard::ShardedDatabase>(devices, base);
  const nvc::StatusOr<nvc::shard::ShardedRecoveryReport> report =
      db->Recover(nvc::test::KvRegistry());
  if (!report.ok()) {
    ++stats->divergences;
    return "sharded recovery failed: " + report.status().message();
  }
  stats->coverage.Merge(db->crash_coverage());
  // stream[e] ran as global epoch e+2; recovered_epoch is the agreed epoch
  // AFTER any replay, so the next batch to run is recovered_epoch - 1.
  for (std::size_t e = static_cast<std::size_t>(report->recovered_epoch) - 1;
       e < kShardEpochs; ++e) {
    db->ExecuteEpoch(ShardEpochBatch(seed, e));
  }

  std::vector<OracleState> actual;
  for (std::size_t s = 0; s < kShardCount; ++s) {
    actual.push_back(nvc::core::CaptureState(db->shard(s)));
  }
  std::string diff;
  const std::size_t divergences = nvc::core::DiffShardedStates(expected, actual, &diff);
  stats->divergences += divergences;
  std::string failure;
  if (divergences != 0) {
    failure = "sharded state diverged (" + std::to_string(divergences) + "):\n" + diff;
  } else if (nvc::core::MultiShardStateHash(expected) !=
             nvc::core::MultiShardStateHash(actual)) {
    failure = "sharded state hash mismatch with zero reported divergences";
  }
  if (verbose || !failure.empty()) {
    static constexpr const char* kModeNames[] = {"crash", "chaos", "torn"};
    std::printf("[sharded seed=%llu site=%s shard=%zu mode=%s keep=%.2f fire=%llu] %s\n",
                static_cast<unsigned long long>(seed), CrashSiteName(site), crash_shard,
                kModeNames[mode], keep, static_cast<unsigned long long>(fire_index),
                failure.empty() ? (crashed ? "ok" : "miss") : "FAIL");
  }
  return failure;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool verbose = false;
  std::size_t seeds = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--seeds" && i + 1 < argc) {
      char* end = nullptr;
      seeds = static_cast<std::size_t>(std::strtoull(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0' || seeds == 0) {
        std::fprintf(stderr, "crash_fuzz: --seeds requires a positive integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: crash_fuzz [--smoke] [--seeds N] [--verbose]\n");
      return 2;
    }
  }
  if (seeds == 0) {
    seeds = smoke ? 3 : 20;
  }

  const std::vector<FuzzConfig> configs = BuildConfigs(smoke);
  SweepStats stats;
  std::size_t failures = 0;

  for (std::size_t c = 0; c < configs.size(); ++c) {
    const std::size_t runs_before = stats.runs;
    const std::size_t crashed_before = stats.crashed_runs;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      for (CrashSite site : kAllCrashSites) {
        // The recovery-window sites only exist when instant recovery is on.
        if (IsRecoverySite(site) && !configs[c].spec.enable_instant_recovery) {
          continue;
        }
        // The scan/rebuild sites only exist on ordered-table configs.
        if ((site == CrashSite::kMidScanValidate ||
             site == CrashSite::kMidOrderedIndexRebuild) &&
            !configs[c].ordered) {
          continue;
        }
        // The shard-layer sites only exist in the sharded sweep below.
        if (site == CrashSite::kMidShardExchange ||
            site == CrashSite::kMidShardEpochBarrier) {
          continue;
        }
        const std::string failure = RunCase(configs[c], c, seed, site, &stats, verbose);
        if (!failure.empty()) {
          ++failures;
        }
      }
    }
    std::printf("config %-16s: %3zu runs, %3zu crashed+recovered, %3zu missed\n",
                configs[c].name.c_str(), stats.runs - runs_before,
                stats.crashed_runs - crashed_before,
                (stats.runs - runs_before) - (stats.crashed_runs - crashed_before));
  }

  // Multi-shard config: one sub-sweep per (seed, site, crashing shard). The
  // two shard-layer sites (kMidShardExchange, kMidShardEpochBarrier) exist
  // only here, so this sweep is what keeps the all-sites-fired gate honest
  // for them.
  {
    const std::size_t runs_before = stats.runs;
    const std::size_t crashed_before = stats.crashed_runs;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      for (CrashSite site : kShardedSites) {
        for (std::size_t shard = 0; shard < kShardCount; ++shard) {
          const std::string failure = RunShardedCase(seed, site, shard, &stats, verbose);
          if (!failure.empty()) {
            ++failures;
            std::printf("%s\n", failure.c_str());
          }
        }
      }
    }
    std::printf("config %-16s: %3zu runs, %3zu crashed+recovered, %3zu missed\n", "sharded",
                stats.runs - runs_before, stats.crashed_runs - crashed_before,
                (stats.runs - runs_before) - (stats.crashed_runs - crashed_before));
  }

  std::printf("\nper-site coverage (armed = runs targeting the site; fired = crashes):\n");
  bool all_sites_fired = true;
  for (std::size_t i = 0; i < kCrashSiteCount; ++i) {
    std::printf("  %-20s armed %4llu  fired %4llu  reached %7llu\n",
                CrashSiteName(kAllCrashSites[i]),
                static_cast<unsigned long long>(stats.armed[i]),
                static_cast<unsigned long long>(stats.armed_fired[i]),
                static_cast<unsigned long long>(stats.coverage.reached[i]));
    if (stats.armed_fired[i] == 0) {
      all_sites_fired = false;
      std::printf("    ^ never fired: the sweep exercised no crash at this site\n");
    }
  }

  std::printf("\ntotal: %zu runs (%zu via service), %zu crashed+recovered, %zu missed, "
              "%zu divergences, %zu index inconsistencies, %zu ordered inconsistencies\n",
              stats.runs, stats.service_runs, stats.crashed_runs, stats.missed_runs,
              stats.divergences, stats.index_inconsistencies,
              stats.ordered_inconsistencies);
  if (failures != 0 || !all_sites_fired) {
    std::printf("FAIL\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
