// Pipelined-vs-barrier equivalence (DESIGN.md section 13).
//
// The engine overlaps epoch N+1's front half with epoch N's persistence
// tail; a caller that wants barrier semantics calls WaitIdle() after every
// ExecuteEpoch. The overlap must be a pure scheduling change: for any
// transaction stream both callers have to see the same logical state, the
// same persisted NVMM image, and the same device line/fence ledger. This
// suite proves that across the feature matrix (persistent index, cold tier,
// instant recovery, multi-worker), then crashes inside the overlap window at
// both sites and checks recovery lands on the barrier reference state.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/database.h"
#include "src/core/oracle.h"
#include "src/sim/nvm_device.h"
#include "tests/test_util.h"

namespace nvc::test {
namespace {

using core::CrashSite;
using core::Database;
using core::DatabaseSpec;
using core::EpochResult;
using core::OracleState;
using core::RecoveryReport;
using sim::NvmCounters;
using sim::NvmDevice;

constexpr std::size_t kBaseRows = 32;
constexpr std::size_t kBigBase = 32;
constexpr std::size_t kBigRows = 24;
constexpr std::size_t kDynBase = 64;
constexpr std::size_t kDynRows = 16;
constexpr std::size_t kEpochs = 6;
constexpr std::size_t kTxnsPerEpoch = 24;

enum class Config { kDefault, kPindex, kColdTier, kInstant, kMultiWorker };

DatabaseSpec SpecFor(Config config) {
  DatabaseSpec spec = SmallKvSpec(config == Config::kMultiWorker ? 4 : 1);
  switch (config) {
    case Config::kDefault:
    case Config::kMultiWorker:
      break;
    case Config::kPindex:
      spec.enable_persistent_index = true;
      break;
    case Config::kColdTier:
      spec.enable_cold_tier = true;
      spec.cache_k = 1;  // short LRU window so demotions happen within the run
      spec.cold_block_size = 1024;
      spec.cold_blocks_per_core = 4096;
      spec.cold_freelist_capacity = 8192;
      break;
    case Config::kInstant:
      spec.enable_instant_recovery = true;
      break;
  }
  return spec;
}

sim::NvmConfig ColdDeviceConfig(const DatabaseSpec& spec) {
  sim::NvmConfig config;
  config.size_bytes = Database::RequiredColdDeviceBytes(spec);
  config.crash_tracking = sim::CrashTracking::kShadow;
  config.access_granule = 4096;
  return config;
}

// Deterministic mixed stream: inline puts/RMWs, pool values (major GC and
// demotion fodder), and insert/delete churn.
std::vector<std::unique_ptr<txn::Transaction>> MakeEpoch(std::uint64_t epoch,
                                                         std::set<Key>* dyn_live) {
  Rng rng(epoch * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  std::set<Key> dyn_touched;
  for (std::size_t i = 0; i < kTxnsPerEpoch; ++i) {
    const std::uint64_t pick = rng.NextBounded(100);
    if (pick < 30) {
      txns.push_back(std::make_unique<KvPutTxn>(rng.NextBounded(kBaseRows), rng.Next()));
    } else if (pick < 50) {
      txns.push_back(
          std::make_unique<KvRmwTxn>(rng.NextBounded(kBaseRows), rng.NextBounded(1000)));
    } else if (pick < 65) {
      txns.push_back(
          std::make_unique<KvBigPutTxn>(kBigBase + rng.NextBounded(kBigRows), rng.Next()));
    } else if (pick < 78) {
      txns.push_back(std::make_unique<KvVarPutTxn>(
          kBigBase + rng.NextBounded(kBigRows),
          static_cast<std::uint32_t>(8 + rng.NextBounded(393)), rng.Next()));
    } else if (pick < 92) {
      const Key key = kDynBase + rng.NextBounded(kDynRows);
      if (!dyn_touched.insert(key).second) {
        txns.push_back(std::make_unique<KvPutTxn>(rng.NextBounded(kBaseRows), rng.Next()));
      } else if (dyn_live->count(key) != 0) {
        dyn_live->erase(key);
        txns.push_back(std::make_unique<KvDeleteTxn>(key));
      } else {
        dyn_live->insert(key);
        txns.push_back(std::make_unique<KvInsertTxn>(key, rng.Next()));
      }
    } else {
      txns.push_back(std::make_unique<KvAbortTxn>(rng.NextBounded(kBaseRows)));
    }
  }
  return txns;
}

void LoadAll(Database& db) {
  for (std::size_t i = 0; i < kBigBase + kBigRows; ++i) {
    const std::uint64_t value = 7000 + i;
    db.BulkLoad(0, i, &value, sizeof(value));
  }
  db.FinalizeLoad();
}

struct RunResult {
  OracleState state;
  NvmCounters counters;
  std::vector<std::uint8_t> image;  // hot device after crash-revert (durable lines only)
};

// `barrier` waits for every epoch's tail before submitting the next epoch.
RunResult RunStream(Config config, bool barrier) {
  const DatabaseSpec spec = SpecFor(config);
  NvmDevice device(ShadowDeviceConfig(spec));
  std::unique_ptr<NvmDevice> cold;
  if (spec.enable_cold_tier) {
    cold = std::make_unique<NvmDevice>(ColdDeviceConfig(spec));
  }
  RunResult out;
  {
    Database db(device, spec, cold.get());
    db.Format();
    LoadAll(db);
    std::set<Key> dyn_live;
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      const EpochResult result = db.ExecuteEpoch(MakeEpoch(e, &dyn_live));
      EXPECT_FALSE(result.crashed);
      if (barrier) {
        EXPECT_TRUE(db.WaitIdle().ok());
      }
    }
    // Quiesce the asynchronous tail before reading any ledger: the barrier
    // and pipelined callers must agree only at epoch durability points.
    EXPECT_TRUE(db.WaitIdle().ok());
    out.state = core::CaptureState(db);
    std::string diff;
    EXPECT_EQ(core::ValidatePersistentIndex(db, &diff), 0u) << diff;
    out.counters = db.device().stats().Snapshot();
  }
  // Revert staged-but-unfenced lines so the comparison covers exactly the
  // bytes a power failure would preserve.
  device.Crash();
  out.image.assign(device.At(0), device.At(0) + device.size());
  return out;
}

class PipelineEquivalenceTest : public ::testing::TestWithParam<Config> {};

// The equivalence claim: same logical state, same durable image, same
// write/line/persist/fence ledger.
TEST_P(PipelineEquivalenceTest, MatchesBarrierEngine) {
  const RunResult barrier = RunStream(GetParam(), /*barrier=*/true);
  const RunResult pipelined = RunStream(GetParam(), /*barrier=*/false);

  std::string diff;
  EXPECT_EQ(core::DiffStates(barrier.state, pipelined.state, &diff), 0u) << diff;
  EXPECT_EQ(core::StateHash(barrier.state), core::StateHash(pipelined.state));

  EXPECT_EQ(barrier.counters.write_bytes, pipelined.counters.write_bytes);
  EXPECT_EQ(barrier.counters.persisted_lines, pipelined.counters.persisted_lines);
  EXPECT_EQ(barrier.counters.persist_ops, pipelined.counters.persist_ops);
  EXPECT_EQ(barrier.counters.fences, pipelined.counters.fences);

  ASSERT_EQ(barrier.image.size(), pipelined.image.size());
  EXPECT_EQ(std::memcmp(barrier.image.data(), pipelined.image.data(), barrier.image.size()),
            0)
      << "durable NVMM images diverge";
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, PipelineEquivalenceTest,
                         ::testing::Values(Config::kDefault, Config::kPindex,
                                           Config::kColdTier, Config::kInstant,
                                           Config::kMultiWorker));

// ---- Crash during the overlap window ----------------------------------------

class PipelineCrashTest
    : public ::testing::TestWithParam<std::tuple<Config, CrashSite>> {};

// Crash at one of the two overlap-window sites, recover over the surviving
// image, finish the stream, and diff against a crash-free barrier reference.
// The resume point comes from the recovered header: a tail crash of epoch N
// surfaces while epoch N+1's (cancelled) front half is running.
TEST_P(PipelineCrashTest, RecoversToBarrierReference) {
  const auto [config, site] = GetParam();
  const RunResult reference = RunStream(config, /*barrier=*/true);

  const DatabaseSpec spec = SpecFor(config);
  NvmDevice device(ShadowDeviceConfig(spec));
  std::unique_ptr<NvmDevice> cold;
  if (spec.enable_cold_tier) {
    cold = std::make_unique<NvmDevice>(ColdDeviceConfig(spec));
  }
  std::set<Key> dyn_live;
  {
    Database db(device, spec, cold.get());
    db.Format();
    LoadAll(db);
    std::atomic<std::uint64_t> reached{0};
    db.SetCrashHook([&reached, site](CrashSite s) {
      return s == site && ++reached == 3;  // third epoch's overlap window
    });
    bool crashed = false;
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      std::set<Key> scratch = dyn_live;  // generator state must survive the crash
      if (db.ExecuteEpoch(MakeEpoch(e, &scratch)).crashed) {
        crashed = true;
        break;
      }
      dyn_live = std::move(scratch);
    }
    if (!crashed) {
      crashed = !db.WaitIdle().ok();
    }
    ASSERT_TRUE(crashed) << "overlap site never fired";
  }
  device.Crash();
  if (cold) {
    cold->Crash();
  }

  Database recovered(device, spec, cold.get());
  const RecoveryReport report = recovered.Recover(KvRegistry()).value();
  const std::size_t resume = static_cast<std::size_t>(report.recovered_epoch) +
                             (report.replayed ? 1 : 0) - 1;
  std::set<Key> replay_live;
  for (std::uint64_t e = 0; e < resume; ++e) {
    MakeEpoch(e, &replay_live);  // advance the generator to the resume point
  }
  for (std::uint64_t e = resume; e < kEpochs; ++e) {
    EXPECT_FALSE(recovered.ExecuteEpoch(MakeEpoch(e, &replay_live)).crashed);
  }
  if (recovered.instant_recovery_pending()) {
    ASSERT_TRUE(recovered.CompleteBackfill().ok());
  }
  EXPECT_TRUE(recovered.WaitIdle().ok());

  std::string diff;
  EXPECT_EQ(core::DiffStates(reference.state, core::CaptureState(recovered), &diff), 0u)
      << diff;
  std::string index_diff;
  EXPECT_EQ(core::ValidatePersistentIndex(recovered, &index_diff), 0u) << index_diff;
}

INSTANTIATE_TEST_SUITE_P(
    OverlapSites, PipelineCrashTest,
    ::testing::Combine(::testing::Values(Config::kDefault, Config::kPindex,
                                         Config::kInstant),
                       ::testing::Values(CrashSite::kMidOverlapExecute,
                                         CrashSite::kMidOverlapTailPersist)));

// ---- Callback swap vs the tail thread ----------------------------------------

// Regression for the SetEpochCallback race: installing or clearing the
// durable-notify callback concurrently with running epochs (whose tails
// invoke it from the tail thread) must be safe, and a clearing call must
// leave no in-flight invocation behind. Run under TSan in CI.
TEST(PipelineTest, CallbackSwapRacesTailSafely) {
  const DatabaseSpec spec = SpecFor(Config::kDefault);
  NvmDevice device(ShadowDeviceConfig(spec));
  Database db(device, spec);
  db.Format();
  LoadAll(db);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> invocations{0};
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      db.SetEpochCallback(
          [&invocations](const EpochResult&, const std::vector<core::TxnOutcome>&) {
            invocations.fetch_add(1, std::memory_order_relaxed);
          });
      std::this_thread::yield();
      db.SetEpochCallback({});
    }
  });

  std::set<Key> dyn_live;
  for (std::uint64_t e = 0; e < 40; ++e) {
    ASSERT_FALSE(db.ExecuteEpoch(MakeEpoch(e % kEpochs, &dyn_live)).crashed);
  }
  stop.store(true, std::memory_order_release);
  swapper.join();
  EXPECT_TRUE(db.WaitIdle().ok());
}

}  // namespace
}  // namespace nvc::test
