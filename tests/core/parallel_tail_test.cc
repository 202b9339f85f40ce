// Worker fan-out around the epoch tail: the parallel input-log encode and
// demotion copy, and the per-worker execute lines the one persistence tail
// retires, must reach the same logical persisted state at 4 workers as the
// serial 1-worker engine; the durable-write ledger must not depend on
// whether the caller waits for each tail; and the tail must stay
// recoverable at its crash sites.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "src/common/profiler.h"
#include "src/common/rng.h"
#include "src/common/worker_pool.h"
#include "src/core/input_log.h"
#include "src/core/oracle.h"
#include "tests/test_util.h"

namespace nvc::test {
namespace {

using core::CrashSite;
using core::Database;
using core::DatabaseSpec;
using core::InputLog;
using core::OracleState;
using sim::NvmConfig;
using sim::NvmDevice;

constexpr std::size_t kEpochs = 4;
constexpr std::size_t kTxnsPerEpoch = 32;
// Preloaded rows: puts/RMWs hit [0, 32), pool values [32, 64); the
// insert/delete churn range [64, 88) must start empty.
constexpr std::size_t kRows = 64;

// Deterministic mixed workload: fixed-row puts/RMWs, pool-allocated values
// (feed checkpoint + demotion), insert/delete churn (feed the persistent
// index), and aborts.
std::vector<std::unique_ptr<txn::Transaction>> MakeEpoch(std::uint64_t seed,
                                                         std::size_t epoch,
                                                         std::set<Key>* dyn_live) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + epoch + 1);
  std::set<Key> dyn_touched;
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  for (std::size_t i = 0; i < kTxnsPerEpoch; ++i) {
    const std::uint64_t pick = rng.NextBounded(100);
    if (pick < 25) {
      txns.push_back(std::make_unique<KvPutTxn>(rng.NextBounded(32), rng.Next()));
    } else if (pick < 45) {
      txns.push_back(std::make_unique<KvRmwTxn>(rng.NextBounded(32), rng.NextBounded(999)));
    } else if (pick < 60) {
      txns.push_back(std::make_unique<KvBigPutTxn>(32 + rng.NextBounded(32), rng.Next()));
    } else if (pick < 72) {
      txns.push_back(std::make_unique<KvVarPutTxn>(
          32 + rng.NextBounded(32), static_cast<std::uint32_t>(8 + rng.NextBounded(300)),
          rng.Next()));
    } else if (pick < 90) {
      const Key key = 64 + rng.NextBounded(24);
      if (!dyn_touched.insert(key).second) {
        txns.push_back(std::make_unique<KvPutTxn>(rng.NextBounded(32), rng.Next()));
      } else if (dyn_live->count(key) != 0) {
        dyn_live->erase(key);
        txns.push_back(std::make_unique<KvDeleteTxn>(key));
      } else {
        dyn_live->insert(key);
        txns.push_back(std::make_unique<KvInsertTxn>(key, rng.Next()));
      }
    } else {
      txns.push_back(std::make_unique<KvAbortTxn>(rng.NextBounded(32)));
    }
  }
  return txns;
}

enum class Variant { kDefault, kPersistentIndex, kColdTier };

DatabaseSpec SpecFor(Variant variant, std::size_t workers) {
  DatabaseSpec spec = SmallKvSpec(workers);
  if (variant == Variant::kPersistentIndex) {
    spec.enable_persistent_index = true;
  } else if (variant == Variant::kColdTier) {
    spec.enable_cold_tier = true;
    spec.cache_k = 1;
    spec.cold_block_size = 1024;
    spec.cold_blocks_per_core = 4096;
    spec.cold_freelist_capacity = 8192;
  }
  return spec;
}

NvmConfig ColdConfig(const DatabaseSpec& spec) {
  NvmConfig config;
  config.size_bytes = Database::RequiredColdDeviceBytes(spec);
  config.crash_tracking = sim::CrashTracking::kShadow;
  config.access_granule = 4096;
  return config;
}

struct RunArtifacts {
  OracleState state;
  std::uint64_t fences = 0;
  std::uint64_t persisted_lines = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t persist_ops = 0;
  std::size_t index_bad = 0;
};

// `sync` waits for every epoch's tail before the next ExecuteEpoch (the
// caller-chosen barrier); otherwise each tail overlaps the next epoch.
RunArtifacts RunWorkload(Variant variant, std::size_t workers, bool sync, std::uint64_t seed) {
  const DatabaseSpec spec = SpecFor(variant, workers);
  NvmDevice device(ShadowDeviceConfig(spec));
  std::unique_ptr<NvmDevice> cold;
  if (variant == Variant::kColdTier) {
    cold = std::make_unique<NvmDevice>(ColdConfig(spec));
  }
  Database db(device, spec, cold.get());
  db.Format();
  for (Key key = 0; key < kRows; ++key) {
    const std::uint64_t value = 5000 + key;
    db.BulkLoad(0, key, &value, sizeof(value));
  }
  db.FinalizeLoad();
  device.stats().Reset();

  std::set<Key> dyn_live;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    EXPECT_FALSE(db.ExecuteEpoch(MakeEpoch(seed, e, &dyn_live)).crashed);
    if (sync) {
      EXPECT_TRUE(db.WaitIdle().ok());
    }
  }
  EXPECT_TRUE(db.WaitIdle().ok());

  RunArtifacts out;
  out.state = core::CaptureState(db);
  out.fences = device.stats().fences.Sum();
  out.persisted_lines = device.stats().persisted_lines.Sum();
  out.write_bytes = device.stats().write_bytes.Sum();
  out.persist_ops = device.stats().persist_ops.Sum();
  std::string diff;
  out.index_bad = core::ValidatePersistentIndex(db, &diff);
  return out;
}

class ParallelTailTest : public ::testing::TestWithParam<Variant> {};

// The oracle: the 1-worker (serial) engine. At 4 workers the fanned-out
// phases reach the same logical committed state, in both caller modes.
TEST_P(ParallelTailTest, MatchesSerialTailOracle) {
  const Variant variant = GetParam();
  const RunArtifacts serial = RunWorkload(variant, 1, /*sync=*/true, 7);
  EXPECT_EQ(serial.index_bad, 0u);
  for (const bool sync : {true, false}) {
    const RunArtifacts parallel = RunWorkload(variant, 4, sync, 7);
    EXPECT_EQ(core::StateHash(serial.state), core::StateHash(parallel.state)) << "sync=" << sync;
    std::string diff;
    EXPECT_EQ(core::DiffStates(serial.state, parallel.state, &diff), 0u)
        << "sync=" << sync << "\n"
        << diff;
    EXPECT_EQ(parallel.index_bad, 0u) << "sync=" << sync;
  }
}

// Crash-ordering invariant: the durable-write ledger is a function of the
// workload and the worker count only. Waiting for every tail (barrier) or
// overlapping it with the next epoch persists the same lines and bytes with
// the same fences and clwb batches. Across worker counts the tail's fence
// count differs exactly by its one fence per extra worker per epoch.
TEST_P(ParallelTailTest, NvmCountsMatchSerialTail) {
  const Variant variant = GetParam();
  const RunArtifacts serial = RunWorkload(variant, 1, /*sync=*/true, 11);
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const RunArtifacts barrier = RunWorkload(variant, workers, /*sync=*/true, 11);
    const RunArtifacts overlapped = RunWorkload(variant, workers, /*sync=*/false, 11);
    EXPECT_EQ(barrier.fences, overlapped.fences) << "workers=" << workers;
    EXPECT_EQ(barrier.persisted_lines, overlapped.persisted_lines) << "workers=" << workers;
    EXPECT_EQ(barrier.write_bytes, overlapped.write_bytes) << "workers=" << workers;
    EXPECT_EQ(barrier.persist_ops, overlapped.persist_ops) << "workers=" << workers;
    EXPECT_EQ(barrier.fences, serial.fences + (workers - 1) * kEpochs) << "workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ParallelTailTest,
                         ::testing::Values(Variant::kDefault, Variant::kPersistentIndex,
                                           Variant::kColdTier));

// The parallel input log writes a byte-identical image to the serial one:
// same header (including the chunked checksum) and same payload bytes.
TEST(ParallelTailTest, ParallelInputLogImageIsByteIdentical) {
  constexpr std::size_t kBuffer = 1 << 16;
  NvmConfig config;
  config.size_bytes = InputLog::RequiredBytes(kBuffer);
  config.crash_tracking = sim::CrashTracking::kShadow;

  NvmDevice serial_device(config);
  NvmDevice parallel_device(config);
  InputLog serial_log(serial_device, 0, kBuffer);
  InputLog parallel_log(parallel_device, 0, kBuffer);
  serial_log.Format();
  parallel_log.Format();

  std::vector<std::unique_ptr<txn::Transaction>> txns;
  for (std::uint64_t i = 0; i < 100; ++i) {
    txns.push_back(std::make_unique<KvVarPutTxn>(
        i, static_cast<std::uint32_t>(8 + (i * 37) % 200), i * 3));
  }

  WorkerPool pool(4);
  PhaseProfiler profiler;
  const std::size_t serial_bytes = serial_log.LogEpoch(3, txns, 0);
  const std::size_t parallel_bytes = parallel_log.LogEpochParallel(3, txns, pool, profiler);
  EXPECT_EQ(serial_bytes, parallel_bytes);
  EXPECT_EQ(std::memcmp(serial_device.At(kBuffer), parallel_device.At(kBuffer),
                        sizeof(std::uint64_t) * 4 + serial_bytes),
            0);

  // Both decode back to the same transaction count through the registry.
  const auto registry = KvRegistry();
  std::vector<std::unique_ptr<txn::Transaction>> decoded;
  ASSERT_TRUE(parallel_log.LoadEpoch(3, registry, &decoded, 0));
  EXPECT_EQ(decoded.size(), txns.size());
}

// Crash/recover inside the persistence tail: kMidOverlapTailPersist leaves
// the pool checkpoints staged, unfenced, header not flipped;
// kDuringIndexApply leaves the delta batch part-applied, slots tagged with
// the uncheckpointed epoch. The caller waits for every tail, so the crash
// surfaces in its own epoch.
class TailSiteCrashTest : public ::testing::TestWithParam<CrashSite> {};

TEST_P(TailSiteCrashTest, CrashAtMappedSiteRecovers) {
  const CrashSite site = GetParam();
  DatabaseSpec spec = SpecFor(Variant::kPersistentIndex, 1);

  // Oracle: the same stream executed crash-free.
  OracleState expected;
  {
    NvmDevice device(ShadowDeviceConfig(spec));
    Database db(device, spec);
    db.Format();
    for (Key key = 0; key < kRows; ++key) {
      const std::uint64_t value = 5000 + key;
      db.BulkLoad(0, key, &value, sizeof(value));
    }
    db.FinalizeLoad();
    std::set<Key> dyn_live;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      db.ExecuteEpoch(MakeEpoch(21, e, &dyn_live));
    }
    ASSERT_TRUE(db.WaitIdle().ok());
    expected = core::CaptureState(db);
  }

  NvmDevice device(ShadowDeviceConfig(spec));
  bool crashed = false;
  std::size_t crash_epoch = 0;
  {
    Database db(device, spec);
    db.Format();
    for (Key key = 0; key < kRows; ++key) {
      const std::uint64_t value = 5000 + key;
      db.BulkLoad(0, key, &value, sizeof(value));
    }
    db.FinalizeLoad();
    std::uint64_t reached = 0;
    db.SetCrashHook([&reached, site](CrashSite s) { return s == site && ++reached == 2; });
    std::set<Key> dyn_live;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      if (db.ExecuteEpoch(MakeEpoch(21, e, &dyn_live)).crashed || !db.WaitIdle().ok()) {
        crashed = true;
        crash_epoch = e;
        break;
      }
    }
  }
  ASSERT_TRUE(crashed) << "site " << core::CrashSiteName(site) << " never fired";

  device.Crash();
  Database db(device, spec);
  const core::RecoveryReport report = db.Recover(KvRegistry()).value();
  std::set<Key> dyn_live;
  std::size_t resume = crash_epoch;
  for (std::size_t e = 0; e < resume; ++e) {
    MakeEpoch(21, e, &dyn_live);  // advance the generator's live-set state
  }
  if (!report.replayed) {
    db.ExecuteEpoch(MakeEpoch(21, crash_epoch, &dyn_live));
  } else {
    MakeEpoch(21, crash_epoch, &dyn_live);  // replayed from the input log
  }
  for (std::size_t e = crash_epoch + 1; e < kEpochs; ++e) {
    db.ExecuteEpoch(MakeEpoch(21, e, &dyn_live));
  }

  std::string diff;
  EXPECT_EQ(core::DiffStates(expected, core::CaptureState(db), &diff), 0u) << diff;
  std::string index_diff;
  EXPECT_EQ(core::ValidatePersistentIndex(db, &index_diff), 0u) << index_diff;
}

INSTANTIATE_TEST_SUITE_P(MappedSites, TailSiteCrashTest,
                         ::testing::Values(CrashSite::kMidOverlapTailPersist,
                                           CrashSite::kDuringIndexApply));

}  // namespace
}  // namespace nvc::test
