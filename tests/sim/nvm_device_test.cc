// Simulated NVMM device: persistence semantics (persist + fence), crash
// behaviour (deterministic and chaos), accounting granularity, and the
// file-backed mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "src/sim/nvm_device.h"

namespace nvc::test {
namespace {

using sim::CrashTracking;
using sim::LatencyProfile;
using sim::NvmConfig;
using sim::NvmDevice;

NvmConfig ShadowConfig(std::size_t bytes = 1 << 16) {
  NvmConfig config;
  config.size_bytes = bytes;
  config.crash_tracking = CrashTracking::kShadow;
  return config;
}

TEST(NvmDeviceTest, UnpersistedWritesAreLostOnCrash) {
  NvmDevice device(ShadowConfig());
  std::memset(device.At(0), 0xAB, 128);
  device.Crash();
  EXPECT_EQ(device.At(0)[0], 0);
  EXPECT_EQ(device.At(0)[127], 0);
}

TEST(NvmDeviceTest, PersistWithoutFenceIsLostOnCrash) {
  NvmDevice device(ShadowConfig());
  std::memset(device.At(0), 0xAB, 128);
  device.Persist(0, 128, 0);
  // No fence: the flush was initiated but not ordered/completed.
  device.Crash();
  EXPECT_EQ(device.At(0)[0], 0);
}

TEST(NvmDeviceTest, PersistPlusFenceSurvivesCrash) {
  NvmDevice device(ShadowConfig());
  std::memset(device.At(0), 0xAB, 128);
  device.Persist(0, 128, 0);
  device.Fence(0);
  std::memset(device.At(256), 0xCD, 64);  // dirty, unpersisted
  device.Crash();
  EXPECT_EQ(device.At(0)[0], 0xAB);
  EXPECT_EQ(device.At(0)[127], 0xAB);
  EXPECT_EQ(device.At(256)[0], 0);
}

TEST(NvmDeviceTest, PersistenceIsLineGranular) {
  NvmDevice device(ShadowConfig());
  // Dirty two adjacent lines; persist only part of the first one.
  std::memset(device.At(0), 0x11, 128);
  device.Persist(8, 8, 0);  // within line 0
  device.Fence(0);
  device.Crash();
  // The whole first line was written back; the second was not.
  EXPECT_EQ(device.At(0)[0], 0x11);
  EXPECT_EQ(device.At(0)[63], 0x11);
  EXPECT_EQ(device.At(64)[0], 0);
}

TEST(NvmDeviceTest, FenceIsPerCore) {
  NvmDevice device(ShadowConfig());
  std::memset(device.At(0), 0x22, 64);
  std::memset(device.At(64), 0x33, 64);
  device.Persist(0, 64, /*core=*/0);
  device.Persist(64, 64, /*core=*/1);
  device.Fence(/*core=*/0);  // only core 0's staged persists become durable
  device.Crash();
  EXPECT_EQ(device.At(0)[0], 0x22);
  EXPECT_EQ(device.At(64)[0], 0);
}

TEST(NvmDeviceTest, FenceAllDrainsEveryCoreForOneFence) {
  NvmDevice device(ShadowConfig());
  std::memset(device.At(0), 0x44, 64);
  std::memset(device.At(64), 0x55, 64);
  std::memset(device.At(128), 0x66, 64);
  device.Persist(0, 64, /*core=*/0);
  device.Persist(64, 64, /*core=*/1);
  device.Persist(128, 64, /*core=*/3);
  const std::uint64_t fences_before = device.stats().fences.Sum();
  device.FenceAll(/*core_for_stats=*/0);
  EXPECT_EQ(device.stats().fences.Sum(), fences_before + 1);
  device.Crash();
  // All cores' staged persists became durable at the single barrier.
  EXPECT_EQ(device.At(0)[0], 0x44);
  EXPECT_EQ(device.At(64)[0], 0x55);
  EXPECT_EQ(device.At(128)[0], 0x66);
}

TEST(NvmDeviceTest, ChaosCrashKeepsSubsetDeterministically) {
  auto run = [](std::uint64_t seed) {
    NvmDevice device(ShadowConfig());
    std::memset(device.At(0), 0x77, 4096);  // 64 dirty lines, none persisted
    device.CrashChaos(seed, 0.5);
    std::size_t survived = 0;
    for (std::size_t line = 0; line < 4096; line += kCacheLineSize) {
      if (device.At(line)[0] == 0x77) {
        ++survived;
      }
    }
    return survived;
  };
  const std::size_t a1 = run(5);
  const std::size_t a2 = run(5);
  const std::size_t b = run(6);
  EXPECT_EQ(a1, a2);      // deterministic from the seed
  EXPECT_GT(a1, 8u);      // roughly half survive
  EXPECT_LT(a1, 56u);
  EXPECT_NE(a1, b);       // different seeds differ (overwhelmingly likely)
}

TEST(NvmDeviceTest, ChaosSurvivorsBecomePartOfPersistedImage) {
  NvmDevice device(ShadowConfig());
  std::memset(device.At(0), 0x55, 64);
  device.CrashChaos(/*seed=*/1, /*keep_probability=*/1.0);
  EXPECT_EQ(device.At(0)[0], 0x55);
  // A second crash must not revert the line that already survived.
  device.Crash();
  EXPECT_EQ(device.At(0)[0], 0x55);
}

TEST(NvmDeviceTest, ReadAccountingUses256ByteGranules) {
  NvmDevice device(NvmConfig{.size_bytes = 1 << 16});
  device.ChargeRead(0, 1, 0);
  EXPECT_EQ(device.stats().read_granules.Sum(), 1u);
  device.ChargeRead(255, 2, 0);  // straddles two granules
  EXPECT_EQ(device.stats().read_granules.Sum(), 3u);
  device.ChargeRead(0, 1024, 0);  // four granules
  EXPECT_EQ(device.stats().read_granules.Sum(), 7u);
  EXPECT_EQ(device.stats().read_bytes.Sum(), 1027u);
}

TEST(NvmDeviceTest, PersistAccountingUses64ByteLines) {
  NvmDevice device(NvmConfig{.size_bytes = 1 << 16});
  device.Persist(0, 1, 0);
  EXPECT_EQ(device.stats().persisted_lines.Sum(), 1u);
  device.Persist(63, 2, 0);  // straddles two lines
  EXPECT_EQ(device.stats().persisted_lines.Sum(), 3u);
  EXPECT_EQ(device.stats().persist_ops.Sum(), 2u);
}

TEST(NvmDeviceTest, LatencyInjectionSlowsOperations) {
  NvmConfig fast_config{.size_bytes = 1 << 16};
  NvmConfig slow_config{.size_bytes = 1 << 16};
  slow_config.latency = LatencyProfile{.read_ns_per_granule = 2000,
                                       .write_ns_per_line = 2000,
                                       .fence_ns = 2000};
  NvmDevice fast(fast_config);
  NvmDevice slow(slow_config);

  auto time_reads = [](NvmDevice& device) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000; ++i) {
      device.ChargeRead(0, 256, 0);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  const double fast_seconds = time_reads(fast);
  const double slow_seconds = time_reads(slow);
  // 1000 x 2000 ns = 2 ms minimum for the slow device.
  EXPECT_GT(slow_seconds, 0.0015);
  EXPECT_GT(slow_seconds, fast_seconds * 2);
}

TEST(NvmDeviceTest, ScaledProfile) {
  const LatencyProfile base = LatencyProfile::Optane();
  const LatencyProfile half = base.Scaled(0.5);
  EXPECT_EQ(half.read_ns_per_granule, base.read_ns_per_granule / 2);
  EXPECT_EQ(half.write_ns_per_line, base.write_ns_per_line / 2);
}

TEST(NvmDeviceTest, FileBackedPersistsAcrossReopen) {
  const std::string path = "/tmp/nvc_device_test.pool";
  std::filesystem::remove(path);
  {
    NvmConfig config{.size_bytes = 1 << 16};
    config.backing_file = path;
    NvmDevice device(config);
    EXPECT_FALSE(device.recovered_existing_file());
    std::memset(device.At(128), 0x5A, 64);
  }
  {
    NvmConfig config{.size_bytes = 1 << 16};
    config.backing_file = path;
    NvmDevice device(config);
    EXPECT_TRUE(device.recovered_existing_file());
    EXPECT_EQ(device.At(128)[0], 0x5A);
  }
  std::filesystem::remove(path);
}

TEST(NvmDeviceTest, SyntheticChargesCountStats) {
  NvmDevice device(NvmConfig{.size_bytes = 1 << 16});
  device.ChargeSyntheticRead(512, 0);
  device.ChargeSyntheticWrite(100, 0);
  EXPECT_EQ(device.stats().read_granules.Sum(), 2u);
  EXPECT_EQ(device.stats().persisted_lines.Sum(), 2u);
}

TEST(NvmDeviceTest, ZeroLengthChargesAreFree) {
  // A zero-length charge used to reach GranulesTouched with n == 0, where
  // `offset + n - 1` underflows and bills ~2^64/granule granules (an
  // effectively infinite busy-wait when latency injection is on).
  NvmConfig config{.size_bytes = 1 << 16};
  config.latency = LatencyProfile{.read_ns_per_granule = 1'000'000'000,
                                  .write_ns_per_line = 1'000'000'000,
                                  .fence_ns = 0};
  NvmDevice device(config);
  device.ChargeRead(0, 0, 0);
  device.Persist(0, 0, 0);
  device.ChargeSyntheticRead(0, 0);
  device.ChargeSyntheticWrite(0, 0);
  EXPECT_EQ(device.stats().read_granules.Sum(), 0u);
  EXPECT_EQ(device.stats().read_bytes.Sum(), 0u);
  EXPECT_EQ(device.stats().persisted_lines.Sum(), 0u);
  EXPECT_EQ(device.stats().persist_ops.Sum(), 0u);
}

TEST(NvmDeviceTest, ZeroLengthWritePersistFromNullIsANoOp) {
  // An empty epoch's log payload reaches WritePersist as (nullptr, 0); a
  // memcpy from null is undefined even for zero bytes (UBSan reports it).
  NvmDevice device(ShadowConfig());
  const std::uint64_t value = 0x1122334455667788ULL;
  device.WritePersist(128, &value, sizeof(value), 0);
  device.Fence(0);
  const std::uint64_t write_bytes = device.stats().write_bytes.Sum();
  const std::uint64_t lines = device.stats().persisted_lines.Sum();
  const std::uint64_t ops = device.stats().persist_ops.Sum();
  device.WritePersist(128, nullptr, 0, 0);
  device.Fence(0);
  EXPECT_EQ(device.stats().write_bytes.Sum(), write_bytes);
  EXPECT_EQ(device.stats().persisted_lines.Sum(), lines);
  EXPECT_EQ(device.stats().persist_ops.Sum(), ops);
  device.Crash();
  std::uint64_t survived = 0;
  std::memcpy(&survived, device.At(128), sizeof(survived));
  EXPECT_EQ(survived, value);
}

TEST(NvmDeviceTest, TornCrashTearsOnlyStagedRanges) {
  NvmDevice device(ShadowConfig());
  // Line 0: dirty and staged (clwb issued, no fence) — eligible to survive.
  std::memset(device.At(0), 0xA1, 64);
  device.Persist(0, 64, 0);
  // Line at 256: dirty but never persisted — must always revert.
  std::memset(device.At(256), 0xB2, 64);
  device.CrashTorn(/*seed=*/3, /*keep_probability=*/1.0);
  EXPECT_EQ(device.At(0)[0], 0xA1);
  EXPECT_EQ(device.At(256)[0], 0);
  // Survivors joined the persisted image: a later crash keeps them.
  device.Crash();
  EXPECT_EQ(device.At(0)[0], 0xA1);
}

TEST(NvmDeviceTest, TornCrashDropsEverythingAtZeroKeepProbability) {
  NvmDevice device(ShadowConfig());
  std::memset(device.At(0), 0xC3, 512);
  device.Persist(0, 512, 0);
  device.CrashTorn(/*seed=*/4, /*keep_probability=*/0.0);
  for (std::size_t i = 0; i < 512; i += 64) {
    EXPECT_EQ(device.At(i)[0], 0) << "line " << i;
  }
}

TEST(NvmDeviceTest, TornCrashSplitsMultiLinePersistDeterministically) {
  auto run = [](std::uint64_t seed) {
    NvmDevice device(ShadowConfig());
    // One 16-line staged persist (a multi-line value + header write).
    std::memset(device.At(0), 0xD4, 1024);
    device.Persist(0, 1024, 0);
    device.CrashTorn(seed, 0.5);
    std::vector<bool> survived;
    for (std::size_t line = 0; line < 1024; line += kCacheLineSize) {
      survived.push_back(device.At(line)[0] == 0xD4);
    }
    return survived;
  };
  const auto a1 = run(9);
  const auto a2 = run(9);
  EXPECT_EQ(a1, a2);  // deterministic from the seed
  const std::size_t kept = static_cast<std::size_t>(
      std::count(a1.begin(), a1.end(), true));
  EXPECT_GT(kept, 0u);   // with p=0.5 over 16 lines, all-or-nothing is
  EXPECT_LT(kept, 16u);  // astronomically unlikely for this seed
}

TEST(NvmDeviceTest, TornCrashIsPerCoreIndependent) {
  NvmDevice device(ShadowConfig());
  std::memset(device.At(0), 0xE5, 64);
  std::memset(device.At(1024), 0xE6, 64);
  device.Persist(0, 64, /*core=*/0);
  device.Persist(1024, 64, /*core=*/1);
  device.Fence(/*core=*/0);  // core 0's line is already durable
  device.CrashTorn(/*seed=*/11, /*keep_probability=*/0.0);
  EXPECT_EQ(device.At(0)[0], 0xE5);    // fenced before the crash
  EXPECT_EQ(device.At(1024)[0], 0);    // staged on core 1, torn away
}

}  // namespace
}  // namespace nvc::test
