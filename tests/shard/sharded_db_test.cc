// Multi-shard database: shared partitioner routing, cross-shard transfers
// through the fixed-point read exchange, router deferrals, crash/recovery to
// one consistent global epoch, per-shard ledger identity against standalone
// engines, and the stats/profiler roll-ups.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/partition.h"
#include "src/core/oracle.h"
#include "src/shard/sharded_db.h"
#include "src/service/sharded_service.h"
#include "tests/test_util.h"

namespace nvc::test {
namespace {

using core::DatabaseSpec;
using core::TxnOutcome;
using shard::ShardedDatabase;
using shard::ShardedEpochResult;
using sim::NvmDevice;

sim::NvmConfig ShardDeviceConfig(const DatabaseSpec& base) {
  sim::NvmConfig config;
  config.size_bytes = ShardedDatabase::RequiredDeviceBytes(base);
  config.crash_tracking = sim::CrashTracking::kShadow;
  return config;
}

// N shard devices + a ShardedDatabase, bulk-loaded with `rows` keys holding
// 1000 + key (same seed state as the single-engine suites).
struct ShardedFixture {
  DatabaseSpec base;
  std::vector<std::unique_ptr<NvmDevice>> owned;
  std::vector<NvmDevice*> devices;
  std::unique_ptr<ShardedDatabase> db;

  explicit ShardedFixture(std::size_t shards, DatabaseSpec spec = SmallKvSpec())
      : base(std::move(spec)) {
    for (std::size_t s = 0; s < shards; ++s) {
      owned.push_back(std::make_unique<NvmDevice>(ShardDeviceConfig(base)));
      devices.push_back(owned.back().get());
    }
    db = std::make_unique<ShardedDatabase>(devices, base);
    db->Format();
  }

  void Load(std::size_t rows) {
    for (std::size_t i = 0; i < rows; ++i) {
      const std::uint64_t value = 1000 + i;
      db->BulkLoad(0, i, &value, sizeof(value));
    }
    db->FinalizeLoad();
  }

  std::uint64_t Read(Key key) {
    std::uint64_t value = 0;
    const auto n = db->ReadCommitted(0, key, &value, sizeof(value));
    return n.ok() ? value : ~0ULL;
  }
};

// First pair of keys < limit owned by different shards.
std::pair<Key, Key> CrossShardPair(const ShardedDatabase& db, Key limit) {
  const std::size_t home = db.OwnerOf(0, 0);
  for (Key k = 1; k < limit; ++k) {
    if (db.OwnerOf(0, k) != home) {
      return {0, k};
    }
  }
  ADD_FAILURE() << "no cross-shard key pair below " << limit;
  return {0, 0};
}

TEST(ShardSpecTest, RejectsUnsupportedModes) {
  DatabaseSpec base = SmallKvSpec();
  base.enable_instant_recovery = true;
  const DatabaseSpec normalized = ShardedDatabase::ShardSpec(base);
  EXPECT_FALSE(normalized.enable_instant_recovery);

  DatabaseSpec aria = SmallKvSpec();
  aria.concurrency = core::ConcurrencyControl::kAria;
  EXPECT_THROW(ShardedDatabase::ShardSpec(aria), std::invalid_argument);

  DatabaseSpec counters = SmallKvSpec();
  counters.counters.push_back(0);
  EXPECT_THROW(ShardedDatabase::ShardSpec(counters), std::invalid_argument);
}

TEST(ShardedDatabaseTest, PartitionerRoutesLoadAndReads) {
  ShardedFixture f(2);
  f.Load(64);
  for (Key k = 0; k < 64; ++k) {
    ASSERT_EQ(f.db->OwnerOf(0, k), PartitionOf(0, k, 2));
    ASSERT_EQ(f.Read(k), 1000 + k);
    // The row lives only on its owner shard.
    std::uint64_t value = 0;
    core::Database& owner = f.db->shard(f.db->OwnerOf(0, k));
    core::Database& other = f.db->shard(1 - f.db->OwnerOf(0, k));
    EXPECT_TRUE(owner.ReadCommitted(0, k, &value, sizeof(value)).ok());
    EXPECT_FALSE(other.ReadCommitted(0, k, &value, sizeof(value)).ok());
  }
}

TEST(ShardedDatabaseTest, SingleShardTransactionsPassThrough) {
  ShardedFixture f(2);
  f.Load(16);
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvPutTxn>(3, 42));
  txns.push_back(std::make_unique<KvRmwTxn>(5, 7));  // 1005 * 3 + 7
  std::vector<TxnOutcome> outcomes;
  const ShardedEpochResult result = f.db->ExecuteEpoch(std::move(txns), &outcomes);
  EXPECT_EQ(result.committed, 2u);
  EXPECT_EQ(result.aborted, 0u);
  EXPECT_EQ(result.deferred, 0u);
  EXPECT_EQ(result.cross_shard, 0u);
  EXPECT_FALSE(result.crashed);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], TxnOutcome::kCommitted);
  EXPECT_EQ(outcomes[1], TxnOutcome::kCommitted);
  EXPECT_EQ(f.Read(3), 42u);
  EXPECT_EQ(f.Read(5), 1005u * 3 + 7);
}

TEST(ShardedDatabaseTest, CrossShardTransferMovesBalanceOnce) {
  ShardedFixture f(2);
  f.Load(32);
  const auto [a, b] = CrossShardPair(*f.db, 32);
  const std::uint64_t a0 = f.Read(a);
  const std::uint64_t b0 = f.Read(b);
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvXferTxn>(a, b, 100));
  std::vector<TxnOutcome> outcomes;
  const ShardedEpochResult result = f.db->ExecuteEpoch(std::move(txns), &outcomes);
  EXPECT_EQ(result.committed, 1u);
  EXPECT_EQ(result.cross_shard, 1u);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], TxnOutcome::kCommitted);
  EXPECT_EQ(f.Read(a), a0 - 100);
  EXPECT_EQ(f.Read(b), b0 + 100);
}

TEST(ShardedDatabaseTest, CrossShardTransferUserAbortsOnInsufficientFunds) {
  ShardedFixture f(2);
  f.Load(32);
  const auto [a, b] = CrossShardPair(*f.db, 32);
  const std::uint64_t a0 = f.Read(a);
  const std::uint64_t b0 = f.Read(b);
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvXferTxn>(a, b, a0 + 1));
  std::vector<TxnOutcome> outcomes;
  const ShardedEpochResult result = f.db->ExecuteEpoch(std::move(txns), &outcomes);
  EXPECT_EQ(result.committed, 0u);
  EXPECT_EQ(result.aborted, 1u);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], TxnOutcome::kAborted);
  EXPECT_EQ(f.Read(a), a0);
  EXPECT_EQ(f.Read(b), b0);
}

TEST(ShardedDatabaseTest, RouterDefersCrossShardReadOfSameEpochWrite) {
  ShardedFixture f(2);
  f.Load(32);
  const auto [a, b] = CrossShardPair(*f.db, 32);
  const std::uint64_t b0 = f.Read(b);
  // The put precedes the transfer in serial order, so the transfer's
  // pre-epoch snapshot of `a` would be stale: it must defer.
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvPutTxn>(a, 5000));
  txns.push_back(std::make_unique<KvXferTxn>(a, b, 700));
  std::vector<TxnOutcome> outcomes;
  const ShardedEpochResult r1 = f.db->ExecuteEpoch(std::move(txns), &outcomes);
  EXPECT_EQ(r1.committed, 1u);
  EXPECT_EQ(r1.deferred, 1u);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], TxnOutcome::kCommitted);
  EXPECT_EQ(outcomes[1], TxnOutcome::kDeferred);
  EXPECT_EQ(f.db->deferred_depth(), 1u);
  EXPECT_EQ(f.Read(a), 5000u);
  EXPECT_EQ(f.Read(b), b0);

  // A flush epoch with no new input re-runs the deferral; the deferred slot
  // comes first in the outcome vector.
  const ShardedEpochResult r2 = f.db->ExecuteEpoch({}, &outcomes);
  EXPECT_EQ(r2.committed, 1u);
  EXPECT_EQ(r2.deferred, 0u);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], TxnOutcome::kCommitted);
  EXPECT_EQ(f.db->deferred_depth(), 0u);
  EXPECT_EQ(f.Read(a), 5000u - 700);
  EXPECT_EQ(f.Read(b), b0 + 700);
}

TEST(ShardedDatabaseTest, SingleShardTransactionsNeverDefer) {
  ShardedFixture f(2);
  f.Load(32);
  // Write-then-read on one shard is handled by the engine's own serial
  // order; the router must not defer it.
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvPutTxn>(3, 9));
  txns.push_back(std::make_unique<KvRmwTxn>(3, 1));  // 9 * 3 + 1
  const ShardedEpochResult result = f.db->ExecuteEpoch(std::move(txns));
  EXPECT_EQ(result.committed, 2u);
  EXPECT_EQ(result.deferred, 0u);
  EXPECT_EQ(f.Read(3), 28u);
}

// Mixed deterministic stream: single-shard puts/RMWs plus cross-shard
// transfers with no same-epoch read-write conflicts (keys disjoint per
// epoch), so outcomes are crash-position independent.
std::vector<std::unique_ptr<txn::Transaction>> EpochBatch(const ShardedDatabase& db,
                                                          std::uint64_t epoch_seed) {
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  const auto pair = CrossShardPair(db, 32);
  txns.push_back(std::make_unique<KvXferTxn>(pair.first, pair.second, 1 + epoch_seed % 5));
  for (std::uint64_t i = 0; i < 6; ++i) {
    const Key k = 2 + ((epoch_seed * 7 + i) % 28);
    if (i % 2 == 0) {
      txns.push_back(std::make_unique<KvPutTxn>(k, epoch_seed * 100 + i));
    } else {
      txns.push_back(std::make_unique<KvRmwTxn>(k, epoch_seed + i));
    }
  }
  return txns;
}

std::vector<core::OracleState> CaptureShards(ShardedDatabase& db) {
  std::vector<core::OracleState> states;
  for (std::size_t s = 0; s < db.shards(); ++s) {
    states.push_back(core::CaptureState(db.shard(s)));
  }
  return states;
}

// Multi-worker shards: each shard engine runs its sub-batch on its own
// worker pool while the shard threads coordinate through the exchange and
// epoch barriers. State must match a 1-worker fleet executing the same
// stream (worker count is not allowed to change outcomes). Primarily run
// under TSan in CI to exercise worker x shard thread interleavings.
TEST(ShardedDatabaseTest, MultiWorkerShardsMatchSingleWorkerFleet) {
  ShardedFixture multi(2, SmallKvSpec(/*workers=*/2));
  ShardedFixture single(2, SmallKvSpec(/*workers=*/1));
  multi.Load(32);
  single.Load(32);
  for (std::uint64_t e = 0; e < 4; ++e) {
    const ShardedEpochResult rm = multi.db->ExecuteEpoch(EpochBatch(*multi.db, e));
    const ShardedEpochResult rs = single.db->ExecuteEpoch(EpochBatch(*single.db, e));
    ASSERT_FALSE(rm.crashed);
    ASSERT_FALSE(rs.crashed);
    EXPECT_EQ(rm.committed, rs.committed);
    EXPECT_EQ(rm.aborted, rs.aborted);
    EXPECT_EQ(rm.cross_shard, rs.cross_shard);
  }
  std::string diff;
  EXPECT_EQ(core::DiffShardedStates(CaptureShards(*single.db), CaptureShards(*multi.db), &diff),
            0u)
      << diff;
  for (Key k = 0; k < 32; ++k) {
    EXPECT_EQ(multi.Read(k), single.Read(k)) << "key " << k;
  }
}

// Crash at the shard-layer exchange site: nothing of the crashed epoch is
// logged anywhere, so recovery lands on the pre-crash epoch; resuming the
// lost batch converges with a crash-free reference.
TEST(ShardedRecoveryTest, ExchangeCrashRecoversToPreviousEpochAndConverges) {
  ShardedFixture crashed(2);
  crashed.Load(32);
  ShardedFixture reference(2);
  reference.Load(32);

  for (std::uint64_t e = 0; e < 3; ++e) {
    ASSERT_FALSE(crashed.db->ExecuteEpoch(EpochBatch(*crashed.db, e)).crashed);
    ASSERT_FALSE(reference.db->ExecuteEpoch(EpochBatch(*reference.db, e)).crashed);
  }

  crashed.db->SetCrashHook([](std::size_t shard, core::CrashSite site) {
    return shard == 1 && site == core::CrashSite::kMidShardExchange;
  });
  const ShardedEpochResult r = crashed.db->ExecuteEpoch(EpochBatch(*crashed.db, 3));
  ASSERT_TRUE(r.crashed);
  const auto coverage = crashed.db->crash_coverage();
  EXPECT_GE(coverage.fired[static_cast<std::size_t>(core::CrashSite::kMidShardExchange)], 1u);

  crashed.db.reset();
  for (auto& device : crashed.owned) {
    device->Crash();
  }
  auto recovered = std::make_unique<ShardedDatabase>(crashed.devices, crashed.base);
  const auto report = recovered->Recover(KvRegistry());
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_FALSE(report->replayed);

  // Pre-crash state matches the reference before its 4th batch.
  EXPECT_EQ(core::MultiShardStateHash(CaptureShards(*recovered)),
            core::MultiShardStateHash(CaptureShards(*reference.db)));

  // Resume the lost batch on both; full convergence.
  ASSERT_FALSE(recovered->ExecuteEpoch(EpochBatch(*recovered, 3)).crashed);
  ASSERT_FALSE(reference.db->ExecuteEpoch(EpochBatch(*reference.db, 3)).crashed);
  std::string diff;
  EXPECT_EQ(core::DiffShardedStates(CaptureShards(*reference.db),
                                    CaptureShards(*recovered), &diff),
            0u)
      << diff;
  EXPECT_EQ(recovered->current_epoch(), reference.db->current_epoch());
}

// Crash after one shard's log is durable (engine kAfterLog site): every
// shard holds a complete log for the crashed epoch, so the fleet replays it
// and recovery lands ON the crashed epoch.
TEST(ShardedRecoveryTest, PostLogCrashReplaysTheCrashedGlobalEpoch) {
  ShardedFixture crashed(2);
  crashed.Load(32);
  ShardedFixture reference(2);
  reference.Load(32);

  for (std::uint64_t e = 0; e < 2; ++e) {
    ASSERT_FALSE(crashed.db->ExecuteEpoch(EpochBatch(*crashed.db, e)).crashed);
    ASSERT_FALSE(reference.db->ExecuteEpoch(EpochBatch(*reference.db, e)).crashed);
  }

  crashed.db->SetCrashHook([](std::size_t shard, core::CrashSite site) {
    return shard == 0 && site == core::CrashSite::kAfterLog;
  });
  ASSERT_TRUE(crashed.db->ExecuteEpoch(EpochBatch(*crashed.db, 2)).crashed);
  ASSERT_FALSE(reference.db->ExecuteEpoch(EpochBatch(*reference.db, 2)).crashed);

  crashed.db.reset();
  for (auto& device : crashed.owned) {
    device->Crash();
  }
  auto recovered = std::make_unique<ShardedDatabase>(crashed.devices, crashed.base);
  const auto report = recovered->Recover(KvRegistry());
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->replayed);

  std::string diff;
  EXPECT_EQ(core::DiffShardedStates(CaptureShards(*reference.db),
                                    CaptureShards(*recovered), &diff),
            0u)
      << diff;
  EXPECT_EQ(recovered->current_epoch(), reference.db->current_epoch());
}

// Each shard runs its engine's persistence tail on the engine's tail thread
// and waits for it before the global epoch returns. A crash inside one
// shard's tail therefore surfaces in that same global epoch, and recovery
// replays it on that shard only.
TEST(ShardedRecoveryTest, TailCrashSurfacesInItsOwnGlobalEpoch) {
  ShardedFixture crashed(2);
  crashed.Load(32);
  ShardedFixture reference(2);
  reference.Load(32);

  for (std::uint64_t e = 0; e < 2; ++e) {
    ASSERT_FALSE(crashed.db->ExecuteEpoch(EpochBatch(*crashed.db, e)).crashed);
    ASSERT_FALSE(reference.db->ExecuteEpoch(EpochBatch(*reference.db, e)).crashed);
  }

  crashed.db->SetCrashHook([](std::size_t shard, core::CrashSite site) {
    return shard == 1 && site == core::CrashSite::kBeforeEpochPersist;
  });
  const Epoch crashed_epoch = crashed.db->current_epoch() + 1;
  const auto result = crashed.db->ExecuteEpoch(EpochBatch(*crashed.db, 2));
  EXPECT_TRUE(result.crashed);
  EXPECT_EQ(result.epoch, crashed_epoch);
  // The healthy shard's tail completed: its epoch is durable, the crashed
  // shard's header still names the previous epoch.
  EXPECT_EQ(crashed.db->shard(0).current_epoch(), crashed_epoch);
  EXPECT_TRUE(crashed.db->shard(0).WaitIdle().ok());
  EXPECT_FALSE(crashed.db->shard(1).WaitIdle().ok());
  ASSERT_FALSE(reference.db->ExecuteEpoch(EpochBatch(*reference.db, 2)).crashed);

  crashed.db.reset();
  for (auto& device : crashed.owned) {
    device->Crash();
  }
  auto recovered = std::make_unique<ShardedDatabase>(crashed.devices, crashed.base);
  const auto report = recovered->Recover(KvRegistry());
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->replayed);
  EXPECT_FALSE(report->shards[0].replayed);
  EXPECT_TRUE(report->shards[1].replayed);

  std::string diff;
  EXPECT_EQ(core::DiffShardedStates(CaptureShards(*reference.db),
                                    CaptureShards(*recovered), &diff),
            0u)
      << diff;
  EXPECT_EQ(recovered->current_epoch(), reference.db->current_epoch());
}

// Each shard's durable ledger must be byte-identical to a standalone engine
// fed the same resolved sub-batches: replay the recorded slices into fresh
// single-shard engines and compare logical state plus the device's
// write-side counters.
TEST(ShardedLedgerTest, PerShardLedgersMatchStandaloneEngines) {
  constexpr std::size_t kShards = 2;
  ShardedFixture f(kShards);

  // (type, encoded inputs) per transaction, grouped per shard per epoch.
  using EncodedBatch = std::vector<std::pair<txn::TxnType, std::vector<std::uint8_t>>>;
  std::vector<std::vector<EncodedBatch>> recorded(kShards);
  f.db->SetSubBatchRecorder(
      [&](std::size_t shard, Epoch, const std::vector<std::unique_ptr<txn::Transaction>>& sub) {
        EncodedBatch batch;
        for (const auto& t : sub) {
          std::vector<std::uint8_t> buf;
          BinaryWriter writer(buf);
          t->EncodeInputs(writer);
          batch.emplace_back(t->type(), std::move(buf));
        }
        recorded[shard].push_back(std::move(batch));
      });

  f.Load(32);
  // Only the epochs themselves are under comparison, not the load.
  for (NvmDevice* device : f.devices) {
    device->stats().Reset();
  }
  for (std::uint64_t e = 0; e < 4; ++e) {
    ASSERT_FALSE(f.db->ExecuteEpoch(EpochBatch(*f.db, e)).crashed);
  }
  // Quiesce the engines so trailing persists don't race the counter reads.
  for (std::size_t s = 0; s < kShards; ++s) {
    f.db->shard(s).WaitIdle();
  }

  const txn::TxnRegistry registry = f.db->ShardRegistry(KvRegistry());
  const DatabaseSpec standalone_spec = ShardedDatabase::ShardSpec(f.base);
  for (std::size_t s = 0; s < kShards; ++s) {
    NvmDevice device(ShardDeviceConfig(f.base));
    core::Database standalone(device, standalone_spec);
    standalone.Format();
    for (Key k = 0; k < 32; ++k) {
      if (f.db->OwnerOf(0, k) == s) {
        const std::uint64_t value = 1000 + k;
        standalone.BulkLoad(0, k, &value, sizeof(value));
      }
    }
    standalone.FinalizeLoad();
    device.stats().Reset();

    ASSERT_EQ(recorded[s].size(), 4u);
    for (const EncodedBatch& batch : recorded[s]) {
      std::vector<std::unique_ptr<txn::Transaction>> txns;
      for (const auto& [type, bytes] : batch) {
        BinaryReader reader(bytes.data(), bytes.size());
        auto txn = registry.Decode(type, reader);
        ASSERT_NE(txn, nullptr);
        txns.push_back(std::move(txn));
      }
      standalone.ExecuteEpoch(std::move(txns));
    }
    standalone.WaitIdle();

    std::string diff;
    EXPECT_EQ(core::DiffStates(core::CaptureState(f.db->shard(s)),
                               core::CaptureState(standalone), &diff),
              0u)
        << "shard " << s << ": " << diff;

    // Write-side NVM traffic is identical; reads differ (the sharded run's
    // exchange fill reads the device, the standalone run does not).
    const sim::NvmCounters sharded = f.devices[s]->stats().Snapshot();
    const sim::NvmCounters alone = device.stats().Snapshot();
    EXPECT_EQ(sharded.write_bytes, alone.write_bytes) << "shard " << s;
    EXPECT_EQ(sharded.persisted_lines, alone.persisted_lines) << "shard " << s;
    EXPECT_EQ(sharded.persist_ops, alone.persist_ops) << "shard " << s;
    EXPECT_EQ(sharded.fences, alone.fences) << "shard " << s;
  }
}

TEST(ShardedStatsTest, RollupsAggregateAcrossShards) {
  ShardedFixture f(2);
  f.db->ConfigureProfiler(ProfilerConfig{.enabled = true});
  f.Load(32);
  std::size_t committed = 0;
  for (std::uint64_t e = 0; e < 3; ++e) {
    const ShardedEpochResult r = f.db->ExecuteEpoch(EpochBatch(*f.db, e));
    committed += r.committed;
  }
  const shard::ShardStatsSummary stats = f.db->StatsRollup();
  // A cross-shard transaction commits on every participating shard, so the
  // engine-side sum can exceed the global count but never undershoots it.
  EXPECT_GE(stats.txn_committed, committed);
  EXPECT_GT(stats.nvm_write_bytes, 0u);
  EXPECT_GT(stats.log_bytes, 0u);

  const shard::ShardedProfileReport profile = f.db->ProfileReport();
  EXPECT_TRUE(profile.combined.enabled);
  ASSERT_EQ(profile.shards.size(), 2u);
  EXPECT_GT(profile.combined.epochs, 0u);
  const std::string table = profile.ToTable();
  EXPECT_NE(table.find("[shard 0]"), std::string::npos);
  EXPECT_NE(table.find("[shard 1]"), std::string::npos);
  EXPECT_NE(table.find("[all shards combined]"), std::string::npos);

  const std::string trace = ::testing::TempDir() + "/sharded_trace.json";
  EXPECT_TRUE(f.db->WriteChromeTrace(trace));
  std::FILE* fp = std::fopen(trace.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 0, SEEK_END);
  EXPECT_GT(std::ftell(fp), 0);
  std::fclose(fp);

  f.db->ResetStats();
  EXPECT_EQ(f.db->StatsRollup().txn_committed, 0u);
}

// ---- ShardedDbService -------------------------------------------------------

TEST(ShardedServiceTest, SubmitsResolveDurablyAcrossShards) {
  ShardedFixture f(2);
  f.Load(32);
  service::ServiceSpec spec;
  spec.max_epoch_txns = 4;
  spec.max_epoch_delay = std::chrono::microseconds(2000);
  auto svc = std::make_unique<service::ShardedDbService>(std::move(f.db), spec);

  const auto [a, b] = CrossShardPair(svc->db(), 32);
  std::vector<service::TxnTicket> tickets;
  auto t1 = svc->Submit(std::make_unique<KvPutTxn>(3, 42));
  ASSERT_TRUE(t1.ok());
  auto t2 = svc->Submit(std::make_unique<KvXferTxn>(a, b, 50));
  ASSERT_TRUE(t2.ok());
  auto t3 = svc->Submit(std::make_unique<KvXferTxn>(a, b, 1u << 20));  // insufficient
  ASSERT_TRUE(t3.ok());
  ASSERT_TRUE(svc->Drain().ok());

  EXPECT_EQ(t1->Get().outcome, service::TicketOutcome::kCommitted);
  EXPECT_EQ(t2->Get().outcome, service::TicketOutcome::kCommitted);
  EXPECT_EQ(t3->Get().outcome, service::TicketOutcome::kUserAborted);
  EXPECT_GE(svc->epochs_executed(), 1u);
  EXPECT_TRUE(svc->health().ok());
  EXPECT_GT(svc->LatencySnapshot().count, 0u);

  auto db = svc->TakeDatabase();
  std::uint64_t value = 0;
  ASSERT_TRUE(db->ReadCommitted(0, 3, &value, sizeof(value)).ok());
  EXPECT_EQ(value, 42u);
}

TEST(ShardedServiceTest, DeferredTicketResolvesWithDeferralCount) {
  ShardedFixture f(2);
  f.Load(32);
  service::ServiceSpec spec;
  spec.max_epoch_txns = 2;  // both submissions land in one global epoch
  spec.max_epoch_delay = std::chrono::microseconds(500000);
  auto svc = std::make_unique<service::ShardedDbService>(std::move(f.db), spec);

  const auto [a, b] = CrossShardPair(svc->db(), 32);
  auto put = svc->Submit(std::make_unique<KvPutTxn>(a, 9000));
  ASSERT_TRUE(put.ok());
  auto xfer = svc->Submit(std::make_unique<KvXferTxn>(a, b, 700));
  ASSERT_TRUE(xfer.ok());
  ASSERT_TRUE(svc->Drain().ok());

  EXPECT_EQ(put->Get().outcome, service::TicketOutcome::kCommitted);
  const service::TicketResult& r = xfer->Get();
  EXPECT_EQ(r.outcome, service::TicketOutcome::kCommitted);
  EXPECT_GE(r.deferrals, 1u);
  EXPECT_GT(r.epoch, put->Get().epoch);

  auto db = svc->TakeDatabase();
  std::uint64_t value = 0;
  ASSERT_TRUE(db->ReadCommitted(0, a, &value, sizeof(value)).ok());
  EXPECT_EQ(value, 9000u - 700);
}

TEST(ShardedServiceTest, CrashFailsAllPendingTickets) {
  ShardedFixture f(2);
  f.Load(32);
  f.db->SetCrashHook([](std::size_t, core::CrashSite site) {
    return site == core::CrashSite::kMidShardEpochBarrier;
  });
  service::ServiceSpec spec;
  spec.max_epoch_txns = 1;
  auto svc = std::make_unique<service::ShardedDbService>(std::move(f.db), spec);
  auto ticket = svc->Submit(std::make_unique<KvPutTxn>(3, 42));
  ASSERT_TRUE(ticket.ok());
  const service::TicketResult& r = ticket->Get();
  EXPECT_EQ(r.outcome, service::TicketOutcome::kFailed);
  EXPECT_FALSE(r.status.ok());
  EXPECT_FALSE(svc->health().ok());
  // Subsequent submissions are rejected with the crash status.
  EXPECT_FALSE(svc->Submit(std::make_unique<KvPutTxn>(4, 1)).ok());
  EXPECT_FALSE(svc->Stop().ok());
}

}  // namespace
}  // namespace nvc::test
