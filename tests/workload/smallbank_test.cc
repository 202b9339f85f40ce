// SmallBank correctness: the engine's balances must match a simple serial
// reference model executed in the same predetermined order (this checks
// serializability, abort semantics, and early-write visibility end to end),
// and crash recovery must restore the exact reference state.
#include <gtest/gtest.h>

#include <vector>

#include "src/workload/smallbank.h"
#include "tests/test_util.h"

namespace nvc::test {
namespace {

using core::CrashSite;
using core::Database;
using sim::NvmDevice;
using workload::Balance;
using workload::kCheckingTable;
using workload::kSavingsTable;
using workload::SmallBankConfig;
using workload::SmallBankWorkload;

SmallBankConfig TinyConfig() {
  SmallBankConfig config;
  config.customers = 500;
  config.hotspot_customers = 20;
  return config;
}

// Serial in-memory model of the five transaction types.
struct BankModel {
  std::vector<Balance> savings;
  std::vector<Balance> checking;
  std::size_t aborted = 0;

  explicit BankModel(const SmallBankConfig& config)
      : savings(config.customers, config.initial_balance),
        checking(config.customers, config.initial_balance) {}

  void Apply(const txn::Transaction& txn) {
    if (const auto* t = dynamic_cast<const workload::SbAmalgamateTxn*>(&txn)) {
      checking[t->b()] += savings[t->a()] + checking[t->a()];
      savings[t->a()] = 0;
      checking[t->a()] = 0;
    } else if (const auto* t = dynamic_cast<const workload::SbDepositCheckingTxn*>(&txn)) {
      checking[t->customer()] += t->amount();
    } else if (const auto* t = dynamic_cast<const workload::SbSendPaymentTxn*>(&txn)) {
      if (checking[t->from()] < t->amount()) {
        ++aborted;
        return;
      }
      checking[t->from()] -= t->amount();
      checking[t->to()] += t->amount();
    } else if (const auto* t = dynamic_cast<const workload::SbTransactSavingTxn*>(&txn)) {
      if (savings[t->customer()] + t->amount() < 0) {
        ++aborted;
        return;
      }
      savings[t->customer()] += t->amount();
    } else if (const auto* t = dynamic_cast<const workload::SbWriteCheckTxn*>(&txn)) {
      if (savings[t->customer()] + checking[t->customer()] < t->amount()) {
        ++aborted;
        return;
      }
      checking[t->customer()] -= t->amount();
    } else {
      FAIL() << "unknown SmallBank transaction type";
    }
  }
};

void ExpectMatchesModel(Database& db, const BankModel& model) {
  for (std::uint64_t c = 0; c < model.savings.size(); ++c) {
    Balance balance = 0;
    ASSERT_TRUE(db.ReadCommitted(kSavingsTable, c, &balance, sizeof(balance)).ok());
    ASSERT_EQ(balance, model.savings[c]) << "savings " << c;
    balance = 0;
    ASSERT_TRUE(db.ReadCommitted(kCheckingTable, c, &balance, sizeof(balance)).ok());
    ASSERT_EQ(balance, model.checking[c]) << "checking " << c;
  }
}

TEST(SmallBankTest, MatchesSerialModel) {
  const SmallBankConfig config = TinyConfig();
  SmallBankWorkload workload(config);
  core::DatabaseSpec spec = workload.Spec(1);
  NvmDevice device(sim::NvmConfig{.size_bytes = Database::RequiredDeviceBytes(spec)});
  Database db(device, spec);
  db.Format();
  workload.Load(db);
  db.FinalizeLoad();

  BankModel model(config);
  std::size_t committed = 0;
  std::size_t aborted = 0;
  for (int e = 0; e < 10; ++e) {
    auto txns = workload.MakeEpoch(300);
    for (const auto& txn : txns) {
      model.Apply(*txn);  // model applies in the predetermined serial order
    }
    const auto result = db.ExecuteEpoch(std::move(txns));
    committed += result.committed;
    aborted += result.aborted;
    ExpectMatchesModel(db, model);
  }
  EXPECT_EQ(committed + aborted, 3000u);
  EXPECT_EQ(aborted, model.aborted);
  // Beyond the ~4% forced aborts, Amalgamate keeps zeroing the tiny hotspot
  // accounts, so organic insufficient-funds aborts are common at this scale.
  EXPECT_GT(aborted, 30u);
  EXPECT_LT(aborted, 1500u);
}

// SmallBank loads its two tables interleaved, customer by customer. The
// bulk-load core cursor is per table, so each table spreads over every
// core's row-pool shard (a shared cursor pinned each table to half the cores
// at 2 workers and exhausted its shards).
TEST(SmallBankTest, InterleavedLoadFitsAtEveryWorkerCount) {
  const SmallBankConfig config = TinyConfig();
  for (std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    SmallBankWorkload workload(config);
    const core::DatabaseSpec spec = workload.Spec(workers);
    NvmDevice device(sim::NvmConfig{.size_bytes = Database::RequiredDeviceBytes(spec)});
    Database db(device, spec);
    db.Format();
    ASSERT_NO_THROW(workload.Load(db)) << "workers=" << workers;
    db.FinalizeLoad();
    EXPECT_EQ(db.table_rows(kSavingsTable), config.customers);
    EXPECT_EQ(db.table_rows(kCheckingTable), config.customers);

    BankModel model(config);
    for (int e = 0; e < 3; ++e) {
      auto txns = workload.MakeEpoch(300);
      for (const auto& txn : txns) {
        model.Apply(*txn);
      }
      ASSERT_FALSE(db.ExecuteEpoch(std::move(txns)).crashed);
    }
    ASSERT_TRUE(db.WaitIdle().ok());
    ExpectMatchesModel(db, model);
  }
}

TEST(SmallBankTest, HotspotSkewMakesUpdatesTransient) {
  SmallBankWorkload workload(TinyConfig());
  core::DatabaseSpec spec = workload.Spec(1);
  NvmDevice device(sim::NvmConfig{.size_bytes = Database::RequiredDeviceBytes(spec)});
  Database db(device, spec);
  db.Format();
  workload.Load(db);
  db.FinalizeLoad();

  db.stats().Reset();
  db.ExecuteEpoch(workload.MakeEpoch(500));
  // With 90% of customers drawn from 20 hotspot accounts, most updates are
  // intermediate (transient) rather than final.
  const auto transient = db.stats().transient_writes.Sum();
  const auto persistent = db.stats().persistent_writes.Sum();
  EXPECT_GT(transient, persistent);
}

TEST(SmallBankTest, CrashRecoveryMatchesModel) {
  const SmallBankConfig config = TinyConfig();
  SmallBankWorkload workload(config);
  core::DatabaseSpec spec = workload.Spec(1);
  NvmDevice device(sim::NvmConfig{.size_bytes = Database::RequiredDeviceBytes(spec),
                                  .crash_tracking = sim::CrashTracking::kShadow});
  BankModel model(config);
  {
    Database db(device, spec);
    db.Format();
    workload.Load(db);
    db.FinalizeLoad();
    for (int e = 0; e < 2; ++e) {
      auto txns = workload.MakeEpoch(200);
      for (const auto& txn : txns) {
        model.Apply(*txn);
      }
      db.ExecuteEpoch(std::move(txns));
    }
    auto txns = workload.MakeEpoch(200);
    for (const auto& txn : txns) {
      model.Apply(*txn);
    }
    int count = 0;
    db.SetCrashHook([&count](CrashSite site) {
      return site == CrashSite::kMidExecution && ++count > 120;
    });
    ASSERT_TRUE(db.ExecuteEpoch(std::move(txns)).crashed);
  }
  device.CrashChaos(23, 0.4);

  Database recovered(device, spec);
  const auto report = recovered.Recover(SmallBankWorkload::Registry()).value();
  ASSERT_TRUE(report.replayed);
  ExpectMatchesModel(recovered, model);
}

}  // namespace
}  // namespace nvc::test
