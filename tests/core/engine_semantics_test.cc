// Engine semantics beyond the basics: inserts, deletes, abort-of-final
// resolution, cache behaviour at the database level, engine modes,
// execute-phase row resolution, and multi-worker equivalence with
// single-worker execution.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/oracle.h"
#include "tests/test_util.h"

namespace nvc::test {
namespace {

using core::Database;
using core::DatabaseSpec;
using core::EngineMode;
using sim::NvmDevice;

// A txn that inserts a fresh row with data during the insert step.
class InsertTxn final : public txn::Transaction {
 public:
  InsertTxn(Key key, std::uint64_t value) : key_(key), value_(value) {}
  txn::TxnType type() const override { return 50; }
  void EncodeInputs(BinaryWriter& w) const override {
    w.Put(key_);
    w.Put(value_);
  }
  static std::unique_ptr<txn::Transaction> Decode(BinaryReader& r) {
    const auto key = r.Get<Key>();
    const auto value = r.Get<std::uint64_t>();
    return std::make_unique<InsertTxn>(key, value);
  }
  void InsertStep(txn::InsertContext& ctx) override {
    ctx.InsertRow(0, key_, &value_, sizeof(value_));
  }
  void Execute(txn::ExecContext&) override {}

 private:
  Key key_;
  std::uint64_t value_;
};

// Deletes a row.
class DeleteTxn final : public txn::Transaction {
 public:
  explicit DeleteTxn(Key key) : key_(key) {}
  txn::TxnType type() const override { return 51; }
  void EncodeInputs(BinaryWriter& w) const override { w.Put(key_); }
  static std::unique_ptr<txn::Transaction> Decode(BinaryReader& r) {
    return std::make_unique<DeleteTxn>(r.Get<Key>());
  }
  void AppendStep(txn::AppendContext& ctx) override { ctx.DeclareDelete(0, key_); }
  void Execute(txn::ExecContext& ctx) override { ctx.Delete(0, key_); }

 private:
  Key key_;
};

// Reads a key and records whether it was found and its value.
class ProbeTxn final : public txn::Transaction {
 public:
  ProbeTxn(Key key, int* found, std::uint64_t* value)
      : key_(key), found_(found), value_(value) {}
  txn::TxnType type() const override { return 52; }
  void EncodeInputs(BinaryWriter& w) const override { w.Put(key_); }
  void Execute(txn::ExecContext& ctx) override {
    std::uint64_t v = 0;
    const int n = ctx.Read(0, key_, &v, sizeof(v));
    *found_ = n >= 0 ? 1 : 0;
    *value_ = v;
  }

 private:
  Key key_;
  int* found_;
  std::uint64_t* value_;
};

// Declares a write but aborts (exercises IGNORE + final resolution).
class AbortTxn final : public txn::Transaction {
 public:
  explicit AbortTxn(Key key) : key_(key) {}
  txn::TxnType type() const override { return 53; }
  void EncodeInputs(BinaryWriter& w) const override { w.Put(key_); }
  static std::unique_ptr<txn::Transaction> Decode(BinaryReader& r) {
    return std::make_unique<AbortTxn>(r.Get<Key>());
  }
  void AppendStep(txn::AppendContext& ctx) override { ctx.DeclareUpdate(0, key_); }
  void Execute(txn::ExecContext& ctx) override { ctx.Abort(); }

 private:
  Key key_;
};

// Exercises each way an execute-phase access finds its row: reads of keys
// the transaction did not declare, repeated writes and deletes of declared
// keys, and write sets both narrow enough for the engine to scan and wider
// than it scans (more than 128 entries: index fallback). Apply()
// is the serial-order reference on a key -> value model. A repeated write
// stores the same value again: the first write is already visible to later
// transactions on other workers (early write visibility), so only a final
// value may be written.
class ResolveTxn final : public txn::Transaction {
 public:
  enum Kind : std::uint8_t { kReadOther, kWriteTwice, kDelete, kWide };
  using Model = std::map<Key, std::uint64_t>;

  ResolveTxn(Kind kind, std::vector<Key> keys, Key other, std::uint64_t delta)
      : kind_(kind), keys_(std::move(keys)), other_(other), delta_(delta) {}
  txn::TxnType type() const override { return 54; }
  void EncodeInputs(BinaryWriter& w) const override {
    w.Put(kind_);
    w.Put(static_cast<std::uint32_t>(keys_.size()));
    for (const Key key : keys_) {
      w.Put(key);
    }
    w.Put(other_);
    w.Put(delta_);
  }
  void AppendStep(txn::AppendContext& ctx) override {
    for (const Key key : keys_) {
      if (kind_ == kDelete) {
        ctx.DeclareDelete(0, key);
      } else {
        ctx.DeclareUpdate(0, key);
      }
    }
  }
  void Execute(txn::ExecContext& ctx) override {
    const auto read = [&ctx](Key key) {
      std::uint64_t v = 0;
      ctx.Read(0, key, &v, sizeof(v));
      return v;
    };
    const auto write = [&ctx](Key key, std::uint64_t v) { ctx.Write(0, key, &v, sizeof(v)); };
    switch (kind_) {
      case kReadOther: {
        const std::uint64_t other = read(other_);
        write(keys_[0], read(keys_[0]) * 3 + other + delta_);
        break;
      }
      case kWriteTwice:
        write(keys_[0], delta_ * 7 + 1);
        write(keys_[0], delta_ * 7 + 1);
        break;
      case kDelete:
        ctx.Delete(0, keys_[0]);
        break;
      case kWide: {
        const std::uint64_t other = read(other_);
        for (std::size_t i = 0; i < keys_.size(); ++i) {
          write(keys_[i], read(keys_[i]) * 3 + other + delta_ + i);
        }
        break;
      }
    }
  }

  void Apply(Model& model) const {
    const auto read = [&model](Key key) {
      const auto it = model.find(key);
      return it == model.end() ? 0 : it->second;
    };
    switch (kind_) {
      case kReadOther:
        model[keys_[0]] = read(keys_[0]) * 3 + read(other_) + delta_;
        break;
      case kWriteTwice:
        model[keys_[0]] = delta_ * 7 + 1;
        break;
      case kDelete:
        model.erase(keys_[0]);
        break;
      case kWide: {
        const std::uint64_t other = read(other_);
        for (std::size_t i = 0; i < keys_.size(); ++i) {
          model[keys_[i]] = read(keys_[i]) * 3 + other + delta_ + i;
        }
        break;
      }
    }
  }

 private:
  Kind kind_;
  std::vector<Key> keys_;
  Key other_;
  std::uint64_t delta_;
};

class EngineSemanticsTest : public ::testing::Test {
 protected:
  EngineSemanticsTest() : spec_(SmallKvSpec()), device_(ShadowDeviceConfig(spec_)) {
    db_ = std::make_unique<Database>(device_, spec_);
    db_->Format();
    for (Key key = 0; key < 16; ++key) {
      const std::uint64_t value = 100 + key;
      db_->BulkLoad(0, key, &value, sizeof(value));
    }
    db_->FinalizeLoad();
  }

  DatabaseSpec spec_;
  NvmDevice device_;
  std::unique_ptr<Database> db_;
};

TEST_F(EngineSemanticsTest, InsertIsVisibleWithinAndAcrossEpochs) {
  int found_before = -1;
  int found_after = -1;
  std::uint64_t value_before = 0;
  std::uint64_t value_after = 0;
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  // Serial order: probe(100), insert(100), probe(100).
  txns.push_back(std::make_unique<ProbeTxn>(100, &found_before, &value_before));
  txns.push_back(std::make_unique<InsertTxn>(100, 777));
  txns.push_back(std::make_unique<ProbeTxn>(100, &found_after, &value_after));
  db_->ExecuteEpoch(std::move(txns));

  EXPECT_EQ(found_before, 0) << "earlier transaction saw a later insert";
  EXPECT_EQ(found_after, 1);
  EXPECT_EQ(value_after, 777u);
  EXPECT_EQ(ReadU64(*db_, 0, 100), 777u);
}

TEST_F(EngineSemanticsTest, DeleteHidesRowAndFreesIt) {
  int found_before = -1;
  int found_after = -1;
  std::uint64_t v0 = 0;
  std::uint64_t v1 = 0;
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<ProbeTxn>(3, &found_before, &v0));
  txns.push_back(std::make_unique<DeleteTxn>(3));
  txns.push_back(std::make_unique<ProbeTxn>(3, &found_after, &v1));
  db_->ExecuteEpoch(std::move(txns));

  EXPECT_EQ(found_before, 1);
  EXPECT_EQ(v0, 103u);
  EXPECT_EQ(found_after, 0) << "later transaction still saw the deleted row";
  EXPECT_EQ(ReadU64(*db_, 0, 3), ~0ULL);
  EXPECT_EQ(db_->table_rows(0), 15u);

  // The key can be re-inserted in a later epoch.
  std::vector<std::unique_ptr<txn::Transaction>> txns2;
  txns2.push_back(std::make_unique<InsertTxn>(3, 999));
  db_->ExecuteEpoch(std::move(txns2));
  EXPECT_EQ(ReadU64(*db_, 0, 3), 999u);
}

TEST_F(EngineSemanticsTest, AbortedFinalWriterFallsBackToPreviousVersion) {
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvPutTxn>(5, 501));
  txns.push_back(std::make_unique<KvPutTxn>(5, 502));
  txns.push_back(std::make_unique<AbortTxn>(5));  // final slot, aborted
  const auto result = db_->ExecuteEpoch(std::move(txns));
  EXPECT_EQ(result.aborted, 1u);
  // The latest non-ignored version (502) must have been checkpointed.
  EXPECT_EQ(ReadU64(*db_, 0, 5), 502u);
}

TEST_F(EngineSemanticsTest, AllAbortedLeavesRowUntouched) {
  db_->stats().Reset();
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<AbortTxn>(5));
  txns.push_back(std::make_unique<AbortTxn>(5));
  db_->ExecuteEpoch(std::move(txns));
  EXPECT_EQ(ReadU64(*db_, 0, 5), 105u);
  EXPECT_EQ(db_->stats().persistent_writes.Sum(), 0u);
}

TEST_F(EngineSemanticsTest, AbortedReadersSkipIgnoredVersions) {
  int found = -1;
  std::uint64_t value = 0;
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvPutTxn>(5, 501));
  txns.push_back(std::make_unique<AbortTxn>(5));
  txns.push_back(std::make_unique<ProbeTxn>(5, &found, &value));  // reads past the IGNORE
  txns.push_back(std::make_unique<KvPutTxn>(5, 504));
  db_->ExecuteEpoch(std::move(txns));
  EXPECT_EQ(found, 1);
  EXPECT_EQ(value, 501u);
  EXPECT_EQ(ReadU64(*db_, 0, 5), 504u);
}

TEST_F(EngineSemanticsTest, CacheServesRepeatedReads) {
  // First epoch: read key 7 (miss -> NVM, populates cache).
  int found = 0;
  std::uint64_t value = 0;
  {
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    txns.push_back(std::make_unique<ProbeTxn>(7, &found, &value));
    db_->ExecuteEpoch(std::move(txns));
  }
  db_->stats().Reset();
  {
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    for (int i = 0; i < 10; ++i) {
      txns.push_back(std::make_unique<ProbeTxn>(7, &found, &value));
    }
    db_->ExecuteEpoch(std::move(txns));
  }
  EXPECT_EQ(db_->stats().cache_hits.Sum(), 10u);
  EXPECT_EQ(db_->stats().cache_misses.Sum(), 0u);
  EXPECT_EQ(value, 107u);
}

TEST_F(EngineSemanticsTest, CacheDisabledStillCorrect) {
  DatabaseSpec spec = SmallKvSpec();
  spec.enable_cache = false;
  NvmDevice device(ShadowDeviceConfig(spec));
  Database db(device, spec);
  db.Format();
  const std::uint64_t v = 7;
  db.BulkLoad(0, 1, &v, sizeof(v));
  db.FinalizeLoad();
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvRmwTxn>(1, 3));
  db.ExecuteEpoch(std::move(txns));
  EXPECT_EQ(ReadU64(db, 0, 1), 7u * 3 + 3);
  EXPECT_EQ(db.stats().cache_hits.Sum(), 0u);
}

// Execute-phase accesses resolve rows from the declared write set or the
// index; either way the committed state must equal a serial re-execution on
// a plain map, at one worker and at four.
TEST(ExecuteResolutionTest, MatchesSerialModelAtOneAndFourWorkers) {
  constexpr Key kLoaded = 256;
  std::uint64_t hashes[2] = {0, 0};
  for (const std::size_t workers : {1u, 4u}) {
    DatabaseSpec spec = SmallKvSpec(workers);
    NvmDevice device(ShadowDeviceConfig(spec));
    Database db(device, spec);
    db.Format();
    ResolveTxn::Model model;
    for (Key key = 0; key < kLoaded; ++key) {
      model[key] = 100 + key;
      db.BulkLoad(0, key, &model[key], sizeof(std::uint64_t));
    }
    db.FinalizeLoad();

    Rng rng(4242);
    std::vector<Key> live;
    for (Key key = 0; key < kLoaded; ++key) {
      live.push_back(key);
    }
    Key next_fresh = 1000;
    std::size_t wide = 0;
    std::size_t wider_than_scan = 0;
    std::size_t deletes = 0;
    for (int e = 0; e < 6; ++e) {
      // Generation order is the serial order, so the model advances here.
      std::vector<std::unique_ptr<txn::Transaction>> txns;
      for (int i = 0; i < 150; ++i) {
        const auto live_key = [&] { return live[rng.NextBounded(live.size())]; };
        const Key other = rng.NextBounded(next_fresh + 8);  // may be absent
        const std::uint64_t delta = rng.NextBounded(1000);
        const std::uint64_t r = rng.NextBounded(100);
        std::unique_ptr<ResolveTxn> txn;
        if (r < 30) {
          txn = std::make_unique<ResolveTxn>(ResolveTxn::kReadOther,
                                             std::vector<Key>{live_key()}, other, delta);
        } else if (r < 50) {
          txn = std::make_unique<ResolveTxn>(ResolveTxn::kWriteTwice,
                                             std::vector<Key>{live_key()}, other, delta);
        } else if (r < 58 && live.size() > 24) {
          const std::size_t at = rng.NextBounded(live.size());
          const Key key = live[at];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
          txn = std::make_unique<ResolveTxn>(ResolveTxn::kDelete, std::vector<Key>{key},
                                             other, delta);
          ++deletes;
        } else if (r < 68) {
          const Key key = next_fresh++;
          txns.push_back(std::make_unique<KvInsertTxn>(key, delta));
          model[key] = delta;
          live.push_back(key);  // later transactions of this epoch may write it
          continue;
        } else {
          std::set<Key> keys;
          const bool scanned = rng.NextBounded(2) == 0;
          const std::size_t n = (scanned ? 9 : 129) + rng.NextBounded(4);
          wider_than_scan += scanned ? 0 : 1;
          while (keys.size() < n) {
            keys.insert(live_key());
          }
          txn = std::make_unique<ResolveTxn>(ResolveTxn::kWide,
                                             std::vector<Key>(keys.begin(), keys.end()),
                                             other, delta);
          ++wide;
        }
        txn->Apply(model);
        txns.push_back(std::move(txn));
      }
      const auto result = db.ExecuteEpoch(std::move(txns));
      ASSERT_FALSE(result.crashed);
      ASSERT_EQ(result.aborted, 0u);
    }
    ASSERT_TRUE(db.WaitIdle().ok());
    EXPECT_GT(wide, 100u);
    EXPECT_GT(wider_than_scan, 40u);
    EXPECT_GT(deletes, 20u);

    const core::OracleState actual = core::CaptureState(db);
    core::OracleState expected;
    expected.epoch = db.current_epoch();
    expected.counters = actual.counters;
    expected.tables.resize(1);
    for (const auto& [key, value] : model) {
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
      expected.tables[0][key] = std::vector<std::uint8_t>(bytes, bytes + sizeof(value));
    }
    std::string diff;
    EXPECT_EQ(core::DiffStates(expected, actual, &diff), 0u) << diff;
    hashes[workers == 1 ? 0 : 1] = core::StateHash(actual);
    EXPECT_EQ(hashes[workers == 1 ? 0 : 1], core::StateHash(expected));
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

// Engine modes must all produce identical logical state.
class EngineModeTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(EngineModeTest, ModesAgreeOnFinalState) {
  DatabaseSpec spec = SmallKvSpec();
  spec.mode = GetParam();
  NvmDevice device(ShadowDeviceConfig(spec));
  Database db(device, spec);
  db.Format();
  for (Key key = 0; key < 8; ++key) {
    const std::uint64_t value = 100 + key;
    db.BulkLoad(0, key, &value, sizeof(value));
  }
  db.FinalizeLoad();
  for (int e = 0; e < 3; ++e) {
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    for (std::uint32_t i = 0; i < 30; ++i) {
      txns.push_back(std::make_unique<KvRmwTxn>(i % 8, i));
    }
    db.ExecuteEpoch(std::move(txns));
  }
  // Compute the expected values with a serial model.
  std::uint64_t expected[8];
  for (Key key = 0; key < 8; ++key) {
    expected[key] = 100 + key;
  }
  for (int e = 0; e < 3; ++e) {
    for (std::uint32_t i = 0; i < 30; ++i) {
      expected[i % 8] = expected[i % 8] * 3 + i;
    }
  }
  for (Key key = 0; key < 8; ++key) {
    EXPECT_EQ(ReadU64(db, 0, key), expected[key]) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, EngineModeTest,
                         ::testing::Values(EngineMode::kNvCaracal, EngineMode::kNoLogging,
                                           EngineMode::kAllDram, EngineMode::kHybrid,
                                           EngineMode::kAllNvmm));

// Multi-worker execution must match single-worker execution exactly
// (deterministic concurrency control).
class WorkerCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkerCountTest, MatchesSingleWorkerState) {
  auto run = [](std::size_t workers) {
    core::DatabaseSpec spec = SmallKvSpec(workers);
    NvmDevice device(ShadowDeviceConfig(spec));
    Database db(device, spec);
    db.Format();
    for (Key key = 0; key < 32; ++key) {
      const std::uint64_t value = 100 + key;
      db.BulkLoad(0, key, &value, sizeof(value));
    }
    db.FinalizeLoad();
    Rng rng(5150);
    for (int e = 0; e < 5; ++e) {
      std::vector<std::unique_ptr<txn::Transaction>> txns;
      for (int i = 0; i < 200; ++i) {
        const Key key = rng.NextBounded(8);  // heavy contention
        if (rng.NextPercent(60)) {
          txns.push_back(std::make_unique<KvRmwTxn>(key, rng.NextBounded(50)));
        } else {
          txns.push_back(std::make_unique<KvBigPutTxn>(8 + key, rng.Next()));
        }
      }
      db.ExecuteEpoch(std::move(txns));
    }
    std::vector<std::vector<std::uint8_t>> state;
    for (Key key = 0; key < 32; ++key) {
      state.push_back(ReadBytes(db, 0, key));
    }
    return state;
  };
  const auto reference = run(1);
  const auto parallel = run(GetParam());
  EXPECT_EQ(parallel, reference);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCountTest, ::testing::Values(2u, 3u, 4u));

// The batch-append optimization must be behaviourally invisible: identical
// state to per-append sorted insertion, for any worker count, including
// aborts and crash recovery.
class BatchAppendTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchAppendTest, MatchesNonBatchState) {
  auto run = [&](bool batch) {
    core::DatabaseSpec spec = SmallKvSpec(GetParam());
    spec.enable_batch_append = batch;
    NvmDevice device(ShadowDeviceConfig(spec));
    Database db(device, spec);
    db.Format();
    for (Key key = 0; key < 32; ++key) {
      const std::uint64_t value = 100 + key;
      db.BulkLoad(0, key, &value, sizeof(value));
    }
    db.FinalizeLoad();
    Rng rng(777);
    for (int e = 0; e < 4; ++e) {
      std::vector<std::unique_ptr<txn::Transaction>> txns;
      for (int i = 0; i < 150; ++i) {
        const Key key = rng.NextBounded(6);  // hot rows -> long version arrays
        if (rng.NextPercent(70)) {
          txns.push_back(std::make_unique<KvRmwTxn>(key, rng.NextBounded(50)));
        } else if (rng.NextPercent(50)) {
          txns.push_back(std::make_unique<KvBigPutTxn>(6 + key, rng.Next()));
        } else {
          txns.push_back(std::make_unique<AbortTxn>(key));
        }
      }
      db.ExecuteEpoch(std::move(txns));
    }
    std::vector<std::vector<std::uint8_t>> state;
    for (Key key = 0; key < 32; ++key) {
      state.push_back(ReadBytes(db, 0, key));
    }
    return state;
  };
  EXPECT_EQ(run(true), run(false));
}

INSTANTIATE_TEST_SUITE_P(Workers, BatchAppendTest, ::testing::Values(1u, 2u, 4u));

TEST(BatchAppendTest, CrashRecoveryWithBatchAppend) {
  core::DatabaseSpec spec = SmallKvSpec();
  spec.enable_batch_append = true;
  // Reference (uncrashed, also batch mode).
  std::vector<std::vector<std::uint8_t>> expected;
  {
    NvmDevice device(ShadowDeviceConfig(spec));
    Database db(device, spec);
    db.Format();
    for (Key key = 0; key < 16; ++key) {
      const std::uint64_t value = 100 + key;
      db.BulkLoad(0, key, &value, sizeof(value));
    }
    db.FinalizeLoad();
    for (int e = 0; e < 2; ++e) {
      std::vector<std::unique_ptr<txn::Transaction>> txns;
      for (std::uint32_t i = 0; i < 60; ++i) {
        txns.push_back(std::make_unique<KvRmwTxn>(i % 5, i));
      }
      db.ExecuteEpoch(std::move(txns));
    }
    for (Key key = 0; key < 16; ++key) {
      expected.push_back(ReadBytes(db, 0, key));
    }
  }
  NvmDevice device(ShadowDeviceConfig(spec));
  {
    Database db(device, spec);
    db.Format();
    for (Key key = 0; key < 16; ++key) {
      const std::uint64_t value = 100 + key;
      db.BulkLoad(0, key, &value, sizeof(value));
    }
    db.FinalizeLoad();
    {
      std::vector<std::unique_ptr<txn::Transaction>> txns;
      for (std::uint32_t i = 0; i < 60; ++i) {
        txns.push_back(std::make_unique<KvRmwTxn>(i % 5, i));
      }
      db.ExecuteEpoch(std::move(txns));
    }
    int count = 0;
    db.SetCrashHook([&count](core::CrashSite site) {
      return site == core::CrashSite::kMidExecution && ++count > 30;
    });
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    for (std::uint32_t i = 0; i < 60; ++i) {
      txns.push_back(std::make_unique<KvRmwTxn>(i % 5, i));
    }
    ASSERT_TRUE(db.ExecuteEpoch(std::move(txns)).crashed);
  }
  device.CrashChaos(55, 0.5);
  Database recovered(device, spec);
  const auto report = recovered.Recover(KvRegistry()).value();
  ASSERT_TRUE(report.replayed);
  for (Key key = 0; key < 16; ++key) {
    EXPECT_EQ(ReadBytes(recovered, 0, key), expected[key]) << "key " << key;
  }
}

}  // namespace
}  // namespace nvc::test
