// Range scans over the ordered secondary index.
//
// Covers four layers:
//   1. Database::RangeScan committed-state semantics (inclusive bounds,
//      limit, mutation visibility, unordered-table rejection).
//   2. Transactional ctx.Scan under Caracal: SID-ordered reads make scans
//      phantom-safe by construction, so a scan must observe every
//      smaller-SID write/insert of its own epoch and nothing larger.
//   3. Determinism: identical streams with scans produce identical logical
//      state whether or not the caller waits for every epoch's tail, at 1
//      and 4 workers, and survive crash/recovery (including a crash during the
//      ordered-index rebuild inside Recover itself).
//   4. Aria phantom validation: a smaller-SID write or execution-phase
//      insert inside a scan's observed interval defers the scan; early-stop
//      clamps the interval so out-of-prefix writes do not.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/core/database.h"
#include "src/core/oracle.h"
#include "tests/test_util.h"

namespace nvc::test {
namespace {

using core::ConcurrencyControl;
using core::CrashSite;
using core::Database;
using core::DatabaseSpec;
using core::EpochResult;
using core::OracleState;
using core::RecoveryReport;
using sim::NvmDevice;

// Replicates KvScanSumTxn's fold so tests can state the exact 16-byte
// {digest, count} value a scan must have committed.
class ScanFold {
 public:
  void Row(Key key, const void* data, std::uint32_t size) {
    Mix(key);
    Mix(size);
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    for (std::uint32_t i = 0; i < size; ++i) {
      digest_ ^= bytes[i];
      digest_ *= 1099511628211ULL;
    }
    ++count_;
  }
  void RowU64(Key key, std::uint64_t value) { Row(key, &value, sizeof(value)); }

  std::vector<std::uint8_t> Out() const {
    std::vector<std::uint8_t> out(16);
    std::memcpy(out.data(), &digest_, 8);
    std::memcpy(out.data() + 8, &count_, 8);
    return out;
  }

 private:
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (v >> (i * 8)) & 0xFF;
      digest_ *= 1099511628211ULL;
    }
  }
  std::uint64_t digest_ = 1469598103934665603ULL;  // FNV-1a offset basis
  std::uint64_t count_ = 0;
};

constexpr Key kLoadedRows = 32;  // bulk-loaded keys 0..31, value 100 + key

struct OrderedFixture {
  explicit OrderedFixture(DatabaseSpec s)
      : spec(std::move(s)), device(ShadowDeviceConfig(spec)), db(device, spec) {
    db.Format();
    for (Key key = 0; key < kLoadedRows; ++key) {
      const std::uint64_t value = 100 + key;
      db.BulkLoad(0, key, &value, sizeof(value));
    }
    db.FinalizeLoad();
  }
  DatabaseSpec spec;
  NvmDevice device;
  Database db;
};

// ---- Database::RangeScan (committed state) ---------------------------------

TEST(RangeScanTest, InclusiveBoundsLimitAndValues) {
  OrderedFixture f(SmallKvSpec(/*workers=*/1, /*ordered=*/true));

  const auto rows = f.db.RangeScan(0, 10, 20);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 11u);  // both bounds inclusive
  for (std::size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i].key, 10 + i);
    ASSERT_EQ((*rows)[i].value.size(), 8u);
    std::uint64_t value = 0;
    std::memcpy(&value, (*rows)[i].value.data(), 8);
    EXPECT_EQ(value, 110 + i);
  }

  const auto limited = f.db.RangeScan(0, 10, 20, /*limit=*/5);
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->size(), 5u);  // ascending prefix
  EXPECT_EQ(limited->back().key, 14u);

  const auto empty = f.db.RangeScan(0, 1000, 2000);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  const auto all = f.db.RangeScan(0, 0, ~Key{0});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), static_cast<std::size_t>(kLoadedRows));
}

TEST(RangeScanTest, RejectsUnorderedTable) {
  OrderedFixture f(SmallKvSpec(/*workers=*/1, /*ordered=*/false));
  const auto rows = f.db.RangeScan(0, 0, 100);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(RangeScanTest, ReflectsCommittedMutations) {
  OrderedFixture f(SmallKvSpec(/*workers=*/1, /*ordered=*/true));
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvPutTxn>(12, 999));
  txns.push_back(std::make_unique<KvInsertTxn>(40, 4040));
  txns.push_back(std::make_unique<KvDeleteTxn>(7));
  ASSERT_FALSE(f.db.ExecuteEpoch(std::move(txns)).crashed);

  const auto rows = f.db.RangeScan(0, 0, 63);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), static_cast<std::size_t>(kLoadedRows));  // -1 delete, +1 insert
  std::map<Key, std::uint64_t> seen;
  Key prev = 0;
  for (std::size_t i = 0; i < rows->size(); ++i) {
    if (i > 0) {
      EXPECT_LT(prev, (*rows)[i].key);
    }
    prev = (*rows)[i].key;
    std::uint64_t value = 0;
    std::memcpy(&value, (*rows)[i].value.data(), std::min<std::size_t>(8, (*rows)[i].value.size()));
    seen[(*rows)[i].key] = value;
  }
  EXPECT_EQ(seen.count(7), 0u);
  EXPECT_EQ(seen.at(12), 999u);
  EXPECT_EQ(seen.at(40), 4040u);
}

// ---- Transactional scans under Caracal -------------------------------------

TEST(RangeScanTest, CaracalScanObservesSmallerSidWritesOfItsEpoch) {
  // SID-ordered reads: the scan (sid 2) must see the put (sid 1) of the same
  // epoch. Phantom safety is by construction — the key set and all write
  // SIDs are fixed before the execute phase starts.
  OrderedFixture f(SmallKvSpec(/*workers=*/1, /*ordered=*/true));
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvPutTxn>(5, 777));                    // sid 1
  txns.push_back(std::make_unique<KvScanSumTxn>(3, 9, 100, /*out=*/20));  // sid 2
  const EpochResult result = f.db.ExecuteEpoch(std::move(txns));
  EXPECT_EQ(result.committed, 2u);
  EXPECT_EQ(result.deferred, 0u);

  ScanFold fold;
  for (Key key = 3; key <= 9; ++key) {
    fold.RowU64(key, key == 5 ? 777 : 100 + key);
  }
  EXPECT_EQ(ReadBytes(f.db, 0, 20), fold.Out());
}

TEST(RangeScanTest, CaracalScanAheadOfWriterSeesPriorState) {
  OrderedFixture f(SmallKvSpec(/*workers=*/1, /*ordered=*/true));
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvScanSumTxn>(3, 9, 100, /*out=*/20));  // sid 1
  txns.push_back(std::make_unique<KvPutTxn>(5, 777));                    // sid 2
  const EpochResult result = f.db.ExecuteEpoch(std::move(txns));
  EXPECT_EQ(result.committed, 2u);

  ScanFold fold;
  for (Key key = 3; key <= 9; ++key) {
    fold.RowU64(key, 100 + key);  // put at sid 2 is invisible to sid 1
  }
  EXPECT_EQ(ReadBytes(f.db, 0, 20), fold.Out());
  EXPECT_EQ(ReadU64(f.db, 0, 5), 777u);  // but it did commit
}

TEST(RangeScanTest, CaracalScanSeesSameEpochInsert) {
  // Inserts run in the insert phase, before execution: the new key is in the
  // ordered index when any scan of the epoch runs, and version visibility is
  // by SID like any other row.
  OrderedFixture f(SmallKvSpec(/*workers=*/1, /*ordered=*/true));
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvInsertTxn>(40, 4040));                 // sid 1
  txns.push_back(std::make_unique<KvScanSumTxn>(38, 44, 16, /*out=*/20));  // sid 2
  const EpochResult result = f.db.ExecuteEpoch(std::move(txns));
  EXPECT_EQ(result.committed, 2u);

  ScanFold fold;
  fold.RowU64(40, 4040);
  EXPECT_EQ(ReadBytes(f.db, 0, 20), fold.Out());
}

// ---- Cross-engine determinism ----------------------------------------------

// One seeded epoch of mixed puts / RMWs / scans / insert-delete churn. The
// dynamic-key live set is part of the generator so every engine sees the
// exact same stream.
std::vector<std::unique_ptr<txn::Transaction>> MixedEpoch(Rng& rng, std::set<Key>& live) {
  constexpr Key kDynBase = 48;
  constexpr Key kDynRows = 16;
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  std::set<Key> touched;  // at most one insert/delete per key per epoch: the
                          // insert phase runs before any delete executes
  for (int i = 0; i < 48; ++i) {
    const std::uint64_t pick = rng.NextBounded(100);
    if (pick < 35) {
      txns.push_back(std::make_unique<KvPutTxn>(rng.NextBounded(kLoadedRows), rng.Next()));
    } else if (pick < 60) {
      txns.push_back(
          std::make_unique<KvRmwTxn>(rng.NextBounded(kLoadedRows), rng.NextBounded(64)));
    } else if (pick < 85) {
      const Key lo = rng.NextBounded(kDynBase + kDynRows);
      txns.push_back(std::make_unique<KvScanSumTxn>(lo, lo + 1 + rng.NextBounded(24),
                                                    1 + rng.NextBounded(12),
                                                    rng.NextBounded(kLoadedRows)));
    } else {
      const Key key = kDynBase + rng.NextBounded(kDynRows);
      if (!touched.insert(key).second) {
        txns.push_back(std::make_unique<KvPutTxn>(rng.NextBounded(kLoadedRows), rng.Next()));
      } else if (live.count(key)) {
        live.erase(key);
        txns.push_back(std::make_unique<KvDeleteTxn>(key));
      } else {
        live.insert(key);
        txns.push_back(std::make_unique<KvInsertTxn>(key, rng.Next()));
      }
    }
  }
  return txns;
}

// `barrier` waits for every epoch's tail before submitting the next epoch.
std::uint64_t RunMixedStream(DatabaseSpec spec, std::uint64_t seed, bool barrier) {
  OrderedFixture f(std::move(spec));
  Rng rng(seed);
  std::set<Key> live;
  for (int epoch = 0; epoch < 6; ++epoch) {
    EXPECT_FALSE(f.db.ExecuteEpoch(MixedEpoch(rng, live)).crashed);
    if (barrier) {
      EXPECT_TRUE(f.db.WaitIdle().ok());
    }
  }
  EXPECT_TRUE(f.db.WaitIdle().ok());
  std::string diff;
  EXPECT_EQ(core::ValidateOrderedIndex(f.db, &diff), 0u) << diff;
  return core::StateHash(core::CaptureState(f.db));
}

TEST(RangeScanTest, IdenticalStateAcrossEngines) {
  const std::uint64_t seed = 0x5ca1ab1eULL;

  const std::uint64_t reference = RunMixedStream(SmallKvSpec(1, true), seed, /*barrier=*/true);
  EXPECT_EQ(RunMixedStream(SmallKvSpec(1, true), seed, /*barrier=*/false), reference);
  EXPECT_EQ(RunMixedStream(SmallKvSpec(4, true), seed, /*barrier=*/true), reference);
  EXPECT_EQ(RunMixedStream(SmallKvSpec(4, true), seed, /*barrier=*/false), reference);
}

// ---- Crash recovery with scans in the stream -------------------------------

// Crash at `site` in the last epoch, recover, re-execute if the epoch never
// reached its log, and require the exact crash-free logical state.
void RunScanCrashAt(CrashSite site, bool rebuild_crash) {
  const std::uint64_t seed = 0xdecafULL + static_cast<std::uint64_t>(site);
  constexpr int kEpochs = 4;
  const DatabaseSpec spec = SmallKvSpec(/*workers=*/1, /*ordered=*/true);

  OracleState expected;
  {
    OrderedFixture ref(spec);
    Rng rng(seed);
    std::set<Key> live;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      ASSERT_FALSE(ref.db.ExecuteEpoch(MixedEpoch(rng, live)).crashed);
    }
    ASSERT_TRUE(ref.db.WaitIdle().ok());
    expected = core::CaptureState(ref.db);
  }

  NvmDevice device(ShadowDeviceConfig(spec));
  {
    Database db(device, spec);
    db.Format();
    for (Key key = 0; key < kLoadedRows; ++key) {
      const std::uint64_t value = 100 + key;
      db.BulkLoad(0, key, &value, sizeof(value));
    }
    db.FinalizeLoad();
    Rng rng(seed);
    std::set<Key> live;
    for (int epoch = 0; epoch + 1 < kEpochs; ++epoch) {
      ASSERT_FALSE(db.ExecuteEpoch(MixedEpoch(rng, live)).crashed);
    }
    db.SetCrashHook([site](CrashSite s) { return s == site; });
    EpochResult result = db.ExecuteEpoch(MixedEpoch(rng, live));
    if (!result.crashed) {
      result.crashed = !db.WaitIdle().ok();
    }
    ASSERT_TRUE(result.crashed) << "crash hook never fired at " << core::CrashSiteName(site);
  }
  device.Crash();

  const txn::TxnRegistry registry = KvRegistry();
  if (rebuild_crash) {
    // Second failure while Recover() itself is rebuilding the skiplist: the
    // rebuild must stay restartable (DRAM-only + idempotent repairs).
    Database wounded(device, spec);
    std::uint64_t reached = 0;
    wounded.SetCrashHook([&reached](CrashSite s) {
      return s == CrashSite::kMidOrderedIndexRebuild && ++reached == 1;
    });
    const auto failed = wounded.Recover(registry);
    ASSERT_FALSE(failed.ok());
    ASSERT_GT(reached, 0u);
    device.Crash();
  }

  Database recovered(device, spec);
  const RecoveryReport report = recovered.Recover(registry).value();
  if (!report.replayed) {
    // The crash predated the input log: replay the last epoch by hand.
    Rng rng(seed);
    std::set<Key> live;
    std::vector<std::unique_ptr<txn::Transaction>> last;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      last = MixedEpoch(rng, live);
    }
    ASSERT_FALSE(recovered.ExecuteEpoch(std::move(last)).crashed);
  }
  ASSERT_TRUE(recovered.WaitIdle().ok());

  std::string diff;
  EXPECT_EQ(core::DiffStates(expected, core::CaptureState(recovered), &diff), 0u) << diff;
  EXPECT_EQ(core::ValidateOrderedIndex(recovered, &diff), 0u) << diff;
}

TEST(RangeScanTest, ScanStreamSurvivesTailCrash) {
  RunScanCrashAt(CrashSite::kBeforeEpochPersist, /*rebuild_crash=*/false);
}

TEST(RangeScanTest, ScanStreamSurvivesMidScanCrash) {
  RunScanCrashAt(CrashSite::kMidScanValidate, /*rebuild_crash=*/false);
}

TEST(RangeScanTest, ScanStreamSurvivesCrashDuringIndexRebuild) {
  RunScanCrashAt(CrashSite::kBeforeEpochPersist, /*rebuild_crash=*/true);
}

// ---- Aria phantom validation -----------------------------------------------

// An insert issued from execution (Aria's insert path), as in aria_test.cc.
class AriaInsertTxn final : public txn::Transaction {
 public:
  AriaInsertTxn(Key key, std::uint64_t value) : key_(key), value_(value) {}
  txn::TxnType type() const override { return 80; }
  void EncodeInputs(BinaryWriter& w) const override {
    w.Put(key_);
    w.Put(value_);
  }
  static std::unique_ptr<txn::Transaction> Decode(BinaryReader& r) {
    const auto key = r.Get<Key>();
    const auto value = r.Get<std::uint64_t>();
    return std::make_unique<AriaInsertTxn>(key, value);
  }
  void Execute(txn::ExecContext& ctx) override {
    ctx.Insert(0, key_, &value_, sizeof(value_));
  }

 private:
  Key key_;
  std::uint64_t value_;
};

DatabaseSpec AriaOrderedSpec() {
  DatabaseSpec spec = SmallKvSpec(/*workers=*/1, /*ordered=*/true);
  spec.concurrency = ConcurrencyControl::kAria;
  return spec;
}

// Runs one epoch; a `barrier` caller also waits for its persistence tail.
EpochResult Exec(Database& db, std::vector<std::unique_ptr<txn::Transaction>> txns,
                 bool barrier) {
  const EpochResult result = db.ExecuteEpoch(std::move(txns));
  if (barrier) {
    EXPECT_TRUE(db.WaitIdle().ok());
  }
  return result;
}

// The phantom regression proper, run with and without a caller barrier after
// every epoch: Aria scans read the previous-epoch snapshot, so a smaller-SID
// write inside the observed interval MUST defer the scan, and the deferred
// re-run MUST observe that write.
void RunAriaPhantomSuite(bool barrier) {
  {
    // (a) Smaller-SID update inside the scanned range defers the scan.
    OrderedFixture f(AriaOrderedSpec());
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    txns.push_back(std::make_unique<KvPutTxn>(5, 777));                    // sid 1
    txns.push_back(std::make_unique<KvScanSumTxn>(0, 15, 32, /*out=*/20));  // sid 2
    const EpochResult first = Exec(f.db, std::move(txns), barrier);
    EXPECT_EQ(first.committed, 1u);
    EXPECT_EQ(first.deferred, 1u);
    EXPECT_EQ(ReadBytes(f.db, 0, 20).size(), 8u);  // scan has not committed

    const EpochResult second = Exec(f.db, {}, barrier);
    EXPECT_EQ(second.committed, 1u);
    EXPECT_EQ(second.deferred, 0u);
    ScanFold fold;
    for (Key key = 0; key <= 15; ++key) {
      fold.RowU64(key, key == 5 ? 777 : 100 + key);  // re-run sees the write
    }
    EXPECT_EQ(ReadBytes(f.db, 0, 20), fold.Out());
  }
  {
    // (b) Scan ahead of the writer commits against the snapshot.
    OrderedFixture f(AriaOrderedSpec());
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    txns.push_back(std::make_unique<KvScanSumTxn>(0, 15, 32, /*out=*/20));  // sid 1
    txns.push_back(std::make_unique<KvPutTxn>(5, 777));                    // sid 2
    const EpochResult result = Exec(f.db, std::move(txns), barrier);
    EXPECT_EQ(result.committed, 2u);
    EXPECT_EQ(result.deferred, 0u);
    ScanFold fold;
    for (Key key = 0; key <= 15; ++key) {
      fold.RowU64(key, 100 + key);  // snapshot values
    }
    EXPECT_EQ(ReadBytes(f.db, 0, 20), fold.Out());
    EXPECT_EQ(ReadU64(f.db, 0, 5), 777u);
  }
  {
    // (c) A genuine phantom: an execution-phase insert lands inside an
    // interval the scan observed as EMPTY. The scan must defer and then see
    // the new key.
    OrderedFixture f(AriaOrderedSpec());
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    txns.push_back(std::make_unique<AriaInsertTxn>(40, 4242));               // sid 1
    txns.push_back(std::make_unique<KvScanSumTxn>(38, 44, 16, /*out=*/20));  // sid 2
    const EpochResult first = Exec(f.db, std::move(txns), barrier);
    EXPECT_EQ(first.committed, 1u);
    EXPECT_EQ(first.deferred, 1u);

    const EpochResult second = Exec(f.db, {}, barrier);
    EXPECT_EQ(second.committed, 1u);
    ScanFold fold;
    fold.RowU64(40, 4242);
    EXPECT_EQ(ReadBytes(f.db, 0, 20), fold.Out());
  }
  {
    // (d) Early stop clamps the validated interval: a write beyond the
    // delivered prefix cannot have changed it, so the scan commits.
    OrderedFixture f(AriaOrderedSpec());
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    txns.push_back(std::make_unique<KvPutTxn>(12, 999));                        // sid 1
    txns.push_back(std::make_unique<KvScanSumTxn>(0, 15, /*limit=*/4, /*out=*/20));  // sid 2
    const EpochResult result = Exec(f.db, std::move(txns), barrier);
    EXPECT_EQ(result.committed, 2u);
    EXPECT_EQ(result.deferred, 0u);
    ScanFold fold;
    for (Key key = 0; key <= 3; ++key) {
      fold.RowU64(key, 100 + key);
    }
    EXPECT_EQ(ReadBytes(f.db, 0, 20), fold.Out());
    EXPECT_EQ(ReadU64(f.db, 0, 12), 999u);
  }
}

TEST(RangeScanTest, AriaPhantomValidationBarrierEngine) {
  RunAriaPhantomSuite(/*barrier=*/true);
}

TEST(RangeScanTest, AriaPhantomValidationPipelinedEngine) {
  RunAriaPhantomSuite(/*barrier=*/false);
}

// ---- Spec validation ---------------------------------------------------------

TEST(RangeScanTest, InstantRecoveryRejectsOrderedTables) {
  // Instant recovery serves reads before the skiplist is rebuilt; until the
  // rebuild is integrated with on-demand redo, the combination is refused
  // up front rather than returning wrong scans.
  DatabaseSpec spec = SmallKvSpec(/*workers=*/1, /*ordered=*/true);
  spec.enable_instant_recovery = true;
  EXPECT_FALSE(spec.Validate().ok());
}

}  // namespace
}  // namespace nvc::test
