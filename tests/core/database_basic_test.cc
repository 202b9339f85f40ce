// End-to-end engine behaviour: epochs, serial order, inserts, deletes,
// aborts, caching and multi-epoch GC.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tests/test_util.h"

namespace nvc::test {
namespace {

using core::Database;
using core::DatabaseSpec;
using core::EpochResult;
using sim::NvmDevice;

class DatabaseBasicTest : public ::testing::Test {
 protected:
  DatabaseBasicTest() : spec_(SmallKvSpec()), device_(ShadowDeviceConfig(spec_)) {}

  void SetUp() override {
    db_ = std::make_unique<Database>(device_, spec_);
    db_->Format();
  }

  void Load(std::size_t rows) {
    for (std::size_t i = 0; i < rows; ++i) {
      const std::uint64_t value = 1000 + i;
      db_->BulkLoad(0, i, &value, sizeof(value));
    }
    db_->FinalizeLoad();
  }

  DatabaseSpec spec_;
  NvmDevice device_;
  std::unique_ptr<Database> db_;
};

TEST(DatabaseSpecValidationTest, WorkerCountOutsideCoreRangeIsRejected) {
  // Core indices shard kMaxCores-sized arrays in the device, stats, and
  // transient pool; a spec with more workers must fail loudly at
  // construction instead of aliasing counters and pending-persist queues.
  DatabaseSpec spec = SmallKvSpec();
  NvmDevice device(ShadowDeviceConfig(spec));
  spec.workers = kMaxCores + 1;
  EXPECT_THROW(Database(device, spec), std::invalid_argument);
  spec.workers = 0;
  EXPECT_THROW(Database(device, spec), std::invalid_argument);
  spec.workers = 1;
  EXPECT_NO_THROW(Database(device, spec));
}

TEST_F(DatabaseBasicTest, BulkLoadAndReadCommitted) {
  Load(100);
  EXPECT_EQ(ReadU64(*db_, 0, 0), 1000u);
  EXPECT_EQ(ReadU64(*db_, 0, 99), 1099u);
  EXPECT_EQ(ReadU64(*db_, 0, 100), ~0ULL);  // absent
  EXPECT_EQ(db_->table_rows(0), 100u);
}

TEST_F(DatabaseBasicTest, SingleEpochWrites) {
  Load(10);
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvPutTxn>(3, 42));
  txns.push_back(std::make_unique<KvPutTxn>(7, 77));
  const EpochResult result = db_->ExecuteEpoch(std::move(txns));
  EXPECT_EQ(result.epoch, 2u);
  EXPECT_EQ(result.committed, 2u);
  EXPECT_EQ(ReadU64(*db_, 0, 3), 42u);
  EXPECT_EQ(ReadU64(*db_, 0, 7), 77u);
  EXPECT_EQ(ReadU64(*db_, 0, 0), 1000u);
}

TEST_F(DatabaseBasicTest, SerialOrderWithinEpoch) {
  Load(1);
  // value = 1000; then RMW chain in declared serial order:
  // t1: v*3+1, t2: v*3+2, t3: v*3+3 => ((1000*3+1)*3+2)*3+3 = 27036.
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.push_back(std::make_unique<KvRmwTxn>(0, 1));
  txns.push_back(std::make_unique<KvRmwTxn>(0, 2));
  txns.push_back(std::make_unique<KvRmwTxn>(0, 3));
  db_->ExecuteEpoch(std::move(txns));
  EXPECT_EQ(ReadU64(*db_, 0, 0), ((1000u * 3 + 1) * 3 + 2) * 3 + 3);
}

TEST_F(DatabaseBasicTest, SerialOrderAcrossEpochs) {
  Load(1);
  for (int epoch = 0; epoch < 5; ++epoch) {
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    txns.push_back(std::make_unique<KvRmwTxn>(0, 1));
    db_->ExecuteEpoch(std::move(txns));
  }
  std::uint64_t expected = 1000;
  for (int i = 0; i < 5; ++i) {
    expected = expected * 3 + 1;
  }
  EXPECT_EQ(ReadU64(*db_, 0, 0), expected);
}

TEST_F(DatabaseBasicTest, ManyEpochsContendedKey) {
  Load(4);
  std::uint64_t expected[4] = {1000, 1001, 1002, 1003};
  for (int epoch = 0; epoch < 30; ++epoch) {
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    for (std::uint32_t i = 0; i < 20; ++i) {
      const Key key = i % 4;
      txns.push_back(std::make_unique<KvRmwTxn>(key, i));
      expected[key] = expected[key] * 3 + i;
    }
    const EpochResult result = db_->ExecuteEpoch(std::move(txns));
    EXPECT_EQ(result.committed, 20u);
  }
  for (Key key = 0; key < 4; ++key) {
    EXPECT_EQ(ReadU64(*db_, 0, key), expected[key]) << "key " << key;
  }
}

// Transient-write accounting: with 10 updates to the same key in one epoch,
// only the final write is persistent (paper section 4).
TEST_F(DatabaseBasicTest, OnlyFinalWritePersisted) {
  Load(1);
  db_->stats().Reset();
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  for (std::uint32_t i = 0; i < 10; ++i) {
    txns.push_back(std::make_unique<KvPutTxn>(0, i));
  }
  db_->ExecuteEpoch(std::move(txns));
  EXPECT_EQ(db_->stats().persistent_writes.Sum(), 1u);
  EXPECT_EQ(db_->stats().transient_writes.Sum(), 9u);
  EXPECT_EQ(ReadU64(*db_, 0, 0), 9u);
}

constexpr txn::TxnType kSizedInsertType = 100;  // never replayed: not registered

// Inserts a row holding `size` deterministic bytes in the insert step.
class SizedInsertTxn final : public txn::Transaction {
 public:
  SizedInsertTxn(Key key, std::uint32_t size) : key_(key), size_(size) {}
  txn::TxnType type() const override { return kSizedInsertType; }
  void EncodeInputs(BinaryWriter& w) const override {
    w.Put(key_);
    w.Put(size_);
  }
  void InsertStep(txn::InsertContext& ctx) override {
    const std::vector<std::uint8_t> data = KvVarPutTxn::Pattern(key_, size_, 1);
    ctx.InsertRow(0, key_, data.data(), size_);
  }
  void Execute(txn::ExecContext&) override {}

 private:
  Key key_;
  std::uint32_t size_;
};

// NVM ledger of single row operations: each row operation persists every
// cache line it touched once, and only the bytes it wrote. Runs one
// transaction per epoch and reads the profiler's per-phase device deltas.
class RowLedgerTest : public DatabaseBasicTest {
 protected:
  OpCounters RunOne(std::unique_ptr<txn::Transaction> txn, Phase phase) {
    db_->ConfigureProfiler(ProfilerConfig{.enabled = true});
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    txns.push_back(std::move(txn));
    const EpochResult result = db_->ExecuteEpoch(std::move(txns));
    EXPECT_EQ(result.committed, 1u);
    EXPECT_TRUE(db_->WaitIdle().ok());
    const OpCounters ops = db_->ProfileReport().phase(phase).ops;
    db_->ConfigureProfiler(ProfilerConfig{});
    return ops;
  }

  static std::uint64_t Lines(std::uint64_t bytes) {
    return (bytes + kCacheLineSize - 1) / kCacheLineSize;
  }
};

TEST_F(RowLedgerTest, PlainFinalWritePersistsOneDescriptorSlot) {
  Load(1);  // v0 inline at the heap start
  const OpCounters ops = RunOne(std::make_unique<KvPutTxn>(0, 7), Phase::kExecute);
  // The 16 B slot-1 descriptor (one line) plus the 8 B inline value (one line).
  EXPECT_EQ(ops.nvm_write_bytes, 16u + 8u);
  EXPECT_EQ(ops.nvm_write_lines, 2u);
  EXPECT_EQ(ops.nvm_persist_ops, 2u);
  EXPECT_EQ(ReadU64(*db_, 0, 0), 7u);
}

TEST_F(RowLedgerTest, MinorGcFinalWritePersistsTheDescriptorLineOnce) {
  Load(1);
  RunOne(std::make_unique<KvPutTxn>(0, 7), Phase::kExecute);  // row now holds two versions
  db_->stats().Reset();
  const OpCounters ops = RunOne(std::make_unique<KvPutTxn>(0, 9), Phase::kExecute);
  ASSERT_EQ(db_->stats().minor_gc_runs.Sum(), 1u);
  // Minor GC's copy and reset and the final descriptor share one 32 B
  // persist of the descriptor line; the value adds its own line.
  EXPECT_EQ(ops.nvm_write_bytes, 32u + 8u);
  EXPECT_EQ(ops.nvm_write_lines, 2u);
  EXPECT_EQ(ops.nvm_persist_ops, 2u);
  EXPECT_EQ(ReadU64(*db_, 0, 0), 9u);
}

TEST_F(RowLedgerTest, InsertPersistsHeaderAndInlineValueOnly) {
  Load(1);
  for (const std::uint32_t size : {8u, 60u, 100u, 168u}) {
    const Key key = 100 + size;
    const OpCounters ops = RunOne(std::make_unique<SizedInsertTxn>(key, size), Phase::kInsert);
    EXPECT_EQ(ops.nvm_write_bytes, vstore::kRowHeaderSize + size) << "size " << size;
    EXPECT_EQ(ops.nvm_write_lines, Lines(vstore::kRowHeaderSize + size)) << "size " << size;
    EXPECT_EQ(ops.nvm_persist_ops, 1u) << "size " << size;
    EXPECT_EQ(ReadBytes(*db_, 0, key), KvVarPutTxn::Pattern(key, size, 1)) << "size " << size;
  }
}

TEST_F(RowLedgerTest, InsertWithOutOfLineValuePersistsTheHeaderOnly) {
  Load(1);
  const std::uint32_t size = 200;  // > 168 B inline heap
  const OpCounters ops = RunOne(std::make_unique<SizedInsertTxn>(7, size), Phase::kInsert);
  // Two header lines for the row, plus the value's own lines in the pool.
  EXPECT_EQ(ops.nvm_write_bytes, vstore::kRowHeaderSize + size);
  EXPECT_EQ(ops.nvm_write_lines, 2u + Lines(size));
  EXPECT_EQ(ops.nvm_persist_ops, 2u);
  EXPECT_EQ(ReadBytes(*db_, 0, 7), KvVarPutTxn::Pattern(7, size, 1));
}

}  // namespace
}  // namespace nvc::test
