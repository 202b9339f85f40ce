// Deterministic ordered secondary index: model-checked against std::map,
// structure independence from insertion order, and scans racing the epoch
// pipeline (the TSan shard runs this file under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "src/core/database.h"
#include "src/core/oracle.h"
#include "src/index/ordered_index.h"
#include "tests/test_util.h"

namespace nvc::test {
namespace {

using index::OrderedIndex;

// Backing entries for the pure index tests; the index stores pointers and
// never dereferences them, but real objects keep sanitizers honest.
class ModelFixture {
 public:
  vstore::RowEntry* EntryFor(Key key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      storage_.emplace_back();
      storage_.back().key = key;
      it = entries_.emplace(key, &storage_.back()).first;
    }
    return it->second;
  }

 private:
  std::deque<vstore::RowEntry> storage_;
  std::map<Key, vstore::RowEntry*> entries_;
};

std::vector<std::pair<Key, vstore::RowEntry*>> Collect(const OrderedIndex& index, Key lo,
                                                       Key hi) {
  std::vector<std::pair<Key, vstore::RowEntry*>> out;
  index.ForRangeWhile(lo, hi, [&](Key key, vstore::RowEntry* entry) {
    out.emplace_back(key, entry);
    return true;
  });
  return out;
}

TEST(OrderedIndexTest, ModelCheckAgainstStdMap) {
  // Random insert/erase/find/range ops mirrored into a std::map; every
  // divergence in contents, order, or range answers is a bug.
  OrderedIndex index(/*table=*/0);
  std::map<Key, vstore::RowEntry*> model;
  ModelFixture fixture;
  Rng rng(0xfeedULL);
  constexpr Key kKeySpace = 512;

  for (int step = 0; step < 20'000; ++step) {
    const Key key = rng.NextBounded(kKeySpace);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {  // insert
        vstore::RowEntry* entry = fixture.EntryFor(key);
        const bool inserted = index.Insert(key, entry);
        EXPECT_EQ(inserted, model.emplace(key, entry).second);
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(index.Erase(key), model.erase(key) == 1);
        break;
      }
      default: {  // point + range queries
        auto it = model.find(key);
        EXPECT_EQ(index.Find(key), it == model.end() ? nullptr : it->second);
        const Key lo = rng.NextBounded(kKeySpace);
        const Key hi = lo + rng.NextBounded(64);
        Key found = 0;
        auto first = model.lower_bound(lo);
        const bool has_first = first != model.end() && first->first <= hi;
        EXPECT_EQ(index.FirstInRange(lo, hi, &found), has_first);
        if (has_first) {
          EXPECT_EQ(found, first->first);
        }
        auto last = model.upper_bound(hi);
        const bool has_last = last != model.begin() && std::prev(last)->first >= lo;
        EXPECT_EQ(index.LastInRange(lo, hi, &found), has_last);
        if (has_last) {
          EXPECT_EQ(found, std::prev(last)->first);
        }
        break;
      }
    }
    if (step % 1000 == 999) {
      // Full sweep: identical contents in identical order.
      const auto scanned = Collect(index, 0, ~Key{0});
      ASSERT_EQ(scanned.size(), model.size());
      std::size_t i = 0;
      for (const auto& [k, v] : model) {
        EXPECT_EQ(scanned[i].first, k);
        EXPECT_EQ(scanned[i].second, v);
        ++i;
      }
      EXPECT_EQ(index.size(), model.size());
    }
  }
}

TEST(OrderedIndexTest, StructureIndependentOfInsertionOrder) {
  // Tower heights are a pure function of (table, key), so any insertion
  // order — and any insert/erase/re-insert history — must converge to the
  // same physical skiplist for the same final key set.
  ModelFixture fixture;
  std::vector<Key> keys;
  for (Key key = 0; key < 1000; ++key) {
    keys.push_back(key * 7 + 3);
  }

  OrderedIndex ascending(/*table=*/5);
  for (Key key : keys) {
    ascending.Insert(key, fixture.EntryFor(key));
  }

  OrderedIndex shuffled(/*table=*/5);
  std::vector<Key> order = keys;
  std::mt19937_64 mt(99);
  std::shuffle(order.begin(), order.end(), mt);
  for (Key key : order) {
    shuffled.Insert(key, fixture.EntryFor(key));
  }

  OrderedIndex churned(/*table=*/5);
  for (Key key : order) {
    churned.Insert(key, fixture.EntryFor(key));
  }
  for (Key key : keys) {
    if (key % 3 == 0) {
      churned.Erase(key);
    }
  }
  for (Key key : keys) {
    if (key % 3 == 0) {
      churned.Insert(key, fixture.EntryFor(key));
    }
  }

  EXPECT_EQ(ascending.StructureHash(), shuffled.StructureHash());
  EXPECT_EQ(ascending.StructureHash(), churned.StructureHash());

  // A different table id must yield a different tower layout (the hash mixes
  // heights, which derive from the table salt).
  OrderedIndex other_table(/*table=*/6);
  for (Key key : keys) {
    other_table.Insert(key, fixture.EntryFor(key));
  }
  EXPECT_NE(ascending.StructureHash(), other_table.StructureHash());
}

TEST(OrderedIndexTest, TowerHeightsDeterministicAndBounded) {
  std::size_t tall = 0;
  for (Key key = 0; key < 100'000; ++key) {
    const int h = OrderedIndex::TowerHeight(/*table=*/0, key);
    ASSERT_GE(h, 1);
    ASSERT_LE(h, OrderedIndex::kMaxHeight);
    EXPECT_EQ(h, OrderedIndex::TowerHeight(0, key));  // pure function
    if (h > 1) {
      ++tall;
    }
  }
  // Geometric with p = 1/4: ~25% of towers exceed height 1.
  EXPECT_GT(tall, 20'000u);
  EXPECT_LT(tall, 30'000u);
}

TEST(OrderedIndexTest, ForRangeWhileEarlyStop) {
  OrderedIndex index(/*table=*/0);
  ModelFixture fixture;
  for (Key key = 0; key < 100; key += 10) {
    index.Insert(key, fixture.EntryFor(key));
  }
  std::vector<Key> seen;
  const bool completed = index.ForRangeWhile(5, 95, [&](Key key, vstore::RowEntry*) {
    seen.push_back(key);
    return seen.size() < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, (std::vector<Key>{10, 20, 30}));
  EXPECT_TRUE(index.ForRangeWhile(200, 300, [&](Key, vstore::RowEntry*) { return false; }));
}

TEST(OrderedIndexTest, ClearAndAccounting) {
  OrderedIndex index(/*table=*/0);
  ModelFixture fixture;
  EXPECT_TRUE(index.empty());
  const std::size_t empty_bytes = index.ApproxBytes();
  for (Key key = 0; key < 256; ++key) {
    index.Insert(key, fixture.EntryFor(key));
  }
  EXPECT_EQ(index.size(), 256u);
  EXPECT_GT(index.ApproxBytes(), empty_bytes);
  index.Clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(Collect(index, 0, ~Key{0}).size(), 0u);
  // Reusable after Clear.
  index.Insert(7, fixture.EntryFor(7));
  EXPECT_NE(index.Find(7), nullptr);
}

// ---- Scans racing the epoch pipeline ---------------------------------------
//
// Multi-worker transactions scan the ordered index while sibling workers
// execute writes, and the submitting thread issues Database::RangeScan
// between ExecuteEpoch calls while the previous epoch's persistence tail is
// still in flight on the tail thread. Under TSan this is the proof that the
// collect-keys-under-latch / read-latch-free scan protocol and the pipelined
// tail share no unsynchronized state.
TEST(OrderedIndexTest, ScansRaceTheEpochPipeline) {
  core::DatabaseSpec spec = SmallKvSpec(/*workers=*/4, /*ordered=*/true);
  sim::NvmDevice device(ShadowDeviceConfig(spec));
  core::Database db(device, spec);
  db.Format();
  for (Key key = 0; key < 200; ++key) {
    const std::uint64_t value = 1000 + key;
    db.BulkLoad(0, key, &value, sizeof(value));
  }
  db.FinalizeLoad();

  Rng rng(2024);
  for (int epoch = 0; epoch < 12; ++epoch) {
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    for (int i = 0; i < 96; ++i) {
      switch (rng.NextBounded(3)) {
        case 0:
          txns.push_back(std::make_unique<KvPutTxn>(rng.NextBounded(200), rng.Next()));
          break;
        case 1:
          txns.push_back(std::make_unique<KvRmwTxn>(rng.NextBounded(200), rng.NextBounded(50)));
          break;
        default: {
          const Key lo = rng.NextBounded(200);
          txns.push_back(std::make_unique<KvScanSumTxn>(lo, lo + 1 + rng.NextBounded(40),
                                                        1 + rng.NextBounded(16),
                                                        rng.NextBounded(200)));
          break;
        }
      }
    }
    const core::EpochResult result = db.ExecuteEpoch(std::move(txns));
    EXPECT_FALSE(result.crashed);
    // The pipelined tail of this epoch may still be persisting: RangeScan
    // against the committed state must be safe concurrently with it (the
    // tail never mutates the DRAM index; structural changes happen in the
    // next epoch's insert/GC phases, which have not started yet).
    const StatusOr<std::vector<core::Database::ScanRow>> rows =
        db.RangeScan(0, 0, 199, 64);
    ASSERT_TRUE(rows.ok());
    EXPECT_GT(rows->size(), 0u);
    for (std::size_t i = 1; i < rows->size(); ++i) {
      EXPECT_LT((*rows)[i - 1].key, (*rows)[i].key);
    }
  }
  ASSERT_TRUE(db.WaitIdle().ok());
  std::string diff;
  EXPECT_EQ(core::ValidateOrderedIndex(db, &diff), 0u) << diff;
}

}  // namespace
}  // namespace nvc::test
