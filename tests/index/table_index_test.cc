// DRAM table index: point ops, ordered-range ops, rebuild, concurrency, and
// a model check of the open-addressing shards against std::unordered_map.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/index/table_index.h"

namespace nvc::test {
namespace {

using index::TableIndex;
using index::TableSchema;

TableIndex MakeOrdered() {
  return TableIndex(TableSchema{.id = 3, .name = "t", .row_size = 256, .ordered = true});
}

TEST(TableIndexTest, GetOrCreateAndGet) {
  TableIndex table(TableSchema{.id = 1, .name = "t"});
  bool created = false;
  vstore::RowEntry* entry = table.GetOrCreate(42, &created);
  EXPECT_TRUE(created);
  EXPECT_EQ(entry->key, 42u);
  EXPECT_EQ(entry->table, 1u);

  vstore::RowEntry* again = table.GetOrCreate(42, &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(again, entry);
  EXPECT_EQ(table.Get(42), entry);
  EXPECT_EQ(table.Get(43), nullptr);
  EXPECT_EQ(table.entries(), 1u);
}

TEST(TableIndexTest, RemoveHidesEntry) {
  TableIndex table(TableSchema{.id = 1, .name = "t"});
  bool created = false;
  table.GetOrCreate(1, &created);
  table.GetOrCreate(2, &created);
  table.Remove(1);
  EXPECT_EQ(table.Get(1), nullptr);
  EXPECT_NE(table.Get(2), nullptr);
  EXPECT_EQ(table.entries(), 1u);
  // The key can be re-inserted.
  vstore::RowEntry* entry = table.GetOrCreate(1, &created);
  EXPECT_TRUE(created);
  EXPECT_NE(entry, nullptr);
}

TEST(TableIndexTest, OrderedRangeQueries) {
  TableIndex table = MakeOrdered();
  bool created = false;
  for (Key key : {10, 20, 30, 40, 50}) {
    table.GetOrCreate(key, &created);
  }
  Key found = 0;
  EXPECT_TRUE(table.FirstInRange(15, 45, &found));
  EXPECT_EQ(found, 20u);
  EXPECT_TRUE(table.LastInRange(15, 45, &found));
  EXPECT_EQ(found, 40u);
  EXPECT_TRUE(table.FirstInRange(10, 10, &found));
  EXPECT_EQ(found, 10u);
  EXPECT_FALSE(table.FirstInRange(41, 49, &found));
  EXPECT_FALSE(table.LastInRange(0, 9, &found));

  std::vector<Key> scanned;
  table.ForRange(20, 40, [&](Key key, vstore::RowEntry*) { scanned.push_back(key); });
  EXPECT_EQ(scanned, (std::vector<Key>{20, 30, 40}));
}

TEST(TableIndexTest, OrderedRemove) {
  TableIndex table = MakeOrdered();
  bool created = false;
  for (Key key : {10, 20, 30}) {
    table.GetOrCreate(key, &created);
  }
  table.Remove(20);
  Key found = 0;
  EXPECT_TRUE(table.FirstInRange(15, 35, &found));
  EXPECT_EQ(found, 30u);
}

TEST(TableIndexTest, ClearEmptiesEverything) {
  TableIndex table = MakeOrdered();
  bool created = false;
  for (Key key = 0; key < 100; ++key) {
    table.GetOrCreate(key, &created);
  }
  table.Clear();
  EXPECT_EQ(table.entries(), 0u);
  EXPECT_EQ(table.Get(5), nullptr);
  Key found = 0;
  EXPECT_FALSE(table.FirstInRange(0, 99, &found));
}

TEST(TableIndexTest, ConcurrentGetOrCreateIsSafe) {
  TableIndex table(TableSchema{.id = 1, .name = "t"});
  constexpr int kThreads = 4;
  constexpr int kKeys = 2000;
  std::vector<std::thread> threads;
  std::vector<std::vector<vstore::RowEntry*>> seen(kThreads,
                                                   std::vector<vstore::RowEntry*>(kKeys));
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool created = false;
      for (Key key = 0; key < kKeys; ++key) {
        seen[t][key] = table.GetOrCreate(key, &created);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(table.entries(), static_cast<std::size_t>(kKeys));
  for (int t = 1; t < kThreads; ++t) {
    for (Key key = 0; key < kKeys; ++key) {
      EXPECT_EQ(seen[t][key], seen[0][key]) << "divergent entry for key " << key;
    }
  }
}

// A fresh shard has 16 slots and probes from the top 4 bits of HashKey;
// these tests place keys on chosen slots through that layout.
constexpr std::size_t kFreshSlots = 16;
constexpr std::size_t kSlotBytes = sizeof(Key) + sizeof(vstore::RowEntry*);

std::size_t FreshHome(TableId table, Key key) { return HashKey(table, key) >> 60; }

// The first n keys (ascending from `from`) whose fresh-shard home is `home`.
std::vector<Key> KeysWithHome(TableId table, std::size_t home, std::size_t n, Key from = 0) {
  std::vector<Key> keys;
  for (Key key = from; keys.size() < n; ++key) {
    if (FreshHome(table, key) == home) {
      keys.push_back(key);
    }
  }
  return keys;
}

TEST(TableIndexTest, EmptyFootprintIsTheSlotArrays) {
  TableIndex one(TableSchema{.id = 2, .name = "t"}, 1);
  EXPECT_EQ(one.ApproxBytes(), kFreshSlots * kSlotBytes);
  TableIndex sixteen(TableSchema{.id = 2, .name = "t"}, 16);
  EXPECT_EQ(sixteen.ApproxBytes(), 16 * kFreshSlots * kSlotBytes);
}

TEST(TableIndexTest, ProbeChainWrapsAroundAndSurvivesMidChainErase) {
  constexpr TableId kTable = 7;
  TableIndex table(TableSchema{.id = kTable, .name = "t"}, 1);
  // Four keys homed on the last slot occupy slots 15, 0, 1, 2; a key homed
  // on slot 1 then lands on slot 3, behind the wrapped chain.
  const std::vector<Key> last = KeysWithHome(kTable, kFreshSlots - 1, 4);
  const Key one = KeysWithHome(kTable, 1, 1).front();
  std::map<Key, vstore::RowEntry*> live;
  bool created = false;
  for (const Key key : last) {
    live[key] = table.GetOrCreate(key, &created);
    ASSERT_TRUE(created);
  }
  live[one] = table.GetOrCreate(one, &created);
  ASSERT_TRUE(created);
  ASSERT_EQ(table.ApproxBytes() - table.entries() * sizeof(vstore::RowEntry),
            kFreshSlots * kSlotBytes)
      << "five keys must not grow a 16-slot shard";

  // Erase from the middle of the wrapped chain, then from its head: every
  // other key stays reachable and the freed keys read as absent.
  for (const Key gone : {last[1], last[0]}) {
    table.Remove(gone);
    live.erase(gone);
    EXPECT_EQ(table.Get(gone), nullptr);
    for (const auto& [key, entry] : live) {
      EXPECT_EQ(table.Get(key), entry) << "key " << key << " lost after erasing " << gone;
    }
  }
  std::map<Key, vstore::RowEntry*> seen;
  table.ForEach([&](Key key, vstore::RowEntry* entry) { seen[key] = entry; });
  EXPECT_EQ(seen, live);
  // Re-inserting an erased key creates a fresh entry.
  vstore::RowEntry* again = table.GetOrCreate(last[1], &created);
  EXPECT_TRUE(created);
  EXPECT_EQ(table.Get(last[1]), again);
}

// Seeded model check: 120k mixed operations over two shard counts, with a
// keyspace that includes key 0, dense keys and sparse 64-bit keys, enough
// live keys to grow every shard several times, periodic full clears, and a
// ForEach completeness check against the model every 4096 operations.
TEST(TableIndexTest, ModelCheckAgainstUnorderedMap) {
  for (const std::size_t shards : {1u, 16u}) {
    TableIndex table(TableSchema{.id = 9, .name = "t"}, shards);
    std::unordered_map<Key, vstore::RowEntry*> model;
    Rng rng(0xC0FFEE + shards);
    std::vector<Key> sparse(512);
    for (Key& key : sparse) {
      key = rng.Next();
    }
    const auto pick = [&]() -> Key {
      const std::uint64_t r = rng.NextBounded(100);
      if (r < 2) {
        return 0;
      }
      return r < 80 ? rng.NextBounded(6000) : sparse[rng.NextBounded(sparse.size())];
    };
    const auto check_all = [&] {
      ASSERT_EQ(table.entries(), model.size());
      std::unordered_map<Key, vstore::RowEntry*> seen;
      table.ForEach([&](Key key, vstore::RowEntry* entry) {
        EXPECT_TRUE(seen.emplace(key, entry).second) << "ForEach repeated key " << key;
      });
      ASSERT_EQ(seen, model);
    };
    for (int op = 0; op < 60'000; ++op) {
      const Key key = pick();
      const std::uint64_t r = rng.NextBounded(10'000);
      if (r < 4'500) {
        bool created = false;
        vstore::RowEntry* entry = table.GetOrCreate(key, &created);
        const auto it = model.find(key);
        ASSERT_EQ(created, it == model.end()) << "op " << op << " key " << key;
        if (created) {
          ASSERT_NE(entry, nullptr);
          ASSERT_EQ(entry->key, key);
          ASSERT_EQ(entry->table, 9u);
          model.emplace(key, entry);
        } else {
          ASSERT_EQ(entry, it->second) << "op " << op << " key " << key;
        }
      } else if (r < 8'000) {
        const auto it = model.find(key);
        ASSERT_EQ(table.Get(key), it == model.end() ? nullptr : it->second)
            << "op " << op << " key " << key;
      } else if (r < 9'999) {
        table.Remove(key);
        model.erase(key);
        ASSERT_EQ(table.Get(key), nullptr) << "op " << op << " key " << key;
      } else {
        table.Clear();
        model.clear();
      }
      if (op % 4096 == 0) {
        check_all();
      }
    }
    check_all();
  }
}

TEST(TableIndexTest, ApproxBytesGrowsWithEntries) {
  TableIndex table(TableSchema{.id = 1, .name = "t"});
  const std::size_t empty = table.ApproxBytes();
  bool created = false;
  for (Key key = 0; key < 1000; ++key) {
    table.GetOrCreate(key, &created);
  }
  EXPECT_GT(table.ApproxBytes(), empty + 1000 * sizeof(vstore::RowEntry));
  // Slots at <= 3/4 load plus one slab entry per key, nothing guessed.
  EXPECT_GE(table.ApproxBytes(), 1000 * (kSlotBytes * 4 / 3 + sizeof(vstore::RowEntry)));
}

}  // namespace
}  // namespace nvc::test
