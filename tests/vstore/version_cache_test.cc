// DRAM version cache: K-epoch LRU eviction lists, access refresh, capacity
// bound, drop semantics (paper sections 4.2 and 5.2).
#include <gtest/gtest.h>

#include <cstring>
#include <deque>

#include "src/vstore/version_cache.h"

namespace nvc::test {
namespace {

using vstore::RowEntry;
using vstore::VersionCache;

struct CacheFixture {
  CacheFixture(std::size_t max_entries, Epoch k)
      : cache(max_entries, k, /*cores=*/1) {}

  RowEntry* NewRow() {
    rows.emplace_back();
    return &rows.back();
  }

  std::deque<RowEntry> rows;
  VersionCache cache;
};

// A cached value's bytes start 4 bytes into its block, so they are copied
// out rather than read through a misaligned uint64_t pointer.
std::uint64_t CachedU64(const RowEntry* row) {
  std::uint64_t value = 0;
  std::memcpy(&value, row->cached.load()->data(), sizeof(value));
  return value;
}

TEST(VersionCacheTest, PutAndReplace) {
  CacheFixture f(16, 2);
  RowEntry* row = f.NewRow();
  const std::uint64_t v1 = 111;
  ASSERT_TRUE(f.cache.Put(row, &v1, sizeof(v1), /*now=*/5, 0));
  EXPECT_EQ(f.cache.entries(), 1u);
  EXPECT_EQ(f.cache.bytes(), sizeof(v1));
  ASSERT_NE(row->cached.load(), nullptr);
  EXPECT_EQ(CachedU64(row), 111u);

  const std::uint64_t v2 = 222;
  ASSERT_TRUE(f.cache.Put(row, &v2, sizeof(v2), 6, 0));
  EXPECT_EQ(f.cache.entries(), 1u);  // in-place replacement
  EXPECT_EQ(CachedU64(row), 222u);
  EXPECT_EQ(row->cache_epoch.load(), 6u);
}

TEST(VersionCacheTest, ReplacementWithDifferentSizeReallocates) {
  CacheFixture f(16, 2);
  RowEntry* row = f.NewRow();
  const std::uint64_t small = 1;
  ASSERT_TRUE(f.cache.Put(row, &small, sizeof(small), 5, 0));
  std::uint8_t big[100] = {42};
  ASSERT_TRUE(f.cache.Put(row, big, sizeof(big), 5, 0));
  EXPECT_EQ(f.cache.entries(), 1u);
  EXPECT_EQ(f.cache.bytes(), 100u);
  EXPECT_EQ(row->cached.load()->size, 100u);
}

TEST(VersionCacheTest, CapacityBound) {
  CacheFixture f(4, 2);
  const std::uint64_t v = 9;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(f.cache.Put(f.NewRow(), &v, sizeof(v), 5, 0));
  }
  EXPECT_FALSE(f.cache.Put(f.NewRow(), &v, sizeof(v), 5, 0)) << "cache overfilled";
  EXPECT_EQ(f.cache.entries(), 4u);
}

TEST(VersionCacheTest, EvictsAfterKUntouchedEpochs) {
  CacheFixture f(16, /*k=*/3);
  RowEntry* row = f.NewRow();
  const std::uint64_t v = 7;
  ASSERT_TRUE(f.cache.Put(row, &v, sizeof(v), /*now=*/10, 0));

  // Epochs 11..13: the row is not old enough (created at 10, K=3 keeps it
  // through epoch 13 = 10+3).
  for (Epoch e = 11; e <= 13; ++e) {
    f.cache.EvictForEpoch(e, nullptr);
    EXPECT_NE(row->cached.load(), nullptr) << "evicted too early at epoch " << e;
  }
  // Epoch 14 processes list 14-3-1 = 10: the row was last touched at 10.
  f.cache.EvictForEpoch(14, nullptr);
  EXPECT_EQ(row->cached.load(), nullptr);
  EXPECT_EQ(f.cache.entries(), 0u);
}

TEST(VersionCacheTest, AccessRefreshesLifetime) {
  CacheFixture f(16, 3);
  RowEntry* row = f.NewRow();
  const std::uint64_t v = 7;
  ASSERT_TRUE(f.cache.Put(row, &v, sizeof(v), 10, 0));
  f.cache.Touch(row, 12);  // read at epoch 12

  // Epoch 14 processes the creation-epoch list (10); the access at 12 defers
  // eviction to epoch 16.
  f.cache.EvictForEpoch(14, nullptr);
  EXPECT_NE(row->cached.load(), nullptr);
  f.cache.EvictForEpoch(15, nullptr);
  EXPECT_NE(row->cached.load(), nullptr);
  f.cache.EvictForEpoch(16, nullptr);
  EXPECT_EQ(row->cached.load(), nullptr);
}

TEST(VersionCacheTest, DropReleasesCapacityAndSurvivesStaleListEntries) {
  CacheFixture f(2, 2);
  RowEntry* a = f.NewRow();
  RowEntry* b = f.NewRow();
  const std::uint64_t v = 7;
  ASSERT_TRUE(f.cache.Put(a, &v, sizeof(v), 10, 0));
  ASSERT_TRUE(f.cache.Put(b, &v, sizeof(v), 10, 0));
  f.cache.Drop(a);
  EXPECT_EQ(f.cache.entries(), 1u);
  EXPECT_EQ(a->cached.load(), nullptr);

  // Capacity is available again.
  RowEntry* c = f.NewRow();
  EXPECT_TRUE(f.cache.Put(c, &v, sizeof(v), 10, 0));
  // The stale eviction-list reference to `a` must be skipped safely, and a
  // re-cached `a` later must not be double-freed.
  ASSERT_FALSE(f.cache.Put(a, &v, sizeof(v), 11, 0));  // full now
  f.cache.EvictForEpoch(13, nullptr);                  // processes epoch-10 list
  EXPECT_EQ(f.cache.entries(), 0u);
}

// A hot row is dropped by every epoch's append step and re-cached by its
// final write. The eviction lists must keep one reference to it, not one per
// epoch, and still age it out once it goes cold.
TEST(VersionCacheTest, DropAndPutEveryEpochKeepsOneListReference) {
  CacheFixture f(16, /*k=*/2);
  RowEntry* hot = f.NewRow();
  const std::uint64_t v = 7;
  for (Epoch e = 1; e <= 150; ++e) {
    f.cache.EvictForEpoch(e, nullptr);
    f.cache.Drop(hot);
    ASSERT_TRUE(f.cache.Put(hot, &v, sizeof(v), e, 0));
    ASSERT_EQ(f.cache.list_references(), 1u) << "epoch " << e;
  }
  EXPECT_EQ(f.cache.entries(), 1u);
  for (Epoch e = 151; e <= 153; ++e) {
    f.cache.EvictForEpoch(e, nullptr);
  }
  EXPECT_EQ(hot->cached.load(), nullptr);
  EXPECT_EQ(f.cache.entries(), 0u);
  EXPECT_EQ(f.cache.list_references(), 0u);
}

TEST(VersionCacheTest, EvictionCountsStat) {
  CacheFixture f(16, 1);
  EngineStats stats;
  const std::uint64_t v = 7;
  for (int i = 0; i < 5; ++i) {
    f.cache.Put(f.NewRow(), &v, sizeof(v), 10, 0);
  }
  f.cache.EvictForEpoch(12, &stats);
  EXPECT_EQ(stats.cache_evictions.Sum(), 5u);
}

}  // namespace
}  // namespace nvc::test
