// DRAM index entry for one row (paper figure 3, "Row Index" box).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "src/common/latch.h"
#include "src/common/types.h"
#include "src/vstore/version_array.h"

namespace nvc::vstore {

// A cached copy of the row's latest persistent value (paper 4.2). Heap
// allocated; lifetime managed by VersionCache.
struct CachedValue {
  std::uint32_t size;
  std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  const std::uint8_t* data() const { return reinterpret_cast<const std::uint8_t*>(this + 1); }

  static CachedValue* Allocate(std::uint32_t size) {
    auto* value = static_cast<CachedValue*>(std::malloc(sizeof(CachedValue) + size));
    value->size = size;
    return value;
  }
  static void Deallocate(CachedValue* value) { std::free(value); }
};

struct RowEntry {
  Key key = 0;
  TableId table = 0;
  // True while one of the VersionCache's eviction lists references this
  // entry (the list owns at most one reference per entry). Fills padding.
  bool cache_listed = false;

  // NVM offset of the persistent row (never 0 for a live entry).
  std::uint64_t prow = 0;

  // Transient version array; valid only when varray_epoch equals the current
  // epoch (paper 5.1 — stale pointers are detected by epoch, not reset).
  VersionArray* varray = nullptr;
  Epoch varray_epoch = 0;

  // Cached persistent value and its last-access epoch (LRU bookkeeping).
  std::atomic<CachedValue*> cached{nullptr};
  std::atomic<Epoch> cache_epoch{0};

  // Raw SID of the row's latest persistent version (0 = none yet; ~0 = row
  // deleted this epoch). Lets intra-epoch readers decide visibility for rows
  // without a version array (freshly inserted rows).
  std::atomic<std::uint64_t> latest_sid{0};

  // Epoch in which the append step dropped this row's cached value (the
  // cached copy is deleted before updates). Selective cache admission treats
  // "was cached this epoch" as a heat signal.
  std::atomic<Epoch> cache_dropped_epoch{0};

  // Guards varray creation, cache creation and row deletion bookkeeping.
  SpinLatch latch;

  VersionArray* ArrayForEpoch(Epoch epoch) const {
    return varray_epoch == epoch ? varray : nullptr;
  }
};

}  // namespace nvc::vstore
