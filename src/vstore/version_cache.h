// DRAM cache of persistent row values with epoch-based LRU eviction
// (paper sections 4.2 and 5.2).
//
// Each cached value carries the epoch of its last access. Values are placed
// on the eviction list of their creation epoch; when epoch E starts, the
// list for epoch E-K-1 is processed: entries whose last access is still
// <= E-K-1 are evicted, the rest are moved to the list of their last-access
// epoch. Because eviction runs in the initialization phase, it requires no
// synchronization with transaction execution.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/vstore/row_entry.h"

namespace nvc::vstore {

class VersionCache {
 public:
  // max_entries caps the number of cached values (Table 4's "Max Number of
  // Cache Entries"); k is the LRU window in epochs.
  VersionCache(std::size_t max_entries, Epoch k, std::size_t cores);

  VersionCache(const VersionCache&) = delete;
  VersionCache& operator=(const VersionCache&) = delete;

  ~VersionCache();

  // Installs (or replaces) the cached value of `entry` with `data`. Returns
  // false when the cache is full and the row was not previously cached.
  // Caller must hold the row latch or otherwise be the only mutator.
  bool Put(RowEntry* entry, const void* data, std::uint32_t size, Epoch now, std::size_t core);

  // Notes a read hit (updates the LRU epoch).
  void Touch(RowEntry* entry, Epoch now) {
    entry->cache_epoch.store(now, std::memory_order_relaxed);
  }

  // Removes the cached value of `entry` (append step deletes the cached
  // version before execution updates the row; row deletion also lands here).
  void Drop(RowEntry* entry);

  // Invoked for each row whose cached value is being evicted (the cold-tier
  // demotion policy hooks here: aged-out-of-cache == cold).
  using EvictCallback = std::function<void(RowEntry*)>;

  // Initialization-phase eviction for the epoch that just started.
  void EvictForEpoch(Epoch now, EngineStats* stats, const EvictCallback& on_evict = {});

  std::size_t entries() const { return entries_.load(std::memory_order_relaxed); }
  std::size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  Epoch k() const { return k_; }
  // Entry references held by the eviction lists (at most one per entry).
  std::size_t list_references() const;

 private:
  struct alignas(kCacheLineSize) CoreLists {
    std::map<Epoch, std::vector<RowEntry*>> by_epoch;
  };

  std::size_t max_entries_;
  Epoch k_;
  std::vector<CoreLists> lists_;
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace nvc::vstore
