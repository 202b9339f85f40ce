#include "src/vstore/version_cache.h"

#include <cstring>

namespace nvc::vstore {

VersionCache::VersionCache(std::size_t max_entries, Epoch k, std::size_t cores)
    : max_entries_(max_entries), k_(k), lists_(cores == 0 ? 1 : cores) {}

VersionCache::~VersionCache() {
  // Cached values are owned here; RowEntry lifetimes are managed by tables.
  for (CoreLists& lists : lists_) {
    for (auto& [epoch, rows] : lists.by_epoch) {
      for (RowEntry* entry : rows) {
        CachedValue* value = entry->cached.exchange(nullptr, std::memory_order_relaxed);
        if (value != nullptr) {
          CachedValue::Deallocate(value);
        }
      }
    }
  }
}

bool VersionCache::Put(RowEntry* entry, const void* data, std::uint32_t size, Epoch now,
                       std::size_t core) {
  CachedValue* existing = entry->cached.load(std::memory_order_relaxed);
  if (existing != nullptr && existing->size == size) {
    std::memcpy(existing->data(), data, size);
    entry->cache_epoch.store(now, std::memory_order_release);
    return true;
  }
  if (existing == nullptr) {
    if (entries_.load(std::memory_order_relaxed) >= max_entries_) {
      return false;  // cache full; skip (evictions happen per epoch)
    }
    entries_.fetch_add(1, std::memory_order_relaxed);
    // A new cached value joins the eviction list of its creation epoch,
    // unless the entry is still listed from before a Drop: that reference
    // sits in an older list and is deferred to `now` when processed.
    if (!entry->cache_listed) {
      entry->cache_listed = true;
      lists_[core].by_epoch[now].push_back(entry);
    }
  } else {
    bytes_.fetch_sub(existing->size, std::memory_order_relaxed);
    CachedValue::Deallocate(existing);
    entry->cached.store(nullptr, std::memory_order_relaxed);
  }
  CachedValue* value = CachedValue::Allocate(size);
  std::memcpy(value->data(), data, size);
  bytes_.fetch_add(size, std::memory_order_relaxed);
  entry->cache_epoch.store(now, std::memory_order_relaxed);
  entry->cached.store(value, std::memory_order_release);
  return true;
}

void VersionCache::Drop(RowEntry* entry) {
  CachedValue* value = entry->cached.exchange(nullptr, std::memory_order_relaxed);
  if (value != nullptr) {
    bytes_.fetch_sub(value->size, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    CachedValue::Deallocate(value);
  }
  // The entry stays listed: the eviction pass unlists it if it is still
  // uncached then, and a Put before that reuses the existing reference.
}

std::size_t VersionCache::list_references() const {
  std::size_t n = 0;
  for (const CoreLists& lists : lists_) {
    for (const auto& [epoch, rows] : lists.by_epoch) {
      n += rows.size();
    }
  }
  return n;
}

void VersionCache::EvictForEpoch(Epoch now, EngineStats* stats,
                                 const EvictCallback& on_evict) {
  if (now < k_ + 2) {
    return;
  }
  const Epoch target = now - k_ - 1;
  for (CoreLists& lists : lists_) {
    while (!lists.by_epoch.empty() && lists.by_epoch.begin()->first <= target) {
      std::vector<RowEntry*> rows = std::move(lists.by_epoch.begin()->second);
      lists.by_epoch.erase(lists.by_epoch.begin());
      for (RowEntry* entry : rows) {
        CachedValue* value = entry->cached.load(std::memory_order_relaxed);
        if (value == nullptr) {
          entry->cache_listed = false;  // dropped and not re-cached since
          continue;
        }
        const Epoch last_access = entry->cache_epoch.load(std::memory_order_relaxed);
        if (last_access > target) {
          // Accessed recently: defer to the list of its last-access epoch.
          lists.by_epoch[last_access].push_back(entry);
          continue;
        }
        entry->cached.store(nullptr, std::memory_order_relaxed);
        entry->cache_listed = false;
        bytes_.fetch_sub(value->size, std::memory_order_relaxed);
        entries_.fetch_sub(1, std::memory_order_relaxed);
        CachedValue::Deallocate(value);
        if (stats != nullptr) {
          stats->cache_evictions.Add(0);
        }
        if (on_evict) {
          on_evict(entry);
        }
      }
    }
  }
}

}  // namespace nvc::vstore
