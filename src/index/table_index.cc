#include "src/index/table_index.h"

#include <algorithm>

#include "src/common/hash.h"

namespace nvc::index {

TableIndex::TableIndex(const TableSchema& schema, std::size_t shards)
    : schema_(schema), ordered_(schema.id) {
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::size_t TableIndex::Shard::Probe(std::uint64_t hash, Key key) const {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = Home(hash);
  while (slots[i].entry != nullptr && slots[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

// Backward-shift deletion: walk the probe chain after the hole and move back
// every slot whose home does not lie cyclically in (hole, slot].
void TableIndex::Shard::Erase(std::size_t i, TableId table) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots[j].entry != nullptr; j = (j + 1) & mask) {
    const std::size_t home = Home(HashKey(table, slots[j].key));
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots[i] = slots[j];
      i = j;
    }
  }
  slots[i] = Slot{};
  --size;
}

void TableIndex::Shard::Grow(TableId table) {
  std::vector<Slot> old = std::move(slots);
  slots.assign(old.size() * 2, Slot{});
  --shift;
  const std::size_t mask = slots.size() - 1;
  for (const Slot& slot : old) {
    if (slot.entry == nullptr) {
      continue;
    }
    std::size_t i = Home(HashKey(table, slot.key));
    while (slots[i].entry != nullptr) {
      i = (i + 1) & mask;
    }
    slots[i] = slot;
  }
}

vstore::RowEntry* TableIndex::Get(Key key) {
  const std::uint64_t hash = HashKey(schema_.id, key);
  Shard& shard = ShardFor(hash);
  SpinLatchGuard guard(shard.latch);
  return shard.slots[shard.Probe(hash, key)].entry;
}

vstore::RowEntry* TableIndex::GetOrCreate(Key key, bool* created) {
  const std::uint64_t hash = HashKey(schema_.id, key);
  Shard& shard = ShardFor(hash);
  vstore::RowEntry* entry = nullptr;
  {
    SpinLatchGuard guard(shard.latch);
    std::size_t i = shard.Probe(hash, key);
    if (shard.slots[i].entry != nullptr) {
      *created = false;
      return shard.slots[i].entry;
    }
    if ((shard.size + 1) * 4 > shard.slots.size() * 3) {
      shard.Grow(schema_.id);
      i = shard.Probe(hash, key);
    }
    shard.slab.emplace_back();
    entry = &shard.slab.back();
    entry->key = key;
    entry->table = schema_.id;
    shard.slots[i] = Slot{key, entry};
    ++shard.size;
    *created = true;
  }
  if (schema_.ordered) {
    SpinLatchGuard guard(ordered_latch_);
    ordered_.Insert(key, entry);
  }
  return entry;
}

void TableIndex::Remove(Key key) {
  const std::uint64_t hash = HashKey(schema_.id, key);
  Shard& shard = ShardFor(hash);
  {
    SpinLatchGuard guard(shard.latch);
    const std::size_t i = shard.Probe(hash, key);
    if (shard.slots[i].entry != nullptr) {
      shard.Erase(i, schema_.id);
    }
    // The slab entry is intentionally leaked until Clear(): execution-phase
    // readers may still hold the pointer until the epoch ends.
  }
  if (schema_.ordered) {
    SpinLatchGuard guard(ordered_latch_);
    ordered_.Erase(key);
  }
}

bool TableIndex::FirstInRange(Key lo, Key hi, Key* found) {
  SpinLatchGuard guard(ordered_latch_);
  return ordered_.FirstInRange(lo, hi, found);
}

bool TableIndex::LastInRange(Key lo, Key hi, Key* found) {
  SpinLatchGuard guard(ordered_latch_);
  return ordered_.LastInRange(lo, hi, found);
}

void TableIndex::ForRange(Key lo, Key hi,
                          const std::function<void(Key, vstore::RowEntry*)>& fn) {
  SpinLatchGuard guard(ordered_latch_);
  ordered_.ForRangeWhile(lo, hi, [&fn](Key key, vstore::RowEntry* entry) {
    fn(key, entry);
    return true;
  });
}

bool TableIndex::ForRangeWhile(Key lo, Key hi,
                               const std::function<bool(Key, vstore::RowEntry*)>& fn) {
  SpinLatchGuard guard(ordered_latch_);
  return ordered_.ForRangeWhile(lo, hi, fn);
}

std::uint64_t TableIndex::OrderedStructureHash() {
  if (!schema_.ordered) {
    return 0;
  }
  SpinLatchGuard guard(ordered_latch_);
  return ordered_.StructureHash();
}

void TableIndex::ForEach(const std::function<void(Key, vstore::RowEntry*)>& fn) {
  for (auto& shard : shards_) {
    SpinLatchGuard guard(shard->latch);
    for (const Slot& slot : shard->slots) {
      if (slot.entry != nullptr) {
        fn(slot.key, slot.entry);
      }
    }
  }
}

std::size_t TableIndex::entries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->size;
  }
  return total;
}

std::size_t TableIndex::ApproxBytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->slots.capacity() * sizeof(Slot) +
             shard->slab.size() * sizeof(vstore::RowEntry);
  }
  if (schema_.ordered) {
    total += ordered_.ApproxBytes();
  }
  return total;
}

void TableIndex::Clear() {
  for (auto& shard : shards_) {
    SpinLatchGuard guard(shard->latch);
    std::fill(shard->slots.begin(), shard->slots.end(), Slot{});
    shard->size = 0;
    shard->slab.clear();
  }
  if (schema_.ordered) {
    SpinLatchGuard guard(ordered_latch_);
    ordered_.Clear();
  }
}

}  // namespace nvc::index
