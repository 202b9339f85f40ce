// DRAM row index (paper section 4: "Currently, we store the row index in
// DRAM for performance"; rebuilt from the persistent rows after a crash).
//
// Point lookups go through a sharded open-addressing hash table, and every
// point operation (Get included) takes its shard's spin latch. Structural
// changes (inserts/removals) happen only in the insert step, at epoch
// boundaries and during recovery, so an entry found during execution stays
// valid until the epoch ends. Tables that need range operations (TPC-C
// order processing) additionally maintain a skiplist.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/latch.h"
#include "src/common/partition.h"
#include "src/common/types.h"
#include "src/index/ordered_index.h"
#include "src/vstore/row_entry.h"

namespace nvc::index {

struct TableSchema {
  TableId id = 0;
  std::string name;
  std::size_t row_size = kNvmAccessGranularity;  // persistent row block size
  bool ordered = false;                          // maintain the ordered map
};

class TableIndex {
 public:
  explicit TableIndex(const TableSchema& schema, std::size_t shards = 16);

  TableIndex(const TableIndex&) = delete;
  TableIndex& operator=(const TableIndex&) = delete;

  const TableSchema& schema() const { return schema_; }

  // Point lookup; nullptr when absent.
  vstore::RowEntry* Get(Key key);

  // Inserts a new entry (insert step / recovery rebuild). Returns the entry;
  // sets *created=false if the key already existed.
  vstore::RowEntry* GetOrCreate(Key key, bool* created);

  // Removes the entry for key (deferred deletion processing at epoch end).
  void Remove(Key key);

  // ---- Ordered operations (schema.ordered only) -----------------------------

  // Smallest key in [lo, hi]; false when empty.
  bool FirstInRange(Key lo, Key hi, Key* found);

  // Largest key in [lo, hi]; false when empty.
  bool LastInRange(Key lo, Key hi, Key* found);

  // Invokes fn for every entry with key in [lo, hi], ascending.
  void ForRange(Key lo, Key hi, const std::function<void(Key, vstore::RowEntry*)>& fn);

  // Like ForRange but fn returns false to stop early (range scans with a
  // row limit). Returns false iff the walk was stopped.
  bool ForRangeWhile(Key lo, Key hi, const std::function<bool(Key, vstore::RowEntry*)>& fn);

  // Structural fingerprint of the ordered index (determinism tests); 0 for
  // unordered tables.
  std::uint64_t OrderedStructureHash();

  // Invokes fn for every entry in the table, in unspecified order, holding
  // the owning shard latch (works for unordered tables too; state capture /
  // validation outside the execution phase).
  void ForEach(const std::function<void(Key, vstore::RowEntry*)>& fn);

  // ---- Accounting ------------------------------------------------------------

  std::size_t entries() const;
  // DRAM footprint of the index structures (figure 8): slot arrays at their
  // capacity, the entry slabs (removed entries included until Clear), and
  // the skiplist when present.
  std::size_t ApproxBytes() const;

  // Clears all entries (recovery rebuilds from the NVM scan).
  void Clear();

 private:
  // One slot of a shard's linear-probing table. Key 0 is a valid key, so an
  // empty slot is marked by a null entry.
  struct Slot {
    Key key = 0;
    vstore::RowEntry* entry = nullptr;
  };

  // A shard owns a power-of-two slot array that grows at 3/4 load; erasure
  // shifts the rest of the probe chain back, so there are no tombstones.
  // The probe starts at the top bits of the same HashKey whose residue picks
  // the shard, so each key is hashed once per operation.
  struct alignas(kCacheLineSize) Shard {
    static constexpr std::size_t kInitialSlots = 16;

    SpinLatch latch;
    std::vector<Slot> slots = std::vector<Slot>(kInitialSlots);
    unsigned shift = 64 - std::countr_zero(kInitialSlots);  // 64 - log2(slots.size())
    std::size_t size = 0;
    std::deque<vstore::RowEntry> slab;  // stable addresses for entries

    std::size_t Home(std::uint64_t hash) const { return hash >> shift; }
    // Slot holding key, or the empty slot that ends its probe chain.
    std::size_t Probe(std::uint64_t hash, Key key) const;
    void Erase(std::size_t i, TableId table);
    void Grow(TableId table);
  };

  Shard& ShardFor(std::uint64_t hash) {
    return *shards_[PartitionOfHash(hash, shards_.size())];
  }

  TableSchema schema_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Deterministic skiplist (see ordered_index.h); every access below takes
  // ordered_latch_, which is the index's entire concurrency story.
  SpinLatch ordered_latch_;
  OrderedIndex ordered_;
};

}  // namespace nvc::index
