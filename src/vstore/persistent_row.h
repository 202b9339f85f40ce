// Persistent row layout (paper figure 3, sections 4.5 and 5.3).
//
// Each persistent row is a fixed-size NVM block (256 B by default — the
// Optane internal access granularity; configurable per table). It holds:
//
//   * a header with the row's table id, 64-bit key and flags (used to
//     rebuild the DRAM index by scanning rows after a crash),
//   * two version descriptors sharing one cache line — the invariant is
//     v[0].sid < v[1].sid, with single-version rows using v[0] — and
//   * an inline heap; values small enough are stored inline to improve
//     locality and avoid allocating from the persistent value pool.
//
// A descriptor update always stores the SID before the location word. Both
// descriptors share one cache line, and stores within a line reach NVM in
// program order, so any write-back exposes a prefix of the store sequence and
// recovery can disambiguate the three intervening crash cases of section
// 4.5. No fence separates descriptor stores: durability comes from the epoch
// tail's fence, so one persist of the touched slots per row operation is
// enough (DESIGN.md, "One persist per touched line").
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "src/common/types.h"
#include "src/sim/nvm_device.h"

namespace nvc::vstore {

// Location word of one persistent version: packs where the value bytes live.
//   bit  63    : inline flag (value lives in this row's inline heap)
//   bit  62    : cold-tier flag (value lives on the block-storage device —
//                the "extend to fast block-based storage" extension)
//   bits 61..40: value size in bytes (up to 4 MiB)
//   bits 39..0 : absolute offset of the value bytes on its device
// The all-zero word means "no version".
class ValueLoc {
 public:
  constexpr ValueLoc() = default;
  constexpr explicit ValueLoc(std::uint64_t raw) : raw_(raw) {}

  static constexpr ValueLoc Make(bool is_inline, std::uint32_t size, std::uint64_t offset,
                                 bool is_cold = false) {
    return ValueLoc((is_inline ? (1ULL << 63) : 0) | (is_cold ? (1ULL << 62) : 0) |
                    (static_cast<std::uint64_t>(size) << 40) | (offset & ((1ULL << 40) - 1)));
  }

  constexpr std::uint64_t raw() const { return raw_; }
  constexpr bool is_null() const { return raw_ == 0; }
  constexpr bool is_inline() const { return (raw_ >> 63) != 0; }
  constexpr bool is_cold() const { return ((raw_ >> 62) & 1) != 0; }
  constexpr std::uint32_t size() const {
    return static_cast<std::uint32_t>((raw_ >> 40) & 0x3fffff);
  }
  constexpr std::uint64_t offset() const { return raw_ & ((1ULL << 40) - 1); }

 private:
  std::uint64_t raw_ = 0;
};

// One of the two persistent versions: transaction SID + value location.
struct VersionDesc {
  std::uint64_t sid = 0;
  std::uint64_t loc = 0;
};
static_assert(sizeof(VersionDesc) == 16);

inline constexpr std::size_t kRowHeaderSize = 88;

// Header layout of a persistent row; the inline heap follows immediately.
struct PersistentRowHeader {
  Key key = 0;                       // 8
  TableId table = 0;                 // 4
  std::uint32_t flags = 0;           // 4 (kRowValid)
  VersionDesc v[2];                  // 32 — both descriptors in the first cache line
  std::uint64_t reserved[5] = {};    // 40 — pads the header to 88 bytes
};
static_assert(sizeof(PersistentRowHeader) == kRowHeaderSize);
static_assert(offsetof(PersistentRowHeader, v) + sizeof(VersionDesc[2]) <= kCacheLineSize,
              "both version descriptors must share the row's first cache line");

inline constexpr std::uint32_t kRowValid = 1;

// Accessor for a persistent row living at a device offset. Stateless view;
// all mutation goes through methods that charge the device appropriately.
class PersistentRow {
 public:
  PersistentRow(sim::NvmDevice& device, std::uint64_t offset, std::size_t row_size)
      : device_(&device), offset_(offset), row_size_(row_size) {}

  std::uint64_t offset() const { return offset_; }
  std::size_t row_size() const { return row_size_; }
  std::size_t inline_heap_size() const { return row_size_ - kRowHeaderSize; }
  std::uint64_t inline_heap_offset() const { return offset_ + kRowHeaderSize; }

  PersistentRowHeader* header() { return device_->As<PersistentRowHeader>(offset_); }
  const PersistentRowHeader* header() const {
    return device_->As<PersistentRowHeader>(offset_);
  }

  // Initializes a freshly allocated row (insert step). Does not persist.
  void Init(TableId table, Key key) {
    PersistentRowHeader* h = header();
    *h = PersistentRowHeader{};
    h->key = key;
    h->table = table;
    h->flags = kRowValid;
  }

  // ---- Version access -------------------------------------------------------

  VersionDesc ReadDesc(int slot) const { return header()->v[slot]; }

  // Stores a descriptor honoring the SID-before-location store order: both
  // words share a cache line, so any write-back of that line (explicit or
  // natural eviction on real hardware) exposes (old,old), (new,old) or
  // (new,new) but never (old,new) — the property the crash-repair cases of
  // section 4.5 rely on. Does not persist: a row operation stores every slot
  // it changes, then calls PersistDescs once for the touched range.
  void StoreDesc(int slot, Sid sid, ValueLoc loc) {
    PersistentRowHeader* h = header();
    h->v[slot].sid = sid.raw();
    std::atomic_signal_fence(std::memory_order_seq_cst);  // keep the store order
    h->v[slot].loc = loc.raw();
  }

  // Persists descriptor slots [first, last]: 16 B for one slot, 32 B for
  // both, always within the row's first cache line.
  void PersistDescs(int first, int last, std::size_t core) {
    device_->Persist(offset_ + offsetof(PersistentRowHeader, v) + first * sizeof(VersionDesc),
                     (last - first + 1) * sizeof(VersionDesc), core);
  }

  // StoreDesc plus its own persist, for standalone descriptor updates
  // (recovery repairs, cold-tier demotion).
  void WriteDesc(int slot, Sid sid, ValueLoc loc, std::size_t core) {
    StoreDesc(slot, sid, loc);
    PersistDescs(slot, slot, core);
  }

  // The latest version with sid <= bound (recovery uses the last
  // checkpointed epoch's max SID as the bound). Returns slot index or -1.
  int LatestSlotAtOrBefore(Sid bound) const {
    const PersistentRowHeader* h = header();
    if (h->v[1].sid != 0 && Sid(h->v[1].sid) <= bound && !ValueLoc(h->v[1].loc).is_null()) {
      return 1;
    }
    if (h->v[0].sid != 0 && Sid(h->v[0].sid) <= bound) {
      return 0;
    }
    return -1;
  }

  // ---- Inline heap management ----------------------------------------------

  // Returns the inline-heap location for a new value of `size` bytes, or a
  // null loc when the value cannot be placed inline. The chosen slot must
  // not overlap a live descriptor's inline storage.
  ValueLoc FindInlineSpace(std::uint32_t size) const;

  // Reads the value of the descriptor into out (value bytes only). Charges
  // an NVM read for the row header + value.
  void ReadValue(const VersionDesc& desc, void* out, std::size_t core) const;

  // Copies value bytes into the given location and persists them.
  void WriteValue(ValueLoc loc, const void* data, std::uint32_t size, std::size_t core) {
    device_->WritePersist(loc.offset(), data, size, core);
  }

 private:
  sim::NvmDevice* device_;
  std::uint64_t offset_;
  std::size_t row_size_;
};

}  // namespace nvc::vstore
