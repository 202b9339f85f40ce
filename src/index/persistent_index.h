// Persistent NVMM row index (the paper's section-7 future work: "persisting
// the row indexes to NVMM to improve recovery time... our epoch-based design
// will allow persisting index updates in batches efficiently").
//
// One open-addressing hash table per table lives in NVMM. The engine
// accumulates index *deltas* (row inserts and deletes) during each epoch and
// applies them in a batch during the checkpoint, before the epoch number is
// persisted. Each slot carries the epoch that added it and the epoch that
// deleted it, which makes a torn batch application recoverable without any
// logging:
//
//   * a slot with epoch_added == crashed epoch is ignored on recovery (the
//     row's allocation was reverted with the pools; deterministic replay
//     re-inserts it and re-applies the delta idempotently);
//   * a slot with epoch_deleted == crashed epoch is resurrected (the delete
//     reverted; replay re-deletes it);
//   * everything else reflects the last checkpointed epoch exactly.
//
// Recovery then rebuilds the DRAM index by iterating the compact 32-byte
// slots instead of scanning full persistent rows — roughly rows_size/16 less
// NVMM read volume (see bench/ext_persistent_index.cc).
#pragma once

#include <cstdint>
#include <functional>

#include "src/common/types.h"
#include "src/sim/nvm_device.h"

namespace nvc::index {

class PersistentIndex {
 public:
  // Slots are 32 bytes; capacity is rounded up to a power of two and sized
  // for a load factor <= 0.5.
  static std::size_t RequiredBytes(std::uint64_t max_rows);

  PersistentIndex(sim::NvmDevice& device, std::uint64_t base_offset, std::uint64_t max_rows);

  void Format();

  // ---- Batch application (checkpoint path) ---------------------------------
  // Applies one insert/delete; the caller persists in ranges via Flush()
  // after a batch (or relies on the checkpoint fence). Both operations are
  // idempotent, so a replayed epoch may re-apply its deltas. Single
  // applier: the epoch tail applies each batch on one thread.
  void ApplyInsert(Key key, std::uint64_t prow, Epoch epoch, std::size_t core);
  void ApplyDelete(Key key, Epoch epoch, std::size_t core);

  // ---- Recovery -------------------------------------------------------------
  // Invokes fn(key, prow) for every row live as of last_checkpointed_epoch,
  // applying the crashed-epoch rules above. Charges NVMM reads for the slot
  // array.
  void ForEachLive(Epoch last_checkpointed_epoch,
                   const std::function<void(Key, std::uint64_t)>& fn, std::size_t core) const;

  std::uint64_t live_slots() const;
  std::uint64_t capacity() const { return capacity_; }

 private:
  struct Slot {
    Key key;
    std::uint64_t prow;
    std::uint32_t epoch_added;
    std::uint32_t epoch_deleted;
    std::uint64_t state;  // 0 = free, 1 = used
  };
  static_assert(sizeof(Slot) == 32);

  static constexpr std::uint64_t kFree = 0;
  static constexpr std::uint64_t kUsed = 1;

  Slot* SlotAt(std::uint64_t index) const {
    return device_.As<Slot>(base_ + index * sizeof(Slot));
  }
  std::uint64_t SlotOffset(std::uint64_t index) const { return base_ + index * sizeof(Slot); }

  sim::NvmDevice& device_;
  std::uint64_t base_;
  std::uint64_t capacity_;  // power of two
  std::uint64_t mask_;
};

}  // namespace nvc::index
