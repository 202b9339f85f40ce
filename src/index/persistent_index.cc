#include "src/index/persistent_index.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "src/common/hash.h"

namespace nvc::index {
namespace {

std::uint64_t NextPow2(std::uint64_t n) {
  std::uint64_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

std::size_t PersistentIndex::RequiredBytes(std::uint64_t max_rows) {
  return NextPow2(max_rows * 2 + 16) * sizeof(Slot);
}

PersistentIndex::PersistentIndex(sim::NvmDevice& device, std::uint64_t base_offset,
                                 std::uint64_t max_rows)
    : device_(device), base_(base_offset), capacity_(NextPow2(max_rows * 2 + 16)),
      mask_(capacity_ - 1) {}

void PersistentIndex::Format() {
  std::memset(device_.At(base_), 0, capacity_ * sizeof(Slot));
  device_.Persist(base_, capacity_ * sizeof(Slot), 0);
}

void PersistentIndex::ApplyInsert(Key key, std::uint64_t prow, Epoch epoch, std::size_t core) {
  // Linear probe. Once a slot is used its key never changes — a re-insert of
  // the same key rewrites only the payload fields, and tombstoned slots of
  // other keys are not reused (reuse would break probe chains; the table is
  // sized for twice the live rows, and deleted keys are commonly
  // re-inserted, reusing their own slot).
  std::uint64_t index = SplitMix64(key) & mask_;
  for (std::uint64_t step = 0; step < capacity_; ++step) {
    Slot* slot = SlotAt(index);
    if (slot->state == kFree) {
      // Store order: payload fields first, the state word last, all in one
      // 32-byte (half-line) persist. A torn write leaves either a free slot
      // or a fully-tagged one; either is recoverable.
      slot->key = key;
      slot->prow = prow;
      slot->epoch_added = epoch;
      slot->epoch_deleted = 0;
      slot->state = kUsed;
      device_.Persist(SlotOffset(index), sizeof(Slot), core);
      return;
    }
    if (slot->key == key) {
      // Re-insert into this key's own slot (live or tombstoned): refresh the
      // payload without touching key/state.
      slot->prow = prow;
      slot->epoch_added = epoch;
      slot->epoch_deleted = 0;
      device_.Persist(SlotOffset(index), sizeof(Slot), core);
      return;
    }
    index = (index + 1) & mask_;
  }
  throw std::runtime_error("PersistentIndex: table full");
}

void PersistentIndex::ApplyDelete(Key key, Epoch epoch, std::size_t core) {
  std::uint64_t index = SplitMix64(key) & mask_;
  for (std::uint64_t step = 0; step < capacity_; ++step) {
    Slot* slot = SlotAt(index);
    if (slot->state == kFree) {
      return;  // unknown key: nothing to delete (idempotent)
    }
    if (slot->key == key) {
      slot->epoch_deleted = epoch;
      device_.Persist(SlotOffset(index), sizeof(Slot), core);
      return;
    }
    index = (index + 1) & mask_;
  }
}

void PersistentIndex::ForEachLive(Epoch last_checkpointed_epoch,
                                  const std::function<void(Key, std::uint64_t)>& fn,
                                  std::size_t core) const {
  device_.ChargeRead(base_, capacity_ * sizeof(Slot), core);
  for (std::uint64_t index = 0; index < capacity_; ++index) {
    const Slot* slot = SlotAt(index);
    if (slot->state != kUsed) {
      continue;
    }
    if (slot->epoch_added > last_checkpointed_epoch) {
      continue;  // insert from the crashed epoch: reverted with the pools
    }
    if (slot->epoch_deleted != 0 && slot->epoch_deleted <= last_checkpointed_epoch) {
      continue;  // committed delete
    }
    // Includes tombstones of the crashed epoch: the delete reverted.
    fn(slot->key, slot->prow);
  }
}

std::uint64_t PersistentIndex::live_slots() const {
  std::uint64_t live = 0;
  for (std::uint64_t index = 0; index < capacity_; ++index) {
    const Slot* slot = SlotAt(index);
    if (slot->state == kUsed && slot->epoch_deleted == 0) {
      ++live;
    }
  }
  return live;
}

}  // namespace nvc::index
