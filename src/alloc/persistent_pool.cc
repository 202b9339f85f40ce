#include "src/alloc/persistent_pool.h"

#include <cassert>
#include <cstring>

namespace nvc::alloc {

std::size_t PersistentPool::RequiredBytes(const PersistentPoolConfig& config, std::size_t cores) {
  const std::size_t meta = cores * sizeof(MetaNvm);
  const std::size_t rings = cores * config.freelist_capacity * sizeof(std::uint64_t);
  const std::size_t data = cores * config.blocks_per_core * config.block_size;
  return AlignUp(meta, kNvmAccessGranularity) + AlignUp(rings, kNvmAccessGranularity) +
         AlignUp(data, kNvmAccessGranularity);
}

PersistentPool::PersistentPool(sim::NvmDevice& device, const PersistentPoolConfig& config,
                               std::uint64_t base_offset, std::size_t cores)
    : device_(device), config_(config), base_(base_offset), cores_(cores), state_(cores) {
  assert(config_.block_size > 0 && config_.blocks_per_core > 0);
  assert(config_.freelist_capacity > 0);
  ring_base_ = base_ + AlignUp(cores_ * sizeof(MetaNvm), kNvmAccessGranularity);
  data_base_ =
      ring_base_ + AlignUp(cores_ * config_.freelist_capacity * sizeof(std::uint64_t),
                           kNvmAccessGranularity);
}

void PersistentPool::Format() {
  for (std::size_t core = 0; core < cores_; ++core) {
    auto* meta = device_.As<MetaNvm>(MetaOffset(core));
    std::memset(meta, 0, sizeof(MetaNvm));
    device_.Persist(MetaOffset(core), sizeof(MetaNvm), core);
    state_[core] = CoreState{};
  }
  device_.Fence(0);
}

void PersistentPool::BeginEpoch() {
  for (CoreState& cs : state_) {
    cs.head_limit = cs.tail_at_ckpt;
  }
}

std::uint64_t PersistentPool::Alloc(std::size_t core) {
  CoreState& cs = state_[core];
  if (cs.head < cs.head_limit) {
    const std::uint64_t entry_off = RingOffset(core, cs.head);
    device_.ChargeRead(entry_off, sizeof(std::uint64_t), core);
    const std::uint64_t block = *device_.As<std::uint64_t>(entry_off);
    ++cs.head;
    return block;
  }
  if (cs.bump >= config_.blocks_per_core) {
    return 0;  // exhausted
  }
  return BlockOffset(core, cs.bump++);
}

void PersistentPool::AppendToRing(std::size_t core, std::uint64_t block_offset) {
  CoreState& cs = state_[core];
  // Invariant 1: never overwrite the window [head_at_ckpt, tail) that a
  // crash-revert may need.
  assert(cs.tail - cs.head_at_ckpt < config_.freelist_capacity &&
         "persistent pool free list overflow");
  *device_.As<std::uint64_t>(RingOffset(core, cs.tail)) = block_offset;
  ++cs.tail;
}

void PersistentPool::Free(std::size_t core, std::uint64_t block_offset) {
  AppendToRing(core, block_offset);
}

void PersistentPool::FreeGc(std::size_t core, std::uint64_t block_offset) {
  assert(config_.gc_tail && "FreeGc is only valid on gc_tail pools");
  AppendToRing(core, block_offset);
}

void PersistentPool::PersistRingEntries(std::size_t core, std::size_t core_for_stats) {
  CoreState& cs = state_[core];
  const std::uint64_t cap = config_.freelist_capacity;
  std::uint64_t from = cs.tail_persisted;
  while (from < cs.tail) {
    // Persist the contiguous ring span [from, min(tail, next wrap)).
    const std::uint64_t pos = from % cap;
    const std::uint64_t span = std::min(cs.tail - from, cap - pos);
    device_.Persist(RingOffset(core, from), span * sizeof(std::uint64_t), core_for_stats);
    from += span;
  }
  cs.tail_persisted = cs.tail;
}

void PersistentPool::Checkpoint(Epoch epoch, std::size_t core_for_stats) {
  const std::size_t slot = epoch & 1;
  for (std::size_t core = 0; core < cores_; ++core) {
    CoreState& cs = state_[core];
    PersistRingEntries(core, core_for_stats);
    auto* meta = device_.As<MetaNvm>(MetaOffset(core));
    meta->bump[slot] = cs.bump;
    meta->head[slot] = cs.head;
    meta->tail[slot] = cs.tail;
    device_.Persist(MetaOffset(core), sizeof(MetaNvm), core_for_stats);
    cs.head_at_ckpt = cs.head;
    cs.tail_at_ckpt = cs.tail;
  }
}

void PersistentPool::PersistGcTail(std::size_t core_for_stats) {
  assert(config_.gc_tail);
  for (std::size_t core = 0; core < cores_; ++core) {
    PersistRingEntries(core, core_for_stats);
  }
  device_.Fence(core_for_stats);
  for (std::size_t core = 0; core < cores_; ++core) {
    CoreState& cs = state_[core];
    auto* meta = device_.As<MetaNvm>(MetaOffset(core));
    meta->current_tail = cs.tail;
    device_.Persist(MetaOffset(core) + offsetof(MetaNvm, current_tail), sizeof(std::uint64_t),
                    core_for_stats);
    // Execution-phase allocations may now reuse the blocks GC just freed.
    cs.head_limit = cs.tail;
  }
  device_.Fence(core_for_stats);
}

void PersistentPool::PersistBumpNonRevertible(std::size_t core_for_stats) {
  for (std::size_t core = 0; core < cores_; ++core) {
    auto* meta = device_.As<MetaNvm>(MetaOffset(core));
    meta->bump[0] = std::max(meta->bump[0], state_[core].bump);
    meta->bump[1] = std::max(meta->bump[1], state_[core].bump);
    device_.Persist(MetaOffset(core), 2 * sizeof(std::uint64_t), core_for_stats);
  }
  device_.Fence(core_for_stats);
}

void PersistentPool::Recover(Epoch last_checkpointed_epoch) {
  const std::size_t slot = last_checkpointed_epoch & 1;
  for (std::size_t core = 0; core < cores_; ++core) {
    CoreState& cs = state_[core];
    device_.ChargeRead(MetaOffset(core), sizeof(MetaNvm), core);
    const auto* meta = device_.As<MetaNvm>(MetaOffset(core));
    cs.bump = meta->bump[slot];
    cs.head = meta->head[slot];
    cs.tail = meta->tail[slot];
    cs.tail_at_ckpt = cs.tail;
    if (config_.gc_tail && meta->current_tail > cs.tail) {
      // GC frees of the crashed epoch are non-revertible (the stale values
      // were unlinked from their rows); keep them in the free list.
      cs.tail = meta->current_tail;
    }
    cs.head_at_ckpt = cs.head;
    cs.head_limit = cs.tail_at_ckpt;
    cs.tail_persisted = cs.tail;
  }
}

std::unordered_set<std::uint64_t> PersistentPool::BuildFreeSet() const {
  std::unordered_set<std::uint64_t> free_set;
  for (std::size_t core = 0; core < cores_; ++core) {
    const CoreState& cs = state_[core];
    for (std::uint64_t pos = cs.head; pos < cs.tail; ++pos) {
      const std::uint64_t entry_off =
          ring_base_ + (core * config_.freelist_capacity + pos % config_.freelist_capacity) *
                           sizeof(std::uint64_t);
      device_.ChargeRead(entry_off, sizeof(std::uint64_t), core);
      free_set.insert(*device_.As<std::uint64_t>(entry_off));
    }
  }
  return free_set;
}

std::unordered_set<std::uint64_t> PersistentPool::GcWindowEntries() const {
  std::unordered_set<std::uint64_t> window;
  for (std::size_t core = 0; core < cores_; ++core) {
    const CoreState& cs = state_[core];
    for (std::uint64_t pos = cs.tail_at_ckpt; pos < cs.tail; ++pos) {
      const std::uint64_t entry_off =
          ring_base_ + (core * config_.freelist_capacity + pos % config_.freelist_capacity) *
                           sizeof(std::uint64_t);
      device_.ChargeRead(entry_off, sizeof(std::uint64_t), core);
      window.insert(*device_.As<std::uint64_t>(entry_off));
    }
  }
  return window;
}

void PersistentPool::ForEachAllocated(std::size_t core,
                                      const std::unordered_set<std::uint64_t>& free_set,
                                      const std::function<void(std::uint64_t)>& fn) const {
  const CoreState& cs = state_[core];
  for (std::uint64_t block = 0; block < cs.bump; ++block) {
    const std::uint64_t offset = BlockOffset(core, block);
    if (free_set.find(offset) == free_set.end()) {
      fn(offset);
    }
  }
}

std::uint64_t PersistentPool::blocks_allocated() const {
  std::uint64_t total = 0;
  for (const CoreState& cs : state_) {
    total += cs.bump - (cs.tail - cs.head);
  }
  return total;
}

std::uint64_t PersistentPool::bump_blocks() const {
  std::uint64_t total = 0;
  for (const CoreState& cs : state_) {
    total += cs.bump;
  }
  return total;
}

}  // namespace nvc::alloc
