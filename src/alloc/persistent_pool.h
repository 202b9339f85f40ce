// Persistent NVM block pools with epoch-granularity undo (paper 5.4, 5.5).
//
// A pool hands out fixed-size NVM blocks (persistent rows, or persistent
// values) from per-core regions. Each core has:
//
//   * a bump allocator — the allocation offset lives in DRAM; two
//     checkpointed copies live in NVM, written alternately by epoch parity;
//   * a ring-buffer free list in NVM — freed block offsets are appended at
//     the tail and reused from the head; the head/tail offsets live in DRAM
//     with two checkpointed NVM copies each.
//
// Allocations therefore require no NVM writes at all, and frees append
// sequentially (persisted in batches at checkpoint time). On a crash the
// DRAM offsets are reloaded from the checkpointed copies, which reverts
// every allocation and deletion of the crashed epoch:
//
//   invariant 1 — the checkpointed free list region is never modified before
//   the next checkpoint (appends go past the checkpointed tail; ring
//   capacity asserts protect wrap-around);
//   invariant 2 — blocks freed in the current epoch are not reallocated in
//   the same epoch (the free-list head may not cross the checkpointed tail).
//
// The persistent *value* pool additionally cooperates with major GC
// (paper 5.5): GC frees are non-revertible, so they are appended during the
// initialization phase and made durable — together with a third NVM offset,
// current_tail — before the execution phase starts. A crash during execution
// reverts the free list only to its post-GC state.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/common/types.h"
#include "src/sim/nvm_device.h"

namespace nvc::alloc {

struct PersistentPoolConfig {
  std::size_t block_size = 0;         // bytes per block
  std::size_t blocks_per_core = 0;    // bump-area capacity per core
  std::size_t freelist_capacity = 0;  // ring entries per core
  bool gc_tail = false;               // maintain the non-revertible current_tail
};

class PersistentPool {
 public:
  // Total device bytes the pool occupies for the given core count.
  static std::size_t RequiredBytes(const PersistentPoolConfig& config, std::size_t cores);

  // Attaches to [base_offset, base_offset + RequiredBytes) of the device.
  // Call Format() exactly once per device lifetime before first use, or
  // Recover() when re-attaching after a crash.
  PersistentPool(sim::NvmDevice& device, const PersistentPoolConfig& config,
                 std::uint64_t base_offset, std::size_t cores);

  PersistentPool(const PersistentPool&) = delete;
  PersistentPool& operator=(const PersistentPool&) = delete;

  // Zeroes the pool metadata (fresh database).
  void Format();

  // ---- Epoch lifecycle ----------------------------------------------------

  // Resets the per-epoch allocation limit (head may consume entries up to
  // the checkpointed tail). Called at the start of every epoch.
  void BeginEpoch();

  // Persists every core's DRAM offsets into the parity slot for `epoch`,
  // together with any unpersisted free-list ring entries. The caller issues
  // the fence that makes the checkpoint durable.
  void Checkpoint(Epoch epoch, std::size_t core_for_stats);

  // Value pool only: make the init-phase GC frees durable and advance
  // current_tail, allowing the execution phase to both reuse GC'd blocks
  // and survive a crash without reverting the GC. Issues its own fences.
  void PersistGcTail(std::size_t core_for_stats);

  // Makes every allocation performed so far non-revertible by persisting the
  // bump offsets into BOTH parity slots (cold-tier demotion: a descriptor
  // may reference a freshly allocated block before the epoch commits, so the
  // allocation must survive a crash; unreferenced blocks leak boundedly).
  // Issues its own fence.
  void PersistBumpNonRevertible(std::size_t core_for_stats);

  // Reloads the DRAM offsets from the checkpointed copies of
  // `last_checkpointed_epoch` (plus current_tail for gc_tail pools).
  void Recover(Epoch last_checkpointed_epoch);

  // ---- Allocation ----------------------------------------------------------

  // Returns the device offset of a block, or 0 when the pool is exhausted.
  // Only `core` may call concurrently with itself.
  std::uint64_t Alloc(std::size_t core);

  // Revertible free (transaction logic). Appends to core's free list.
  void Free(std::size_t core, std::uint64_t block_offset);

  // Non-revertible free from major GC (gc_tail pools, init phase only).
  void FreeGc(std::size_t core, std::uint64_t block_offset);

  // ---- Recovery support -----------------------------------------------------

  // Offsets currently sitting in any core's free list (post-Recover state);
  // used to skip free blocks while scanning the row area.
  std::unordered_set<std::uint64_t> BuildFreeSet() const;

  // Ring entries appended by GC in the crashed epoch, i.e. entries in
  // (checkpointed tail, current tail]; used as the idempotence dedup set
  // when re-running major GC during recovery (paper 5.5).
  std::unordered_set<std::uint64_t> GcWindowEntries() const;

  // Invokes fn(block_offset) for every block allocated from `core`'s bump
  // area that is not in free_set.
  void ForEachAllocated(std::size_t core,
                        const std::unordered_set<std::uint64_t>& free_set,
                        const std::function<void(std::uint64_t)>& fn) const;

  // ---- Accounting -----------------------------------------------------------

  std::uint64_t blocks_allocated() const;  // bump total minus free-list population
  std::uint64_t bytes_in_use() const { return blocks_allocated() * config_.block_size; }
  std::uint64_t bump_blocks() const;       // high-water blocks taken from bump areas
  std::size_t block_size() const { return config_.block_size; }
  std::size_t cores() const { return cores_; }

 private:
  // One NVM cache line per core holding the checkpointed offsets.
  struct MetaNvm {
    std::uint64_t bump[2];
    std::uint64_t head[2];
    std::uint64_t tail[2];
    std::uint64_t current_tail;
    std::uint64_t reserved;
  };
  static_assert(sizeof(MetaNvm) == kCacheLineSize);

  struct alignas(kCacheLineSize) CoreState {
    std::uint64_t bump = 0;            // blocks taken from the bump area
    std::uint64_t head = 0;            // free list consume position (monotonic)
    std::uint64_t tail = 0;            // free list append position (monotonic)
    std::uint64_t head_limit = 0;      // alloc limit this epoch (invariant 2)
    std::uint64_t head_at_ckpt = 0;    // for ring wrap-around assertion
    std::uint64_t tail_at_ckpt = 0;    // checkpointed tail (GC dedup window base)
    std::uint64_t tail_persisted = 0;  // ring entries durable up to here
  };

  std::uint64_t MetaOffset(std::size_t core) const { return base_ + core * sizeof(MetaNvm); }
  std::uint64_t RingOffset(std::size_t core, std::uint64_t position) const {
    return ring_base_ + (core * config_.freelist_capacity + position % config_.freelist_capacity) *
                            sizeof(std::uint64_t);
  }
  std::uint64_t BlockOffset(std::size_t core, std::uint64_t block) const {
    return data_base_ + (core * config_.blocks_per_core + block) * config_.block_size;
  }

  void AppendToRing(std::size_t core, std::uint64_t block_offset);
  void PersistRingEntries(std::size_t core, std::size_t core_for_stats);

  sim::NvmDevice& device_;
  PersistentPoolConfig config_;
  std::uint64_t base_;       // meta area
  std::uint64_t ring_base_;  // free-list rings
  std::uint64_t data_base_;  // block areas
  std::size_t cores_;
  std::vector<CoreState> state_;
};

}  // namespace nvc::alloc
