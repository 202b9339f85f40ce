// Per-epoch transient memory pool (paper section 5.1).
//
// Intermediate row versions and version arrays live only for the duration of
// one epoch, so they are allocated from per-core bump allocators and the
// whole pool is discarded by resetting the bump offsets before the next
// epoch's first allocation. Chunk memory is retained across epochs, so
// steady-state epochs perform no malloc/free at all. Nothing reads an
// epoch's transient state after its cut point — not its persistence tail
// (DESIGN.md section 13), not the next epoch's overlapped front half — so
// one bank suffices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"

namespace nvc::alloc {

class TransientPool {
 public:
  // chunk_bytes is the growth quantum of each per-core arena.
  explicit TransientPool(std::size_t cores, std::size_t chunk_bytes = 1u << 20);

  TransientPool(const TransientPool&) = delete;
  TransientPool& operator=(const TransientPool&) = delete;

  // Allocates n bytes (8-byte aligned) from core's arena. Never fails except
  // by std::bad_alloc. Thread-safe across cores, not within one core.
  void* Alloc(std::size_t core, std::size_t n);

  // Discards every allocation. Chunks are kept for reuse. Caller must
  // guarantee no allocation is concurrently in flight.
  void Reset();

  // Bytes handed out and still live (DRAM footprint accounting).
  std::size_t bytes_allocated() const;

  // High-water mark across all epochs (figure 8 reports the pool footprint).
  std::size_t high_water_bytes() const { return high_water_; }

  std::size_t cores() const { return arenas_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size;
  };
  struct alignas(kCacheLineSize) Arena {
    std::vector<Chunk> chunks;
    std::size_t current_chunk = 0;
    std::size_t offset = 0;  // within current chunk
    std::size_t allocated = 0;
  };

  std::size_t chunk_bytes_;
  std::vector<Arena> arenas_;
  std::size_t high_water_ = 0;
};

}  // namespace nvc::alloc
