#include "src/alloc/transient_pool.h"

#include <algorithm>

namespace nvc::alloc {

TransientPool::TransientPool(std::size_t cores, std::size_t chunk_bytes)
    : chunk_bytes_(chunk_bytes), arenas_(cores == 0 ? 1 : cores) {}

void* TransientPool::Alloc(std::size_t core, std::size_t n) {
  Arena& arena = arenas_[core];
  n = AlignUp(n, 8);
  while (true) {
    if (arena.current_chunk < arena.chunks.size()) {
      Chunk& chunk = arena.chunks[arena.current_chunk];
      if (arena.offset + n <= chunk.size) {
        void* p = chunk.data.get() + arena.offset;
        arena.offset += n;
        arena.allocated += n;
        return p;
      }
      // Move to the next retained chunk (or fall through to grow).
      ++arena.current_chunk;
      arena.offset = 0;
      continue;
    }
    const std::size_t size = std::max(chunk_bytes_, n);
    arena.chunks.push_back(Chunk{std::make_unique<std::uint8_t[]>(size), size});
    arena.offset = 0;
  }
}

void TransientPool::Reset() {
  high_water_ = std::max(high_water_, bytes_allocated());
  for (Arena& arena : arenas_) {
    arena.current_chunk = 0;
    arena.offset = 0;
    arena.allocated = 0;
  }
}

std::size_t TransientPool::bytes_allocated() const {
  std::size_t total = 0;
  for (const Arena& arena : arenas_) {
    total += arena.allocated;
  }
  return total;
}

}  // namespace nvc::alloc
