// Deterministic keyspace partitioner.
//
// Every place that spreads (table, key) pairs across a fixed number of
// buckets — the parallel tail's owner assignment, persistent-index delta
// apply, DRAM index striping, Aria reservation shards, and the multi-shard
// router — must agree on the same mapping, or replay/recovery would assign
// work to different owners than the original run. This header is the single
// definition of that mapping; do not hand-roll `HashKey % n` elsewhere.
#pragma once

#include <cstddef>

#include "src/common/hash.h"
#include "src/common/types.h"

namespace nvc {

// Owning bucket of a (table, key) pair whose HashKey(table, key) the caller
// already holds and reuses (the DRAM index probes its shard's slots with the
// same hash).
inline std::size_t PartitionOfHash(std::uint64_t hash, std::size_t partitions) {
  return static_cast<std::size_t>(hash % partitions);
}

// Owning bucket of (table, key) among `partitions` equally-weighted buckets.
// Pure function of its inputs: stable across runs, replicas, and recovery.
inline std::size_t PartitionOf(TableId table, Key key, std::size_t partitions) {
  return PartitionOfHash(HashKey(table, key), partitions);
}

}  // namespace nvc
