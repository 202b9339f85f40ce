// Engine configuration and database specification.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace nvc::core {

// Storage designs evaluated in the paper (sections 6.4 and 6.7).
enum class EngineMode {
  // The paper's contribution: transient intermediate versions in DRAM,
  // final write per row per epoch to NVMM, input logging for recovery.
  kNvCaracal,
  // NVCaracal without input logging (no failure recovery) — figure 10.
  kNoLogging,
  // Everything in (zero-latency) DRAM, no logging — figure 10's all-DRAM.
  // Run this mode on a device with LatencyProfile::None().
  kAllDram,
  // Version arrays in DRAM but *every* update written to NVMM (no logging;
  // Zen-style write-through with DRAM caching) — figure 7's "hybrid".
  kHybrid,
  // Version arrays and intermediate values also charged to NVMM — figure
  // 7's "Caracal in NVMM" baseline.
  kAllNvmm,
};

inline bool ModeLogsInputs(EngineMode mode) {
  return mode == EngineMode::kNvCaracal;
}

inline bool ModeWritesThrough(EngineMode mode) {
  return mode == EngineMode::kHybrid || mode == EngineMode::kAllNvmm;
}

// Deterministic concurrency control scheme (paper section 7 future work:
// "recently proposed deterministic concurrency control schemes such as Aria
// ... eliminate this [pre-declared write set] requirement ... We plan to
// explore integrating NVMM in these databases").
enum class ConcurrencyControl {
  // Caracal: pre-declared write sets, version arrays, PWV execution.
  kCaracal,
  // Aria-style: execute the whole batch against the last epoch's snapshot
  // with buffered writes, reserve write keys, then commit the conflict-free
  // transactions in one shot — the rest are deterministically deferred to
  // the next batch. No write sets, no version arrays; each committed key is
  // still written to NVMM exactly once per epoch, so the dual-version
  // checkpointing, GC and recovery machinery apply unchanged.
  kAria,
};

// How recovery treats versions written by the crashed epoch (section 6.2.3).
enum class RecoveryPolicy {
  // Fully deterministic workloads: replay detects already-written versions
  // by SID and overwrites them in place (crash-repair case 3).
  kReplayInPlace,
  // Workloads with non-deterministic order-id counters (Caracal's TPC-C):
  // revert every persistent version written by the crashed epoch during the
  // recovery scan, then replay.
  kRevertAndReplay,
};

struct TableSpec {
  std::string name;
  std::size_t row_size = kNvmAccessGranularity;  // >= kRowHeaderSize + 0
  bool ordered = false;
  std::size_t capacity_rows = 1 << 16;       // total across cores
  std::size_t freelist_capacity = 1 << 14;   // ring entries per core
};

struct DatabaseSpec {
  std::size_t workers = 1;
  EngineMode mode = EngineMode::kNvCaracal;
  ConcurrencyControl concurrency = ConcurrencyControl::kCaracal;
  RecoveryPolicy recovery = RecoveryPolicy::kReplayInPlace;

  std::vector<TableSpec> tables;
  std::vector<std::uint64_t> counters;  // initial values

  // Persistent value pool (paper 5.5). Values larger than the inline heap
  // are allocated here in fixed blocks.
  std::size_t value_block_size = 1024;
  std::size_t value_blocks_per_core = 1 << 16;
  std::size_t value_freelist_capacity = 1 << 16;

  // Multi-size value pools (the extension named in paper 5.5: "one pool for
  // each power of two size"). When non-empty, overrides the three fields
  // above; an allocation uses the smallest class that fits.
  struct ValuePoolSpec {
    std::size_t block_size;
    std::size_t blocks_per_core;
    std::size_t freelist_capacity;
  };
  std::vector<ValuePoolSpec> value_pools;

  // Input log buffer size (per parity buffer).
  std::size_t log_bytes = 16u << 20;

  // DRAM cache of persistent values (paper 4.2).
  bool enable_cache = true;
  std::size_t cache_max_entries = 1 << 20;
  Epoch cache_k = 20;

  // Cache admission on final writes (the paper's section-7 future work:
  // "creating cached versions only for hot rows, which can be identified
  // during epoch initialization"). kAlways caches every final write;
  // kHotOnly caches a final write only when the row received multiple
  // versions this epoch (its version array proves it hot) or was already
  // cached. Read misses always admit (a read is itself a heat signal).
  enum class CachePolicy { kAlways, kHotOnly };
  CachePolicy cache_policy = CachePolicy::kAlways;

  // Minor GC optimization (paper 4.4/5.3); when disabled every updated row
  // is collected by the major collector in the next epoch (figure 9).
  bool enable_minor_gc = true;

  // Persistent NVMM row index (the paper's section-7 future work). Index
  // deltas are applied in batches at each checkpoint; recovery rebuilds the
  // DRAM index from compact 32-byte slots instead of scanning full rows.
  // The fast recovery path requires RecoveryPolicy::kReplayInPlace (with
  // kRevertAndReplay, recovery falls back to the full row scan, which also
  // performs the version reverts).
  bool enable_persistent_index = false;
  // Capacity of the persisted major-GC list (rows updated per epoch whose
  // stale version needs major collection). Overflow falls back to scan
  // recovery for the next crash.
  std::size_t gc_log_capacity = 1 << 16;

  // Cold tier on block storage (the conclusion's "extend to fast
  // block-based storage" direction). When a cold device is supplied to the
  // Database constructor, persistent values whose DRAM-cached copy ages out
  // of the cache (not accessed for cache_k epochs) are demoted from NVMM to
  // the cold device during initialization; a later write promotes the row
  // back (the stale cold version is collected by the major GC). A crash
  // during demotion can leak at most one batch of cold blocks (documented
  // in DESIGN.md).
  bool enable_cold_tier = false;
  std::size_t cold_block_size = 1024;
  std::size_t cold_blocks_per_core = 1 << 16;
  std::size_t cold_freelist_capacity = 1 << 16;

  // Instant recovery (DESIGN.md section 12). During the epoch tail the
  // engine also persists a per-epoch key -> txn-slot digest next to the
  // input log; after a crash, Recover() returns as soon as the index roots
  // are rebuilt, marking the crashed epoch "pending-replay". Accesses to an
  // unreplayed key trigger targeted redo of that key's slice of the crashed
  // epoch, and a background backfill sweep retires the remaining keys.
  // Requires RecoveryPolicy::kReplayInPlace and ConcurrencyControl::kCaracal
  // (the digest is collected from the deterministic declare/insert steps).
  bool enable_instant_recovery = false;
  // Digest buffer size per parity copy (entries are 16 bytes per declared
  // write; an epoch whose digest does not fit falls back to full replay).
  std::size_t digest_bytes = 1u << 20;

  // Caracal's batch-append optimization (absent from the paper's artifact,
  // which is why contended small-row YCSB degrades at large epochs —
  // section 6.9). When enabled, the append step collects intents per worker,
  // repartitions them by row-owner core, and builds each version array with
  // one exact-capacity sorted fill instead of per-append sorted insertion.
  bool enable_batch_append = false;

  // Checks every spec-only invariant the Database constructor relies on and
  // returns the first violation with an actionable message (kOk when the
  // spec is constructible). Device-dependent checks (device size, presence
  // of a cold device) still live in the constructor, which calls this first.
  // Defined in database.cc.
  Status Validate() const;
};

}  // namespace nvc::core
