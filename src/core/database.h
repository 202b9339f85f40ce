// NVCaracal: a deterministic database with NVMM dual-version checkpointing.
//
// This is the engine described in sections 4 and 5 of the paper. Epoch
// processing follows Algorithm 1:
//
//   for each epoch:
//     log_transaction_inputs()        (NVCaracal mode)
//     insert_step()                   persistent rows created in NVMM
//     GC_major()                      collect stale versions of rows updated
//                                     in the previous epoch
//     evict_cache()                   epoch-based K-LRU
//     append_step()                   build sorted transient version arrays
//     execute_phase()                 PWV execution; the final write per row
//                                     is checkpointed to NVMM
//     fence(); persist_epoch_number(); fence()
//     transient_pool_free()
//
// Failure model: destroying the Database object models losing DRAM; calling
// NvmDevice::Crash() (or restarting the process with a file-backed device)
// models losing unflushed NVMM lines. A fresh Database over the same device
// then runs Recover() to rebuild the index and deterministically replay the
// crashed epoch from the input log.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/alloc/persistent_pool.h"
#include "src/alloc/transient_pool.h"
#include "src/common/profiler.h"
#include "src/common/status.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/common/worker_pool.h"
#include "src/core/config.h"
#include "src/core/input_log.h"
#include "src/index/persistent_index.h"
#include "src/index/table_index.h"
#include "src/sim/nvm_device.h"
#include "src/txn/transaction.h"
#include "src/vstore/persistent_row.h"
#include "src/vstore/version_array.h"
#include "src/vstore/version_cache.h"

namespace nvc::core {

struct EpochResult {
  Epoch epoch = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;   // user-level aborts
  std::size_t deferred = 0;  // Aria: conflict-deferred to the next batch
  double seconds = 0;
  bool crashed = false;  // a crash hook fired; the Database must be discarded
};

// Per-transaction fate within one executed epoch.
enum class TxnOutcome : std::uint8_t {
  kCommitted = 0,
  kAborted = 1,   // user-level abort (durable: the abort is the outcome)
  kDeferred = 2,  // Aria: conflict-deferred; re-runs at the front of the
                  // next batch (the Database retains the transaction)
};

// Durable-notify hook for epoch completion. Invoked *after* the epoch number
// is persisted (the group-commit durability point) and never for a crashed
// epoch. It runs on the internal tail thread, strictly in epoch order,
// possibly concurrent with the next epoch's ExecuteEpoch — the callback must
// be thread-safe against the submitting thread. `outcomes` is indexed by
// executed-batch slot: under Aria the batch is [previously deferred
// transactions in order, then the new ones]; under Caracal it is exactly the
// input vector. The service front-end (src/service/) uses this to resolve
// per-transaction tickets and measure submit->durable latency.
using EpochCallback =
    std::function<void(const EpochResult& result, const std::vector<TxnOutcome>& outcomes)>;

struct RecoveryReport {
  Epoch recovered_epoch = 0;       // last checkpointed epoch
  bool replayed = false;           // a complete log for the crashed epoch existed
  bool used_persistent_index = false;  // fast rebuild path (no full row scan)
  bool instant = false;            // fast phase returned with pending-replay state
  std::size_t rows_scanned = 0;
  std::size_t replayed_txns = 0;   // instant: txns the pending epoch will redo
  std::size_t reverted_versions = 0;  // kRevertAndReplay only
  std::size_t backfill_pending_keys = 0;  // keys awaiting on-demand/backfill redo
  double load_txn_seconds = 0;
  double scan_rebuild_seconds = 0;
  double revert_seconds = 0;       // folded into the scan pass; timed separately
  double replay_seconds = 0;
  // Seconds until the database could serve its first post-crash access:
  // the fast-phase wall time under instant recovery, total_seconds() for a
  // full-replay recovery.
  double time_to_first_commit = 0;
  double total_seconds() const {
    return load_txn_seconds + scan_rebuild_seconds + revert_seconds + replay_seconds;
  }
};

// Live view of an in-progress instant recovery (Database::RecoveryProgress).
struct BackfillProgress {
  bool pending = false;        // crashed epoch still pending-replay
  Epoch crashed_epoch = 0;
  std::size_t pending_keys = 0;   // keys not yet redone
  std::size_t total_keys = 0;     // keys the crashed epoch wrote
  std::size_t replayed_txns = 0;  // transaction slots executed so far
  std::size_t total_txns = 0;     // transactions in the crashed epoch
};

// DRAM / NVMM footprint breakdown (figure 8).
struct MemoryBreakdown {
  std::size_t dram_index_bytes = 0;
  std::size_t dram_transient_bytes = 0;  // transient pool high-water mark
  std::size_t dram_cache_bytes = 0;
  std::size_t nvm_row_bytes = 0;
  std::size_t nvm_value_bytes = 0;
  std::size_t nvm_log_bytes = 0;
  std::size_t cold_value_bytes = 0;  // values demoted to block storage
  std::size_t dram_total() const {
    return dram_index_bytes + dram_transient_bytes + dram_cache_bytes;
  }
  std::size_t nvm_total() const { return nvm_row_bytes + nvm_value_bytes + nvm_log_bytes; }
};

// Sites where tests can inject a simulated process crash (the hook returns
// true to crash). After a crash the Database object must be destroyed,
// NvmDevice::Crash()/CrashChaos()/CrashTorn() invoked, and a fresh Database
// recovered.
enum class CrashSite {
  kAfterLog,
  kAfterInsert,
  kDuringMajorGc,      // between the free pass and the descriptor pass
  kDuringGcPass2,      // inside pass 2, between a row's copy and its reset
                       // (aliased descriptors; single-worker runs)
  kAfterGcPersist,
  kDuringDemotion,     // cold-tier demotion: before the durability fence and
                       // between per-row descriptor updates
  kAfterAppend,
  kMidExecution,       // between transactions (single-worker runs)
  kAfterExecution,
  kDuringIndexApply,   // between persistent-index delta applications
  kBeforeEpochPersist,
  kMidInstantRecoveryOnDemand,  // instant recovery: before an on-demand key
                                // redo triggered by a foreground access
  kMidBackfill,                 // instant recovery: between backfill keys
                                // (crash while recovering from a crash)
  kMidOverlapExecute,      // inside epoch N+1's overlapped front (after the
                           // log/digest encode) while epoch N's tail may
                           // still be persisting
  kMidOverlapTailPersist,  // in the persistence tail, between the pool
                           // checkpoints and the index-delta apply
  kMidScanValidate,        // range scans: between a scan's key-interval
                           // collection and its read-back (Caracal execute
                           // phase) or before its phantom interval check
                           // (Aria commit phase); single-worker runs
  kMidOrderedIndexRebuild,  // recovery: while re-inserting an ordered
                            // table's keys into the skiplist (crash during
                            // recovery; single-worker runs)
  kMidShardExchange,        // multi-shard (src/shard): after a shard published
                            // its exchange slots, before the fixed-point
                            // barrier; never fired by the engine itself
  kMidShardEpochBarrier,    // multi-shard: inside the post-log durability
                            // hook, before the cross-shard barrier; never
                            // fired by the engine itself
};
inline constexpr std::size_t kCrashSiteCount = 19;
inline constexpr CrashSite kAllCrashSites[kCrashSiteCount] = {
    CrashSite::kAfterLog,        CrashSite::kAfterInsert,   CrashSite::kDuringMajorGc,
    CrashSite::kDuringGcPass2,   CrashSite::kAfterGcPersist, CrashSite::kDuringDemotion,
    CrashSite::kAfterAppend,     CrashSite::kMidExecution,  CrashSite::kAfterExecution,
    CrashSite::kDuringIndexApply, CrashSite::kBeforeEpochPersist,
    CrashSite::kMidInstantRecoveryOnDemand, CrashSite::kMidBackfill,
    CrashSite::kMidOverlapExecute, CrashSite::kMidOverlapTailPersist,
    CrashSite::kMidScanValidate, CrashSite::kMidOrderedIndexRebuild,
    CrashSite::kMidShardExchange, CrashSite::kMidShardEpochBarrier,
};

constexpr const char* CrashSiteName(CrashSite site) {
  switch (site) {
    case CrashSite::kAfterLog: return "AfterLog";
    case CrashSite::kAfterInsert: return "AfterInsert";
    case CrashSite::kDuringMajorGc: return "DuringMajorGc";
    case CrashSite::kDuringGcPass2: return "DuringGcPass2";
    case CrashSite::kAfterGcPersist: return "AfterGcPersist";
    case CrashSite::kDuringDemotion: return "DuringDemotion";
    case CrashSite::kAfterAppend: return "AfterAppend";
    case CrashSite::kMidExecution: return "MidExecution";
    case CrashSite::kAfterExecution: return "AfterExecution";
    case CrashSite::kDuringIndexApply: return "DuringIndexApply";
    case CrashSite::kBeforeEpochPersist: return "BeforeEpochPersist";
    case CrashSite::kMidInstantRecoveryOnDemand: return "MidInstantRecoveryOnDemand";
    case CrashSite::kMidBackfill: return "MidBackfill";
    case CrashSite::kMidOverlapExecute: return "MidOverlapExecute";
    case CrashSite::kMidOverlapTailPersist: return "MidOverlapTailPersist";
    case CrashSite::kMidScanValidate: return "MidScanValidate";
    case CrashSite::kMidOrderedIndexRebuild: return "MidOrderedIndexRebuild";
    case CrashSite::kMidShardExchange: return "MidShardExchange";
    case CrashSite::kMidShardEpochBarrier: return "MidShardEpochBarrier";
  }
  return "?";
}

using CrashHook = std::function<bool(CrashSite)>;

// Counts how often each CrashSite was reached (MaybeCrash evaluated) and how
// often a hook fired there, so a fuzzing sweep can report which recovery
// branches its runs actually exercised.
struct CrashSiteCoverage {
  std::array<std::uint64_t, kCrashSiteCount> reached{};
  std::array<std::uint64_t, kCrashSiteCount> fired{};

  void Merge(const CrashSiteCoverage& other) {
    for (std::size_t i = 0; i < kCrashSiteCount; ++i) {
      reached[i] += other.reached[i];
      fired[i] += other.fired[i];
    }
  }
};

class Database {
 public:
  // Device bytes the spec requires; size the NvmDevice with at least this.
  static std::size_t RequiredDeviceBytes(const DatabaseSpec& spec);

  // Human-readable map of the on-device areas (offline inspection tooling).
  struct AreaInfo {
    std::string name;
    std::uint64_t offset;
    std::uint64_t bytes;
  };
  static std::vector<AreaInfo> DescribeLayout(const DatabaseSpec& spec);

  // `cold_device` backs the optional cold tier (spec.enable_cold_tier);
  // size it with RequiredColdDeviceBytes and give it a block-storage latency
  // profile + 4096-byte access granule.
  Database(sim::NvmDevice& device, const DatabaseSpec& spec,
           sim::NvmDevice* cold_device = nullptr);
  ~Database();

  static std::size_t RequiredColdDeviceBytes(const DatabaseSpec& spec);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Initializes a fresh database on the device. Follow with BulkLoad calls
  // and exactly one FinalizeLoad before the first ExecuteEpoch.
  void Format();

  // Writes one row during initial population (bypasses epoch machinery but
  // still pays NVMM costs).
  void BulkLoad(TableId table, Key key, const void* data, std::uint32_t size);

  // Checkpoints the loaded state as epoch 1.
  void FinalizeLoad();

  // Rebuilds DRAM state from the device after a crash and deterministically
  // replays the crashed epoch from the input log if one is complete.
  // Failure statuses:
  //   kDataLoss           the device carries no NVCaracal superblock
  //   kFailedPrecondition the on-device table count disagrees with the spec
  //   kAborted            a crash hook fired during the replay
  StatusOr<RecoveryReport> Recover(const txn::TxnRegistry& registry);

  // Multi-shard recovery coordination (src/shard). `allow_replay=false`
  // restores the last checkpointed epoch but never replays a complete input
  // log for the next epoch — the sharded recovery decision may require a
  // shard that crashed *after* logging to hold the epoch back because a peer
  // shard never logged it.
  struct RecoverOptions {
    bool allow_replay = true;
  };
  StatusOr<RecoveryReport> Recover(const txn::TxnRegistry& registry,
                                   const RecoverOptions& options);

  // Non-destructive look at the device before recovery: the last
  // checkpointed epoch in the superblock and whether a complete input log
  // for the following epoch exists. The sharded recovery coordinator peeks
  // every shard first to decide the global replay policy.
  //   kDataLoss           no NVCaracal superblock on the device
  //   kFailedPrecondition on-device table count disagrees with the spec
  struct RecoveryPeek {
    Epoch checkpointed = 0;
    bool has_next_log = false;  // complete log for epoch checkpointed+1
  };
  StatusOr<RecoveryPeek> PeekRecovery();

  // Processes one epoch of transactions (batch = epoch, paper footnote 1).
  // Returns at the cut point, after execution: the epoch's persistence tail
  // runs on an internal tail thread, overlapped with the next epoch's front
  // half, and the epoch is durable once the epoch callback fires or
  // WaitIdle() returns. When an instant recovery is pending, first completes
  // the crashed epoch's backfill and checkpoint (profiled as
  // Phase::kRecoveryBackfill), so the new epoch observes fully-replayed state.
  EpochResult ExecuteEpoch(std::vector<std::unique_ptr<txn::Transaction>> txns);

  // Blocks until the persistence tail of the last executed epoch (if any)
  // has completed, so device state, stats and the shadow image are
  // quiescent. Callers that want barrier semantics call it after every
  // ExecuteEpoch. Returns kAborted when a crash hook fired on the tail
  // thread — the Database must then be discarded and recovered like any
  // other crash.
  Status WaitIdle();

  // Summed thread-CPU time of the persistence tails completed so far. A
  // caller that waits for each tail adds the delta across an epoch to its
  // own thread's CPU to get the epoch's full CPU cost.
  std::uint64_t tail_cpu_ns() const { return tail_cpu_total_ns_.load(std::memory_order_relaxed); }

  // ---- Instant recovery (spec.enable_instant_recovery; recovery.cc) ----------

  // True while the crashed epoch is pending-replay (between a fast-phase
  // Recover() and the completion of backfill + the crashed epoch's
  // checkpoint).
  bool instant_recovery_pending() const {
    return instant_active_.load(std::memory_order_acquire);
  }

  // Live backfill progress; pending == false once recovery fully retired.
  BackfillProgress RecoveryProgress() const;

  // Replays up to `max_keys` still-pending keys (background backfill sweep);
  // returns the number of pending keys remaining. The step that retires the
  // last key also checkpoints the crashed epoch, after which the fast path
  // is branch-free again. kAborted when a crash hook fired mid-backfill.
  StatusOr<std::size_t> RunBackfillStep(std::size_t max_keys);

  // Runs backfill steps to completion. No-op when nothing is pending.
  Status CompleteBackfill();

  // ---- Introspection ---------------------------------------------------------

  Epoch current_epoch() const { return current_epoch_; }
  const DatabaseSpec& spec() const { return spec_; }
  EngineStats& stats() { return stats_; }

  // ---- Epoch-phase profiler --------------------------------------------------
  // Off by default; ConfigureProfiler({.enabled = true}) turns on span
  // recording and per-phase NVM/engine counter attribution for every
  // subsequent ExecuteEpoch. See DESIGN.md section 9.
  void ConfigureProfiler(const ProfilerConfig& config) { profiler_.Configure(config); }
  PhaseProfiler& profiler() { return profiler_; }
  const PhaseProfiler& profiler() const { return profiler_; }
  nvc::ProfileReport ProfileReport() const { return profiler_.Report(); }

  // Bounds-checked introspection accessors: an out-of-range id from tooling
  // used to index straight into the vectors (UB); they now throw
  // std::out_of_range with the offending id and the configured bound.
  std::uint64_t counter_value(txn::CounterId id) const {
    CheckCounterId(id);
    return counters_[id].load(std::memory_order_relaxed);
  }
  std::size_t table_rows(TableId table) const {
    CheckTableId(table);
    return tables_[table]->entries();
  }

  // Reads the latest committed value of a row outside any epoch (tests,
  // examples, tooling). Returns the number of bytes copied into `out`
  // (min(cap, value size)); kNotFound when the row has no committed value.
  StatusOr<std::uint32_t> ReadCommitted(TableId table, Key key, void* out, std::uint32_t cap);

  // One RangeScan result row.
  struct ScanRow {
    Key key = 0;
    std::vector<std::uint8_t> value;
  };
  // Committed-state range scan outside any epoch (tests, tooling, read-only
  // clients): live rows with key in [begin, end] ascending, at most `limit`.
  // kInvalidArgument when the table is not TableSchema::ordered.
  StatusOr<std::vector<ScanRow>> RangeScan(TableId table, Key begin, Key end,
                                           std::size_t limit = ~std::size_t{0});

  MemoryBreakdown GetMemoryBreakdown() const;

  // Installing a hook quiesces any in-flight asynchronous epoch tail first,
  // so the hook only observes sites of epochs submitted after this call
  // (and the swap never races the tail thread's reads). Declared out of
  // line: quiescing needs the tail machinery.
  void SetCrashHook(CrashHook hook);

  // Multi-shard durability barrier (src/shard). Invoked by ExecuteEpoch once
  // the epoch's input log (and digest) are durable, before any NVMM state of
  // the epoch is mutated; skipped during replay. Returning false makes the
  // epoch fail exactly as if a crash hook fired at that point (the epoch's
  // log stays durable; the Database must be discarded and recovered).
  // Installation quiesces the tail like SetCrashHook.
  using PostLogHook = std::function<bool(Epoch)>;
  void SetPostLogHook(PostLogHook hook);

  // Durable-notify: see EpochCallback above. Pass {} to clear. Safe to call
  // concurrently with a running epoch or its asynchronous tail: install and
  // invocation serialize on an internal mutex, so once a clearing call
  // returns, no in-flight invocation of the old callback remains.
  void SetEpochCallback(EpochCallback callback) {
    std::lock_guard<std::mutex> lk(callback_mu_);
    epoch_callback_ = std::move(callback);
  }

  // Per-site reach/fire counts accumulated over this object's lifetime.
  CrashSiteCoverage crash_coverage() const {
    CrashSiteCoverage cov;
    for (std::size_t i = 0; i < kCrashSiteCount; ++i) {
      cov.reached[i] = site_reached_[i].load(std::memory_order_relaxed);
      cov.fired[i] = site_fired_[i].load(std::memory_order_relaxed);
    }
    return cov;
  }

  index::TableIndex& table_index(TableId table) {
    CheckTableId(table);
    return *tables_[table];
  }

  // ---- Oracle / fuzzing support ---------------------------------------------
  sim::NvmDevice& device() { return device_; }
  std::size_t table_count() const { return tables_.size(); }
  std::size_t counter_count() const { return counters_.size(); }
  // Null when spec().enable_persistent_index is off.
  index::PersistentIndex* persistent_index(TableId table) {
    return pindexes_.empty() ? nullptr : pindexes_[table].get();
  }

 private:
  void CheckTableId(TableId table) const;
  void CheckCounterId(txn::CounterId id) const;

  friend class EngineInsertContext;
  friend class EngineAppendContext;
  friend class EngineExecContext;
  friend class AriaExecContext;

  struct ValuePoolArea {
    std::uint64_t base = 0;
    std::uint64_t end = 0;
    std::size_t block_size = 0;
  };
  struct Layout {
    std::uint64_t superblock = 0;
    std::uint64_t counters = 0;
    std::uint64_t log = 0;
    std::uint64_t digest = 0;  // replay digest (instant recovery; optional)
    std::vector<ValuePoolArea> value_pools;  // ascending block size
    std::vector<std::uint64_t> row_pools;
    std::vector<std::uint64_t> pindexes;  // persistent index areas (optional)
    std::uint64_t gc_log = 0;             // persisted major-GC list (optional)
    std::uint64_t total = 0;
  };
  static Layout ComputeLayout(const DatabaseSpec& spec);

  // Value-pool size classes (legacy single pool when spec.value_pools empty).
  static std::vector<DatabaseSpec::ValuePoolSpec> EffectiveValuePools(
      const DatabaseSpec& spec);

  struct SuperBlock {
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t table_count;
    std::uint64_t epoch;  // last checkpointed epoch number
    std::uint64_t reserved[5];
  };
  static_assert(sizeof(SuperBlock) == kCacheLineSize);

  // Small open-addressing set of pointers. Deduplicates a transaction's
  // declared writes in O(1) per declaration instead of a linear rescan of
  // the whole write set (quadratic for wide transactions).
  class PtrSet {
   public:
    // Empties the set and keeps its slot array.
    void Clear() {
      if (size_ != 0) {
        std::fill(slots_.begin(), slots_.end(), 0);
        size_ = 0;
      }
    }

    // Returns true when p was already present; inserts it otherwise.
    bool CheckAndInsert(const void* p) {
      if (slots_.empty()) {
        slots_.assign(16, 0);
      } else if ((size_ + 1) * 2 > slots_.size()) {
        Grow();
      }
      const auto v = reinterpret_cast<std::uintptr_t>(p);
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = SplitMix64(v) & mask;; i = (i + 1) & mask) {
        if (slots_[i] == v) {
          return true;
        }
        if (slots_[i] == 0) {
          slots_[i] = v;
          ++size_;
          return false;
        }
      }
    }

   private:
    void Grow() {
      std::vector<std::uintptr_t> old = std::move(slots_);
      slots_.assign(old.size() * 2, 0);
      const std::size_t mask = slots_.size() - 1;
      for (const std::uintptr_t v : old) {
        if (v == 0) {
          continue;
        }
        std::size_t i = SplitMix64(v) & mask;
        while (slots_[i] != 0) {
          i = (i + 1) & mask;
        }
        slots_[i] = v;
      }
    }

    std::vector<std::uintptr_t> slots_;  // 0 = empty (rows never live at 0)
    std::size_t size_ = 0;
  };

  // Per-transaction epoch state. Reset for each epoch rather than rebuilt,
  // so the containers keep their capacity across epochs.
  struct TxnState {
    txn::Transaction* txn = nullptr;
    Sid sid;
    bool aborted = false;
    std::vector<vstore::RowEntry*> writes;    // declared write set (append step)
    std::vector<vstore::RowEntry*> inserted;  // rows created in the insert step
    PtrSet declared;                          // batch-append duplicate filter

    void Reset(txn::Transaction* t, Sid s) {
      txn = t;
      sid = s;
      aborted = false;
      writes.clear();
      inserted.clear();
      declared.Clear();
    }
  };

  // Execute-phase row lookups scan a write set up to this size for the key
  // before falling back to the index. Wider sets go straight to the index:
  // a scan's cost grows with the set and overtakes the index probe it saves
  // between 128 and 160 declared writes (4096 writes: 11x slower).
  static constexpr std::size_t kWriteSetScanLimit = 128;

  // ---- Aria concurrency control (aria.cc) -------------------------------------
  EpochResult ExecuteEpochAria(std::vector<std::unique_ptr<txn::Transaction>> txns);
  int AriaSnapshotRead(TableId table, Key key, void* out, std::uint32_t cap,
                       std::size_t core);

  // ---- Epoch phases (epoch.cc) ----------------------------------------------
  void RunInsertStep();
  void RunMajorGc();
  void RunAppendStep();
  void RunBatchAppendStep();
  void RunExecutePhase();
  // Detaches the staged lines and runs RunTailPersist inline (synchronous
  // callers that own the device: FinalizeLoad, the instant-recovery finish).
  void CheckpointEpoch(Epoch epoch);
  bool MaybeCrash(CrashSite site);

  // ---- Row operations (epoch.cc) --------------------------------------------
  // The one row-creation path (insert step, Aria commit, replay, BulkLoad):
  // allocates and initializes the row, places the value inline or in the
  // value pool, stores version 0 and persists only the bytes it wrote.
  vstore::RowEntry* InsertRowInternal(TableId table, Key key, const void* data,
                                      std::uint32_t size, Sid sid, std::size_t core);
  void DeclareWrite(TxnState& st, TableId table, Key key, std::size_t core);
  // Execute-phase entry of (table, key): from the transaction's declared
  // write set when it is narrow, from the index otherwise; nullptr if absent.
  vstore::RowEntry* ResolveRow(const TxnState& st, TableId table, Key key);
  // Reads the version of `entry` visible at `sid`; -1 for a null entry.
  int ReadRow(vstore::RowEntry* entry, Sid sid, void* out, std::uint32_t cap, std::size_t core);
  // Execution-phase ordered range scan at `sid` (epoch.cc).
  std::uint32_t ExecScan(const txn::ScanSpec& spec, Sid sid, const txn::ScanRowFn& fn,
                         std::size_t core);
  int ReadPreEpoch(TableId table, Key key, void* out, std::uint32_t cap, std::size_t core);
  void WriteRow(TxnState& st, TableId table, Key key, const void* data, std::uint32_t size,
                std::size_t core);
  void DeleteRow(TxnState& st, TableId table, Key key, std::size_t core);
  void PostExecute(TxnState& st, std::size_t core);

  // Checkpoints `data` as the row's version `sid` in NVMM (the epoch's final
  // write; paper 4.5). Handles minor GC and crash-repair case 3. The
  // explicit-replay overload lets instant-recovery redo apply case-3 repair
  // without flipping the shared replaying_ flag under concurrent epochs.
  void PersistFinal(vstore::RowEntry* entry, Sid sid, const void* data, std::uint32_t size,
                    std::size_t core);
  void PersistFinalImpl(vstore::RowEntry* entry, Sid sid, const void* data,
                        std::uint32_t size, std::size_t core, bool replay);

  // Collects the per-epoch write-set digest by running the transactions'
  // insert/append declarations against side-effect-free contexts (epoch.cc).
  std::vector<DigestEntry> CollectDigest(
      const std::vector<std::unique_ptr<txn::Transaction>>& txns, Epoch epoch);
  friend class DigestAppendContext;
  friend class DigestInsertContext;

  // ---- Value pool routing (multi-size classes + cold tier) --------------------
  // Allocates a value block for `size` bytes from the smallest fitting class.
  vstore::ValueLoc AllocValue(std::uint32_t size, std::size_t core);
  // Maps a value offset back to its owning pool (disjoint areas).
  alloc::PersistentPool& ValuePoolForOffset(std::uint64_t offset);
  void FreeValue(std::size_t core, const vstore::ValueLoc& loc);
  void FreeValueGc(std::size_t core, const vstore::ValueLoc& loc);

  // Tier-aware value read (hot NVMM, inline, or cold block storage).
  void ReadVersionValue(vstore::PersistentRow& row, const vstore::VersionDesc& desc,
                        void* out, std::size_t core);

  // Cold-tier demotion (init phase; see DatabaseSpec::enable_cold_tier).
  void RunDemotions();
  // Walks back from an IGNOREd final slot to the latest non-ignored version
  // and checkpoints it (paper 4.6).
  void ResolveIgnoredFinal(vstore::RowEntry* entry, std::size_t core);
  void ProcessDelete(vstore::RowEntry* entry, std::size_t core);

  // Copies the row's latest pre-epoch value into the version array's initial
  // slot (append step).
  void FillInitialVersion(vstore::RowEntry* entry, vstore::VersionArray* va, std::size_t core);

  void PersistCounters(Epoch epoch, std::size_t core = 0);

  // Reusable per-core bounce buffer for tiered value reads (grows
  // geometrically, never shrinks); replaces per-call std::vector allocation
  // on the ReadRow/ReadPreEpoch hot paths.
  std::uint8_t* ScratchFor(std::size_t core, std::size_t size) {
    auto& buf = scratch_[core].buf;
    if (buf.size() < size) {
      buf.resize(std::max(size, buf.size() * 2));
    }
    return buf.data();
  }

  // ---- Epoch persistence tail (epoch.cc; DESIGN.md section 13) ---------------
  // Work handed from ExecuteEpoch to the tail thread at the cut point.
  struct TailWork {
    Epoch epoch = 0;
    EpochResult result;
    std::vector<TxnOutcome> outcomes;
  };
  // Runs epoch N's persistence tail — pool checkpoints, index-delta apply,
  // GC log, counters, the detached-line drain and the epoch-number flip —
  // at device core `core` (always spec_.workers). Throws CrashedException
  // when a crash hook fires.
  void RunTailPersist(Epoch epoch, std::size_t core);
  void ApplyIndexDeltas(Epoch epoch, std::size_t core);
  void TailThreadMain();
  // Hands the executed epoch to the tail thread. Requires JoinTail() first.
  void SubmitTail(TailWork work);
  // Waits for the in-flight tail, if any. False when the tail crashed.
  bool JoinTail();

  vstore::PersistentRow RowAt(const vstore::RowEntry* entry) {
    return vstore::PersistentRow(device_, entry->prow,
                                 tables_[entry->table]->schema().row_size);
  }

  // ---- Recovery (recovery.cc) ------------------------------------------------
  void ScanAndRebuild(RecoveryReport* report);
  void FastRebuildFromPersistentIndex(RecoveryReport* report);
  // Shared per-row crash repair + major-GC list rebuild (paper 4.5 / 5.5).
  void RepairAndCollectGc(vstore::PersistentRow& row, vstore::RowEntry* entry,
                          Epoch crashed_epoch, std::size_t core);

  // ---- Instant recovery internals (recovery.cc; DESIGN.md section 12) --------
  // Value of a pending key after one of its write slots executed (ascending
  // slot order). Histories are retained until the whole epoch retires so a
  // later-redone transaction can still read the value as of its own slot.
  struct RedoVersion {
    std::uint32_t slot;
    bool deleted;
    bool has_data;  // false only for insert-without-data (no committed value)
    std::vector<std::uint8_t> data;
  };
  struct RedoKey {
    std::vector<std::uint32_t> slots;  // ascending write slots from the digest
    std::vector<RedoVersion> history;  // values produced by executed slots
    std::vector<std::uint8_t> initial; // pre-epoch committed value
    bool initial_loaded = false;
    bool existed_pre_epoch = false;    // had a committed value before the epoch
    bool inserted = false;             // created by the crashed epoch's insert step
    std::uint32_t next = 0;            // next index into `slots` to execute
    bool retired = false;              // final state persisted to NVMM
  };
  struct InstantState {
    Epoch crashed_epoch = 0;
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    std::vector<std::uint8_t> txn_ran;  // slot executed (at most once, ever)
    // Inverted digest: slot -> keys it writes (drives write-order redo).
    std::vector<std::vector<std::pair<TableId, Key>>> slot_writes;
    std::vector<std::unordered_map<Key, RedoKey>> pending;  // per table
    std::size_t total_keys = 0;
    std::size_t retired_keys = 0;
    std::size_t txns_ran = 0;
    // Deterministic sweep order for the background backfill.
    std::vector<std::pair<TableId, Key>> key_order;
    std::size_t sweep_next = 0;
  };
  // Fast-phase setup: load the digest, build the pending-replay state.
  // Returns false (leaving *txns untouched) when the digest is absent, torn,
  // or inconsistent, in which case Recover() falls back to full replay.
  bool SetupInstantRecovery(std::vector<std::unique_ptr<txn::Transaction>>* txns,
                            Epoch crashed_epoch);
  // Foreground hook (caller holds instant_mu_ with instant_ live): redo
  // `key`'s slice of the crashed epoch if still pending. Throws
  // CrashedException if a crash hook fires.
  void RedoKeySliceLocked(TableId table, Key key, std::size_t core);
  StatusOr<std::uint32_t> ReadCommittedImpl(TableId table, Key key, void* out,
                                            std::uint32_t cap);
  // Under instant_mu_: execute key's write slots < bound (all of them when
  // bound == ~0u), retiring the key at full bound.
  void EnsureKeyRedoneLocked(TableId table, Key key, std::uint32_t bound,
                             std::size_t core);
  void RunRedoSlotLocked(std::uint32_t slot, std::size_t core);
  // Serial-order read for redo execution: key's value as of `reader_slot`.
  int RedoReadLocked(TableId table, Key key, std::uint32_t reader_slot, void* out,
                     std::uint32_t cap, std::size_t core);
  void LoadRedoInitialLocked(TableId table, Key key, RedoKey& rk, std::size_t core);
  void RetireKeyLocked(TableId table, Key key, RedoKey& rk, std::size_t core);
  // Backfill-all + leftover slots + crashed-epoch checkpoint; clears the
  // pending state. Throws CrashedException if a crash hook fires.
  void FinishInstantRecoveryLocked();

  friend class RedoExecContext;
  friend class RedoAppendContext;
  friend class RedoInsertContext;

  // Persisted major-GC list (with enable_persistent_index).
  struct GcLogHeader {
    std::uint32_t epoch;
    std::uint32_t count;
    std::uint32_t overflow;
    std::uint32_t reserved;
  };
  void WriteGcLog(Epoch epoch, std::size_t core);

  sim::NvmDevice& device_;
  sim::NvmDevice* cold_device_ = nullptr;
  DatabaseSpec spec_;
  Layout layout_;
  WorkerPool pool_;
  alloc::TransientPool transient_;
  std::vector<std::unique_ptr<alloc::PersistentPool>> value_pools_;  // ascending block size
  std::vector<std::unique_ptr<alloc::PersistentPool>> row_pools_;
  std::unique_ptr<alloc::PersistentPool> cold_pool_;  // on cold_device_ (optional)
  std::vector<std::unique_ptr<index::PersistentIndex>> pindexes_;  // per table (optional)
  std::vector<std::unique_ptr<index::TableIndex>> tables_;
  std::unique_ptr<InputLog> log_;
  std::unique_ptr<vstore::VersionCache> cache_;
  std::vector<std::atomic<std::uint64_t>> counters_;
  std::vector<std::uint64_t> counters_epoch_start_;
  EngineStats stats_;
  PhaseProfiler profiler_;

  Epoch current_epoch_ = 0;  // last completed epoch
  Epoch epoch_ = 0;          // epoch currently executing
  bool loaded_ = false;
  // Per-table round-robin core for bulk load: each table spreads over every
  // core's row-pool shard regardless of how loads interleave across tables.
  std::vector<std::size_t> load_rr_;

  // Per-epoch state.
  std::vector<std::unique_ptr<txn::Transaction>> owned_txns_;
  // txn_states_[i] belongs to owned_txns_[i]; resized and Reset each epoch
  // so the elements' containers keep their capacity.
  std::vector<TxnState> txn_states_;
  std::atomic<std::size_t> epoch_committed_{0};
  std::atomic<std::size_t> epoch_aborted_{0};
  struct IndexDelta {
    TableId table;
    bool is_delete;
    Key key;
    std::uint64_t prow;
  };
  struct alignas(kCacheLineSize) CoreEpochState {
    std::vector<vstore::RowEntry*> major_gc;   // rows to collect next epoch
    std::vector<vstore::RowEntry*> deleted;    // index removals at epoch end
    std::vector<IndexDelta> index_deltas;      // persistent-index batch (optional)
  };
  std::vector<CoreEpochState> core_state_;
  std::vector<std::vector<vstore::RowEntry*>> pending_major_gc_;  // consumed this epoch

  struct alignas(kCacheLineSize) CoreScratch {
    std::vector<std::uint8_t> buf;
  };
  std::vector<CoreScratch> scratch_;  // see ScratchFor()

  // Batch-append intent buffers: [owner core][collecting worker].
  struct BatchIntent {
    vstore::RowEntry* entry;
    std::uint64_t sid;
  };
  std::vector<std::vector<std::vector<BatchIntent>>> append_intents_;

  bool replaying_ = false;
  std::unordered_set<std::uint64_t> gc_dedup_;  // value offsets already freed by crashed GC

  // Instant recovery: pending-replay state for the crashed epoch. All redo
  // work (foreground on-demand and background backfill) serializes on
  // instant_mu_; instant_active_ is the lock-free fast-path gate.
  std::unique_ptr<InstantState> instant_;
  mutable std::mutex instant_mu_;
  std::atomic<bool> instant_active_{false};

  // Striped pending-key membership for the instant-recovery read gate.
  // Readers consult their key's stripe before touching instant_mu_, so reads
  // of retired (or never-pending) keys proceed without contending on the
  // global redo lock while redo/backfill work holds it. Entries are hash
  // counts (collision-safe); a key is erased only after RetireKeyLocked
  // persisted its final state.
  static constexpr std::size_t kInstantStripes = 64;
  struct alignas(kCacheLineSize) InstantStripe {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::uint32_t> pending;  // hash -> count
  };
  std::array<InstantStripe, kInstantStripes> instant_stripes_;
  InstantStripe& StripeFor(TableId table, Key key);
  bool InstantKeyPending(TableId table, Key key);
  void InstantStripeInsert(TableId table, Key key);
  void InstantStripeErase(TableId table, Key key);

  // Cold tier: rows whose cache entry aged out (demotion candidates for this
  // epoch) and hot-value blocks to free once the demoting epoch committed.
  std::vector<vstore::RowEntry*> demotion_candidates_;
  std::vector<vstore::ValueLoc> cold_frees_next_;  // freed in the NEXT epoch's GC
  std::vector<vstore::ValueLoc> cold_frees_due_;

  CrashHook crash_hook_;
  PostLogHook post_log_hook_;
  // Guards installation AND invocation of epoch_callback_ (the tail thread
  // invokes it concurrently with client threads calling SetEpochCallback).
  std::mutex callback_mu_;
  EpochCallback epoch_callback_;
  std::array<std::atomic<std::uint64_t>, kCrashSiteCount> site_reached_{};
  std::array<std::atomic<std::uint64_t>, kCrashSiteCount> site_fired_{};
  std::size_t last_log_bytes_ = 0;

  // Epoch persistence tail (DESIGN.md section 13). The tail thread is
  // started lazily by the first ExecuteEpoch and joined by the destructor.
  // tail_mu_ guards all tail_* fields below.
  std::thread tail_thread_;
  std::mutex tail_mu_;
  std::condition_variable tail_cv_;
  TailWork tail_work_;
  bool tail_inflight_ = false;
  bool tail_stop_ = false;
  bool tail_crashed_ = false;  // sticky: a crash hook fired on the tail thread
  // Stats-mirror cursor: device-counter snapshot taken at the end of the
  // previous tail (tail-thread-owned once the thread runs).
  sim::NvmCounters nvm_mirror_snapshot_;
  // Wall and thread-CPU time of the last completed tail, consumed (and
  // zeroed) by the next JoinTail for overlap accounting. Guarded by tail_mu_.
  std::uint64_t tail_last_dur_ns_ = 0;
  std::uint64_t tail_last_cpu_ns_ = 0;
  std::atomic<std::uint64_t> tail_cpu_total_ns_{0};  // see tail_cpu_ns()

  // Aria: transactions deferred by conflicts, re-queued at the front of the
  // next batch (deterministic from the batch composition).
  std::vector<std::unique_ptr<txn::Transaction>> aria_deferred_;

  struct CrashedException {};
};

}  // namespace nvc::core
