// Failure recovery (paper sections 4.3, 4.5, 5.4, 5.5, 6.2.3, 6.8).
//
// Recovery steps, each timed for the figure-11 breakdown:
//   1. load the crashed epoch's transactions from the NVMM input log;
//   2. revert the persistent allocator pools to the last checkpointed epoch
//      and scan every persistent row once, repairing intervening-crash
//      descriptor states, rebuilding the DRAM index, and rebuilding the
//      major-GC list (rows with two versions whose stale version is
//      non-inline); under RecoveryPolicy::kRevertAndReplay also reset every
//      version written by the crashed epoch (TPC-C's non-deterministic
//      order-id counters);
//   3. deterministically replay the crashed epoch using the regular
//      epoch-processing path, with an idempotence dedup set so re-run major
//      GC cannot double-free persistent values.
#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "src/core/database.h"

namespace nvc::core {
namespace {

constexpr std::uint64_t kMagic = 0x4e564341524143ULL;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

StatusOr<RecoveryReport> Database::Recover(const txn::TxnRegistry& registry) {
  return Recover(registry, RecoverOptions{});
}

StatusOr<Database::RecoveryPeek> Database::PeekRecovery() {
  device_.ChargeRead(layout_.superblock, sizeof(SuperBlock), 0);
  const auto* sb = device_.As<SuperBlock>(layout_.superblock);
  if (sb->magic != kMagic) {
    return Status::DataLoss("PeekRecovery: device is not a formatted NVCaracal database");
  }
  if (sb->table_count != spec_.tables.size()) {
    return Status::FailedPrecondition(
        "PeekRecovery: on-device layout has " + std::to_string(sb->table_count) +
        " tables but the spec has " + std::to_string(spec_.tables.size()));
  }
  RecoveryPeek peek;
  peek.checkpointed = static_cast<Epoch>(sb->epoch);
  peek.has_next_log =
      ModeLogsInputs(spec_.mode) && log_->HasCompleteEpoch(peek.checkpointed + 1, 0);
  return peek;
}

StatusOr<RecoveryReport> Database::Recover(const txn::TxnRegistry& registry,
                                           const RecoverOptions& options) {
  RecoveryReport report;
  const auto recover_start = std::chrono::steady_clock::now();
  device_.ChargeRead(layout_.superblock, sizeof(SuperBlock), 0);
  const auto* sb = device_.As<SuperBlock>(layout_.superblock);
  if (sb->magic != kMagic) {
    return Status::DataLoss("Recover: device is not a formatted NVCaracal database");
  }
  if (sb->table_count != spec_.tables.size()) {
    return Status::FailedPrecondition(
        "Recover: on-device layout has " + std::to_string(sb->table_count) +
        " tables but the spec has " + std::to_string(spec_.tables.size()));
  }
  const Epoch last_checkpointed = static_cast<Epoch>(sb->epoch);
  report.recovered_epoch = last_checkpointed;
  current_epoch_ = last_checkpointed;
  loaded_ = true;

  // Revert the persistent pools to the checkpointed offsets (5.4, 5.5).
  for (auto& pool : value_pools_) {
    pool->Recover(last_checkpointed);
  }
  for (auto& pool : row_pools_) {
    pool->Recover(last_checkpointed);
  }
  if (cold_pool_ != nullptr) {
    // The parity slots hold max'd bump offsets when a demotion batch made
    // its allocations non-revertible (see RunDemotions); blocks referenced
    // by durable descriptors therefore stay allocated.
    cold_pool_->Recover(last_checkpointed);
  }

  // Restore the deterministic-order counters from the checkpointed slot.
  if (!counters_.empty()) {
    const std::size_t slot = last_checkpointed & 1;
    const std::uint64_t base =
        layout_.counters + slot * counters_.size() * sizeof(std::uint64_t);
    device_.ChargeRead(base, counters_.size() * sizeof(std::uint64_t), 0);
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      counters_[i].store(*device_.As<std::uint64_t>(base + i * sizeof(std::uint64_t)),
                         std::memory_order_relaxed);
    }
  }

  // Step 1 — load the crashed epoch's inputs (complete logs only).
  auto load_start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<txn::Transaction>> replay_txns;
  const bool has_log = options.allow_replay && ModeLogsInputs(spec_.mode) &&
                       log_->LoadEpoch(last_checkpointed + 1, registry, &replay_txns, 0);
  report.load_txn_seconds = SecondsSince(load_start);
  report.replayed = has_log;
  report.replayed_txns = replay_txns.size();

  // Step 2 — rebuild the DRAM index. With the persistent NVMM index (and a
  // fully deterministic workload), the compact slot array replaces the full
  // row scan; otherwise scan every persistent row once.
  auto scan_start = std::chrono::steady_clock::now();
  bool fast_path = spec_.enable_persistent_index &&
                   spec_.recovery == RecoveryPolicy::kReplayInPlace;
  if (fast_path) {
    device_.ChargeRead(layout_.gc_log, sizeof(GcLogHeader), 0);
    const auto* gc_header = device_.As<GcLogHeader>(layout_.gc_log);
    if (gc_header->overflow != 0) {
      fast_path = false;  // persisted GC list overflowed: fall back to scan
    }
  }
  try {
    if (fast_path) {
      FastRebuildFromPersistentIndex(&report);
      report.used_persistent_index = true;
    } else {
      ScanAndRebuild(&report);
    }
  } catch (const CrashedException&) {
    // kMidOrderedIndexRebuild: the rebuild only mutated DRAM state plus
    // idempotent descriptor repairs, so a fresh Recover() over the crashed
    // device starts from the same checkpoint + log.
    return Status::Aborted("Recover: crash hook fired during index rebuild");
  }
  report.scan_rebuild_seconds = SecondsSince(scan_start) - report.revert_seconds;

  // Step 3a — instant recovery (DESIGN.md section 12): when a complete
  // replay digest exists, return now with the crashed epoch marked
  // pending-replay instead of replaying it. Accesses to unreplayed keys
  // trigger targeted redo (RedoKeySlice); the background backfill
  // (RunBackfillStep) retires the rest and checkpoints the epoch. The
  // superblock is NOT flipped here, so a second crash before backfill
  // completes recovers again from the same checkpoint + log + digest.
  if (has_log && spec_.enable_instant_recovery &&
      SetupInstantRecovery(&replay_txns, last_checkpointed + 1)) {
    auto fast_start = std::chrono::steady_clock::now();
    const Epoch crashed_epoch = last_checkpointed + 1;
    epoch_ = crashed_epoch;
    // The crashed epoch's prologue, exactly as replay would run it: pool
    // epoch boundaries, the counter snapshot, and — crucially — the major GC
    // pass (gc-dedup'd against the crashed run's non-revertible frees), so a
    // redo-retire final write never meets an uncollected non-inline stale
    // version.
    for (auto& pool : value_pools_) {
      pool->BeginEpoch();
    }
    for (auto& pool : row_pools_) {
      pool->BeginEpoch();
    }
    if (cold_pool_ != nullptr) {
      cold_pool_->BeginEpoch();
    }
    counters_epoch_start_.resize(counters_.size());
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      counters_epoch_start_[i] = counters_[i].load(std::memory_order_relaxed);
    }
    gc_dedup_.clear();
    for (auto& pool : value_pools_) {
      const auto window = pool->GcWindowEntries();
      gc_dedup_.insert(window.begin(), window.end());
    }
    for (std::size_t w = 0; w < spec_.workers; ++w) {
      pending_major_gc_[w] = std::move(core_state_[w].major_gc);
      core_state_[w].major_gc.clear();
    }
    replaying_ = true;
    try {
      RunMajorGc();
    } catch (const CrashedException&) {
      replaying_ = false;
      return Status::Aborted("Recover: crash hook fired during recovery GC");
    }
    replaying_ = false;
    instant_active_.store(true, std::memory_order_release);
    report.instant = true;
    report.replayed = true;  // the crashed epoch will be redone lazily
    report.replayed_txns = instant_->txns.size();
    report.backfill_pending_keys = instant_->total_keys;
    report.replay_seconds = SecondsSince(fast_start);
    report.time_to_first_commit = SecondsSince(recover_start);
    return report;
  }

  // Step 3b — deterministic full replay through the regular epoch path.
  if (has_log) {
    auto replay_start = std::chrono::steady_clock::now();
    gc_dedup_.clear();
    for (auto& pool : value_pools_) {
      const auto window = pool->GcWindowEntries();
      gc_dedup_.insert(window.begin(), window.end());
    }
    replaying_ = true;
    EpochResult result = ExecuteEpoch(std::move(replay_txns));
    // The replayed epoch must be checkpointed before control returns to the
    // caller: join its tail (a tail crash surfaces like any replay crash).
    const bool tail_ok = JoinTail();
    replaying_ = false;
    gc_dedup_.clear();
    if (result.crashed || !tail_ok) {
      return Status::Aborted("Recover: crash hook fired during replay");
    }
    report.replay_seconds = SecondsSince(replay_start);
  }
  report.time_to_first_commit = report.total_seconds();
  return report;
}

void Database::ScanAndRebuild(RecoveryReport* report) {
  for (auto& table : tables_) {
    table->Clear();
  }
  const Epoch crashed_epoch = current_epoch_ + 1;
  const Sid checkpoint_bound(Sid(crashed_epoch, 0).raw() - 1);
  const bool revert = spec_.recovery == RecoveryPolicy::kRevertAndReplay;

  std::atomic<std::size_t> rows_scanned{0};
  std::atomic<std::size_t> reverted{0};
  std::atomic<std::uint64_t> revert_nanos{0};

  for (std::size_t t = 0; t < row_pools_.size(); ++t) {
    alloc::PersistentPool& pool = *row_pools_[t];
    const std::size_t row_size = spec_.tables[t].row_size;
    const auto free_set = pool.BuildFreeSet();
    pool_.RunParallel([&, t, row_size](std::size_t w) {
      pool.ForEachAllocated(w, free_set, [&](std::uint64_t offset) {
        device_.ChargeRead(offset, row_size, w);
        vstore::PersistentRow row(device_, offset, row_size);
        vstore::PersistentRowHeader* h = row.header();
        if ((h->flags & vstore::kRowValid) == 0) {
          return;
        }
        rows_scanned.fetch_add(1, std::memory_order_relaxed);

        // TPC-C revert mode: reset versions written by the crashed epoch
        // before replay (6.2.3).
        if (revert && h->v[1].sid != 0 && Sid(h->v[1].sid).epoch() == crashed_epoch) {
          const auto revert_start = std::chrono::steady_clock::now();
          row.WriteDesc(1, Sid(0), vstore::ValueLoc{}, w);
          reverted.fetch_add(1, std::memory_order_relaxed);
          revert_nanos.fetch_add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - revert_start)
                  .count(),
              std::memory_order_relaxed);
        }

        bool created = false;
        vstore::RowEntry* entry = tables_[t]->GetOrCreate(h->key, &created);
        assert(created && "duplicate persistent row key during recovery scan");
        if (crash_hook_ && spec_.workers == 1 && spec_.tables[t].ordered) {
          // Crash with the ordered skiplist part-rebuilt (single-worker runs).
          MaybeCrash(CrashSite::kMidOrderedIndexRebuild);
        }
        entry->prow = offset;
        RepairAndCollectGc(row, entry, crashed_epoch, w);
        const int latest = row.LatestSlotAtOrBefore(checkpoint_bound);
        entry->latest_sid.store(latest >= 0 ? h->v[latest].sid : 0, std::memory_order_relaxed);
      });
    });
  }
  report->rows_scanned = rows_scanned.load(std::memory_order_relaxed);
  report->reverted_versions = reverted.load(std::memory_order_relaxed);
  report->revert_seconds =
      static_cast<double>(revert_nanos.load(std::memory_order_relaxed)) * 1e-9;
}

// Intervening-crash descriptor repairs (paper 4.5 cases 1 and 2; case 3 —
// a crashed-epoch SID in version 2 — is handled during replay by
// PersistFinal) and major-GC list rebuild (paper 5.5).
void Database::RepairAndCollectGc(vstore::PersistentRow& row, vstore::RowEntry* entry,
                                  Epoch crashed_epoch, std::size_t core) {
  vstore::PersistentRowHeader* h = row.header();
  if (h->v[0].sid != 0 && h->v[0].sid == h->v[1].sid &&
      Sid(h->v[0].sid).epoch() != crashed_epoch) {
    // Case 1: GC crashed while copying version 2 to version 1.
    if (h->v[0].loc != h->v[1].loc) {
      row.WriteDesc(0, Sid(h->v[0].sid), vstore::ValueLoc(h->v[1].loc), core);
    }
  }
  if (h->v[1].sid == 0 && h->v[1].loc != 0) {
    // Case 2: GC crashed while resetting version 2.
    row.WriteDesc(1, Sid(0), vstore::ValueLoc{}, core);
  }
  // Rows still carrying two versions whose stale version the minor collector
  // cannot handle go back on the major-GC list.
  if (h->v[0].sid != 0 && h->v[1].sid != 0 && !vstore::ValueLoc(h->v[1].loc).is_null() &&
      Sid(h->v[1].sid).epoch() != crashed_epoch) {
    const bool stale_inline = vstore::ValueLoc(h->v[0].loc).is_inline();
    if (!spec_.enable_minor_gc || !stale_inline) {
      core_state_[core].major_gc.push_back(entry);
    }
  }

  // Post-repair invariants (paper 4.5): no aliased pair with distinct value
  // locations may survive, a zero SID means a fully reset slot, and a live
  // two-version row must order stale before latest.
  assert(!(h->v[0].sid != 0 && h->v[0].sid == h->v[1].sid && h->v[0].loc != h->v[1].loc &&
           Sid(h->v[0].sid).epoch() != crashed_epoch) &&
         "repair left an aliased descriptor pair with diverging locations");
  assert(!(h->v[1].sid == 0 && h->v[1].loc != 0) &&
         "repair left a cleared version 2 with a dangling value location");
  assert((h->v[1].sid == 0 || h->v[0].sid == h->v[1].sid || h->v[0].sid < h->v[1].sid) &&
         "repair left version descriptors out of SID order");
}

// Fast recovery: rebuild the DRAM index from the persistent NVMM index and
// repair only the rows named by the persisted major-GC list — no full row
// scan. Latest-SID resolution is deferred to first access (lazy load in
// ReadRow).
void Database::FastRebuildFromPersistentIndex(RecoveryReport* report) {
  for (auto& table : tables_) {
    table->Clear();
  }
  const Epoch crashed_epoch = current_epoch_ + 1;
  std::size_t rows = 0;
  for (std::size_t t = 0; t < pindexes_.size(); ++t) {
    pindexes_[t]->ForEachLive(
        current_epoch_,
        [&](Key key, std::uint64_t prow) {
          bool created = false;
          vstore::RowEntry* entry = tables_[t]->GetOrCreate(key, &created);
          assert(created && "duplicate key in the persistent index");
          if (crash_hook_ && spec_.workers == 1 && spec_.tables[t].ordered) {
            // Crash with the ordered skiplist part-rebuilt from the
            // persistent index (single-worker runs).
            MaybeCrash(CrashSite::kMidOrderedIndexRebuild);
          }
          entry->prow = prow;
          entry->latest_sid.store(0, std::memory_order_relaxed);  // lazy
          ++rows;
        },
        0);
  }
  report->rows_scanned = rows;

  // Repair pass over exactly the rows the crashed epoch's major GC touched
  // (the list persisted at the last checkpoint, in its parity half).
  const auto* gc_header = device_.As<GcLogHeader>(layout_.gc_log);
  const std::uint64_t entries_base =
      layout_.gc_log + sizeof(GcLogHeader) +
      (gc_header->epoch & 1) * spec_.gc_log_capacity * sizeof(std::uint64_t);
  device_.ChargeRead(entries_base, gc_header->count * sizeof(std::uint64_t), 0);
  std::size_t core = 0;
  for (std::uint32_t i = 0; i < gc_header->count; ++i) {
    const std::uint64_t packed =
        *device_.As<std::uint64_t>(entries_base + i * sizeof(std::uint64_t));
    const auto table = static_cast<TableId>(packed >> 48);
    const std::uint64_t offset = packed & ((1ULL << 48) - 1);
    vstore::PersistentRow row(device_, offset, spec_.tables[table].row_size);
    device_.ChargeRead(offset, vstore::kRowHeaderSize, 0);
    vstore::RowEntry* entry = tables_[table]->Get(row.header()->key);
    if (entry == nullptr || entry->prow != offset) {
      continue;  // row deleted in the checkpointed epoch after being listed
    }
    RepairAndCollectGc(row, entry, crashed_epoch, core);
    core = (core + 1) % spec_.workers;
  }
}

// ---- Instant recovery: on-demand redo and background backfill ---------------
//
// The crashed epoch is replayed lazily, one transaction slot at a time, in
// strict serial order per key. The digest persisted next to the input log
// names every (table, key, txn-slot) write of the epoch; inverting it gives
// the slice of transactions any one key needs. Each slot executes at most
// once globally (txn_ran): redoing a key first redoes, recursively, every
// earlier slot of every key those transactions write, so histories stay
// slot-ascending and reads observe exactly the values the crashed run
// produced. A key whose slots have all executed is "retired": its final
// state is persisted through the same PersistFinal/ProcessDelete/InsertRow
// paths the epoch would have used, so every intermediate crash state is one
// the existing crash repair already handles — the superblock flips only in
// FinishInstantRecoveryLocked, after every key retired.
//
// All redo work serializes on instant_mu_; instant_active_ is the lock-free
// acquire-load gate the foreground fast path checks (branch-free once the
// backfill completes).

namespace {
constexpr std::uint32_t kRedoAllSlots = ~0u;
}  // namespace

// Per-slot execution state during redo (mirrors Database::TxnState).
struct RedoTxnState {
  std::uint32_t slot = 0;
  Sid sid;
  bool aborted = false;
  std::vector<std::pair<TableId, Key>> inserted;  // keys created by this slot
};

class RedoInsertContext final : public txn::InsertContext {
 public:
  RedoInsertContext(Database* db, RedoTxnState* st, std::size_t core)
      : db_(db), st_(st), core_(core) {}

  void InsertRow(TableId table, Key key, const void* data, std::uint32_t size) override {
    auto& pending = db_->instant_->pending[table];
    auto it = pending.find(key);
    assert(it != pending.end() && "insert missing from the replay digest");
    Database::RedoKey& rk = it->second;
    rk.inserted = true;
    rk.initial_loaded = true;  // rows inserted this epoch have no pre-epoch state
    rk.existed_pre_epoch = false;
    Database::RedoVersion v{st_->slot, false, data != nullptr, {}};
    if (data != nullptr) {
      v.data.assign(static_cast<const std::uint8_t*>(data),
                    static_cast<const std::uint8_t*>(data) + size);
    }
    rk.history.push_back(std::move(v));
    st_->inserted.emplace_back(table, key);
  }

  std::uint64_t CounterFetchAdd(txn::CounterId counter, std::uint64_t delta) override {
    return db_->counters_[counter].fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t CounterEpochStart(txn::CounterId counter) const override {
    return db_->counters_epoch_start_[counter];
  }
  std::uint64_t CounterFetchAddIfLess(txn::CounterId counter, std::uint64_t bound) override {
    std::uint64_t current = db_->counters_[counter].load(std::memory_order_relaxed);
    while (current < bound) {
      if (db_->counters_[counter].compare_exchange_weak(current, current + 1,
                                                        std::memory_order_relaxed)) {
        return current;
      }
    }
    return ~0ULL;
  }
  Sid sid() const override { return st_->sid; }

 private:
  Database* db_;
  RedoTxnState* st_;
  std::size_t core_;
};

class RedoAppendContext final : public txn::AppendContext {
 public:
  RedoAppendContext(Database* db, RedoTxnState* st, std::size_t core)
      : db_(db), st_(st), core_(core) {}

  // The write set was captured in the digest at log time; nothing to declare.
  void DeclareUpdate(TableId, Key) override {}
  void DeclareDelete(TableId, Key) override {}

  int ReadPreEpoch(TableId table, Key key, void* out, std::uint32_t cap) override {
    // Keys the crashed epoch wrote may already be retired to their
    // post-epoch state; their pre-epoch value is served from the snapshot
    // redo keeps. Untouched keys still hold pre-epoch state on NVMM.
    auto& pending = db_->instant_->pending[table];
    auto it = pending.find(key);
    if (it == pending.end()) {
      return db_->ReadPreEpoch(table, key, out, cap, core_);
    }
    Database::RedoKey& rk = it->second;
    if (!rk.initial_loaded) {
      db_->LoadRedoInitialLocked(table, key, rk, core_);
    }
    if (!rk.existed_pre_epoch) {
      return -1;
    }
    std::memcpy(out, rk.initial.data(), std::min<std::size_t>(cap, rk.initial.size()));
    return static_cast<int>(rk.initial.size());
  }
  Sid sid() const override { return st_->sid; }

 private:
  Database* db_;
  RedoTxnState* st_;
  std::size_t core_;
};

class RedoExecContext final : public txn::ExecContext {
 public:
  RedoExecContext(Database* db, RedoTxnState* st, std::size_t core)
      : db_(db), st_(st), core_(core) {}

  int Read(TableId table, Key key, void* out, std::uint32_t cap) override {
    return db_->RedoReadLocked(table, key, st_->slot, out, cap, core_);
  }
  void Write(TableId table, Key key, const void* data, std::uint32_t size) override {
    assert(!st_->aborted && "transaction wrote after aborting");
    Record(table, key,
           Database::RedoVersion{st_->slot, false, true,
                                 {static_cast<const std::uint8_t*>(data),
                                  static_cast<const std::uint8_t*>(data) + size}});
  }
  void Delete(TableId table, Key key) override {
    assert(!st_->aborted && "transaction deleted after aborting");
    Record(table, key, Database::RedoVersion{st_->slot, true, false, {}});
  }
  void Abort() override { st_->aborted = true; }
  bool FirstInRange(TableId table, Key lo, Key hi, Key* found) override {
    // Redo is not range-aware (rows inserted by the crashed epoch
    // materialize only at retire); DatabaseSpec::Validate rejects instant
    // recovery together with ordered tables.
    return db_->tables_[table]->FirstInRange(lo, hi, found);
  }
  bool LastInRange(TableId table, Key lo, Key hi, Key* found) override {
    return db_->tables_[table]->LastInRange(lo, hi, found);
  }
  std::uint64_t CounterEpochStart(txn::CounterId counter) const override {
    return db_->counters_epoch_start_[counter];
  }
  Sid sid() const override { return st_->sid; }

 private:
  void Record(TableId table, Key key, Database::RedoVersion v) {
    auto& pending = db_->instant_->pending[table];
    auto it = pending.find(key);
    assert(it != pending.end() && "write to a key missing from the replay digest");
    Database::RedoKey& rk = it->second;
    assert(rk.history.empty() || rk.history.back().slot <= v.slot);
    // A transaction rewriting its own slot replaces the published value —
    // except an insert-step version, which execute-phase writes stack above.
    if (!rk.history.empty() && rk.history.back().slot == v.slot &&
        !(rk.inserted && rk.history.size() == 1)) {
      rk.history.back() = std::move(v);
    } else {
      rk.history.push_back(std::move(v));
    }
  }

  Database* db_;
  RedoTxnState* st_;
  std::size_t core_;
};

bool Database::SetupInstantRecovery(std::vector<std::unique_ptr<txn::Transaction>>* txns,
                                    Epoch crashed_epoch) {
  std::vector<DigestEntry> digest;
  if (!log_->has_digest_area() || !log_->LoadDigest(crashed_epoch, &digest, 0)) {
    return false;
  }
  auto st = std::make_unique<InstantState>();
  st->crashed_epoch = crashed_epoch;
  st->txn_ran.assign(txns->size(), 0);
  st->slot_writes.resize(txns->size());
  st->pending.resize(tables_.size());
  for (const DigestEntry& e : digest) {
    if (e.table >= tables_.size() || e.slot >= txns->size()) {
      return false;  // digest inconsistent with the log: full replay instead
    }
    RedoKey& rk = st->pending[e.table][e.key];
    if (!rk.slots.empty() && rk.slots.back() == e.slot) {
      continue;  // duplicate declaration by the same transaction
    }
    assert(rk.slots.empty() || rk.slots.back() < e.slot);
    if (rk.slots.empty()) {
      st->key_order.emplace_back(e.table, e.key);
    }
    rk.slots.push_back(e.slot);
    st->slot_writes[e.slot].emplace_back(e.table, e.key);
  }
  st->total_keys = st->key_order.size();
  // Publish every pending key into the sharded reader gate before
  // instant_active_ flips on: ReadCommitted consults the stripes lock-free
  // of instant_mu_, so a key must never be pending here without its stripe
  // entry (the reverse — a stale stripe entry for a retired key — only
  // costs one needless instant_mu_ acquisition).
  for (const auto& [table, key] : st->key_order) {
    InstantStripeInsert(table, key);
  }
  st->txns = std::move(*txns);
  instant_ = std::move(st);
  return true;
}

void Database::RedoKeySliceLocked(TableId table, Key key, std::size_t core) {
  auto& pending = instant_->pending[table];
  auto it = pending.find(key);
  if (it == pending.end() || it->second.retired) {
    return;
  }
  MaybeCrash(CrashSite::kMidInstantRecoveryOnDemand);
  EnsureKeyRedoneLocked(table, key, kRedoAllSlots, core);
}

void Database::EnsureKeyRedoneLocked(TableId table, Key key, std::uint32_t bound,
                                     std::size_t core) {
  auto& pending = instant_->pending[table];
  auto it = pending.find(key);
  if (it == pending.end()) {
    return;
  }
  RedoKey& rk = it->second;
  while (rk.next < rk.slots.size() && rk.slots[rk.next] < bound) {
    const std::uint32_t slot = rk.slots[rk.next];
    if (instant_->txn_ran[slot]) {
      ++rk.next;  // defensive: RunRedoSlotLocked advances its write targets
      continue;
    }
    RunRedoSlotLocked(slot, core);
  }
  if (bound == kRedoAllSlots && !rk.retired) {
    RetireKeyLocked(table, key, rk, core);
  }
}

void Database::RunRedoSlotLocked(std::uint32_t slot, std::size_t core) {
  InstantState& st = *instant_;
  assert(!st.txn_ran[slot] && "transaction slot redone twice");
  // Serial order: every key this slot writes is first brought up to the slot
  // (the recursion strictly decreases the slot number, so it terminates).
  for (const auto& [t, k] : st.slot_writes[slot]) {
    EnsureKeyRedoneLocked(t, k, slot, core);
  }
  st.txn_ran[slot] = 1;
  ++st.txns_ran;

  RedoTxnState rst;
  rst.slot = slot;
  rst.sid = Sid(st.crashed_epoch, slot + 1);
  txn::Transaction* txn = st.txns[slot].get();
  RedoInsertContext ictx(this, &rst, core);
  txn->InsertStep(ictx);
  RedoAppendContext actx(this, &rst, core);
  txn->AppendStep(actx);
  RedoExecContext ectx(this, &rst, core);
  txn->Execute(ectx);
  if (rst.aborted) {
    // Aborted transactions discard the rows they inserted (PostExecute).
    for (const auto& [t, k] : rst.inserted) {
      RedoKey& rk = st.pending[t].find(k)->second;
      rk.history.push_back(RedoVersion{slot, true, false, {}});
    }
  }
  for (const auto& [t, k] : st.slot_writes[slot]) {
    RedoKey& rk = st.pending[t].find(k)->second;
    while (rk.next < rk.slots.size() && rk.slots[rk.next] <= slot) {
      ++rk.next;
    }
  }
}

int Database::RedoReadLocked(TableId table, Key key, std::uint32_t reader_slot, void* out,
                             std::uint32_t cap, std::size_t core) {
  auto& pending = instant_->pending[table];
  auto it = pending.find(key);
  if (it == pending.end()) {
    // Key untouched by the crashed epoch: its committed NVMM state IS the
    // pre-epoch state.
    vstore::RowEntry* entry = tables_[table]->Get(key);
    if (entry == nullptr || entry->prow == 0) {
      return -1;
    }
    vstore::PersistentRow row = RowAt(entry);
    device_.ChargeRead(entry->prow, vstore::kRowHeaderSize, core);
    const Sid bound(Sid(instant_->crashed_epoch, 0).raw() - 1);
    const int slot = row.LatestSlotAtOrBefore(bound);
    if (slot < 0) {
      return -1;
    }
    const vstore::VersionDesc desc = row.ReadDesc(slot);
    const vstore::ValueLoc loc(desc.loc);
    if (loc.size() <= cap) {
      ReadVersionValue(row, desc, out, core);
      return static_cast<int>(loc.size());
    }
    std::uint8_t* tmp = ScratchFor(core, loc.size());
    ReadVersionValue(row, desc, tmp, core);
    std::memcpy(out, tmp, cap);
    return static_cast<int>(loc.size());
  }

  RedoKey& rk = it->second;
  EnsureKeyRedoneLocked(table, key, reader_slot, core);
  for (auto h = rk.history.rbegin(); h != rk.history.rend(); ++h) {
    if (h->slot >= reader_slot) {
      continue;
    }
    if (h->deleted) {
      return -1;
    }
    if (!h->has_data) {
      continue;  // insert-without-data: no committed value yet (IGNORE)
    }
    std::memcpy(out, h->data.data(), std::min<std::size_t>(cap, h->data.size()));
    return static_cast<int>(h->data.size());
  }
  if (!rk.initial_loaded) {
    LoadRedoInitialLocked(table, key, rk, core);
  }
  if (!rk.existed_pre_epoch) {
    return -1;
  }
  std::memcpy(out, rk.initial.data(), std::min<std::size_t>(cap, rk.initial.size()));
  return static_cast<int>(rk.initial.size());
}

void Database::LoadRedoInitialLocked(TableId table, Key key, RedoKey& rk, std::size_t core) {
  rk.initial_loaded = true;
  rk.existed_pre_epoch = false;
  vstore::RowEntry* entry = tables_[table]->Get(key);
  if (entry == nullptr || entry->prow == 0) {
    return;
  }
  vstore::PersistentRow row = RowAt(entry);
  device_.ChargeRead(entry->prow, vstore::kRowHeaderSize, core);
  // Versions the crashed epoch already persisted (crash-repair case 3) carry
  // crashed-epoch SIDs and are skipped by the bound; their locations are
  // untrusted and rewritten at retire.
  const Sid bound(Sid(instant_->crashed_epoch, 0).raw() - 1);
  const int slot = row.LatestSlotAtOrBefore(bound);
  if (slot < 0) {
    return;
  }
  const vstore::VersionDesc desc = row.ReadDesc(slot);
  rk.existed_pre_epoch = true;
  rk.initial.resize(vstore::ValueLoc(desc.loc).size());
  ReadVersionValue(row, desc, rk.initial.data(), core);
}

void Database::RetireKeyLocked(TableId table, Key key, RedoKey& rk, std::size_t core) {
  assert(!rk.retired && rk.next == rk.slots.size() && "retire before all slots ran");
  const Epoch epoch = instant_->crashed_epoch;
  vstore::RowEntry* entry = tables_[table]->Get(key);
  if (rk.inserted) {
    // Mirror the insert step, then the final execute-phase write or delete
    // on top — byte- and pool-identical to what full replay produces.
    assert(entry == nullptr && "insert of an existing key during redo");
    const RedoVersion& ins = rk.history.front();
    entry = InsertRowInternal(table, key, ins.has_data ? ins.data.data() : nullptr,
                              static_cast<std::uint32_t>(ins.data.size()),
                              Sid(epoch, ins.slot + 1), core);
    const RedoVersion& fin = rk.history.back();
    if (&fin != &ins) {
      if (fin.deleted) {
        ProcessDelete(entry, core);
      } else {
        PersistFinalImpl(entry, Sid(epoch, fin.slot + 1), fin.data.data(),
                         static_cast<std::uint32_t>(fin.data.size()), core,
                         /*replay=*/true);
      }
    }
  } else if (!rk.history.empty()) {
    assert(entry != nullptr && "write redone for a missing row");
    const RedoVersion& fin = rk.history.back();
    if (fin.deleted) {
      ProcessDelete(entry, core);
    } else {
      PersistFinalImpl(entry, Sid(epoch, fin.slot + 1), fin.data.data(),
                       static_cast<std::uint32_t>(fin.data.size()), core,
                       /*replay=*/true);
    }
  }
  // No published writes at all (declared but ignored): the persistent row
  // already holds the committed state (paper 4.6's resolve-ignored rule).
  rk.retired = true;
  ++instant_->retired_keys;
  // Retired keys leave the striped reader gate: subsequent readers of this
  // key no longer serialize on instant_mu_. The final state above is
  // persisted before the erase, so a reader that misses the stripe entry
  // observes the retired row.
  InstantStripeErase(table, key);
}

void Database::FinishInstantRecoveryLocked() {
  InstantState& st = *instant_;
  const Epoch epoch = st.crashed_epoch;
  // 1. Retire every still-pending key, in digest (slot-major) order.
  while (st.sweep_next < st.key_order.size()) {
    const auto [table, key] = st.key_order[st.sweep_next];
    RedoKey& rk = st.pending[table].find(key)->second;
    if (!rk.retired) {
      MaybeCrash(CrashSite::kMidBackfill);
      EnsureKeyRedoneLocked(table, key, kRedoAllSlots, 0);
    }
    ++st.sweep_next;
  }
  // 2. Slots with no writes (read-only / counter-only transactions) never
  // ran through key redo; execute them for their counter effects.
  for (std::uint32_t slot = 0; slot < st.txn_ran.size(); ++slot) {
    if (!st.txn_ran[slot]) {
      RunRedoSlotLocked(slot, 0);
    }
  }
  // 3. Deferred index removals for retire-deleted rows (the crashed epoch's
  // epoch-end behavior).
  for (CoreEpochState& cs : core_state_) {
    for (vstore::RowEntry* entry : cs.deleted) {
      tables_[entry->table]->Remove(entry->key);
    }
    cs.deleted.clear();
  }
  // 4. The crashed epoch's checkpoint: pool offsets, index deltas, GC log,
  // counters, and finally the superblock flip — the durability point after
  // which a further crash recovers from the next epoch instead.
  CheckpointEpoch(epoch);
  current_epoch_ = epoch;
  instant_.reset();
  gc_dedup_.clear();
  // Every retire erased its stripe entry; clear defensively anyway so a
  // later instant-recovery window starts with an empty reader gate.
  for (InstantStripe& stripe : instant_stripes_) {
    std::lock_guard<std::mutex> lk(stripe.mu);
    stripe.pending.clear();
  }
  instant_active_.store(false, std::memory_order_release);
}

BackfillProgress Database::RecoveryProgress() const {
  std::lock_guard<std::mutex> lock(instant_mu_);
  BackfillProgress progress;
  if (instant_ == nullptr || !instant_active_.load(std::memory_order_relaxed)) {
    return progress;
  }
  const InstantState& st = *instant_;
  progress.pending = true;
  progress.crashed_epoch = st.crashed_epoch;
  progress.total_keys = st.total_keys;
  progress.pending_keys = st.total_keys - st.retired_keys;
  progress.replayed_txns = st.txns_ran;
  progress.total_txns = st.txns.size();
  return progress;
}

StatusOr<std::size_t> Database::RunBackfillStep(std::size_t max_keys) {
  std::lock_guard<std::mutex> lock(instant_mu_);
  if (instant_ == nullptr || !instant_active_.load(std::memory_order_relaxed)) {
    return static_cast<std::size_t>(0);
  }
  InstantState& st = *instant_;
  try {
    // Collect the next batch of pending keys, then prefetch their pre-epoch
    // values in parallel over the worker pool (read-only row loads on
    // disjoint keys), so the serial redo below avoids NVM read stalls.
    std::vector<std::pair<TableId, Key>> batch;
    for (std::size_t i = st.sweep_next;
         i < st.key_order.size() && batch.size() < max_keys; ++i) {
      const auto& [table, key] = st.key_order[i];
      if (!st.pending[table].find(key)->second.retired) {
        batch.push_back(st.key_order[i]);
      }
    }
    if (batch.size() > 1 && spec_.workers > 1) {
      pool_.RunParallel([&, this](std::size_t w) {
        for (std::size_t i = w; i < batch.size(); i += spec_.workers) {
          const auto& [table, key] = batch[i];
          RedoKey& rk = st.pending[table].find(key)->second;
          if (!rk.initial_loaded) {
            LoadRedoInitialLocked(table, key, rk, w);
          }
        }
      });
    }
    for (const auto& [table, key] : batch) {
      RedoKey& rk = st.pending[table].find(key)->second;
      if (rk.retired) {
        continue;  // retired as a side effect of an earlier key's redo
      }
      MaybeCrash(CrashSite::kMidBackfill);
      EnsureKeyRedoneLocked(table, key, kRedoAllSlots, 0);
    }
    while (st.sweep_next < st.key_order.size() &&
           st.pending[st.key_order[st.sweep_next].first]
                   .find(st.key_order[st.sweep_next].second)
                   ->second.retired) {
      ++st.sweep_next;
    }
    if (st.retired_keys < st.total_keys) {
      return st.total_keys - st.retired_keys;
    }
    FinishInstantRecoveryLocked();
    return static_cast<std::size_t>(0);
  } catch (const CrashedException&) {
    return Status::Aborted("crash hook fired during recovery backfill");
  }
}

Status Database::CompleteBackfill() {
  while (instant_recovery_pending()) {
    StatusOr<std::size_t> remaining = RunBackfillStep(256);
    if (!remaining.ok()) {
      return remaining.status();
    }
  }
  return Status::Ok();
}

}  // namespace nvc::core
