// Epoch-based deterministic transaction processing (paper Algorithm 1) and
// the row read/write paths (paper sections 4.1, 4.4, 4.5, 4.6).
#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/partition.h"
#include "src/core/database.h"

namespace nvc::core {
namespace {

// Sentinel latest_sid for rows deleted in the current epoch.
constexpr std::uint64_t kDeletedSid = ~0ULL;

// CPU time of the calling thread. The tail thread reports this alongside its
// wall time so profiler readers can separate tail work from preemption on
// oversubscribed hosts (wall includes timeslices lost to the foreground).
std::uint64_t ThreadCpuNs() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Spin-then-yield wait for a PENDING version. Yielding matters when workers
// outnumber cores: the writer thread needs CPU time to publish its value.
std::uint64_t WaitNonPending(std::atomic<std::uint64_t>& state) {
  std::uint64_t s = state.load(std::memory_order_acquire);
  int spins = 0;
  while (s == vstore::kPending) {
    if (++spins < 256) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
    s = state.load(std::memory_order_acquire);
  }
  return s;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

// ---- Engine-side phase contexts ---------------------------------------------

class EngineInsertContext final : public txn::InsertContext {
 public:
  EngineInsertContext(Database* db, Database::TxnState* st, std::size_t core)
      : db_(db), st_(st), core_(core) {}

  void InsertRow(TableId table, Key key, const void* data, std::uint32_t size) override {
    st_->inserted.push_back(db_->InsertRowInternal(table, key, data, size, st_->sid, core_));
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
  Database::TxnState* st_;
  std::size_t core_;
};

class EngineAppendContext final : public txn::AppendContext {
 public:
  EngineAppendContext(Database* db, Database::TxnState* st, std::size_t core)
      : db_(db), st_(st), core_(core) {}

  void DeclareUpdate(TableId table, Key key) override {
    db_->DeclareWrite(*st_, table, key, core_);
  }
  void DeclareDelete(TableId table, Key key) override {
    db_->DeclareWrite(*st_, table, key, core_);
  }
  int ReadPreEpoch(TableId table, Key key, void* out, std::uint32_t cap) override {
    return db_->ReadPreEpoch(table, key, out, cap, core_);
  }
  Sid sid() const override { return st_->sid; }

 private:
  Database* db_;
  Database::TxnState* st_;
  std::size_t core_;
};

class EngineExecContext final : public txn::ExecContext {
 public:
  EngineExecContext(Database* db, Database::TxnState* st, std::size_t core)
      : db_(db), st_(st), core_(core) {}

  int Read(TableId table, Key key, void* out, std::uint32_t cap) override {
    return db_->ReadRow(db_->ResolveRow(*st_, table, key), st_->sid, out, cap, core_);
  }
  void Write(TableId table, Key key, const void* data, std::uint32_t size) override {
    assert(!st_->aborted && "transaction wrote after aborting");
    db_->WriteRow(*st_, table, key, data, size, core_);
  }
  void Delete(TableId table, Key key) override {
    assert(!st_->aborted && "transaction deleted after aborting");
    db_->DeleteRow(*st_, table, key, core_);
  }
  void Abort() override { st_->aborted = true; }
  bool FirstInRange(TableId table, Key lo, Key hi, Key* found) override {
    return db_->tables_[table]->FirstInRange(lo, hi, found);
  }
  bool LastInRange(TableId table, Key lo, Key hi, Key* found) override {
    return db_->tables_[table]->LastInRange(lo, hi, found);
  }
  std::uint32_t Scan(const txn::ScanSpec& spec, const txn::ScanRowFn& fn) override {
    return db_->ExecScan(spec, st_->sid, fn, core_);
  }
  std::uint64_t CounterEpochStart(txn::CounterId counter) const override {
    return db_->counters_epoch_start_[counter];
  }
  Sid sid() const override { return st_->sid; }

 private:
  Database* db_;
  Database::TxnState* st_;
  std::size_t core_;
};

// ---- Replay-digest collection (instant recovery) ------------------------------
//
// Runs the insert and append declarations against side-effect-light contexts
// to enumerate the epoch's (table, key, slot) writes before execution. The
// counter state is a local snapshot so the real insert step later observes
// unchanged counters; pre-epoch reads go through the regular read path (cache
// side effects only, and the cache is not consulted for correctness). Serial
// slot order keeps the digest slot-ascending per key, which SetupInstantRecovery
// relies on to invert it.

class DigestInsertContext final : public txn::InsertContext {
 public:
  DigestInsertContext(Database* db, std::vector<DigestEntry>* out,
                      std::vector<std::uint64_t>* running,
                      const std::vector<std::uint64_t>* start, std::uint32_t slot, Sid sid)
      : db_(db), out_(out), running_(running), start_(start), slot_(slot), sid_(sid) {}

  void InsertRow(TableId table, Key key, const void*, std::uint32_t) override {
    out_->push_back(DigestEntry{key, table, slot_});
  }
  std::uint64_t CounterFetchAdd(txn::CounterId counter, std::uint64_t delta) override {
    const std::uint64_t v = (*running_)[counter];
    (*running_)[counter] += delta;
    return v;
  }
  std::uint64_t CounterEpochStart(txn::CounterId counter) const override {
    return (*start_)[counter];
  }
  std::uint64_t CounterFetchAddIfLess(txn::CounterId counter, std::uint64_t bound) override {
    std::uint64_t& current = (*running_)[counter];
    if (current < bound) {
      return current++;
    }
    return ~0ULL;
  }
  Sid sid() const override { return sid_; }

 private:
  Database* db_;
  std::vector<DigestEntry>* out_;
  std::vector<std::uint64_t>* running_;
  const std::vector<std::uint64_t>* start_;
  std::uint32_t slot_;
  Sid sid_;
};

class DigestAppendContext final : public txn::AppendContext {
 public:
  DigestAppendContext(Database* db, std::vector<DigestEntry>* out, std::uint32_t slot, Sid sid)
      : db_(db), out_(out), slot_(slot), sid_(sid) {}

  void DeclareUpdate(TableId table, Key key) override {
    out_->push_back(DigestEntry{key, table, slot_});
  }
  void DeclareDelete(TableId table, Key key) override {
    out_->push_back(DigestEntry{key, table, slot_});
  }
  int ReadPreEpoch(TableId table, Key key, void* out, std::uint32_t cap) override {
    return db_->ReadPreEpoch(table, key, out, cap, 0);
  }
  Sid sid() const override { return sid_; }

 private:
  Database* db_;
  std::vector<DigestEntry>* out_;
  std::uint32_t slot_;
  Sid sid_;
};

std::vector<DigestEntry> Database::CollectDigest(
    const std::vector<std::unique_ptr<txn::Transaction>>& txns, Epoch epoch) {
  std::vector<DigestEntry> entries;
  std::vector<std::uint64_t> start(counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    start[i] = counters_[i].load(std::memory_order_relaxed);
  }
  std::vector<std::uint64_t> running = start;
  for (std::size_t i = 0; i < txns.size(); ++i) {
    const Sid sid(epoch, static_cast<std::uint32_t>(i + 1));
    const auto slot = static_cast<std::uint32_t>(i);
    DigestInsertContext ictx(this, &entries, &running, &start, slot, sid);
    txns[i]->InsertStep(ictx);
    DigestAppendContext actx(this, &entries, slot, sid);
    txns[i]->AppendStep(actx);
  }
  return entries;
}

// ---- Epoch driver -------------------------------------------------------------

bool Database::MaybeCrash(CrashSite site) {
  const auto idx = static_cast<std::size_t>(site);
  site_reached_[idx].fetch_add(1, std::memory_order_relaxed);
  if (crash_hook_ && crash_hook_(site)) {
    site_fired_[idx].fetch_add(1, std::memory_order_relaxed);
    throw CrashedException{};
  }
  return false;
}

EpochResult Database::ExecuteEpoch(std::vector<std::unique_ptr<txn::Transaction>> txns) {
  if (spec_.concurrency == ConcurrencyControl::kAria) {
    return ExecuteEpochAria(std::move(txns));
  }
  assert(loaded_ && "call Format + FinalizeLoad (or Recover) first");

  // Instant recovery still pending: finish it before admitting a new epoch.
  // The crashed epoch's checkpoint must precede any new-epoch final write
  // (rows must never carry a newer SID than the durable epoch number), and
  // the new epoch must observe fully replayed state.
  if (instant_active_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(instant_mu_);
    if (instant_active_.load(std::memory_order_relaxed)) {
      profiler_.BeginEpoch(instant_->crashed_epoch);
      try {
        PhaseProfiler::ScopedPhase phase(profiler_, Phase::kRecoveryBackfill);
        FinishInstantRecoveryLocked();
      } catch (const CrashedException&) {
        profiler_.CancelEpoch();
        EpochResult result;
        result.epoch = instant_ != nullptr ? instant_->crashed_epoch : current_epoch_;
        result.crashed = true;
        return result;
      }
      profiler_.EndEpoch();
    }
  }

  // Pipelined epochs (DESIGN.md section 13): this epoch's front half — the
  // input-log/digest encode, which only touches the log's parity half that
  // the epoch before last has long drained — overlaps the previous epoch's
  // asynchronous persistence tail. Every phase that mutates NVMM or
  // engine-shared state waits for that tail (JoinTail below). Replay runs
  // the same loop; Recover joins its tail before returning.
  if (!tail_thread_.joinable()) {
    nvm_mirror_snapshot_ = device_.stats().Snapshot();
    tail_thread_ = std::thread(&Database::TailThreadMain, this);
  }

  const auto start = std::chrono::steady_clock::now();
  const Epoch epoch = current_epoch_ + 1;
  epoch_ = epoch;

  owned_txns_ = std::move(txns);
  txn_states_.resize(owned_txns_.size());
  for (std::size_t i = 0; i < txn_states_.size(); ++i) {
    txn_states_[i].Reset(owned_txns_[i].get(), Sid(epoch, static_cast<std::uint32_t>(i + 1)));
  }
  epoch_committed_.store(0, std::memory_order_relaxed);
  epoch_aborted_.store(0, std::memory_order_relaxed);

  EpochResult result;
  result.epoch = epoch;
  profiler_.BeginEpoch(epoch);
  try {
    // Input logging: all inputs durable before execution starts (4.3). The
    // replay path skips it — the crashed epoch's log is already durable.
    if (ModeLogsInputs(spec_.mode) && !replaying_) {
      PhaseProfiler::ScopedPhase phase(profiler_, Phase::kLogInputs);
      last_log_bytes_ = log_->LogEpochParallel(epoch, owned_txns_, pool_, profiler_);
      stats_.log_bytes.Add(0, last_log_bytes_);
      if (log_->has_digest_area()) {
        // The write-set digest must be durable alongside the log before
        // execution so a crash anywhere in this epoch can recover instantly.
        // An overflowing digest leaves its buffer invalidated and a crash in
        // this epoch falls back to full replay.
        log_->LogDigest(epoch, CollectDigest(owned_txns_, epoch), 0);
      }
    }
    MaybeCrash(CrashSite::kAfterLog);
    // The previous epoch's tail may still be persisting here.
    MaybeCrash(CrashSite::kMidOverlapExecute);

    // Multi-shard durability barrier (src/shard): no shard may start mutating
    // NVMM state for this epoch until every shard's input log is durable,
    // otherwise a crash could leave one shard executed and another without a
    // log to replay. The hook returning false means a peer shard crashed
    // before logging; surface it as this engine crashing here — the epoch is
    // logged but unexecuted, which global recovery resolves deterministically.
    if (post_log_hook_ && !replaying_ && !post_log_hook_(epoch)) {
      throw CrashedException{};
    }

    // Barrier against the previous epoch's tail: from here on this epoch
    // mutates pool allocator state, rows and version arrays, all of which
    // the tail checkpoints. A tail-thread crash surfaces as this epoch
    // crashing (nothing of this epoch escaped to NVMM yet except its log,
    // which recovery replays only after the previous epoch's state).
    if (!JoinTail()) {
      profiler_.CancelEpoch();
      result.crashed = true;
      return result;
    }
    // The previous epoch's transient state is dead: its tail never reads it.
    transient_.Reset();

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
    for (std::size_t w = 0; w < spec_.workers; ++w) {
      pending_major_gc_[w] = std::move(core_state_[w].major_gc);
      core_state_[w].major_gc.clear();
    }
    // Hot blocks vacated by the previous epoch's demotions become freeable
    // now that that epoch is checkpointed (their descriptors are durable).
    cold_frees_due_ = std::move(cold_frees_next_);
    cold_frees_next_.clear();

    RunInsertStep();
    MaybeCrash(CrashSite::kAfterInsert);

    RunMajorGc();

    if (spec_.enable_cache) {
      PhaseProfiler::ScopedPhase phase(profiler_, Phase::kCacheEvict);
      vstore::VersionCache::EvictCallback on_evict;
      if (spec_.enable_cold_tier) {
        on_evict = [this](vstore::RowEntry* entry) {
          demotion_candidates_.push_back(entry);
        };
      }
      cache_->EvictForEpoch(epoch, &stats_, on_evict);
    }
    if (spec_.enable_cold_tier) {
      RunDemotions();
    }

    RunAppendStep();
    MaybeCrash(CrashSite::kAfterAppend);

    RunExecutePhase();
    MaybeCrash(CrashSite::kAfterExecution);

    // Deferred index removals for rows whose final version was a tombstone.
    for (CoreEpochState& cs : core_state_) {
      for (vstore::RowEntry* entry : cs.deleted) {
        tables_[entry->table]->Remove(entry->key);
      }
      cs.deleted.clear();
    }

    // Cut point: all workers are quiesced, nothing else touches the device
    // until the next epoch's log encode. Hand the epoch's staged-but-
    // unfenced lines and its persistence tail to the tail thread and admit
    // the next epoch immediately. Outcomes are delivered to the epoch
    // callback once the epoch number is durable.
    TailWork work;
    work.outcomes.resize(txn_states_.size());
    for (std::size_t i = 0; i < txn_states_.size(); ++i) {
      work.outcomes[i] = txn_states_[i].aborted ? TxnOutcome::kAborted : TxnOutcome::kCommitted;
    }
    result.committed = epoch_committed_.load(std::memory_order_relaxed);
    result.aborted = epoch_aborted_.load(std::memory_order_relaxed);
    device_.DetachPending();
    owned_txns_.clear();
    current_epoch_ = epoch;
    result.seconds = SecondsSince(start);
    profiler_.EndEpoch();
    work.epoch = epoch;
    work.result = result;
    SubmitTail(std::move(work));
    return result;
  } catch (const CrashedException&) {
    JoinTail();  // quiesce the device so the harness can simulate the crash
    profiler_.CancelEpoch();
    result.crashed = true;
    return result;
  }
}

void Database::RunInsertStep() {
  PhaseProfiler::ScopedPhase phase(profiler_, Phase::kInsert);
  pool_.RunParallel([this](std::size_t w) {
    PhaseProfiler::WorkerScope span(profiler_, w);
    for (std::size_t i = w; i < txn_states_.size(); i += spec_.workers) {
      TxnState& st = txn_states_[i];
      EngineInsertContext ctx(this, &st, w);
      st.txn->InsertStep(ctx);
    }
  });
}

void Database::RunMajorGc() {
  bool any = !cold_frees_due_.empty();
  for (const auto& list : pending_major_gc_) {
    if (!list.empty()) {
      any = true;
      break;
    }
  }
  if (!any) {
    return;
  }
  PhaseProfiler::ScopedPhase phase(profiler_, Phase::kMajorGc);

  // Hot-tier blocks vacated by committed demotions (non-revertible frees,
  // same durability window as the GC frees below).
  for (const vstore::ValueLoc& loc : cold_frees_due_) {
    if (gc_dedup_.find(loc.offset()) == gc_dedup_.end()) {
      FreeValueGc(0, loc);
    }
  }
  cold_frees_due_.clear();

  // Pass 1 — append the stale non-inline values to the value-pool free list.
  pool_.RunParallel([this](std::size_t w) {
    PhaseProfiler::WorkerScope span(profiler_, w);
    for (vstore::RowEntry* entry : pending_major_gc_[w]) {
      vstore::PersistentRow row = RowAt(entry);
      const vstore::VersionDesc v0 = row.ReadDesc(0);
      const vstore::VersionDesc v1 = row.ReadDesc(1);
      if (v1.sid == 0 || vstore::ValueLoc(v1.loc).is_null() || v0.sid == 0) {
        continue;  // already collected (recovery re-run)
      }
      if (v0.sid == v1.sid) {
        // Aliased descriptors: an interrupted earlier collection already
        // copied version 2 over version 1 (and freed the old stale value,
        // durably — the GC-tail fence preceded the descriptor writes).
        // Only the reset remains; freeing here would free the live value.
        continue;
      }
      const vstore::ValueLoc stale(v0.loc);
      if (!stale.is_null() && !stale.is_inline()) {
        if (!replaying_ || gc_dedup_.find(stale.offset()) == gc_dedup_.end()) {
          FreeValueGc(w, stale);
        }
      }
    }
  });

  // GC frees are non-revertible: make them durable, with the current-tail
  // offsets, before execution can reuse the blocks (paper 5.5).
  for (auto& pool : value_pools_) {
    pool->PersistGcTail(0);
  }
  if (cold_pool_ != nullptr) {
    cold_pool_->PersistGcTail(0);
  }
  MaybeCrash(CrashSite::kDuringMajorGc);

  // Pass 2 — copy the checkpointed version to the stale slot and reset the
  // now-available slot (paper 4.5 ordering rules).
  const bool hook_pass2 = static_cast<bool>(crash_hook_) && spec_.workers == 1;
  pool_.RunParallel([this, hook_pass2](std::size_t w) {
    PhaseProfiler::WorkerScope span(profiler_, w);
    for (vstore::RowEntry* entry : pending_major_gc_[w]) {
      vstore::PersistentRow row = RowAt(entry);
      const vstore::VersionDesc v1 = row.ReadDesc(1);
      if (v1.sid == 0 || vstore::ValueLoc(v1.loc).is_null()) {
        continue;
      }
      row.StoreDesc(0, Sid(v1.sid), vstore::ValueLoc(v1.loc));
      if (hook_pass2) {
        // Crash with aliased descriptors: v0 == v1 and the reset still
        // pending — recovery must take the "already collected" repair branch
        // instead of freeing the live value.
        MaybeCrash(CrashSite::kDuringGcPass2);
      }
      row.StoreDesc(1, Sid(0), vstore::ValueLoc{});
      row.PersistDescs(0, 1, w);  // one persist covers both stores' line
      stats_.major_gc_runs.Add(w);
    }
    pending_major_gc_[w].clear();
  });
  MaybeCrash(CrashSite::kAfterGcPersist);
}

void Database::RunAppendStep() {
  if (spec_.enable_batch_append) {
    RunBatchAppendStep();
    return;
  }
  PhaseProfiler::ScopedPhase phase(profiler_, Phase::kAppend);
  pool_.RunParallel([this](std::size_t w) {
    PhaseProfiler::WorkerScope span(profiler_, w);
    for (std::size_t i = w; i < txn_states_.size(); i += spec_.workers) {
      TxnState& st = txn_states_[i];
      EngineAppendContext ctx(this, &st, w);
      st.txn->AppendStep(ctx);
    }
  });
}

// Caracal's batch-append optimization: collect (row, SID) intents per
// worker, repartition by row-owner core, then build each version array with
// one exact-capacity ascending fill — O(n log n) per owner instead of
// O(n^2) sorted insertion on hot rows.
void Database::RunBatchAppendStep() {
  if (append_intents_.empty()) {
    append_intents_.resize(spec_.workers);
    for (auto& per_worker : append_intents_) {
      per_worker.resize(spec_.workers);
    }
  }
  // Sub-phase 1: collect intents (DeclareWrite routes here in batch mode).
  {
    PhaseProfiler::ScopedPhase phase(profiler_, Phase::kAppendCollect);
    pool_.RunParallel([this](std::size_t w) {
      PhaseProfiler::WorkerScope span(profiler_, w);
      for (std::size_t i = w; i < txn_states_.size(); i += spec_.workers) {
        TxnState& st = txn_states_[i];
        EngineAppendContext ctx(this, &st, w);
        st.txn->AppendStep(ctx);
      }
    });
  }
  // Sub-phase 2: each owner core builds the version arrays of its rows.
  PhaseProfiler::ScopedPhase phase(profiler_, Phase::kAppendBuild);
  pool_.RunParallel([this](std::size_t owner) {
    PhaseProfiler::WorkerScope span(profiler_, owner);
    std::vector<BatchIntent> intents;
    std::size_t total = 0;
    for (const auto& bucket : append_intents_[owner]) {
      total += bucket.size();
    }
    intents.reserve(total);
    for (auto& bucket : append_intents_[owner]) {
      intents.insert(intents.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    std::sort(intents.begin(), intents.end(), [](const BatchIntent& a, const BatchIntent& b) {
      if (a.entry != b.entry) {
        return a.entry < b.entry;
      }
      return a.sid < b.sid;
    });
    std::size_t i = 0;
    while (i < intents.size()) {
      std::size_t j = i;
      while (j < intents.size() && intents[j].entry == intents[i].entry) {
        ++j;
      }
      vstore::RowEntry* entry = intents[i].entry;
      auto* va = vstore::VersionArray::CreateWithCapacity(
          transient_, owner, static_cast<std::uint32_t>(j - i));
      FillInitialVersion(entry, va, owner);
      for (std::size_t k = i; k < j; ++k) {
        va->Append(transient_, owner, Sid(intents[k].sid));  // ascending: O(1)
      }
      if (spec_.mode == EngineMode::kAllNvmm) {
        device_.ChargeSyntheticWrite((j - i) * sizeof(vstore::VersionEntry), owner);
      }
      entry->varray = va;
      entry->varray_epoch = epoch_;
      i = j;
    }
  });
}

void Database::RunExecutePhase() {
  PhaseProfiler::ScopedPhase phase(profiler_, Phase::kExecute);
  const bool hook_each_txn = static_cast<bool>(crash_hook_) && spec_.workers == 1;
  pool_.RunParallel([this, hook_each_txn](std::size_t w) {
    PhaseProfiler::WorkerScope span(profiler_, w);
    for (std::size_t i = w; i < txn_states_.size(); i += spec_.workers) {
      if (hook_each_txn) {
        MaybeCrash(CrashSite::kMidExecution);
      }
      TxnState& st = txn_states_[i];
      EngineExecContext ctx(this, &st, w);
      st.txn->Execute(ctx);
      PostExecute(st, w);
      if (st.aborted) {
        epoch_aborted_.fetch_add(1, std::memory_order_relaxed);
        stats_.txn_aborted.Add(w);
      } else {
        epoch_committed_.fetch_add(1, std::memory_order_relaxed);
        stats_.txn_committed.Add(w);
      }
    }
  });
}

// Synchronous persistence tail for callers that own the device outright
// (FinalizeLoad and the instant-recovery finish): the tail thread's
// RunTailPersist, run inline on the tail's device core.
void Database::CheckpointEpoch(Epoch epoch) {
  PhaseProfiler::ScopedPhase phase(profiler_, Phase::kCheckpoint);
  device_.DetachPending();
  RunTailPersist(epoch, spec_.workers);
}

// Applies the epoch's index deltas in a batch (section-7 extension). The
// per-slot epoch tags make a torn batch recoverable, and replay re-applies
// its deltas idempotently.
void Database::ApplyIndexDeltas(Epoch epoch, std::size_t core) {
  for (CoreEpochState& cs : core_state_) {
    for (const IndexDelta& delta : cs.index_deltas) {
      // Crash with the batch partially applied: the already-written slots
      // carry this (uncheckpointed) epoch's tag, so the fast rebuild must
      // ignore them and replay must re-apply the whole batch idempotently.
      MaybeCrash(CrashSite::kDuringIndexApply);
      if (delta.is_delete) {
        pindexes_[delta.table]->ApplyDelete(delta.key, epoch, core);
      } else {
        pindexes_[delta.table]->ApplyInsert(delta.key, delta.prow, epoch, core);
      }
    }
    cs.index_deltas.clear();
  }
}

// Persists the rows scheduled for major GC in the next epoch, so a crash
// during that GC can repair exactly the affected rows without a full scan.
// Entries go to the epoch-parity half and are fenced before the header flips
// to them, so a torn write never corrupts the half a durable header names.
void Database::WriteGcLog(Epoch epoch, std::size_t core) {
  auto* header = device_.As<GcLogHeader>(layout_.gc_log);
  const std::uint64_t entries_base =
      layout_.gc_log + sizeof(GcLogHeader) +
      (epoch & 1) * spec_.gc_log_capacity * sizeof(std::uint64_t);
  std::uint32_t count = 0;
  bool overflow = false;
  for (const CoreEpochState& cs : core_state_) {
    for (const vstore::RowEntry* entry : cs.major_gc) {
      if (count >= spec_.gc_log_capacity) {
        overflow = true;
        break;
      }
      // Pack the owning table into the high bits of the row offset.
      *device_.As<std::uint64_t>(entries_base + count * sizeof(std::uint64_t)) =
          (static_cast<std::uint64_t>(entry->table) << 48) | entry->prow;
      ++count;
    }
  }
  if (count > 0) {
    device_.Persist(entries_base, count * sizeof(std::uint64_t), core);
  }
  device_.Fence(core);
  header->epoch = epoch;
  header->count = count;
  header->overflow = overflow ? 1 : 0;
  device_.Persist(layout_.gc_log, sizeof(GcLogHeader), core);
}

// ---- Pipelined epoch tail (DESIGN.md section 13) -------------------------------

// The epoch's one durability point (paper 4.3-4.5, 5.5): checkpoint the
// pools, persist the index deltas, GC log and counters, then flip the epoch
// number. Fence ledger: cold fence (if cold tier), the GC log's interior
// fence (if persistent index), one fence per worker for the execute phase's
// detached lines, and the fence after the flip. On the tail thread it must
// not touch the profiler's epoch bracketing, the worker pool, or any
// per-epoch transient state: the next epoch's front half runs concurrently
// with all of it.
void Database::RunTailPersist(Epoch epoch, std::size_t core) {
  for (auto& pool : value_pools_) {
    pool->Checkpoint(epoch, core);
  }
  for (auto& pool : row_pools_) {
    pool->Checkpoint(epoch, core);
  }
  if (cold_pool_ != nullptr) {
    cold_pool_->Checkpoint(epoch, core);
    cold_device_->Fence(core);  // cold-pool checkpoint durable with this epoch
  }
  // Crash mid-tail: checkpoint shards staged but unfenced, the execute
  // phase's lines still detached — everything since the last durable header
  // reverts, while the next epoch's front half may be concurrently encoding
  // its (parity-disjoint) input log.
  MaybeCrash(CrashSite::kMidOverlapTailPersist);
  if (spec_.enable_persistent_index) {
    ApplyIndexDeltas(epoch, core);
    WriteGcLog(epoch, core);
  }
  PersistCounters(epoch, core);
  // The execute phase's final writes were detached at the cut point; retire
  // them with one fence per worker.
  device_.FenceDetached(spec_.workers, core);
  MaybeCrash(CrashSite::kBeforeEpochPersist);
  auto* sb = device_.As<SuperBlock>(layout_.superblock);
  sb->epoch = epoch;
  device_.Persist(layout_.superblock + offsetof(SuperBlock, epoch), sizeof(std::uint64_t),
                  core);
  device_.Fence(core);
}

void Database::TailThreadMain() {
  std::unique_lock<std::mutex> lock(tail_mu_);
  for (;;) {
    tail_cv_.wait(lock, [this] { return tail_stop_ || tail_inflight_; });
    if (!tail_inflight_) {
      return;  // tail_stop_ with nothing queued
    }
    TailWork work = std::move(tail_work_);
    lock.unlock();

    const auto tail_start = std::chrono::steady_clock::now();
    const std::uint64_t cpu_start = ThreadCpuNs();
    profiler_.BeginTailSpan(work.epoch);
    bool crashed = false;
    try {
      // Device core spec_.workers: never used by the foreground, so the
      // tail's staged persists and fences cannot collide with the next
      // epoch's log encode on the worker cores.
      RunTailPersist(work.epoch, spec_.workers);
    } catch (const CrashedException&) {
      crashed = true;
    }
    profiler_.EndTailSpan();
    const std::uint64_t cpu_ns = ThreadCpuNs() - cpu_start;
    const auto dur_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             tail_start)
            .count());

    if (!crashed) {
      // Mirror the device deltas since the previous tail into the engine
      // counters. The window telescopes across tails, so the cumulative
      // stats after WaitIdle equal the per-epoch sums; the per-tail split is
      // approximate (concurrent front-half charges land in whichever window
      // observes them).
      const sim::NvmCounters nvm_end = device_.stats().Snapshot();
      stats_.nvm_read_bytes.Add(0, nvm_end.read_bytes - nvm_mirror_snapshot_.read_bytes);
      stats_.nvm_read_lines.Add(0, nvm_end.read_granules - nvm_mirror_snapshot_.read_granules);
      stats_.nvm_write_bytes.Add(0, nvm_end.write_bytes - nvm_mirror_snapshot_.write_bytes);
      stats_.nvm_write_lines.Add(
          0, nvm_end.persisted_lines - nvm_mirror_snapshot_.persisted_lines);
      stats_.nvm_persist_ops.Add(0, nvm_end.persist_ops - nvm_mirror_snapshot_.persist_ops);
      stats_.nvm_fences.Add(0, nvm_end.fences - nvm_mirror_snapshot_.fences);
      nvm_mirror_snapshot_ = nvm_end;
      // Durable-notify before clearing tail_inflight_: a caller returning
      // from JoinTail/WaitIdle is guaranteed the callback already ran, so
      // clearing the callback after a join leaves no in-flight invocation.
      std::lock_guard<std::mutex> cb(callback_mu_);
      if (epoch_callback_) {
        epoch_callback_(work.result, work.outcomes);
      }
    }

    lock.lock();
    tail_last_dur_ns_ = dur_ns == 0 ? 1 : dur_ns;
    tail_last_cpu_ns_ = cpu_ns;
    tail_cpu_total_ns_.fetch_add(cpu_ns, std::memory_order_relaxed);
    if (crashed) {
      tail_crashed_ = true;
    }
    tail_inflight_ = false;
    tail_cv_.notify_all();
  }
}

void Database::SubmitTail(TailWork work) {
  std::lock_guard<std::mutex> lock(tail_mu_);
  assert(!tail_inflight_ && "SubmitTail without a preceding JoinTail");
  tail_work_ = std::move(work);
  tail_inflight_ = true;
  tail_cv_.notify_all();
}

bool Database::JoinTail() {
  std::unique_lock<std::mutex> lock(tail_mu_);
  const auto wait_start = std::chrono::steady_clock::now();
  tail_cv_.wait(lock, [this] { return !tail_inflight_; });
  if (tail_last_dur_ns_ != 0) {
    // Overlap accounting: the share of the tail's wall time this thread did
    // NOT spend blocked on it was overlapped with foreground work.
    const auto blocked_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             wait_start)
            .count());
    const std::uint64_t dur = tail_last_dur_ns_;
    profiler_.AddTailOverlap(dur, dur > blocked_ns ? dur - blocked_ns : 0, tail_last_cpu_ns_);
    tail_last_dur_ns_ = 0;
    tail_last_cpu_ns_ = 0;
  }
  return !tail_crashed_;
}

// ---- Row operations ------------------------------------------------------------

vstore::RowEntry* Database::InsertRowInternal(TableId table, Key key, const void* data,
                                              std::uint32_t size, Sid sid, std::size_t core) {
  const std::uint64_t prow_off = row_pools_[table]->Alloc(core);
  if (prow_off == 0) {
    throw std::runtime_error("row pool exhausted for table " + spec_.tables[table].name);
  }
  vstore::PersistentRow row(device_, prow_off, spec_.tables[table].row_size);
  row.Init(table, key);

  // The row persist covers the header, plus the inline value bytes when the
  // value lives in the row; the rest of the inline heap holds no referenced
  // bytes.
  std::uint64_t persist_end = prow_off + vstore::kRowHeaderSize;
  if (data != nullptr) {
    vstore::ValueLoc loc = row.FindInlineSpace(size);
    if (loc.is_null()) {
      loc = AllocValue(size, core);
      device_.WritePersist(loc.offset(), data, size, core);
    } else {
      std::memcpy(device_.At(loc.offset()), data, size);
      persist_end = loc.offset() + size;  // inline values follow the header
    }
    row.StoreDesc(0, sid, loc);
    if (loaded_) {
      stats_.persistent_writes.Add(core);  // bulk-loaded rows are not final writes
    }
  }
  device_.Persist(prow_off, persist_end - prow_off, core);

  bool created = false;
  vstore::RowEntry* entry = tables_[table]->GetOrCreate(key, &created);
  assert(created && "insert of an existing key");
  entry->prow = prow_off;
  entry->latest_sid.store(data != nullptr ? sid.raw() : 0, std::memory_order_release);
  if (spec_.enable_persistent_index) {
    core_state_[core].index_deltas.push_back(
        IndexDelta{.table = table, .is_delete = false, .key = key, .prow = prow_off});
  }
  return entry;
}

void Database::DeclareWrite(TxnState& st, TableId table, Key key, std::size_t core) {
  vstore::RowEntry* entry = tables_[table]->Get(key);
  assert(entry != nullptr && "write declared for a missing row");
  if (spec_.enable_batch_append) {
    // Batch mode: record an intent; the arrays are built in sub-phase 2.
    // The hashed filter replaces a linear rescan of the write set, which
    // was O(writes) per declaration (quadratic for wide transactions).
    if (st.declared.CheckAndInsert(entry)) {
      return;  // duplicate declaration by the same transaction
    }
    st.writes.push_back(entry);
    const std::size_t owner = PartitionOf(table, key, spec_.workers);
    append_intents_[owner][core].push_back(BatchIntent{entry, st.sid.raw()});
    return;
  }
  SpinLatchGuard guard(entry->latch);
  vstore::VersionArray* va = entry->ArrayForEpoch(epoch_);
  if (va == nullptr) {
    va = vstore::VersionArray::Create(transient_, core);
    FillInitialVersion(entry, va, core);
    entry->varray = va;
    entry->varray_epoch = epoch_;
  }
  if (va->FindSlot(st.sid) >= 0) {
    return;  // duplicate declaration by the same transaction
  }
  va->Append(transient_, core, st.sid);
  if (spec_.mode == EngineMode::kAllNvmm) {
    device_.ChargeSyntheticWrite(sizeof(vstore::VersionEntry), core);
  }
  st.writes.push_back(entry);
}

void Database::FillInitialVersion(vstore::RowEntry* entry, vstore::VersionArray* va,
                                  std::size_t core) {
  vstore::VersionEntry& init = va->entry(0);
  // From the DRAM cache when possible; the cached copy is deleted because the
  // row will be updated during the execution phase (paper 4.1).
  if (spec_.enable_cache) {
    vstore::CachedValue* cached = entry->cached.load(std::memory_order_acquire);
    if (cached != nullptr) {
      auto* tv = static_cast<vstore::TransientValue*>(
          transient_.Alloc(core, sizeof(vstore::TransientValue) + cached->size));
      tv->size = cached->size;
      std::memcpy(tv->data(), cached->data(), cached->size);
      entry->cache_dropped_epoch.store(epoch_, std::memory_order_relaxed);
      cache_->Drop(entry);
      init.state.store(reinterpret_cast<std::uint64_t>(tv), std::memory_order_release);
      return;
    }
  }
  // From the persistent row: the latest version checkpointed before this
  // epoch. During replay this bound also skips versions the crashed epoch
  // already wrote.
  if (entry->prow == 0) {
    init.state.store(vstore::kIgnore, std::memory_order_release);
    return;
  }
  vstore::PersistentRow row = RowAt(entry);
  int slot = row.LatestSlotAtOrBefore(Sid(Sid(epoch_, 0).raw() - 1));
  if (slot < 0) {
    // No pre-epoch version — but the row may have been inserted *with data*
    // in this very epoch (insert-step write to v0; paper 3.1.2's insert
    // optimization). That version is the initial one for later-SID readers;
    // the slot keeps the inserter's SID so earlier-SID readers skip it.
    // (A crashed epoch's *final* write always lands above an existing
    // version and is never mistaken for insert-step data here.)
    const vstore::VersionDesc v0 = row.ReadDesc(0);
    if (v0.sid != 0 && Sid(v0.sid).epoch() == epoch_ && !vstore::ValueLoc(v0.loc).is_null()) {
      init.sid = v0.sid;
      slot = 0;
    }
  }
  if (slot < 0) {
    init.state.store(vstore::kIgnore, std::memory_order_release);
    return;
  }
  const vstore::VersionDesc desc = row.ReadDesc(slot);
  const vstore::ValueLoc loc(desc.loc);
  auto* tv = static_cast<vstore::TransientValue*>(
      transient_.Alloc(core, sizeof(vstore::TransientValue) + loc.size()));
  tv->size = loc.size();
  ReadVersionValue(row, desc, tv->data(), core);
  if (spec_.mode == EngineMode::kAllNvmm) {
    device_.ChargeSyntheticWrite(loc.size(), core);
  }
  init.state.store(reinterpret_cast<std::uint64_t>(tv), std::memory_order_release);
}

vstore::RowEntry* Database::ResolveRow(const TxnState& st, TableId table, Key key) {
  if (st.writes.size() <= kWriteSetScanLimit) {
    for (vstore::RowEntry* entry : st.writes) {
      if (entry->key == key && entry->table == table) {
        return entry;
      }
    }
  }
  return tables_[table]->Get(key);
}

int Database::ReadRow(vstore::RowEntry* entry, Sid sid, void* out, std::uint32_t cap,
                      std::size_t core) {
  if (entry == nullptr) {
    return -1;
  }
  vstore::VersionArray* va = entry->ArrayForEpoch(epoch_);
  if (va != nullptr) {
    int i = va->LatestBefore(sid);
    while (i >= 0) {
      vstore::VersionEntry& ve = va->entry(static_cast<std::uint32_t>(i));
      const std::uint64_t s = WaitNonPending(ve.state);
      if (s == vstore::kIgnore) {
        --i;
        continue;
      }
      if (s == vstore::kTombstone) {
        return -1;
      }
      const auto* tv = reinterpret_cast<const vstore::TransientValue*>(s);
      if (spec_.mode == EngineMode::kAllNvmm) {
        device_.ChargeSyntheticRead(tv->size, core);
      }
      std::memcpy(out, tv->data(), std::min(cap, tv->size));
      return static_cast<int>(tv->size);
    }
    return -1;
  }

  // No writes to this row in the current epoch.
  std::uint64_t latest = entry->latest_sid.load(std::memory_order_acquire);
  if (latest == 0 && entry->prow != 0) {
    // Lazy load: fast (persistent-index) recovery rebuilds entries without
    // reading row descriptors; resolve the latest SID from NVMM once.
    vstore::PersistentRow prow_view = RowAt(entry);
    device_.ChargeRead(entry->prow, vstore::kRowHeaderSize, core);
    const int slot = prow_view.LatestSlotAtOrBefore(Sid(Sid(epoch_, 0).raw() - 1));
    if (slot >= 0) {
      latest = prow_view.ReadDesc(slot).sid;
      entry->latest_sid.store(latest, std::memory_order_release);
    }
  }
  if (latest == 0 || latest == kDeletedSid || latest >= sid.raw()) {
    return -1;  // never written, deleted, or born later in this epoch
  }
  if (spec_.enable_cache) {
    vstore::CachedValue* cached = entry->cached.load(std::memory_order_acquire);
    if (cached != nullptr) {
      cache_->Touch(entry, epoch_);
      stats_.cache_hits.Add(core);
      std::memcpy(out, cached->data(), std::min(cap, cached->size));
      return static_cast<int>(cached->size);
    }
    stats_.cache_misses.Add(core);
  }
  vstore::PersistentRow row = RowAt(entry);
  const vstore::VersionDesc v1 = row.ReadDesc(1);
  const vstore::VersionDesc desc =
      (v1.sid != 0 && !vstore::ValueLoc(v1.loc).is_null()) ? v1 : row.ReadDesc(0);
  if (desc.sid == 0 || vstore::ValueLoc(desc.loc).is_null()) {
    return -1;
  }
  const vstore::ValueLoc loc(desc.loc);
  if (loc.size() <= cap) {
    ReadVersionValue(row, desc, out, core);
    if (spec_.enable_cache) {
      // Populate the cache so hot rows pay the NVM read once (paper 4.1:
      // rows are cached when first accessed).
      SpinLatchGuard guard(entry->latch);
      if (entry->cached.load(std::memory_order_relaxed) == nullptr) {
        cache_->Put(entry, out, loc.size(), epoch_, core);
      }
    }
    return static_cast<int>(loc.size());
  }
  // Caller buffer too small: read through the per-core scratch buffer (no
  // per-call allocation on this hot path).
  std::uint8_t* tmp = ScratchFor(core, loc.size());
  ReadVersionValue(row, desc, tmp, core);
  std::memcpy(out, tmp, cap);
  return static_cast<int>(loc.size());
}

// Execution-phase ordered range scan at `sid` (Caracal path). The
// interval's entries are collected under the ordered latch first; the
// versioned read-back then runs latch-free — entries stay valid until the
// epoch ends (removals are deferred) and structural changes only happen
// outside the execution phase. Per-row visibility (insert SIDs, tombstones, IGNOREd
// finals) is decided by ReadRow exactly as for point reads, so replaying
// the logged batch reproduces the identical scan result; Caracal needs no
// separate phantom validation because the in-epoch key set is fixed before
// execution starts.
std::uint32_t Database::ExecScan(const txn::ScanSpec& spec, Sid sid,
                                 const txn::ScanRowFn& fn, std::size_t core) {
  CheckTableId(spec.table);
  if (!tables_[spec.table]->schema().ordered) {
    throw std::logic_error("Scan on table " + std::to_string(spec.table) +
                           " which is not TableSchema::ordered");
  }
  std::vector<vstore::RowEntry*> entries;
  tables_[spec.table]->ForRangeWhile(spec.lo, spec.hi,
                                     [&entries](Key, vstore::RowEntry* entry) {
                                       entries.push_back(entry);
                                       return true;
                                     });
  // Crash point between the interval collection and the versioned read-back
  // (the scan equivalent of kMidExecution; single-worker hook runs only).
  if (crash_hook_ && spec_.workers == 1) {
    MaybeCrash(CrashSite::kMidScanValidate);
  }
  std::uint32_t delivered = 0;
  std::vector<std::uint8_t> buf(256);
  for (vstore::RowEntry* entry : entries) {
    if (delivered >= spec.limit) {
      break;
    }
    int n = ReadRow(entry, sid, buf.data(), static_cast<std::uint32_t>(buf.size()), core);
    if (n < 0) {
      continue;  // not visible to this SID (tombstone / born later / absent)
    }
    if (static_cast<std::size_t>(n) > buf.size()) {
      buf.resize(static_cast<std::size_t>(n));
      n = ReadRow(entry, sid, buf.data(), static_cast<std::uint32_t>(buf.size()), core);
    }
    ++delivered;
    if (!fn(entry->key, buf.data(), static_cast<std::uint32_t>(n))) {
      break;
    }
  }
  return delivered;
}

int Database::ReadPreEpoch(TableId table, Key key, void* out, std::uint32_t cap,
                           std::size_t core) {
  vstore::RowEntry* entry = tables_[table]->Get(key);
  if (entry == nullptr || entry->prow == 0) {
    return -1;
  }
  // Runs during the append step, concurrently with version-array creation on
  // the same row (which drops the cached value under the row latch), so the
  // cached pointer must be copied out under the latch.
  if (spec_.enable_cache) {
    SpinLatchGuard guard(entry->latch);
    vstore::CachedValue* cached = entry->cached.load(std::memory_order_acquire);
    if (cached != nullptr) {
      cache_->Touch(entry, epoch_);
      stats_.cache_hits.Add(core);
      std::memcpy(out, cached->data(), std::min(cap, cached->size));
      return static_cast<int>(cached->size);
    }
    stats_.cache_misses.Add(core);
  }
  vstore::PersistentRow row = RowAt(entry);
  const int slot = row.LatestSlotAtOrBefore(Sid(Sid(epoch_, 0).raw() - 1));
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

void Database::WriteRow(TxnState& st, TableId table, Key key, const void* data,
                        std::uint32_t size, std::size_t core) {
  vstore::RowEntry* entry = ResolveRow(st, table, key);
  assert(entry != nullptr && "write to missing row");
  vstore::VersionArray* va = entry->ArrayForEpoch(epoch_);
  assert(va != nullptr && "write without declaration");
  const int slot = va->FindSlot(st.sid);
  assert(slot >= 0 && "write not declared in the append step");

  vstore::VersionEntry& ve = va->entry(static_cast<std::uint32_t>(slot));
  // Always publish a fresh buffer, even when this transaction already wrote
  // the slot: once the pointer is store-released, a reader at a later SID may
  // be mid-memcpy from it, and mutating the published bytes in place would
  // hand that reader a torn value. The transient pool is a per-epoch bump
  // allocator, so the superseded buffer is reclaimed at epoch end anyway.
  auto* tv = static_cast<vstore::TransientValue*>(
      transient_.Alloc(core, sizeof(vstore::TransientValue) + size));
  tv->size = size;
  std::memcpy(tv->data(), data, size);
  ve.state.store(reinterpret_cast<std::uint64_t>(tv), std::memory_order_release);

  if (va->IsFinal(st.sid)) {
    if (spec_.mode == EngineMode::kAllNvmm) {
      // The version-array value itself lives in NVMM in this baseline.
      device_.ChargeSyntheticWrite(size, core);
    }
    PersistFinal(entry, st.sid, data, size, core);
  } else {
    stats_.transient_writes.Add(core);
    if (ModeWritesThrough(spec_.mode)) {
      // Hybrid and all-NVMM baselines persist every update to NVMM (the
      // hybrid writes through to the row store; all-NVMM writes the version
      // value in place).
      device_.ChargeSyntheticWrite(size, core);
    }
  }
}

void Database::DeleteRow(TxnState& st, TableId table, Key key, std::size_t core) {
  vstore::RowEntry* entry = ResolveRow(st, table, key);
  assert(entry != nullptr && "delete of missing row");
  vstore::VersionArray* va = entry->ArrayForEpoch(epoch_);
  assert(va != nullptr && "delete without declaration");
  const int slot = va->FindSlot(st.sid);
  assert(slot >= 0 && "delete not declared in the append step");
  va->entry(static_cast<std::uint32_t>(slot))
      .state.store(vstore::kTombstone, std::memory_order_release);
  if (va->IsFinal(st.sid)) {
    ProcessDelete(entry, core);
  }
}

void Database::PostExecute(TxnState& st, std::size_t core) {
  // Aborted transactions discard any rows they inserted (deterministic on
  // replay because the same allocations and frees repeat).
  if (st.aborted) {
    for (vstore::RowEntry* entry : st.inserted) {
      ProcessDelete(entry, core);
    }
  }
  // Unwritten declared versions become IGNORE markers (covers user aborts and
  // conditionally-skipped writes), then an ignored final slot is resolved to
  // the latest non-ignored version (paper 4.6).
  for (vstore::RowEntry* entry : st.writes) {
    vstore::VersionArray* va = entry->ArrayForEpoch(epoch_);
    const int slot = va->FindSlot(st.sid);
    vstore::VersionEntry& ve = va->entry(static_cast<std::uint32_t>(slot));
    std::uint64_t expected = vstore::kPending;
    ve.state.compare_exchange_strong(expected, vstore::kIgnore, std::memory_order_release,
                                     std::memory_order_relaxed);
  }
  for (vstore::RowEntry* entry : st.writes) {
    vstore::VersionArray* va = entry->ArrayForEpoch(epoch_);
    if (va->IsFinal(st.sid) &&
        va->last().state.load(std::memory_order_acquire) == vstore::kIgnore) {
      ResolveIgnoredFinal(entry, core);
    }
  }
}

void Database::ResolveIgnoredFinal(vstore::RowEntry* entry, std::size_t core) {
  vstore::VersionArray* va = entry->ArrayForEpoch(epoch_);
  int i = static_cast<int>(va->count()) - 2;
  while (i >= 1) {
    vstore::VersionEntry& ve = va->entry(static_cast<std::uint32_t>(i));
    const std::uint64_t s = WaitNonPending(ve.state);
    if (s == vstore::kIgnore) {
      --i;
      continue;
    }
    if (s == vstore::kTombstone) {
      ProcessDelete(entry, core);
      return;
    }
    const auto* tv = reinterpret_cast<const vstore::TransientValue*>(s);
    PersistFinal(entry, Sid(ve.sid), tv->data(), tv->size, core);
    return;
  }
  // Only the initial version remains: the persistent row already holds it
  // (written in a previous epoch); just restore the cached copy (paper 4.6).
  const std::uint64_t s = va->entry(0).state.load(std::memory_order_acquire);
  if (va->entry(0).IsValuePointer(s) && spec_.enable_cache) {
    const auto* tv = reinterpret_cast<const vstore::TransientValue*>(s);
    cache_->Put(entry, tv->data(), tv->size, epoch_, core);
  }
}

void Database::PersistFinal(vstore::RowEntry* entry, Sid sid, const void* data,
                            std::uint32_t size, std::size_t core) {
  PersistFinalImpl(entry, sid, data, size, core, replaying_);
}

void Database::PersistFinalImpl(vstore::RowEntry* entry, Sid sid, const void* data,
                                std::uint32_t size, std::size_t core, bool replay) {
  // The cached value is created before the persistent write so other
  // transactions in later epochs can read it from DRAM (paper 4.1). Under
  // the selective policy, cold rows (single version this epoch, not already
  // cached) skip admission — creating cached versions costs memory and CPU
  // and is not always effective (paper 6.6).
  if (spec_.enable_cache) {
    bool admit = true;
    if (spec_.cache_policy == DatabaseSpec::CachePolicy::kHotOnly) {
      vstore::VersionArray* va = entry->ArrayForEpoch(epoch_);
      const bool hot_this_epoch = va != nullptr && va->count() > 2;  // initial + >1 write
      const bool was_cached =
          entry->cache_dropped_epoch.load(std::memory_order_relaxed) == epoch_;
      admit = hot_this_epoch || was_cached;
    }
    if (admit) {
      cache_->Put(entry, data, size, epoch_, core);
    }
  }
  entry->latest_sid.store(sid.raw(), std::memory_order_release);
  stats_.persistent_writes.Add(core);

  vstore::PersistentRow row = RowAt(entry);
  vstore::VersionDesc v0 = row.ReadDesc(0);
  vstore::VersionDesc v1 = row.ReadDesc(1);

  // Descriptor stores below keep their order; one persist of the slots they
  // touched follows the final store (they share one cache line).
  int first_slot = 1;
  int last_slot = 0;
  const auto store_desc = [&](int slot, Sid desc_sid, vstore::ValueLoc desc_loc) {
    row.StoreDesc(slot, desc_sid, desc_loc);
    first_slot = std::min(first_slot, slot);
    last_slot = std::max(last_slot, slot);
  };

  if (replay && v1.sid == sid.raw()) {
    // Crash-repair case 3: this transaction already claimed slot 1 before
    // the crash. Its value-pool allocation was reverted with the allocator
    // offsets, so the recorded location may be handed to another row during
    // replay — it must not be trusted or reused. Clear the location (the
    // paper: "the transaction overwrites the version, thus updating the
    // pointer") and write a freshly allocated value below.
    if (!vstore::ValueLoc(v1.loc).is_null()) {
      store_desc(1, sid, vstore::ValueLoc{});
    }
    v1 = vstore::VersionDesc{};
  }

  int target;
  if (v1.sid != 0 && !vstore::ValueLoc(v1.loc).is_null()) {
    // Two live versions: minor GC collects the stale first version in
    // place. Normally only reached when the stale version is inline —
    // non-inline stale versions were collected by the major collector
    // during initialization — except for aliased descriptors left by an
    // interrupted collection (v0 == v1), where the copy is a no-op and
    // nothing needs freeing.
    assert(v0.sid != 0);
    assert(vstore::ValueLoc(v0.loc).is_inline() || vstore::ValueLoc(v0.loc).is_null() ||
           v0.loc == v1.loc);
    stats_.minor_gc_runs.Add(core);
    store_desc(0, Sid(v1.sid), vstore::ValueLoc(v1.loc));
    store_desc(1, Sid(0), vstore::ValueLoc{});
    target = 1;
  } else if (v0.sid != 0) {
    target = 1;  // single version lives in slot 0; the new one goes above it
  } else {
    target = 0;  // fresh row (inserted without data this epoch)
  }

  vstore::ValueLoc loc = row.FindInlineSpace(size);
  if (loc.is_null()) {
    loc = AllocValue(size, core);
  }
  row.WriteValue(loc, data, size, core);
  store_desc(target, sid, loc);
  row.PersistDescs(first_slot, last_slot, core);

  // GC bookkeeping for the next epoch: if the row now carries two versions
  // and the stale one cannot be minor-collected at the next write (it is not
  // inline, or minor GC is disabled), schedule the major collector.
  const vstore::VersionDesc post0 = row.ReadDesc(0);
  const vstore::VersionDesc post1 = row.ReadDesc(1);
  if (post0.sid != 0 && post1.sid != 0 && !vstore::ValueLoc(post1.loc).is_null()) {
    const bool stale_inline = vstore::ValueLoc(post0.loc).is_inline();
    if (!spec_.enable_minor_gc || !stale_inline) {
      core_state_[core].major_gc.push_back(entry);
    }
  }
}

// Cold-tier demotion (initialization phase). For each row whose cached copy
// just aged out of the DRAM cache, move its single non-inline hot value to
// the cold device. Ordering makes every crash state valid without repairs:
// data + allocations become durable (non-revertibly) BEFORE any descriptor
// may reference a cold block, and the vacated hot blocks are freed only in
// the next epoch, after this epoch's checkpoint made the new descriptors
// durable. A crash in between leaks at most one batch (bounded; reclaimable
// offline).
void Database::RunDemotions() {
  if (demotion_candidates_.empty()) {
    return;
  }
  PhaseProfiler::ScopedPhase phase(profiler_, Phase::kDemotion);
  struct Demotion {
    vstore::RowEntry* entry;
    int slot;
    vstore::VersionDesc old_desc;
    vstore::ValueLoc new_loc;
  };
  // Eligibility + copy for one candidate on `core`; returns false when the
  // candidate is skipped, throws nothing. Cold-tier exhaustion is signalled
  // by *exhausted (the caller stops consuming its range).
  const auto try_demote = [this](vstore::RowEntry* entry, std::size_t core,
                                 std::vector<Demotion>* out, bool* exhausted) {
    if (entry->prow == 0 ||
        entry->latest_sid.load(std::memory_order_relaxed) == ~0ULL) {
      return;
    }
    vstore::PersistentRow row = RowAt(entry);
    const vstore::VersionDesc v0 = row.ReadDesc(0);
    const vstore::VersionDesc v1 = row.ReadDesc(1);
    // Demote the latest version's value. Two-version rows occur here only
    // when the stale first version is inline or cold (non-inline hot stale
    // versions were major-collected earlier this epoch), so the latest is
    // v1; otherwise the single version lives in v0.
    int slot;
    vstore::VersionDesc target;
    if (v1.sid != 0 && !vstore::ValueLoc(v1.loc).is_null()) {
      const vstore::ValueLoc stale(v0.loc);
      if (!stale.is_null() && !stale.is_inline() && !stale.is_cold()) {
        return;  // awaiting major GC; skip defensively
      }
      slot = 1;
      target = v1;
    } else {
      slot = 0;
      target = v0;
    }
    const vstore::ValueLoc loc(target.loc);
    if (target.sid == 0 || loc.is_null() || loc.is_inline() || loc.is_cold() ||
        loc.size() > spec_.cold_block_size) {
      return;
    }
    const std::uint64_t cold_offset = cold_pool_->Alloc(core);
    if (cold_offset == 0) {
      *exhausted = true;  // this core's cold shard is full
      return;
    }
    device_.ChargeRead(loc.offset(), loc.size(), core);
    cold_device_->WritePersist(cold_offset, device_.At(loc.offset()), loc.size(), core);
    out->push_back(Demotion{entry, slot, target,
                            vstore::ValueLoc::Make(false, loc.size(), cold_offset,
                                                   /*is_cold=*/true)});
  };

  // Read+copy fans out: each worker copies a contiguous candidate range to
  // cold blocks from its own per-core cold shard. No descriptor is touched
  // yet, so worker order is free.
  std::vector<std::vector<Demotion>> batches(spec_.workers);
  pool_.RunParallel([&, this](std::size_t w) {
    PhaseProfiler::WorkerScope span(profiler_, w);
    const Range r = SplitRange(demotion_candidates_.size(), spec_.workers, w);
    bool exhausted = false;
    for (std::size_t i = r.begin; i < r.end && !exhausted; ++i) {
      try_demote(demotion_candidates_[i], w, &batches[w], &exhausted);
    }
  });
  demotion_candidates_.clear();
  bool any = false;
  for (const auto& batch : batches) {
    any = any || !batch.empty();
  }
  if (!any) {
    return;
  }
  // Crash before the durability point: the copied cold data and bump pointer
  // are not fenced yet, so recovery must still see every descriptor pointing
  // at its hot value.
  MaybeCrash(CrashSite::kDuringDemotion);
  // Durability point: cold data + allocations survive any crash from here on,
  // so descriptors may reference them. The workers staged their cold
  // persists per core; one cross-core barrier retires them all.
  cold_device_->FenceAll(0);
  cold_pool_->PersistBumpNonRevertible(0);
  const bool hook_tail = static_cast<bool>(crash_hook_) && spec_.workers == 1;
  pool_.RunParallel([&, this](std::size_t w) {
    PhaseProfiler::WorkerScope span(profiler_, w);
    for (const Demotion& demotion : batches[w]) {
      vstore::PersistentRow row = RowAt(demotion.entry);
      row.WriteDesc(demotion.slot, Sid(demotion.old_desc.sid), demotion.new_loc, w);
      stats_.demotions.Add(w);
      if (hook_tail) {
        // Crash mid-batch: some descriptors already name cold locations,
        // the rest still name hot ones; both must read back correctly
        // after recovery.
        MaybeCrash(CrashSite::kDuringDemotion);
      }
    }
  });
  // Vacated hot blocks free in the NEXT epoch (after this epoch's checkpoint
  // made the new descriptors durable). Worker-major order == candidate order
  // (ranges are contiguous).
  for (const auto& batch : batches) {
    for (const Demotion& demotion : batch) {
      cold_frees_next_.push_back(vstore::ValueLoc(demotion.old_desc.loc));
    }
  }
}

void Database::ProcessDelete(vstore::RowEntry* entry, std::size_t core) {
  vstore::PersistentRow row = RowAt(entry);
  for (int slot = 0; slot < 2; ++slot) {
    const vstore::VersionDesc desc = row.ReadDesc(slot);
    const vstore::ValueLoc loc(desc.loc);
    if (desc.sid != 0 && !loc.is_null() && !loc.is_inline()) {
      // Transaction-logic deletions are revertible (paper 5.5).
      FreeValue(core, loc);
    }
  }
  row_pools_[entry->table]->Free(core, entry->prow);
  if (spec_.enable_cache) {
    cache_->Drop(entry);
  }
  entry->latest_sid.store(kDeletedSid, std::memory_order_release);
  core_state_[core].deleted.push_back(entry);
  if (spec_.enable_persistent_index) {
    // Delta ordering: a key inserted and deleted in the same epoch must see
    // insert-before-delete at application time. Inserts happen in the insert
    // step on the inserting transaction's worker and a same-epoch delete of
    // that key only occurs on the same transaction's abort path (same
    // worker), so per-core ordering suffices.
    core_state_[core].index_deltas.push_back(
        IndexDelta{.table = entry->table, .is_delete = true, .key = entry->key, .prow = 0});
  }
}

}  // namespace nvc::core
