// Aria-style deterministic concurrency control (paper section 7 future
// work; Lu et al., VLDB '20) integrated with the NVMM dual-version
// checkpointing machinery.
//
// Epoch pipeline (contrast with Algorithm 1's Caracal pipeline):
//
//   log_transaction_inputs()        whole batch, deferred txns included
//   execute phase                   every transaction runs against the last
//                                   epoch's snapshot; writes are buffered
//                                   privately; write keys are reserved with
//                                   an atomic min-SID per key
//   commit phase                    a transaction commits iff none of its
//                                   read or written keys carries a smaller
//                                   writer reservation (no RAW, lowest-SID
//                                   writer wins WAW); losers are deferred
//                                   deterministically to the next batch
//   GC_major() / evict / demote     init-phase NVMM work, after the commit
//                                   phase so the execute+commit half can
//                                   overlap the previous epoch's persistence
//                                   tail under pipelining (reads only see the
//                                   latest versions, which GC never moves)
//   apply phase                     committed buffered writes are applied —
//                                   at most one writer per key, so each key
//                                   is written to NVMM exactly once per
//                                   epoch through the same PersistFinal /
//                                   insert / delete paths as Caracal mode
//   fence(); persist_epoch_number(); fence()
//
// Because conflict resolution is a pure function of the batch, replaying the
// logged batch after a crash commits the same transactions and defers the
// same ones — the standard recovery machinery (allocator revert, descriptor
// repairs, case-3 overwrites) applies unchanged.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/hash.h"
#include "src/common/partition.h"
#include "src/core/database.h"

namespace nvc::core {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Sharded reservation table: (table, key) -> minimum writer SID. Reservation
// keys are hashed; a collision only merges reservations, which can defer a
// transaction unnecessarily but never misses a conflict (conservative and
// still deterministic). Ordered tables additionally keep exact per-key
// reservations in a sorted map so scan validation can ask for the minimum
// writer inside a key interval (the phantom check).
class ReservationTable {
 public:
  // `ordered_tables[t]` marks tables whose reservations also feed the
  // range-queryable side structure.
  explicit ReservationTable(std::vector<bool> ordered_tables, std::size_t shards = 16)
      : shards_(shards), ordered_tables_(std::move(ordered_tables)) {
    range_min_.resize(ordered_tables_.size());
  }

  void ReserveWrite(TableId table, Key key, Sid sid) {
    Shard& shard = ShardFor(table, key);
    {
      SpinLatchGuard guard(shard.latch);
      auto [it, inserted] = shard.min_writer.try_emplace(HashKey(table, key), sid.raw());
      if (!inserted && sid.raw() < it->second) {
        it->second = sid.raw();
      }
    }
    if (table < ordered_tables_.size() && ordered_tables_[table]) {
      SpinLatchGuard guard(range_latch_);
      auto [it, inserted] = range_min_[table].try_emplace(key, sid.raw());
      if (!inserted && sid.raw() < it->second) {
        it->second = sid.raw();
      }
    }
  }

  // The smallest writer SID reserved on the key, or 0 when none.
  std::uint64_t MinWriter(TableId table, Key key) {
    Shard& shard = ShardFor(table, key);
    SpinLatchGuard guard(shard.latch);
    auto it = shard.min_writer.find(HashKey(table, key));
    return it == shard.min_writer.end() ? 0 : it->second;
  }

  // The smallest writer SID reserved on any key in [lo, hi] of an ordered
  // table, or 0 when none (exact keys — no hash collisions here, so a scan
  // only defers on a genuine interval overlap).
  std::uint64_t MinWriterInRange(TableId table, Key lo, Key hi) {
    SpinLatchGuard guard(range_latch_);
    std::uint64_t min_sid = 0;
    const auto& m = range_min_[table];
    for (auto it = m.lower_bound(lo); it != m.end() && it->first <= hi; ++it) {
      if (min_sid == 0 || it->second < min_sid) {
        min_sid = it->second;
      }
    }
    return min_sid;
  }

  void Clear() {
    for (Shard& shard : shards_) {
      shard.min_writer.clear();
    }
    for (auto& m : range_min_) {
      m.clear();
    }
  }

 private:
  struct alignas(kCacheLineSize) Shard {
    SpinLatch latch;
    std::unordered_map<std::uint64_t, std::uint64_t> min_writer;
  };
  Shard& ShardFor(TableId table, Key key) {
    return shards_[PartitionOf(table, key, shards_.size())];
  }
  std::vector<Shard> shards_;
  std::vector<bool> ordered_tables_;
  SpinLatch range_latch_;
  std::vector<std::map<Key, std::uint64_t>> range_min_;  // per ordered table
};

struct BufferedOp {
  enum Kind { kWrite, kInsert, kDelete } kind;
  TableId table;
  Key key;
  std::vector<std::uint8_t> data;
};

struct AriaTxnState {
  txn::Transaction* txn = nullptr;
  Sid sid;
  bool user_aborted = false;
  bool deferred = false;
  std::vector<std::pair<TableId, Key>> reads;
  std::vector<BufferedOp> writes;
  // Observed scan intervals ([lo, hi] clamped to the last delivered key when
  // the scan stopped early); validated against the reservation table's
  // ordered side in the commit phase (phantom check).
  std::vector<txn::ScanSpec> scans;
};

}  // namespace

// Snapshot reads + private write buffering.
class AriaExecContext final : public txn::ExecContext {
 public:
  AriaExecContext(Database* db, AriaTxnState* st, std::size_t core)
      : db_(db), st_(st), core_(core) {}

  int Read(TableId table, Key key, void* out, std::uint32_t cap) override {
    // Read-your-own-writes from the buffer first (latest op wins).
    for (auto it = st_->writes.rbegin(); it != st_->writes.rend(); ++it) {
      if (it->table == table && it->key == key) {
        if (it->kind == BufferedOp::kDelete) {
          return -1;
        }
        std::memcpy(out, it->data.data(), std::min<std::size_t>(cap, it->data.size()));
        return static_cast<int>(it->data.size());
      }
    }
    st_->reads.emplace_back(table, key);
    return db_->AriaSnapshotRead(table, key, out, cap, core_);
  }

  void Write(TableId table, Key key, const void* data, std::uint32_t size) override {
    st_->writes.push_back(BufferedOp{
        BufferedOp::kWrite, table, key,
        std::vector<std::uint8_t>(static_cast<const std::uint8_t*>(data),
                                  static_cast<const std::uint8_t*>(data) + size)});
  }

  void Insert(TableId table, Key key, const void* data, std::uint32_t size) override {
    st_->writes.push_back(BufferedOp{
        BufferedOp::kInsert, table, key,
        std::vector<std::uint8_t>(static_cast<const std::uint8_t*>(data),
                                  static_cast<const std::uint8_t*>(data) + size)});
  }

  void Delete(TableId table, Key key) override {
    st_->writes.push_back(BufferedOp{BufferedOp::kDelete, table, key, {}});
  }

  void Abort() override { st_->user_aborted = true; }

  bool FirstInRange(TableId table, Key lo, Key hi, Key* found) override {
    return db_->tables_[table]->FirstInRange(lo, hi, found);
  }
  bool LastInRange(TableId table, Key lo, Key hi, Key* found) override {
    return db_->tables_[table]->LastInRange(lo, hi, found);
  }

  // Snapshot range scan merged with this transaction's own buffered writes
  // (read-your-own-writes; buffered deletes hide the key). The observed
  // interval — [lo, hi], clamped to the last delivered key when the scan
  // stopped early — is recorded for the commit phase's phantom check: any
  // smaller-SID write reservation inside it defers this transaction, because
  // in serial order that write would have changed what the scan returned.
  std::uint32_t Scan(const txn::ScanSpec& spec, const txn::ScanRowFn& fn) override {
    if (!db_->tables_[spec.table]->schema().ordered) {
      throw std::logic_error("Scan on table " + std::to_string(spec.table) +
                             " which is not TableSchema::ordered");
    }
    std::map<Key, const BufferedOp*> own;  // latest buffered op per key
    for (const BufferedOp& op : st_->writes) {
      if (op.table == spec.table && op.key >= spec.lo && op.key <= spec.hi) {
        own[op.key] = &op;
      }
    }
    std::vector<Key> snapshot;
    db_->tables_[spec.table]->ForRangeWhile(
        spec.lo, spec.hi, [&snapshot](Key key, vstore::RowEntry*) {
          snapshot.push_back(key);
          return true;
        });
    std::uint32_t delivered = 0;
    Key observed_hi = spec.hi;
    std::vector<std::uint8_t> buf(256);
    std::size_t si = 0;
    auto oi = own.begin();
    while (si < snapshot.size() || oi != own.end()) {
      Key key;
      const BufferedOp* op = nullptr;
      if (oi != own.end() && (si >= snapshot.size() || oi->first <= snapshot[si])) {
        key = oi->first;
        op = oi->second;
        if (si < snapshot.size() && snapshot[si] == key) {
          ++si;  // the buffered op shadows the snapshot version
        }
        ++oi;
      } else {
        key = snapshot[si++];
      }
      const std::uint8_t* data = nullptr;
      std::uint32_t size = 0;
      if (op != nullptr) {
        if (op->kind == BufferedOp::kDelete) {
          continue;  // deleted by this transaction: invisible
        }
        data = op->data.data();
        size = static_cast<std::uint32_t>(op->data.size());
      } else {
        int n = db_->AriaSnapshotRead(spec.table, key, buf.data(),
                                      static_cast<std::uint32_t>(buf.size()), core_);
        if (n < 0) {
          continue;  // no committed pre-epoch version
        }
        if (static_cast<std::size_t>(n) > buf.size()) {
          buf.resize(static_cast<std::size_t>(n));
          n = db_->AriaSnapshotRead(spec.table, key, buf.data(),
                                    static_cast<std::uint32_t>(buf.size()), core_);
        }
        data = buf.data();
        size = static_cast<std::uint32_t>(n);
      }
      ++delivered;
      const bool keep_going = fn(key, data, size);
      if (delivered >= spec.limit || !keep_going) {
        // Stopped early at `key`: smaller-SID writes beyond it cannot change
        // the delivered prefix, so the validated interval ends here.
        observed_hi = key;
        break;
      }
    }
    txn::ScanSpec observed = spec;
    observed.hi = observed_hi;
    st_->scans.push_back(observed);
    return delivered;
  }
  std::uint64_t CounterEpochStart(txn::CounterId counter) const override {
    return db_->counters_epoch_start_[counter];
  }
  Sid sid() const override { return st_->sid; }

 private:
  Database* db_;
  AriaTxnState* st_;
  std::size_t core_;
};

// Reads the latest version committed before the executing epoch (the Aria
// snapshot). Bound-aware so replay skips versions the crashed epoch wrote.
int Database::AriaSnapshotRead(TableId table, Key key, void* out, std::uint32_t cap,
                               std::size_t core) {
  vstore::RowEntry* entry = tables_[table]->Get(key);
  if (entry == nullptr || entry->prow == 0) {
    return -1;
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
  const int slot = row.LatestSlotAtOrBefore(Sid(Sid(epoch_, 0).raw() - 1));
  if (slot < 0) {
    return -1;
  }
  const vstore::VersionDesc desc = row.ReadDesc(slot);
  const vstore::ValueLoc loc(desc.loc);
  if (loc.size() <= cap) {
    ReadVersionValue(row, desc, out, core);
    if (spec_.enable_cache) {
      SpinLatchGuard guard(entry->latch);
      if (entry->cached.load(std::memory_order_relaxed) == nullptr) {
        cache_->Put(entry, out, loc.size(), epoch_, core);
      }
    }
    return static_cast<int>(loc.size());
  }
  std::vector<std::uint8_t> tmp(loc.size());
  ReadVersionValue(row, desc, tmp.data(), core);
  std::memcpy(out, tmp.data(), cap);
  return static_cast<int>(loc.size());
}

EpochResult Database::ExecuteEpochAria(std::vector<std::unique_ptr<txn::Transaction>> txns) {
  assert(loaded_ && "call Format + FinalizeLoad (or Recover) first");
  // Pipelined epochs: Aria's execute and commit phases only read the
  // previous epoch's snapshot and buffer writes privately, so they overlap
  // the previous epoch's persistence tail along with the log encode. The
  // init-phase NVMM work (major GC, eviction, demotions) runs after the
  // commit phase and waits for the tail, as does everything from the apply
  // phase on.
  if (!tail_thread_.joinable()) {
    nvm_mirror_snapshot_ = device_.stats().Snapshot();
    tail_thread_ = std::thread(&Database::TailThreadMain, this);
  }
  const auto start = std::chrono::steady_clock::now();
  const Epoch epoch = current_epoch_ + 1;
  epoch_ = epoch;

  // Batch = previously deferred transactions (in their original relative
  // order) followed by the new ones.
  owned_txns_.clear();
  owned_txns_.reserve(aria_deferred_.size() + txns.size());
  for (auto& txn : aria_deferred_) {
    owned_txns_.push_back(std::move(txn));
  }
  aria_deferred_.clear();
  for (auto& txn : txns) {
    owned_txns_.push_back(std::move(txn));
  }

  std::vector<AriaTxnState> states(owned_txns_.size());
  for (std::size_t i = 0; i < owned_txns_.size(); ++i) {
    states[i].txn = owned_txns_[i].get();
    states[i].sid = Sid(epoch, static_cast<std::uint32_t>(i + 1));
  }

  EpochResult result;
  result.epoch = epoch;
  try {
    if (ModeLogsInputs(spec_.mode) && !replaying_) {
      last_log_bytes_ = log_->LogEpoch(epoch, owned_txns_, 0);
      stats_.log_bytes.Add(0, last_log_bytes_);
    }
    MaybeCrash(CrashSite::kAfterLog);
    MaybeCrash(CrashSite::kMidOverlapExecute);

    // Counter epoch-start snapshot before execute (AriaExecContext reads
    // it). Pure atomic loads — safe while the previous tail persists the
    // counter area concurrently.
    counters_epoch_start_.resize(counters_.size());
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      counters_epoch_start_[i] = counters_[i].load(std::memory_order_relaxed);
    }

    // ---- Execute phase: snapshot reads, buffered writes, reservations ----
    std::vector<bool> ordered_tables(tables_.size());
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      ordered_tables[t] = tables_[t]->schema().ordered;
    }
    ReservationTable reservations(std::move(ordered_tables));
    const bool hook_each_txn = static_cast<bool>(crash_hook_) && spec_.workers == 1;
    pool_.RunParallel([&](std::size_t w) {
      for (std::size_t i = w; i < states.size(); i += spec_.workers) {
        if (hook_each_txn) {
          MaybeCrash(CrashSite::kMidExecution);
        }
        AriaTxnState& st = states[i];
        AriaExecContext ctx(this, &st, w);
        st.txn->Execute(ctx);
        if (!st.user_aborted) {
          for (const BufferedOp& op : st.writes) {
            reservations.ReserveWrite(op.table, op.key, st.sid);
          }
        }
      }
    });
    MaybeCrash(CrashSite::kAfterAppend);

    // ---- Commit phase: conflict checks ----
    pool_.RunParallel([&](std::size_t w) {
      for (std::size_t i = w; i < states.size(); i += spec_.workers) {
        AriaTxnState& st = states[i];
        if (st.user_aborted) {
          continue;
        }
        bool defer = false;
        for (const BufferedOp& op : st.writes) {
          const std::uint64_t min_writer = reservations.MinWriter(op.table, op.key);
          if (min_writer != 0 && min_writer < st.sid.raw()) {
            defer = true;  // WAW: a smaller writer owns the key this batch
            break;
          }
        }
        if (!defer) {
          for (const auto& [table, key] : st.reads) {
            const std::uint64_t min_writer = reservations.MinWriter(table, key);
            if (min_writer != 0 && min_writer < st.sid.raw()) {
              defer = true;  // RAW: read a key a smaller transaction writes
              break;
            }
          }
        }
        if (!defer) {
          for (const txn::ScanSpec& scan : st.scans) {
            if (hook_each_txn) {
              MaybeCrash(CrashSite::kMidScanValidate);
            }
            const std::uint64_t min_writer =
                reservations.MinWriterInRange(scan.table, scan.lo, scan.hi);
            if (min_writer != 0 && min_writer < st.sid.raw()) {
              defer = true;  // phantom: a smaller transaction wrote inside
                             // the observed scan interval
              break;
            }
          }
        }
        st.deferred = defer;
      }
    });

    // Everything below mutates state the previous epoch's tail reads (pool
    // allocator meta, core_state_ GC lists, index deltas): wait for it.
    if (!JoinTail()) {
      result.crashed = true;
      return result;
    }
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
    for (std::size_t w = 0; w < spec_.workers; ++w) {
      pending_major_gc_[w] = std::move(core_state_[w].major_gc);
      core_state_[w].major_gc.clear();
    }
    cold_frees_due_ = std::move(cold_frees_next_);
    cold_frees_next_.clear();

    RunMajorGc();
    if (spec_.enable_cache) {
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
    MaybeCrash(CrashSite::kAfterInsert);

    // ---- Apply phase: committed writes reach NVMM once per key ----
    // Per-transaction ops are coalesced per key first (only the net effect
    // is applied): repeated writes keep the last data; write-after-insert is
    // an insert with the final data; insert-then-delete is a no-op.
    pool_.RunParallel([&](std::size_t w) {
      for (std::size_t i = w; i < states.size(); i += spec_.workers) {
        AriaTxnState& st = states[i];
        if (st.user_aborted || st.deferred) {
          continue;
        }
        std::vector<std::size_t> last_op;
        std::vector<bool> inserted_key;
        for (std::size_t op_index = 0; op_index < st.writes.size(); ++op_index) {
          const BufferedOp& op = st.writes[op_index];
          std::size_t found = last_op.size();
          for (std::size_t j = 0; j < last_op.size(); ++j) {
            const BufferedOp& prev = st.writes[last_op[j]];
            if (prev.table == op.table && prev.key == op.key) {
              found = j;
              break;
            }
          }
          if (found == last_op.size()) {
            last_op.push_back(op_index);
            inserted_key.push_back(op.kind == BufferedOp::kInsert);
          } else {
            last_op[found] = op_index;
            if (op.kind == BufferedOp::kInsert) {
              inserted_key[found] = true;
            }
          }
        }
        for (std::size_t j = 0; j < last_op.size(); ++j) {
          const BufferedOp& op = st.writes[last_op[j]];
          const bool fresh = inserted_key[j];
          switch (op.kind) {
            case BufferedOp::kInsert:
              InsertRowInternal(op.table, op.key, op.data.data(),
                                static_cast<std::uint32_t>(op.data.size()), st.sid, w);
              break;
            case BufferedOp::kWrite:
              if (fresh) {
                InsertRowInternal(op.table, op.key, op.data.data(),
                                  static_cast<std::uint32_t>(op.data.size()), st.sid, w);
              } else {
                vstore::RowEntry* entry = tables_[op.table]->Get(op.key);
                assert(entry != nullptr && "Aria write to a missing row");
                PersistFinal(entry, st.sid, op.data.data(),
                             static_cast<std::uint32_t>(op.data.size()), w);
              }
              break;
            case BufferedOp::kDelete:
              if (!fresh) {
                vstore::RowEntry* entry = tables_[op.table]->Get(op.key);
                assert(entry != nullptr && "Aria delete of a missing row");
                ProcessDelete(entry, w);
              }
              break;
          }
        }
      }
    });
    MaybeCrash(CrashSite::kAfterExecution);

    // Deferred transactions carry over to the next batch, keeping order.
    // Outcomes are per executed slot (deferred-carryover transactions first)
    // and reach the epoch callback once the epoch number is durable.
    std::vector<std::unique_ptr<txn::Transaction>> still_deferred;
    std::vector<TxnOutcome> outcomes;
    outcomes.reserve(states.size());
    for (std::size_t i = 0; i < states.size(); ++i) {
      const AriaTxnState& st = states[i];
      if (st.deferred) {
        still_deferred.push_back(std::move(owned_txns_[i]));
        ++result.deferred;
        outcomes.push_back(TxnOutcome::kDeferred);
      } else if (st.user_aborted) {
        ++result.aborted;
        stats_.txn_aborted.Add(0);
        outcomes.push_back(TxnOutcome::kAborted);
      } else {
        ++result.committed;
        stats_.txn_committed.Add(0);
        outcomes.push_back(TxnOutcome::kCommitted);
      }
    }

    for (CoreEpochState& cs : core_state_) {
      for (vstore::RowEntry* entry : cs.deleted) {
        tables_[entry->table]->Remove(entry->key);
      }
      cs.deleted.clear();
    }

    // Cut point: hand the persistence tail to the tail thread. The
    // execute phase's lines move to the detached set so the next epoch's
    // overlapped front cannot retire them with its own fences.
    device_.DetachPending();
    aria_deferred_ = std::move(still_deferred);
    owned_txns_.clear();
    current_epoch_ = epoch;
    result.seconds = SecondsSince(start);
    TailWork work;
    work.epoch = epoch;
    work.result = result;
    work.outcomes = std::move(outcomes);
    SubmitTail(std::move(work));
    return result;
  } catch (const CrashedException&) {
    JoinTail();  // quiesce the in-flight tail before the harness crashes us
    result.crashed = true;
    return result;
  }
}

}  // namespace nvc::core
