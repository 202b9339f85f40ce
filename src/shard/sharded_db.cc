#include "src/shard/sharded_db.h"

#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <unordered_map>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/common/hash.h"

namespace nvc::shard {
namespace {

std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// All-or-nothing rendezvous: every party arrives and is released together,
// or any party aborts and every waiter (present and future) returns false.
class ShardBarrier {
 public:
  explicit ShardBarrier(std::size_t parties) : parties_(parties) {}

  bool ArriveAndWait() {
    std::unique_lock<std::mutex> lk(mu_);
    if (aborted_) {
      return false;
    }
    if (++arrived_ == parties_) {
      released_ = true;
      cv_.notify_all();
      return true;
    }
    cv_.wait(lk, [this] { return released_ || aborted_; });
    return released_;
  }

  void Abort() {
    std::lock_guard<std::mutex> lk(mu_);
    aborted_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  bool released_ = false;
  bool aborted_ = false;  // sticky
};

// ---- Routing capture contexts -----------------------------------------------
// Side-effect-free stand-ins that run a transaction's insert/append steps to
// capture its write set before the epoch starts — the same idiom as the
// engine's digest collection. Transactions are re-executable by contract
// (deterministic replay requires it), so running the steps twice is safe.

class RouteInsertContext final : public txn::InsertContext {
 public:
  RouteInsertContext(std::vector<std::pair<TableId, Key>>* writes, Sid sid)
      : writes_(writes), sid_(sid) {}

  void InsertRow(TableId table, Key key, const void*, std::uint32_t) override {
    writes_->emplace_back(table, key);
  }

  std::uint64_t CounterFetchAdd(txn::CounterId, std::uint64_t) override {
    throw std::logic_error("sharded deployments do not support deterministic counters");
  }
  std::uint64_t CounterEpochStart(txn::CounterId) const override {
    throw std::logic_error("sharded deployments do not support deterministic counters");
  }
  std::uint64_t CounterFetchAddIfLess(txn::CounterId, std::uint64_t) override {
    throw std::logic_error("sharded deployments do not support deterministic counters");
  }

  Sid sid() const override { return sid_; }

 private:
  std::vector<std::pair<TableId, Key>>* writes_;
  Sid sid_;
};

class RouteAppendContext final : public txn::AppendContext {
 public:
  using ReadFn = std::function<int(TableId, Key, void*, std::uint32_t)>;

  RouteAppendContext(std::vector<std::pair<TableId, Key>>* writes, const ReadFn& read,
                     Sid sid)
      : writes_(writes), read_(read), sid_(sid) {}

  void DeclareUpdate(TableId table, Key key) override { writes_->emplace_back(table, key); }
  void DeclareDelete(TableId table, Key key) override { writes_->emplace_back(table, key); }

  int ReadPreEpoch(TableId table, Key key, void* out, std::uint32_t cap) override {
    // Routing runs strictly between epochs, so the owner shard's committed
    // state *is* the pre-epoch snapshot.
    return read_(table, key, out, cap);
  }

  Sid sid() const override { return sid_; }

 private:
  std::vector<std::pair<TableId, Key>>* writes_;
  const ReadFn& read_;
  Sid sid_;
};

}  // namespace

// ---- Private per-epoch structures -------------------------------------------

// One unique (table, key) read by an admitted cross-shard transaction this
// epoch. The owning shard fills value/present from its committed pre-epoch
// state and release-publishes `ready`; slot sets are disjoint per owner, so
// the fill is lock-free. The fixed-point barrier orders every fill before
// any consumption.
struct ShardedDatabase::ExchangeSlot {
  TableId table = 0;
  Key key = 0;
  std::size_t owner = 0;
  std::atomic<bool> ready{false};
  bool present = false;
  std::vector<std::uint8_t> value;
};

struct ShardedDatabase::EpochBarriers {
  explicit EpochBarriers(std::size_t parties) : exchange(parties), log(parties) {}
  ShardBarrier exchange;  // the fixed point: all slots filled
  ShardBarrier log;       // post-log durability barrier (PostLogBarrier)
};

struct ShardedDatabase::RoutedEpoch {
  struct GlobalSlot {
    bool deferred = false;
    // (shard, slot in that shard's sub-batch), participants ascending by
    // shard. Single-shard transactions have exactly one entry.
    std::vector<std::pair<std::size_t, std::size_t>> parts;
  };
  std::vector<GlobalSlot> slots;
  std::vector<std::vector<std::unique_ptr<txn::Transaction>>> sub_batches;
  // Per shard: the slices in its sub-batch and, parallel to them, each
  // slice's exchange-slot indices in SliceRead sort order.
  std::vector<std::vector<SliceTxn*>> slices;
  std::vector<std::vector<std::vector<std::size_t>>> slice_slots;
  std::vector<ExchangeSlot> exchange;
  std::vector<std::unique_ptr<txn::Transaction>> next_deferred;
  std::size_t cross = 0;
  // Filled by the per-shard epoch threads (each writes only its own index).
  std::vector<core::EpochResult> results;
  std::vector<std::uint64_t> cpu_ns;
  std::vector<std::uint8_t> skipped;  // barrier aborted before this shard executed
};

// ---- Construction -----------------------------------------------------------

core::DatabaseSpec ShardedDatabase::ShardSpec(core::DatabaseSpec base) {
  if (base.concurrency != core::ConcurrencyControl::kCaracal) {
    throw std::invalid_argument(
        "ShardedDatabase requires ConcurrencyControl::kCaracal: Aria's "
        "shard-local conflict deferral would diverge across shards");
  }
  if (!base.counters.empty()) {
    throw std::invalid_argument(
        "ShardedDatabase does not support deterministic counters: the routing "
        "capture cannot reproduce counter draws across shards");
  }
  // The global recovery decision requires full, immediate replay.
  base.enable_instant_recovery = false;
  return base;
}

std::size_t ShardedDatabase::RequiredDeviceBytes(const core::DatabaseSpec& base) {
  return core::Database::RequiredDeviceBytes(ShardSpec(base));
}

ShardedDatabase::ShardedDatabase(std::vector<sim::NvmDevice*> devices,
                                 const core::DatabaseSpec& base)
    : devices_(std::move(devices)), shard_spec_(ShardSpec(base)) {
  if (devices_.empty()) {
    throw std::invalid_argument("ShardedDatabase needs at least one device (one per shard)");
  }
  if (devices_.size() > 64) {
    // The router tracks a transaction's participating shards as a 64-bit
    // mask on its serial hot path.
    throw std::invalid_argument("ShardedDatabase supports at most 64 shards");
  }
  for (sim::NvmDevice* device : devices_) {
    if (device == nullptr) {
      throw std::invalid_argument("ShardedDatabase: null shard device");
    }
  }
  dbs_.reserve(devices_.size());
  shard_outcomes_.resize(devices_.size());
  for (std::size_t s = 0; s < devices_.size(); ++s) {
    dbs_.push_back(std::make_unique<core::Database>(*devices_[s], shard_spec_));
    dbs_[s]->SetEpochCallback(
        [this, s](const core::EpochResult&, const std::vector<core::TxnOutcome>& outcomes) {
          shard_outcomes_[s] = outcomes;
        });
    dbs_[s]->SetPostLogHook([this, s](Epoch epoch) { return PostLogBarrier(s, epoch); });
  }
}

ShardedDatabase::~ShardedDatabase() = default;

// ---- Load -------------------------------------------------------------------

void ShardedDatabase::Format() {
  for (auto& db : dbs_) {
    db->Format();
  }
}

void ShardedDatabase::BulkLoad(TableId table, Key key, const void* data,
                               std::uint32_t size) {
  dbs_[OwnerOf(table, key)]->BulkLoad(table, key, data, size);
}

void ShardedDatabase::FinalizeLoad() {
  for (auto& db : dbs_) {
    db->FinalizeLoad();
  }
  current_epoch_ = dbs_[0]->current_epoch();
}

// ---- Crash injection --------------------------------------------------------

bool ShardedDatabase::MaybeCrashShard(std::size_t shard, core::CrashSite site) {
  const auto idx = static_cast<std::size_t>(site);
  site_reached_[idx].fetch_add(1, std::memory_order_relaxed);
  if (crash_hook_ && crash_hook_(shard, site)) {
    site_fired_[idx].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ShardedDatabase::SetCrashHook(ShardCrashHook hook) {
  crash_hook_ = std::move(hook);
  for (std::size_t s = 0; s < dbs_.size(); ++s) {
    if (crash_hook_) {
      dbs_[s]->SetCrashHook([this, s](core::CrashSite site) { return crash_hook_(s, site); });
    } else {
      dbs_[s]->SetCrashHook({});
    }
  }
}

core::CrashSiteCoverage ShardedDatabase::crash_coverage() const {
  core::CrashSiteCoverage cov;
  for (const auto& db : dbs_) {
    cov.Merge(db->crash_coverage());
  }
  for (std::size_t i = 0; i < core::kCrashSiteCount; ++i) {
    cov.reached[i] += site_reached_[i].load(std::memory_order_relaxed);
    cov.fired[i] += site_fired_[i].load(std::memory_order_relaxed);
  }
  return cov;
}

// ---- Epoch processing -------------------------------------------------------

bool ShardedDatabase::PostLogBarrier(std::size_t shard, Epoch epoch) {
  (void)epoch;
  EpochBarriers* barriers = active_barriers_;
  if (barriers == nullptr) {
    return true;  // uncoordinated execution (per-shard recovery replay)
  }
  if (MaybeCrashShard(shard, core::CrashSite::kMidShardEpochBarrier)) {
    barriers->log.Abort();
    return false;
  }
  return barriers->log.ArriveAndWait();
}

void ShardedDatabase::RouteEpoch(Epoch epoch,
                                 std::vector<std::unique_ptr<txn::Transaction>> batch,
                                 RoutedEpoch& routed) {
  const std::size_t n_shards = dbs_.size();
  routed.sub_batches.resize(n_shards);
  routed.slices.resize(n_shards);
  routed.slice_slots.resize(n_shards);
  routed.results.resize(n_shards);
  routed.cpu_ns.assign(n_shards, 0);
  routed.skipped.assign(n_shards, 0);
  routed.slots.resize(batch.size());

  // Keys written (updated, deleted, or inserted) by transactions admitted
  // earlier in this epoch, as HashKey digests. A hash collision defers a
  // cross-shard reader that did not actually conflict — conservative and
  // deterministic, like Aria's hashed reservation table.
  std::unordered_set<std::uint64_t> written;
  struct SlotKeyHash {
    std::size_t operator()(const std::pair<TableId, Key>& p) const {
      return static_cast<std::size_t>(HashKey(p.first, p.second));
    }
  };
  std::unordered_map<std::pair<TableId, Key>, std::size_t, SlotKeyHash> slot_index;
  std::vector<std::pair<TableId, Key>> slot_keys;

  const RouteAppendContext::ReadFn read_fn = [this](TableId table, Key key, void* out,
                                                    std::uint32_t cap) -> int {
    const StatusOr<std::uint32_t> r = dbs_[OwnerOf(table, key)]->ReadCommitted(table, key, out, cap);
    return r.ok() ? static_cast<int>(*r) : -1;
  };

  // Serial hot path: one iteration per transaction of the global epoch.
  // Participating shards are tracked as 64-bit masks (ctor caps the shard
  // count), and each declared key is hashed exactly once — the owner is
  // derived from the same digest the written-set stores (PartitionOf is
  // HashKey mod shards by definition, see src/common/partition.h).
  std::vector<std::pair<TableId, Key>> writes;
  std::vector<std::pair<TableId, Key>> reads;
  std::vector<std::uint64_t> write_hashes;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    writes.clear();
    reads.clear();
    write_hashes.clear();
    const Sid sid(epoch, static_cast<std::uint32_t>(i + 1));
    RouteInsertContext insert_ctx(&writes, sid);
    batch[i]->InsertStep(insert_ctx);
    RouteAppendContext append_ctx(&writes, read_fn, sid);
    batch[i]->AppendStep(append_ctx);
    batch[i]->DeclareReadSet([&reads](TableId t, Key k) { reads.emplace_back(t, k); });

    std::uint64_t write_mask = 0;
    for (const auto& [t, k] : writes) {
      const std::uint64_t h = HashKey(t, k);
      write_hashes.push_back(h);
      write_mask |= std::uint64_t{1} << (h % n_shards);
    }
    std::uint64_t involved_mask = write_mask;
    for (const auto& [t, k] : reads) {
      involved_mask |= std::uint64_t{1} << (HashKey(t, k) % n_shards);
    }

    RoutedEpoch::GlobalSlot& slot = routed.slots[i];
    if ((involved_mask & (involved_mask - 1)) == 0) {
      // Single-shard: pass through unchanged — full engine semantics (EWV
      // reads, scans, everything) on the home shard.
      const std::size_t home =
          involved_mask == 0 ? 0 : static_cast<std::size_t>(std::countr_zero(involved_mask));
      slot.parts.emplace_back(home, routed.sub_batches[home].size());
      routed.sub_batches[home].push_back(std::move(batch[i]));
      written.insert(write_hashes.begin(), write_hashes.end());
      continue;
    }

    // Cross-shard. Its reads come from the pre-epoch snapshot; if an earlier
    // transaction of this epoch writes any of them, snapshot reads would not
    // be serializable — defer it to the next global epoch. The first
    // transaction of an epoch is always admitted, so progress is guaranteed.
    bool conflict = false;
    for (const auto& [t, k] : reads) {
      if (written.count(HashKey(t, k)) != 0) {
        conflict = true;
        break;
      }
    }
    if (conflict) {
      slot.deferred = true;
      routed.next_deferred.push_back(std::move(batch[i]));
      continue;
    }

    ++routed.cross;
    // Participants: every shard owning part of the write set executes the
    // transaction identically; a pure cross-shard reader runs once on its
    // lowest involved shard (something must produce its outcome).
    const std::uint64_t participants =
        write_mask != 0 ? write_mask
                        : std::uint64_t{1} << std::countr_zero(involved_mask);

    // Sorted unique read keys define the slice's snapshot order (SliceTxn
    // binary-searches them).
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
    std::vector<std::size_t> read_slots;
    read_slots.reserve(reads.size());
    for (const auto& [t, k] : reads) {
      const auto [it, inserted] = slot_index.try_emplace({t, k}, slot_keys.size());
      if (inserted) {
        slot_keys.emplace_back(t, k);
      }
      read_slots.push_back(it->second);
    }

    std::shared_ptr<txn::Transaction> inner(std::move(batch[i]));
    for (std::uint64_t rest = participants; rest != 0; rest &= rest - 1) {
      const std::size_t s = static_cast<std::size_t>(std::countr_zero(rest));
      auto slice = std::make_unique<SliceTxn>(inner, static_cast<std::uint32_t>(s),
                                              static_cast<std::uint32_t>(n_shards));
      routed.slices[s].push_back(slice.get());
      routed.slice_slots[s].push_back(read_slots);
      slot.parts.emplace_back(s, routed.sub_batches[s].size());
      routed.sub_batches[s].push_back(std::move(slice));
    }
    written.insert(write_hashes.begin(), write_hashes.end());
  }

  routed.exchange = std::vector<ExchangeSlot>(slot_keys.size());
  for (std::size_t i = 0; i < slot_keys.size(); ++i) {
    routed.exchange[i].table = slot_keys[i].first;
    routed.exchange[i].key = slot_keys[i].second;
    routed.exchange[i].owner = OwnerOf(slot_keys[i].first, slot_keys[i].second);
  }
}

void ShardedDatabase::RunShardEpoch(std::size_t s, Epoch epoch, RoutedEpoch& routed) {
  EpochBarriers& barriers = *active_barriers_;
  const std::uint64_t cpu0 = ThreadCpuNs();

  // Publish the previous-epoch committed values for every exchange key this
  // shard owns. Slot sets are disjoint per owner: lock-free fills, ordered
  // before all consumers by the fixed-point barrier below.
  std::vector<std::uint8_t> buffer(1 << 16);
  for (ExchangeSlot& slot : routed.exchange) {
    if (slot.owner != s) {
      continue;
    }
    const StatusOr<std::uint32_t> r = dbs_[s]->ReadCommitted(
        slot.table, slot.key, buffer.data(), static_cast<std::uint32_t>(buffer.size()));
    if (r.ok()) {
      slot.present = true;
      slot.value.assign(buffer.begin(), buffer.begin() + *r);
    } else {
      slot.present = false;
    }
    slot.ready.store(true, std::memory_order_release);
  }

  if (MaybeCrashShard(s, core::CrashSite::kMidShardExchange)) {
    routed.results[s].crashed = true;
    routed.skipped[s] = 1;
    barriers.exchange.Abort();
    barriers.log.Abort();
    routed.cpu_ns[s] = ThreadCpuNs() - cpu0;
    return;
  }

  if (!barriers.exchange.ArriveAndWait()) {
    // A peer crashed before the fixed point; nothing was logged or executed
    // anywhere for this epoch.
    routed.skipped[s] = 1;
    routed.cpu_ns[s] = ThreadCpuNs() - cpu0;
    return;
  }

  // Fixed point reached: resolve every local slice's snapshot.
  for (std::size_t i = 0; i < routed.slices[s].size(); ++i) {
    const std::vector<std::size_t>& idxs = routed.slice_slots[s][i];
    std::vector<SliceRead> resolved;
    resolved.reserve(idxs.size());
    for (const std::size_t idx : idxs) {
      const ExchangeSlot& slot = routed.exchange[idx];
      if (!slot.ready.load(std::memory_order_acquire)) {
        throw std::logic_error("exchange slot unfilled after the fixed-point barrier");
      }
      SliceRead r;
      r.table = slot.table;
      r.key = slot.key;
      r.present = slot.present;
      r.value = slot.value;
      resolved.push_back(std::move(r));
    }
    routed.slices[s][i]->SetReads(std::move(resolved));
  }

  if (recorder_) {
    recorder_(s, epoch, routed.sub_batches[s]);
  }

  const std::uint64_t tail_cpu0 = dbs_[s]->tail_cpu_ns();
  routed.results[s] = dbs_[s]->ExecuteEpoch(std::move(routed.sub_batches[s]));
  // Wait for the shard's persistence tail: the post-log barrier invariant
  // needs every shard's epoch durable before any shard logs the next one.
  // A tail crash is this shard's crash.
  if (!routed.results[s].crashed && !dbs_[s]->WaitIdle().ok()) {
    routed.results[s].crashed = true;
  }
  if (routed.results[s].crashed) {
    // The engine crashed (its own site, or the post-log hook returned
    // false). Release any peers still parked at a barrier.
    barriers.exchange.Abort();
    barriers.log.Abort();
  }
  // The tail ran on the engine's tail thread while this thread waited.
  routed.cpu_ns[s] = ThreadCpuNs() - cpu0 + (dbs_[s]->tail_cpu_ns() - tail_cpu0);
}

ShardedEpochResult ShardedDatabase::ExecuteEpoch(
    std::vector<std::unique_ptr<txn::Transaction>> txns,
    std::vector<core::TxnOutcome>* outcomes) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t route_cpu0 = ThreadCpuNs();
  const Epoch epoch = current_epoch_ + 1;

  // Aria convention: previously deferred transactions run at the front.
  std::vector<std::unique_ptr<txn::Transaction>> batch = std::move(deferred_);
  deferred_.clear();
  for (auto& t : txns) {
    batch.push_back(std::move(t));
  }

  RoutedEpoch routed;
  RouteEpoch(epoch, std::move(batch), routed);

  ShardedEpochResult result;
  result.epoch = epoch;
  result.deferred = routed.next_deferred.size();
  result.cross_shard = routed.cross;
  result.routing_seconds =
      static_cast<double>(ThreadCpuNs() - route_cpu0) / 1e9;

  EpochBarriers barriers(dbs_.size());
  active_barriers_ = &barriers;
  active_routed_ = &routed;
  {
    // Every shard runs every global epoch, even with an empty sub-batch:
    // epoch numbers advance in lockstep, which the recovery decision relies
    // on (global skew <= 1, all shards at one of two adjacent epochs).
    std::vector<std::thread> threads;
    threads.reserve(dbs_.size());
    for (std::size_t s = 0; s < dbs_.size(); ++s) {
      threads.emplace_back([this, s, epoch, &routed] { RunShardEpoch(s, epoch, routed); });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  active_barriers_ = nullptr;
  active_routed_ = nullptr;

  bool crashed = false;
  double max_cpu = 0;
  result.shard_cpu_seconds.resize(dbs_.size());
  for (std::size_t s = 0; s < dbs_.size(); ++s) {
    crashed = crashed || routed.results[s].crashed || routed.skipped[s] != 0;
    result.shard_cpu_seconds[s] = static_cast<double>(routed.cpu_ns[s]) / 1e9;
    max_cpu = std::max(max_cpu, result.shard_cpu_seconds[s]);
  }
  result.max_shard_cpu_seconds = max_cpu;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (crashed) {
    result.crashed = true;  // discard this object, crash devices, recover
    return result;
  }

  for (std::size_t s = 0; s < dbs_.size(); ++s) {
    if (dbs_[s]->current_epoch() != epoch) {
      throw std::runtime_error("shard epoch skew after a non-crashed global epoch");
    }
  }
  current_epoch_ = epoch;
  deferred_ = std::move(routed.next_deferred);

  if (outcomes != nullptr) {
    outcomes->assign(routed.slots.size(), core::TxnOutcome::kDeferred);
  }
  for (std::size_t i = 0; i < routed.slots.size(); ++i) {
    const RoutedEpoch::GlobalSlot& slot = routed.slots[i];
    if (slot.deferred) {
      continue;  // already kDeferred; counted in result.deferred
    }
    const core::TxnOutcome o =
        shard_outcomes_[slot.parts[0].first][slot.parts[0].second];
    for (const auto& [ps, pidx] : slot.parts) {
      if (shard_outcomes_[ps][pidx] != o) {
        throw std::runtime_error(
            "cross-shard outcome divergence: participating shards disagree on a "
            "transaction's fate (determinism bug)");
      }
    }
    if (o == core::TxnOutcome::kCommitted) {
      ++result.committed;
    } else {
      ++result.aborted;
    }
    if (outcomes != nullptr) {
      (*outcomes)[i] = o;
    }
  }
  return result;
}

// ---- Recovery ---------------------------------------------------------------

StatusOr<ShardedRecoveryReport> ShardedDatabase::Recover(const txn::TxnRegistry& registry) {
  const txn::TxnRegistry shard_registry = MakeShardRegistry(registry);

  std::vector<core::Database::RecoveryPeek> peeks;
  peeks.reserve(dbs_.size());
  for (auto& db : dbs_) {
    StatusOr<core::Database::RecoveryPeek> peek = db->PeekRecovery();
    if (!peek.ok()) {
      return peek.status();
    }
    peeks.push_back(*peek);
  }

  Epoch max_cp = 0;
  Epoch min_cp = ~Epoch{0};
  for (const auto& peek : peeks) {
    max_cp = std::max(max_cp, peek.checkpointed);
    min_cp = std::min(min_cp, peek.checkpointed);
  }
  if (max_cp - min_cp > 1) {
    return Status::DataLoss("sharded recovery: shard checkpoints span epochs " +
                            std::to_string(min_cp) + ".." + std::to_string(max_cp) +
                            " — the durability barrier bounds skew to one epoch, so "
                            "the devices do not belong to one consistent deployment");
  }

  // The global decision. Laggards exist: they crashed after logging epoch
  // max_cp (the barrier guarantees no shard executes before all shards
  // logged) and must replay it to rejoin the leaders, which must not replay
  // past max_cp. A level fleet replays the next epoch only when every shard
  // holds a complete log for it (all-logged means the crash hit at or after
  // the barrier; any shard without a log proves no shard executed).
  bool replay_all = false;
  if (max_cp == min_cp) {
    replay_all = true;
    for (const auto& peek : peeks) {
      replay_all = replay_all && peek.has_next_log;
    }
  } else {
    for (std::size_t s = 0; s < peeks.size(); ++s) {
      if (peeks[s].checkpointed == min_cp && !peeks[s].has_next_log) {
        return Status::DataLoss(
            "sharded recovery: shard " + std::to_string(s) + " checkpointed epoch " +
            std::to_string(min_cp) + " without a complete log for epoch " +
            std::to_string(max_cp) + ", which a peer shard already executed");
      }
    }
  }

  ShardedRecoveryReport report;
  report.shards.reserve(dbs_.size());
  for (std::size_t s = 0; s < dbs_.size(); ++s) {
    core::Database::RecoverOptions options;
    options.allow_replay =
        (max_cp == min_cp) ? replay_all : (peeks[s].checkpointed == min_cp);
    StatusOr<core::RecoveryReport> r = dbs_[s]->Recover(shard_registry, options);
    if (!r.ok()) {
      return r.status();
    }
    if (options.allow_replay && !r->replayed) {
      return Status::DataLoss("sharded recovery: shard " + std::to_string(s) +
                              " was expected to replay epoch " +
                              std::to_string(peeks[s].checkpointed + 1) +
                              " but its log failed to decode");
    }
    report.shards.push_back(*r);
  }

  const Epoch target = (max_cp == min_cp && replay_all) ? max_cp + 1 : max_cp;
  for (std::size_t s = 0; s < dbs_.size(); ++s) {
    if (dbs_[s]->current_epoch() != target) {
      return Status::DataLoss("sharded recovery: shard " + std::to_string(s) +
                              " recovered to epoch " +
                              std::to_string(dbs_[s]->current_epoch()) +
                              " while the fleet agreed on " + std::to_string(target));
    }
  }
  current_epoch_ = target;
  report.recovered_epoch = target;
  report.replayed = replay_all || max_cp != min_cp;
  return report;
}

// ---- Stats / profiling ------------------------------------------------------

ShardStatsSummary ShardedDatabase::StatsRollup() const {
  ShardStatsSummary sum;
  for (const auto& db : dbs_) {
    const EngineStats& s = db->stats();
    sum.txn_committed += s.txn_committed.Sum();
    sum.txn_aborted += s.txn_aborted.Sum();
    sum.nvm_read_bytes += s.nvm_read_bytes.Sum();
    sum.nvm_write_bytes += s.nvm_write_bytes.Sum();
    sum.nvm_write_lines += s.nvm_write_lines.Sum();
    sum.nvm_persist_ops += s.nvm_persist_ops.Sum();
    sum.nvm_fences += s.nvm_fences.Sum();
    sum.log_bytes += s.log_bytes.Sum();
  }
  return sum;
}

void ShardedDatabase::ResetStats() {
  for (auto& db : dbs_) {
    db->stats().Reset();
  }
}

void ShardedDatabase::ConfigureProfiler(const ProfilerConfig& config) {
  for (auto& db : dbs_) {
    db->ConfigureProfiler(config);
  }
}

ShardedProfileReport ShardedDatabase::ProfileReport() const {
  ShardedProfileReport report;
  report.shards.reserve(dbs_.size());
  for (const auto& db : dbs_) {
    report.shards.push_back(db->ProfileReport());
  }
  nvc::ProfileReport& c = report.combined;
  for (const nvc::ProfileReport& r : report.shards) {
    c.enabled = c.enabled || r.enabled;
    c.epochs = std::max(c.epochs, r.epochs);  // shards run epochs in lockstep
    c.dropped_spans += r.dropped_spans;
    c.pipeline.tails += r.pipeline.tails;
    c.pipeline.tail_ns += r.pipeline.tail_ns;
    c.pipeline.tail_cpu_ns += r.pipeline.tail_cpu_ns;
    c.pipeline.overlapped_ns += r.pipeline.overlapped_ns;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      c.phases[p].activations += r.phases[p].activations;
      c.phases[p].worker_spans += r.phases[p].worker_spans;
      c.phases[p].wall_ms += r.phases[p].wall_ms;
      c.phases[p].busy_ms += r.phases[p].busy_ms;
      c.phases[p].ops += r.phases[p].ops;
      c.phases[p].epoch_p50_ms = std::max(c.phases[p].epoch_p50_ms, r.phases[p].epoch_p50_ms);
      c.phases[p].epoch_p95_ms = std::max(c.phases[p].epoch_p95_ms, r.phases[p].epoch_p95_ms);
      c.phases[p].epoch_max_ms = std::max(c.phases[p].epoch_max_ms, r.phases[p].epoch_max_ms);
    }
    c.total += r.total;
    c.epoch_wall_p50_ms = std::max(c.epoch_wall_p50_ms, r.epoch_wall_p50_ms);
    c.epoch_wall_p95_ms = std::max(c.epoch_wall_p95_ms, r.epoch_wall_p95_ms);
    c.epoch_wall_max_ms = std::max(c.epoch_wall_max_ms, r.epoch_wall_max_ms);
  }
  return report;
}

std::string ShardedProfileReport::ToTable() const {
  std::string out;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    out += "[shard " + std::to_string(s) + "]\n";
    out += shards[s].ToTable();
  }
  out += "[all shards combined]\n";
  out += combined.ToTable();
  return out;
}

bool ShardedDatabase::WriteChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  os << "[\n";
  bool first = true;
  char buf[256];
  const auto emit = [&os, &first, &buf](int n) {
    (void)buf;
    if (n <= 0) {
      return;
    }
    if (!first) {
      os << ",\n";
    }
    first = false;
    os.write(buf, n);
  };
  const auto emit_spans = [&](std::uint32_t pid, std::uint32_t tid,
                              const std::vector<PhaseSpan>& spans) {
    for (const PhaseSpan& span : spans) {
      emit(std::snprintf(buf, sizeof(buf),
                         "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":%.3f,"
                         "\"dur\":%.3f,\"pid\":%u,\"tid\":%u,\"args\":{\"epoch\":%u}}",
                         PhaseName(span.phase), static_cast<double>(span.start_ns) / 1e3,
                         static_cast<double>(span.dur_ns) / 1e3, pid, tid, span.epoch));
    }
  };
  const auto emit_thread_name = [&](std::uint32_t pid, std::uint32_t tid,
                                    const std::string& name) {
    emit(std::snprintf(buf, sizeof(buf),
                       "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                       "\"args\":{\"name\":\"%s\"}}",
                       pid, tid, name.c_str()));
  };
  for (std::size_t s = 0; s < dbs_.size(); ++s) {
    const auto pid = static_cast<std::uint32_t>(s + 1);
    emit(std::snprintf(buf, sizeof(buf),
                       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                       "\"args\":{\"name\":\"shard %zu\"}}",
                       pid, s));
    const PhaseProfiler& profiler = dbs_[s]->profiler();
    emit_thread_name(pid, 1, "driver");
    emit_spans(pid, 1, profiler.driver_spans());
    for (std::size_t w = 0; w < shard_spec_.workers; ++w) {
      emit_thread_name(pid, static_cast<std::uint32_t>(w + 2),
                       "worker " + std::to_string(w));
      emit_spans(pid, static_cast<std::uint32_t>(w + 2), profiler.worker_spans(w));
    }
    if (!profiler.tail_spans().empty()) {
      emit_thread_name(pid, static_cast<std::uint32_t>(kMaxCores + 2), "tail");
      emit_spans(pid, static_cast<std::uint32_t>(kMaxCores + 2), profiler.tail_spans());
    }
  }
  os << "\n]\n";
  return os.good();
}

}  // namespace nvc::shard
