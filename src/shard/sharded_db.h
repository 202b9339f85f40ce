// Deterministic multi-shard database: N independent Database engines behind
// one global epoch, with a fixed-point pre-epoch read exchange for
// cross-shard transactions (ROADMAP "Deterministic multi-shard scale-out";
// Calvin/Caracal-style — no 2PC voting).
//
// Keyspace partitioning is PartitionOf(table, key, shards) — the same
// deterministic partitioner the engines use internally, so routing is a pure
// function of the transaction inputs and replays identically.
//
// One global epoch proceeds as:
//
//   route      (driver)  capture each transaction's write set by running its
//                        insert/append steps against side-effect-free contexts
//                        and its read set via Transaction::DeclareReadSet;
//                        single-shard transactions pass through unchanged,
//                        cross-shard ones become per-shard SliceTxns sharing
//                        the inner transaction (slice_txn.h). A cross-shard
//                        transaction reading any key written by an earlier
//                        transaction of the same epoch is deterministically
//                        deferred to the next epoch (its snapshot reads would
//                        not be serializable), mirroring Aria's deferral.
//   exchange   (shards)  each shard publishes the previous-epoch committed
//                        values of the exchange keys it owns into a lock-free
//                        slot buffer (disjoint slots per owner, release-
//                        published), then arrives at the fixed-point barrier;
//                        after it, every slice's snapshot is resolved.
//   execute    (shards)  each shard runs its sub-batch through its own
//                        Database::ExecuteEpoch. A post-log hook holds every
//                        shard at a durability barrier until all shards'
//                        input logs are durable, so a crash never leaves one
//                        shard executed and another without a log to replay
//                        (global-epoch skew stays <= 1 and is always
//                        resolvable).
//
// Crash model: any shard crashing fails the global epoch; the object must be
// discarded, the devices crashed, and a fresh ShardedDatabase recovered.
// Recover() peeks every shard's device first and derives the single global
// replay decision (see the .cc) so all shards come back at one global epoch.
//
// v1 restrictions (checked at construction): ConcurrencyControl::kCaracal,
// no deterministic counters, no instant recovery;
// cross-shard transactions additionally cannot use range operations (see
// slice_txn.h).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/partition.h"
#include "src/common/status.h"
#include "src/core/database.h"
#include "src/shard/slice_txn.h"
#include "src/sim/nvm_device.h"

namespace nvc::shard {

struct ShardedEpochResult {
  Epoch epoch = 0;
  std::size_t committed = 0;  // global transactions (a cross-shard txn counts once)
  std::size_t aborted = 0;
  std::size_t deferred = 0;     // router-deferred to the next global epoch
  std::size_t cross_shard = 0;  // admitted cross-shard transactions
  double seconds = 0;           // wall time of the global epoch
  double routing_seconds = 0;   // serial routing prologue (driver CPU)
  // Critical-path model for hosts with fewer cores than shards: the slowest
  // shard's CPU time (exchange fill + engine epoch, including its
  // persistence tail on the engine's tail thread). On real multi-core
  // hardware wall time converges to routing + max shard CPU.
  double max_shard_cpu_seconds = 0;
  std::vector<double> shard_cpu_seconds;  // per-shard breakdown of the above
  bool crashed = false;  // some shard crashed; discard and recover
};

struct ShardedRecoveryReport {
  Epoch recovered_epoch = 0;  // the agreed global epoch
  bool replayed = false;      // the crashed global epoch was replayed
  std::vector<core::RecoveryReport> shards;
};

// Summed EngineStats across shards (the counters benches diff).
struct ShardStatsSummary {
  std::uint64_t txn_committed = 0;
  std::uint64_t txn_aborted = 0;
  std::uint64_t nvm_read_bytes = 0;
  std::uint64_t nvm_write_bytes = 0;
  std::uint64_t nvm_write_lines = 0;
  std::uint64_t nvm_persist_ops = 0;
  std::uint64_t nvm_fences = 0;
  std::uint64_t log_bytes = 0;
};

// Per-shard profiler roll-up: the combined report sums phase activity across
// shards; ToTable() emits shard-tagged sections plus the combined table.
struct ShardedProfileReport {
  nvc::ProfileReport combined;
  std::vector<nvc::ProfileReport> shards;
  std::string ToTable() const;
};

// Shard-layer crash hook: like core::CrashHook but tagged with the shard
// index. Forwarded to every engine's hook and additionally evaluated at the
// two shard-layer sites (kMidShardExchange, kMidShardEpochBarrier).
using ShardCrashHook = std::function<bool(std::size_t shard, core::CrashSite site)>;

// Observes the exact sub-batch a shard executes for an epoch, after the
// exchange resolved every slice's snapshot (ledger-identity verification:
// the same sub-batch fed to a standalone engine must produce a byte-identical
// durable-write ledger). Called on the shard's epoch thread.
using SubBatchRecorder = std::function<void(
    std::size_t shard, Epoch epoch,
    const std::vector<std::unique_ptr<txn::Transaction>>& sub_batch)>;

class ShardedDatabase {
 public:
  // Normalizes a per-shard spec: forces the sharded-mode engine override
  // (no instant recovery — the global recovery decision requires full,
  // immediate replay) and validates the v1 restrictions. Throws
  // std::invalid_argument on violations.
  static core::DatabaseSpec ShardSpec(core::DatabaseSpec base);

  // Device bytes each shard's device needs under ShardSpec(base).
  static std::size_t RequiredDeviceBytes(const core::DatabaseSpec& base);

  // One device per shard; devices.size() is the shard count (>= 1). Devices
  // must outlive the ShardedDatabase.
  ShardedDatabase(std::vector<sim::NvmDevice*> devices, const core::DatabaseSpec& base);
  ~ShardedDatabase();

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  std::size_t shards() const { return dbs_.size(); }
  core::Database& shard(std::size_t i) { return *dbs_[i]; }
  std::size_t OwnerOf(TableId table, Key key) const {
    return PartitionOf(table, key, dbs_.size());
  }

  // ---- Load ------------------------------------------------------------------
  void Format();
  void BulkLoad(TableId table, Key key, const void* data, std::uint32_t size);
  void FinalizeLoad();

  // ---- Epoch processing ------------------------------------------------------

  // Processes one global epoch across all shards (route, exchange, execute).
  // `outcomes`, when non-null, receives one entry per input slot — router-
  // deferred transactions at the front (carried from previous epochs) first,
  // then `txns` in order, exactly like the Aria deferral convention. On a
  // non-crashed return the epoch is durable on every shard.
  ShardedEpochResult ExecuteEpoch(std::vector<std::unique_ptr<txn::Transaction>> txns,
                                  std::vector<core::TxnOutcome>* outcomes = nullptr);

  // Transactions the router deferred, re-queued at the front of the next
  // global epoch (deterministic from the batch composition).
  std::size_t deferred_depth() const { return deferred_.size(); }

  Epoch current_epoch() const { return current_epoch_; }

  // ---- Recovery --------------------------------------------------------------

  // Recovers every shard to one consistent global epoch. Peeks all devices,
  // derives the global replay decision (a shard that checkpointed ahead of a
  // laggard never replays past it; a level fleet replays the next epoch only
  // when *every* shard holds a complete log for it), then runs per-shard
  // Recover with the matching allow_replay option. `registry` is the
  // workload registry; the slice decoder is added internally.
  //   kDataLoss  a device is unformatted, shards disagree by more than one
  //              epoch, or a laggard lacks the log the decision requires
  //   kAborted   a crash hook fired during a shard's replay
  StatusOr<ShardedRecoveryReport> Recover(const txn::TxnRegistry& registry);

  // The registry shard engines log/replay with (workload + slice decoder).
  txn::TxnRegistry ShardRegistry(const txn::TxnRegistry& user) const {
    return MakeShardRegistry(user);
  }

  // ---- Reads (tests, tooling; between epochs) --------------------------------
  StatusOr<std::uint32_t> ReadCommitted(TableId table, Key key, void* out,
                                        std::uint32_t cap) {
    return dbs_[OwnerOf(table, key)]->ReadCommitted(table, key, out, cap);
  }

  // ---- Crash injection -------------------------------------------------------
  void SetCrashHook(ShardCrashHook hook);

  // Engine coverage merged across shards plus the shard-layer sites.
  core::CrashSiteCoverage crash_coverage() const;

  void SetSubBatchRecorder(SubBatchRecorder recorder) { recorder_ = std::move(recorder); }

  // ---- Stats / profiling -----------------------------------------------------
  ShardStatsSummary StatsRollup() const;
  void ResetStats();
  void ConfigureProfiler(const ProfilerConfig& config);
  ShardedProfileReport ProfileReport() const;
  // One combined Chrome trace: pid = shard (process names "shard N"), tids =
  // driver/workers/tail per shard, loadable in Perfetto like the single-
  // engine export.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct ExchangeSlot;
  struct EpochBarriers;
  struct RoutedEpoch;

  // Returns true when the hook asked to crash at the shard-layer site.
  bool MaybeCrashShard(std::size_t shard, core::CrashSite site);
  bool PostLogBarrier(std::size_t shard, Epoch epoch);
  void RouteEpoch(Epoch epoch, std::vector<std::unique_ptr<txn::Transaction>> batch,
                  RoutedEpoch& routed);
  void RunShardEpoch(std::size_t s, Epoch epoch, RoutedEpoch& routed);

  std::vector<sim::NvmDevice*> devices_;
  core::DatabaseSpec shard_spec_;
  std::vector<std::unique_ptr<core::Database>> dbs_;
  Epoch current_epoch_ = 0;

  ShardCrashHook crash_hook_;
  std::array<std::atomic<std::uint64_t>, core::kCrashSiteCount> site_reached_{};
  std::array<std::atomic<std::uint64_t>, core::kCrashSiteCount> site_fired_{};

  SubBatchRecorder recorder_;
  std::vector<std::unique_ptr<txn::Transaction>> deferred_;

  // Per-shard outcome mailboxes filled by the engines' epoch callbacks
  // (each shard thread writes only its own slot; the driver reads after join).
  std::vector<std::vector<core::TxnOutcome>> shard_outcomes_;

  // Set only while ExecuteEpoch coordinates an epoch; the post-log hooks
  // no-op outside one (per-shard recovery replay runs uncoordinated).
  EpochBarriers* active_barriers_ = nullptr;
  RoutedEpoch* active_routed_ = nullptr;
};

}  // namespace nvc::shard
