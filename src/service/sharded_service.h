// Global group-commit pacer for the multi-shard database (src/shard).
//
// Extends the DbService model to a ShardedDatabase: one pacer thread cuts
// one *global* epoch from a FIFO submission queue (size and delay bounded,
// same ServiceSpec), routes it through ShardedDatabase::ExecuteEpoch — which
// fans the batch out to every shard and coordinates the exchange and
// durability barriers — and resolves tickets when the call returns. Sharded
// epochs are synchronous (every shard waits for its engine's persistence
// tail before the global epoch returns, so no shard logs epoch N+1 while a
// peer's epoch N is still in flight), so a returned epoch *is* durable on
// every shard and tickets resolve immediately; there is no tail-thread
// callback path here.
//
// Router-deferred cross-shard transactions (a read key written earlier in
// the same global epoch) stay in flight exactly like Aria deferrals in
// DbService: the engine re-runs them at the front of the next global epoch
// and their tickets resolve then, with the deferral count. The pacer never
// sleeps past the delay bound while deferrals are pending, so they flush
// even without new traffic.
//
// On a crashed global epoch the service fails fast: every unresolved ticket
// resolves kFailed with the crash status. Recovery happens outside the
// service (ShardedDatabase::Recover on a fresh instance over the crashed
// devices), as for a hand-driven engine.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/service/db_service.h"
#include "src/shard/sharded_db.h"

namespace nvc::service {

class ShardedDbService {
 public:
  // Takes ownership of the sharded database. Throws std::invalid_argument
  // when the database is null or spec.Validate() fails.
  ShardedDbService(std::unique_ptr<shard::ShardedDatabase> db, const ServiceSpec& spec);
  ~ShardedDbService();

  ShardedDbService(const ShardedDbService&) = delete;
  ShardedDbService& operator=(const ShardedDbService&) = delete;

  // Enqueues one transaction (any shard mix; the router classifies it).
  // Same contract and failure statuses as DbService::Submit.
  StatusOr<TxnTicket> Submit(std::unique_ptr<txn::Transaction> txn);

  // Blocks until everything admitted so far is durable on every shard
  // (including router deferrals, which may need extra flush epochs).
  Status Drain();

  // Drains, then shuts the pacer down. Idempotent.
  Status Stop();

  // Stops the service and returns the sharded database (e.g. to discard and
  // recover after a simulated crash).
  std::unique_ptr<shard::ShardedDatabase> TakeDatabase();

  // ---- Introspection ---------------------------------------------------------
  shard::ShardedDatabase& db() { return *db_; }
  const ServiceSpec& spec() const { return spec_; }

  // Submit -> durable latency digest over all resolved tickets so far.
  LatencySummary LatencySnapshot() const;

  std::size_t epochs_executed() const;
  std::size_t queue_depth() const;

  // Why the service failed; OK while healthy.
  Status health() const;

 private:
  struct Pending {
    std::unique_ptr<txn::Transaction> txn;
    std::shared_ptr<internal::TicketState> state;
  };

  void PacerLoop();
  // Runs one global epoch over `batch` (the engine prepends its router
  // deferrals). Called with mu_ held; unlocks during ExecuteEpoch. Returns
  // false when the epoch crashed and the service is now failed.
  bool RunBatch(std::unique_lock<std::mutex>& lk, std::vector<Pending> batch);
  void Resolve(const std::shared_ptr<internal::TicketState>& state, TicketOutcome outcome,
               Epoch epoch, Status status);
  void FailAll(const Status& why);

  std::unique_ptr<shard::ShardedDatabase> db_;
  const ServiceSpec spec_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // pacer: queue state changed
  std::condition_variable space_cv_;  // blocked submitters: room freed
  std::condition_variable idle_cv_;   // Drain(): everything resolved
  std::deque<Pending> queue_;
  // Tickets of router-deferred transactions still held by the engine, in
  // global slot order (the engine re-queues them at the batch front).
  std::deque<std::shared_ptr<internal::TicketState>> deferred_;
  bool executing_ = false;
  bool flush_ = false;
  bool stopping_ = false;
  Status fail_status_;
  std::size_t epochs_ = 0;

  mutable std::mutex stats_mu_;
  LatencyRecorder latency_;

  std::thread pacer_;
};

}  // namespace nvc::service
