// Asynchronous group-commit front-end for the deterministic engine.
//
// The paper's engine is epoch-batched by construction (batch = epoch,
// footnote 1); DbService is the missing path from concurrent client
// submissions to those batches. Clients call Submit() from any thread and
// receive a TxnTicket — a future-like handle that resolves once the epoch
// containing the transaction has reached its durability point (the epoch
// number is persisted behind a fence, Algorithm 1). A background pacer
// thread cuts epochs from the submission queue by size (max_epoch_txns) and
// time (max_epoch_delay) thresholds, which makes the paper's §6 epoch-size
// latency/throughput trade measurable end-to-end per transaction.
//
// Guarantees (see DESIGN.md section 11):
//   - Submission order is preserved: the queue is FIFO and a batch is a
//     contiguous prefix of it, so results are deterministic given batch
//     composition — a DbService run and a hand-batched ExecuteEpoch run
//     over the same sequence with the same cuts produce identical state.
//   - Tickets resolve only after the durable point; the reported latency is
//     submit -> durable, never submit -> executed. The durable notification
//     arrives on the engine's tail thread while the pacer already executes
//     the next batch; the pacer does not wait for epoch N's tail before
//     cutting epoch N+1.
//   - Under Aria, conflict-deferred transactions stay in flight (the engine
//     re-runs them at the front of the next batch); their tickets resolve on
//     the epoch that finally commits or aborts them, with the deferral count.
//   - After a simulated crash (a crash hook fired inside ExecuteEpoch) the
//     service fails fast: every unresolved ticket resolves kFailed and
//     Submit/Drain return the crash status. Recovery happens outside the
//     service, exactly as for a hand-driven Database (tools/crash_fuzz
//     exercises this path against the oracle).
//   - A database handed over mid-instant-recovery (Recover() returned with
//     the crashed epoch still pending-replay) is admissible: the pacer
//     drives the backfill to completion before cutting its first epoch,
//     and Submit during that window returns kUnavailable with a
//     retry-after hint so clients can back off instead of queueing behind
//     an epoch that cannot start yet.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/stats.h"
#include "src/core/database.h"
#include "src/txn/transaction.h"

namespace nvc::service {

// How Submit behaves when the queue holds queue_capacity transactions.
enum class BackpressurePolicy {
  kBlock,   // Submit blocks until the pacer frees room
  kReject,  // Submit returns kResourceExhausted immediately
};

struct ServiceSpec {
  // Size threshold: the pacer cuts an epoch as soon as this many
  // transactions are queued.
  std::size_t max_epoch_txns = 1024;

  // Time threshold: an epoch is cut at the latest this long after its first
  // transaction was queued, even if underfull (group-commit delay bound).
  std::chrono::microseconds max_epoch_delay{2000};

  // Submissions admitted but not yet handed to the engine.
  std::size_t queue_capacity = 8192;

  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;

  Status Validate() const;
};

// Final fate of one submitted transaction.
enum class TicketOutcome : std::uint8_t {
  kCommitted = 0,
  kUserAborted = 1,  // the transaction called Abort(); the abort is durable
  kFailed = 2,       // service crashed/stopped before the txn became durable
};

struct TicketResult {
  TicketOutcome outcome = TicketOutcome::kFailed;
  Epoch epoch = 0;           // epoch whose checkpoint made the outcome durable
  double latency_micros = 0;  // submit -> durable
  std::uint32_t deferrals = 0;  // Aria conflict-deferrals before resolution
  Status status;  // non-OK only for kFailed: why the service gave up
};

namespace internal {
struct TicketState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  TicketResult result;
  std::chrono::steady_clock::time_point submit_time;
  std::uint32_t deferrals = 0;
};
}  // namespace internal

// Future-like handle for one submission. Copyable; all copies observe the
// same resolution. Thread-safe.
class TxnTicket {
 public:
  TxnTicket() = default;

  bool valid() const { return state_ != nullptr; }

  // Blocks until the ticket resolves and returns the result.
  const TicketResult& Get() const;

  // Returns true when the ticket resolved within the timeout.
  bool WaitFor(std::chrono::microseconds timeout) const;

  bool done() const;

 private:
  friend class DbService;
  friend class ShardedDbService;
  explicit TxnTicket(std::shared_ptr<internal::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::TicketState> state_;
};

class DbService {
 public:
  // Takes ownership of the database. The service installs the engine's
  // epoch callback (durable-notify) for its whole lifetime; do not call
  // ExecuteEpoch or SetEpochCallback on the database while the service
  // runs. Throws std::invalid_argument when spec.Validate() fails.
  DbService(std::unique_ptr<core::Database> db, const ServiceSpec& spec);

  // Stops the pacer (draining admitted work first unless failed).
  ~DbService();

  DbService(const DbService&) = delete;
  DbService& operator=(const DbService&) = delete;

  // Enqueues one transaction. Thread-safe; admission order is resolution
  // order within an epoch. Failure statuses:
  //   kResourceExhausted  queue full under BackpressurePolicy::kReject
  //   kUnavailable        Stop()/Drain-to-stop already requested, or the
  //                       instant-recovery backfill is still running (the
  //                       message carries a retry-after-milliseconds hint)
  //   <crash status>      the service failed (simulated crash); the original
  //                       crash status is returned verbatim
  StatusOr<TxnTicket> Submit(std::unique_ptr<txn::Transaction> txn);

  // Blocks until everything admitted so far is durable (including Aria
  // deferrals, which may need extra flush epochs). Returns the crash status
  // if the service failed before finishing. Submissions racing with Drain
  // may or may not be covered; quiesce submitters first for a full barrier.
  Status Drain();

  // Drains, then shuts the pacer down. Further Submit calls return
  // kUnavailable. Idempotent.
  Status Stop();

  // Stops the service and returns the engine, e.g. to destroy it and run
  // recovery after a simulated crash.
  std::unique_ptr<core::Database> TakeDatabase();

  // ---- Introspection ---------------------------------------------------------

  core::Database& db() { return *db_; }
  const ServiceSpec& spec() const { return spec_; }

  // Submit -> durable latency digest over all resolved tickets so far.
  LatencySummary LatencySnapshot() const;

  std::size_t epochs_executed() const;
  std::size_t queue_depth() const;

  // True while the pacer is still backfilling an instant recovery; Submit
  // returns kUnavailable until this flips false.
  bool recovering() const { return recovering_.load(std::memory_order_acquire); }

  // Why the service failed; OK while healthy.
  Status health() const;

 private:
  struct Pending {
    std::unique_ptr<txn::Transaction> txn;
    std::shared_ptr<internal::TicketState> state;
  };

  void PacerLoop();
  // Retires a pending instant-recovery backfill in bounded steps before the
  // pacer cuts its first epoch. Fails the service if a crash hook fires
  // mid-backfill. Returns false when the pacer should exit.
  bool RunRecoveryBackfill();
  // Runs one epoch over `batch` (plus any engine-held Aria deferrals).
  // Called with mu_ held; unlocks during ExecuteEpoch. Returns false when
  // the epoch crashed and the service is now failed.
  bool RunBatch(std::unique_lock<std::mutex>& lk, std::vector<Pending> batch);
  // Blocks until the engine's asynchronous persistence tail (and therefore
  // every outstanding durable callback) has drained. Drops mu_ while
  // waiting — the callback needs it. Returns false (service failed) when
  // a crash hook fired inside the tail.
  bool QuiesceTail(std::unique_lock<std::mutex>& lk);
  // Durable-notify from the engine. Runs on the engine's tail thread,
  // concurrent with the pacer preparing the next batch; callbacks arrive in
  // strict epoch order.
  void OnEpochDurable(const core::EpochResult& result,
                      const std::vector<core::TxnOutcome>& outcomes);
  void Resolve(const std::shared_ptr<internal::TicketState>& state,
               TicketOutcome outcome, Epoch epoch, Status status);
  // Fails every unresolved ticket (current batch slots, deferred, queued).
  void FailAll(const Status& why);

  std::unique_ptr<core::Database> db_;
  const ServiceSpec spec_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // pacer: queue state changed
  std::condition_variable space_cv_;  // blocked submitters: room freed
  std::condition_variable idle_cv_;   // Drain(): everything resolved
  std::deque<Pending> queue_;  // FIFO; front's submit_time bounds the epoch delay
  // Tickets of Aria-deferred transactions still held by the engine, in
  // batch order. Rebuilt by OnEpochDurable as each epoch's outcomes arrive
  // (guarded by mu_).
  std::deque<std::shared_ptr<internal::TicketState>> deferred_;
  // New-submission tickets of epochs handed to the engine whose durable
  // callback has not arrived yet, in cut order. The callback pops the
  // front and prepends the deferred carryover to reconstruct the engine's
  // slot order — the pacer never waits for the tail before cutting the
  // next batch (guarded by mu_).
  std::deque<std::vector<std::shared_ptr<internal::TicketState>>> inflight_new_;
  bool executing_ = false;  // pacer is inside ExecuteEpoch
  bool flush_ = false;      // Drain(): cut underfull epochs immediately
  bool stopping_ = false;
  // Instant-recovery window: set at construction when the database still has
  // a pending-replay epoch, cleared by the pacer once backfill retires it.
  // The progress snapshot is kept here (updated by the pacer between steps)
  // so Submit can fail fast with a hint instead of blocking on the engine's
  // recovery lock while a backfill step holds it.
  std::atomic<bool> recovering_{false};
  std::atomic<std::size_t> backfill_pending_{0};
  // Retry-after hint for Submit during the backfill window, derived from
  // the measured retire rate (keys per millisecond) of completed backfill
  // steps rather than a fixed constant.
  std::atomic<std::size_t> backfill_retry_hint_ms_{1};
  std::size_t backfill_total_ = 0;  // written before the pacer starts
  Epoch backfill_epoch_ = 0;
  Status fail_status_;  // non-OK once a crash hook fired
  std::size_t epochs_ = 0;

  mutable std::mutex stats_mu_;
  LatencyRecorder latency_;

  std::thread pacer_;
};

}  // namespace nvc::service
