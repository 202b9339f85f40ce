#include "src/service/db_service.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace nvc::service {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

}  // namespace

Status ServiceSpec::Validate() const {
  if (max_epoch_txns == 0) {
    return Status::InvalidArgument("ServiceSpec: max_epoch_txns must be at least 1");
  }
  if (max_epoch_delay.count() < 0) {
    return Status::InvalidArgument("ServiceSpec: max_epoch_delay must be non-negative");
  }
  if (queue_capacity == 0) {
    return Status::InvalidArgument("ServiceSpec: queue_capacity must be at least 1");
  }
  if (queue_capacity < max_epoch_txns) {
    return Status::InvalidArgument(
        "ServiceSpec: queue_capacity (" + std::to_string(queue_capacity) +
        ") must admit a full epoch of max_epoch_txns (" +
        std::to_string(max_epoch_txns) + ")");
  }
  return Status::Ok();
}

// ---- TxnTicket ---------------------------------------------------------------

const TicketResult& TxnTicket::Get() const {
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->done; });
  return state_->result;
}

bool TxnTicket::WaitFor(std::chrono::microseconds timeout) const {
  std::unique_lock<std::mutex> lk(state_->mu);
  return state_->cv.wait_for(lk, timeout, [&] { return state_->done; });
}

bool TxnTicket::done() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->done;
}

// ---- DbService ---------------------------------------------------------------

DbService::DbService(std::unique_ptr<core::Database> db, const ServiceSpec& spec)
    : db_(std::move(db)), spec_(spec) {
  if (!db_) {
    throw std::invalid_argument("DbService: database must not be null");
  }
  const Status valid = spec_.Validate();
  if (!valid.ok()) {
    throw std::invalid_argument("DbService: " + valid.message());
  }
  db_->SetEpochCallback(
      [this](const core::EpochResult& result, const std::vector<core::TxnOutcome>& outcomes) {
        OnEpochDurable(result, outcomes);
      });
  if (db_->instant_recovery_pending()) {
    const core::BackfillProgress progress = db_->RecoveryProgress();
    backfill_total_ = progress.total_keys;
    backfill_epoch_ = progress.crashed_epoch;
    backfill_pending_.store(progress.pending_keys, std::memory_order_relaxed);
    recovering_.store(progress.pending, std::memory_order_release);
  }
  pacer_ = std::thread([this] { PacerLoop(); });
}

DbService::~DbService() { Stop().IgnoreError(); }

StatusOr<TxnTicket> DbService::Submit(std::unique_ptr<txn::Transaction> txn) {
  if (!txn) {
    return Status::InvalidArgument("DbService::Submit: transaction must not be null");
  }
  if (recovering_.load(std::memory_order_acquire)) {
    // Don't queue behind an epoch that cannot start yet: tell the client how
    // long the remaining backfill is likely to take so it can back off. The
    // snapshot and the hint are pacer-maintained — the hint extrapolates the
    // measured retire rate of the steps completed so far — so this never
    // blocks on a backfill step.
    const std::size_t pending = backfill_pending_.load(std::memory_order_relaxed);
    const std::size_t retry_ms = backfill_retry_hint_ms_.load(std::memory_order_relaxed);
    return Status::Unavailable(
        "DbService::Submit: instant-recovery backfill in progress (" +
        std::to_string(pending) + " of " + std::to_string(backfill_total_) +
        " keys pending, crashed epoch " + std::to_string(backfill_epoch_) +
        "); retry after ~" + std::to_string(retry_ms) + " ms");
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (!fail_status_.ok()) {
    return fail_status_;
  }
  if (stopping_) {
    return Status::Unavailable("DbService::Submit: service is stopped");
  }
  if (queue_.size() >= spec_.queue_capacity) {
    if (spec_.backpressure == BackpressurePolicy::kReject) {
      return Status::ResourceExhausted(
          "DbService::Submit: queue full (" + std::to_string(spec_.queue_capacity) +
          " transactions); retry after the pacer drains");
    }
    space_cv_.wait(lk, [&] {
      return stopping_ || !fail_status_.ok() || queue_.size() < spec_.queue_capacity;
    });
    if (!fail_status_.ok()) {
      return fail_status_;
    }
    if (stopping_) {
      return Status::Unavailable("DbService::Submit: service stopped while blocked");
    }
  }
  auto state = std::make_shared<internal::TicketState>();
  state->submit_time = std::chrono::steady_clock::now();
  queue_.push_back(Pending{std::move(txn), state});
  work_cv_.notify_all();
  return TxnTicket(std::move(state));
}

bool DbService::RunRecoveryBackfill() {
  if (!recovering_.load(std::memory_order_acquire)) {
    return true;
  }
  const auto backfill_start = std::chrono::steady_clock::now();
  const std::size_t initial_pending = backfill_pending_.load(std::memory_order_relaxed);
  while (db_->instant_recovery_pending()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_ || !fail_status_.ok()) {
        // Shut down with the window still open; the database is handed back
        // pending and the next owner finishes (or re-recovers) the backfill.
        return false;
      }
    }
    const StatusOr<std::size_t> remaining = db_->RunBackfillStep(64);
    if (!remaining.ok()) {
      std::lock_guard<std::mutex> lk(mu_);
      FailAll(Status::DataLoss("DbService: crash during recovery backfill: " +
                               remaining.status().message()));
      recovering_.store(false, std::memory_order_release);
      return false;
    }
    backfill_pending_.store(*remaining, std::memory_order_relaxed);
    // Refresh the retry-after hint from the measured retire rate: keys
    // retired since the backfill began over the wall time it took. The
    // fixed per-key guess this replaces was off by orders of magnitude
    // whenever redo work per key diverged from the assumed constant.
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  backfill_start)
            .count();
    const std::size_t retired =
        initial_pending > *remaining ? initial_pending - *remaining : 0;
    if (retired > 0 && elapsed_ms > 0.0) {
      const double rate_keys_per_ms = static_cast<double>(retired) / elapsed_ms;
      const double eta_ms = static_cast<double>(*remaining) / rate_keys_per_ms;
      const std::size_t hint =
          std::min<std::size_t>(60000, 1 + static_cast<std::size_t>(eta_ms));
      backfill_retry_hint_ms_.store(hint, std::memory_order_relaxed);
    }
  }
  recovering_.store(false, std::memory_order_release);
  return true;
}

void DbService::PacerLoop() {
  if (!RunRecoveryBackfill()) {
    std::lock_guard<std::mutex> lk(mu_);
    flush_ = false;  // nothing was admitted, so a concurrent Drain() is done
    idle_cv_.notify_all();
    space_cv_.notify_all();
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (deferred_.empty() && inflight_new_.empty()) {
      work_cv_.wait(lk, [&] {
        return stopping_ || !fail_status_.ok() || !queue_.empty() || flush_;
      });
    } else {
      // Aria deferrals (or an epoch whose durable callback is still in
      // flight on the tail thread) exist: never sleep past the delay bound,
      // so a deferred ticket resolves even when no new traffic arrives.
      work_cv_.wait_for(lk, spec_.max_epoch_delay, [&] {
        return stopping_ || !fail_status_.ok() || !queue_.empty() || flush_;
      });
    }
    if (!fail_status_.ok()) {
      break;
    }
    if (queue_.empty()) {
      if ((flush_ || stopping_) && !inflight_new_.empty()) {
        // Quiesce: the tail thread still owes durable callbacks, which may
        // reveal deferrals that need further flush epochs. Re-evaluate once
        // it drains.
        if (!QuiesceTail(lk)) {
          break;
        }
        continue;
      }
      if (!deferred_.empty()) {
        // Flush epoch: empty input; the engine re-runs its deferred batch.
        const std::size_t before = deferred_.size();
        if (!RunBatch(lk, {})) {
          break;
        }
        if (stopping_ || flush_) {
          // Progress must be observable before the next shutdown decision:
          // drain the flush epoch's own tail (its callback rebuilds
          // deferred_), then check that it resolved at least one deferral.
          // Aria guarantees the batch's first transaction commits, so a
          // no-progress flush means an engine bug — fail the stragglers
          // rather than spinning in shutdown forever.
          if (!QuiesceTail(lk)) {
            break;
          }
          if (!deferred_.empty() && deferred_.size() >= before) {
            FailAll(Status::Internal(
                "DbService: flush epoch resolved no deferred transactions"));
            break;
          }
        }
        continue;
      }
      if (!inflight_new_.empty()) {
        // No deferrals known yet, but a callback is outstanding; it will
        // notify work_cv_ when it lands. Loop back to the bounded wait.
        continue;
      }
      if (flush_) {
        flush_ = false;
        idle_cv_.notify_all();
      }
      if (stopping_) {
        break;
      }
      continue;
    }
    // A batch is forming: cut on size, delay bound, flush, or shutdown.
    const auto deadline = queue_.front().state->submit_time + spec_.max_epoch_delay;
    while (!stopping_ && !flush_ && fail_status_.ok() &&
           queue_.size() < spec_.max_epoch_txns) {
      if (work_cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    if (!fail_status_.ok()) {
      break;
    }
    const std::size_t n = std::min(queue_.size(), spec_.max_epoch_txns);
    std::vector<Pending> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    space_cv_.notify_all();
    if (!RunBatch(lk, std::move(batch))) {
      break;
    }
  }
  idle_cv_.notify_all();
  space_cv_.notify_all();
}

bool DbService::RunBatch(std::unique_lock<std::mutex>& lk, std::vector<Pending> batch) {
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  txns.reserve(batch.size());
  // Register the epoch's new-submission tickets before the engine sees the
  // batch: when OnEpochDurable later fires on the engine's tail thread, it
  // prepends the deferred carryover to the front entry to reconstruct the
  // engine's slot order.
  std::vector<std::shared_ptr<internal::TicketState>> fresh;
  fresh.reserve(batch.size());
  for (auto& p : batch) {
    txns.push_back(std::move(p.txn));
    fresh.push_back(std::move(p.state));
  }
  inflight_new_.push_back(std::move(fresh));
  executing_ = true;
  lk.unlock();
  const core::EpochResult result = db_->ExecuteEpoch(std::move(txns));
  lk.lock();
  executing_ = false;
  ++epochs_;
  if (result.crashed) {
    const Status why = Status::DataLoss(
        "DbService: crash hook fired during epoch " + std::to_string(result.epoch) +
        "; recover the database from the device");
    FailAll(why);
    return false;
  }
  if (queue_.empty() && deferred_.empty() && inflight_new_.empty()) {
    if (flush_) {
      flush_ = false;
    }
    idle_cv_.notify_all();
  }
  return true;
}

bool DbService::QuiesceTail(std::unique_lock<std::mutex>& lk) {
  lk.unlock();  // the durable callback takes mu_; don't hold it across the wait
  const Status idle = db_->WaitIdle();
  lk.lock();
  if (!idle.ok()) {
    FailAll(Status::DataLoss("DbService: " + idle.message() +
                             "; recover the database from the device"));
    return false;
  }
  if (!fail_status_.ok()) {
    return false;
  }
  return true;
}

void DbService::OnEpochDurable(const core::EpochResult& result,
                               const std::vector<core::TxnOutcome>& outcomes) {
  const auto now = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lk(mu_);
  if (!fail_status_.ok()) {
    return;  // FailAll already resolved every outstanding ticket
  }
  // Engine slot order: deferred carryover first, then the epoch's new
  // submissions. Callbacks arrive in strict epoch order (one tail at a
  // time), so the front of inflight_new_ is always this epoch's entry.
  std::vector<std::shared_ptr<internal::TicketState>> slots;
  slots.reserve(deferred_.size() +
                (inflight_new_.empty() ? 0 : inflight_new_.front().size()));
  for (auto& state : deferred_) {
    slots.push_back(std::move(state));
  }
  deferred_.clear();
  if (!inflight_new_.empty()) {
    for (auto& state : inflight_new_.front()) {
      slots.push_back(std::move(state));
    }
    inflight_new_.pop_front();
  }
  {
    std::lock_guard<std::mutex> stats_lk(stats_mu_);
    for (std::size_t i = 0; i < outcomes.size() && i < slots.size(); ++i) {
      const std::shared_ptr<internal::TicketState>& state = slots[i];
      switch (outcomes[i]) {
        case core::TxnOutcome::kDeferred:
          ++state->deferrals;
          deferred_.push_back(state);
          break;
        case core::TxnOutcome::kAborted:
        case core::TxnOutcome::kCommitted: {
          const TicketOutcome outcome = outcomes[i] == core::TxnOutcome::kCommitted
                                            ? TicketOutcome::kCommitted
                                            : TicketOutcome::kUserAborted;
          latency_.Record(MicrosSince(state->submit_time, now));
          Resolve(state, outcome, result.epoch, Status::Ok());
          break;
        }
      }
    }
  }
  const bool idle =
      queue_.empty() && deferred_.empty() && inflight_new_.empty() && !executing_;
  lk.unlock();
  // The pacer may be sleeping on the delay-bounded wait for exactly this
  // callback (deferred tickets to flush, or drain progress).
  work_cv_.notify_all();
  if (idle) {
    idle_cv_.notify_all();
  }
}

void DbService::Resolve(const std::shared_ptr<internal::TicketState>& state,
                        TicketOutcome outcome, Epoch epoch, Status status) {
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(state->mu);
    if (state->done) {
      return;  // first resolution wins (e.g. FailAll over a stale slot)
    }
    state->result.outcome = outcome;
    state->result.epoch = epoch;
    state->result.latency_micros = MicrosSince(state->submit_time, now);
    state->result.deferrals = state->deferrals;
    state->result.status = std::move(status);
    state->done = true;
  }
  state->cv.notify_all();
}

void DbService::FailAll(const Status& why) {
  fail_status_ = why;
  for (const auto& batch : inflight_new_) {
    for (const auto& state : batch) {
      Resolve(state, TicketOutcome::kFailed, 0, why);
    }
  }
  inflight_new_.clear();
  for (const auto& state : deferred_) {
    Resolve(state, TicketOutcome::kFailed, 0, why);
  }
  deferred_.clear();
  for (auto& p : queue_) {
    Resolve(p.state, TicketOutcome::kFailed, 0, why);
  }
  queue_.clear();
  work_cv_.notify_all();
  space_cv_.notify_all();
  idle_cv_.notify_all();
}

Status DbService::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  if (!fail_status_.ok()) {
    return fail_status_;
  }
  flush_ = true;
  work_cv_.notify_all();
  idle_cv_.wait(lk, [&] {
    return !fail_status_.ok() ||
           (queue_.empty() && deferred_.empty() && inflight_new_.empty() &&
            !executing_ && !flush_);
  });
  return fail_status_;
}

Status DbService::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    work_cv_.notify_all();
    space_cv_.notify_all();
  }
  if (pacer_.joinable()) {
    pacer_.join();
  }
  if (db_) {
    db_->SetEpochCallback({});
  }
  std::lock_guard<std::mutex> lk(mu_);
  return fail_status_;
}

std::unique_ptr<core::Database> DbService::TakeDatabase() {
  Stop().IgnoreError();
  return std::move(db_);
}

LatencySummary DbService::LatencySnapshot() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return latency_.Summarize();
}

std::size_t DbService::epochs_executed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epochs_;
}

std::size_t DbService::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

Status DbService::health() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fail_status_;
}

}  // namespace nvc::service
