#include "nvcbench/closed_loop.h"

#include <unordered_map>
#include <utility>

namespace nvcbench {

EndToEnd ToEndToEnd(const SegmentResult& segment) {
  EndToEnd e2e;
  e2e.windows = EpochWindows(segment.samples);
  e2e.resolved = segment.outcomes.resolved();
  e2e.nvm = segment.nvm;
  return e2e;
}

LayerInputs ToLayerInputs(const SegmentResult& segment) {
  LayerInputs in;
  in.resolved = segment.outcomes.resolved();
  in.epochs = segment.epochs;
  in.cpu_seconds = segment.cpu_seconds;
  in.nvm = segment.nvm;
  in.engine = segment.engine;
  return in;
}

ClosedLoop::ClosedLoop(nvc::core::Database& db, nvc::sim::NvmDevice& device, Tracer& tracer,
                       EpochMaker make, std::size_t chunk_epochs)
    : db_(db), device_(device), tracer_(tracer), make_(std::move(make)),
      chunk_epochs_(chunk_epochs) {
  db_.SetEpochCallback(durable_.Callback());
}

ClosedLoop::~ClosedLoop() {
  // WaitIdle first: no durable callback may be in flight once the log that
  // receives it is gone.
  db_.WaitIdle().IgnoreError();
  db_.SetEpochCallback({});
}

void ClosedLoop::Prefetch() {
  const std::int64_t start = NowNs();
  for (std::size_t i = 0; i < chunk_epochs_; ++i) {
    const std::int64_t t0 = NowNs();
    ready_.push_back(make_());
    generated_txns_ += ready_.back().size();
    tracer_.Span("workload.make_epoch", Tracer::kMain, ++generated_epochs_, 0, t0, NowNs());
  }
  total_gen_seconds_ += SecondsBetween(start, NowNs());
}

SegmentResult ClosedLoop::Run(double seconds, std::size_t max_epochs) {
  struct Call {
    nvc::Epoch epoch;
    std::int64_t call_ns;
    std::int64_t return_ns;
    std::size_t txns;
    double cycle_seconds;
    double cycle_cpu_seconds;
  };
  SegmentResult out;
  std::vector<Call> calls;
  const nvc::sim::NvmCounters nvm_before = device_.stats().Snapshot();
  const EngineCounters engine_before = SnapshotEngine(db_.stats());
  double timed = 0;  // completed stretches
  bool stop = false;
  while (!stop && !out.crashed) {
    if (ready_.empty()) {
      Prefetch();
    }
    // One timed stretch: run ready epochs back to back, then drain the tail.
    const std::int64_t start = NowNs();
    const double cpu_start = ProcessCpuSeconds();
    const std::size_t first_call = calls.size();
    std::vector<double> call_cpu;  // process CPU at each call of the stretch
    while (!ready_.empty()) {
      TxnBatch batch = std::move(ready_.front());
      ready_.pop_front();
      const std::size_t n = batch.size();
      call_cpu.push_back(ProcessCpuSeconds());
      const std::int64_t call = NowNs();
      const nvc::core::EpochResult r = db_.ExecuteEpoch(std::move(batch));
      const std::int64_t ret = NowNs();
      tracer_.Span("core.execute_epoch", Tracer::kMain, r.epoch, 0, call, ret);
      if (tracer_.enabled()) {
        tracer_.Counters(ret, device_.stats().Snapshot());
      }
      out.outcomes.attempted += n;
      ++out.epochs;
      ++epochs_run_;
      if (r.crashed) {
        out.outcomes.failed += n;
        out.crashed = true;
        break;
      }
      calls.push_back(Call{r.epoch, call, ret, n, 0, 0});
      stop = (max_epochs > 0 && out.epochs >= max_epochs) ||
             timed + SecondsBetween(start, ret) >= seconds;
      if (stop) {
        break;
      }
    }
    const std::int64_t wait_start = NowNs();
    const nvc::Status idle = db_.WaitIdle();
    const std::int64_t end = NowNs();
    tracer_.Span("core.wait_idle", Tracer::kMain, epochs_run_, 0, wait_start, end);
    const double cpu_end = ProcessCpuSeconds();
    out.cpu_seconds += cpu_end - cpu_start;
    timed += SecondsBetween(start, end);
    for (std::size_t i = first_call; i < calls.size(); ++i) {
      const bool last = i + 1 == calls.size();
      calls[i].cycle_seconds =
          SecondsBetween(calls[i].call_ns, last ? end : calls[i + 1].call_ns);
      calls[i].cycle_cpu_seconds =
          (last ? cpu_end : call_cpu[i + 1 - first_call]) - call_cpu[i - first_call];
    }
    if (!idle.ok()) {
      out.crashed = true;
    }
  }
  out.wall_seconds = timed;
  out.nvm = Delta(nvm_before, device_.stats().Snapshot());
  out.engine = Delta(engine_before, SnapshotEngine(db_.stats()));

  std::unordered_map<nvc::Epoch, DurableLog::Entry> durable;
  for (const DurableLog::Entry& e : durable_.Take()) {
    durable.emplace(e.epoch, e);
  }
  for (const Call& c : calls) {
    const auto it = durable.find(c.epoch);
    if (it == durable.end()) {
      out.outcomes.failed += c.txns;  // never became durable
      continue;
    }
    const DurableLog::Entry& d = it->second;
    out.outcomes.committed += d.committed;
    out.outcomes.user_aborted += d.aborted;
    out.samples.push_back(EpochSample{.cycle_seconds = c.cycle_seconds,
                                      .cycle_cpu_seconds = c.cycle_cpu_seconds,
                                      .latency_ms = SecondsBetween(c.call_ns, d.durable_ns) * 1e3,
                                      .txns = c.txns,
                                      .resolved = d.committed + d.aborted});
    out.call_ms.push_back(SecondsBetween(c.call_ns, c.return_ns) * 1e3);
    out.lag_ms.push_back(SecondsBetween(c.return_ns, d.durable_ns) * 1e3);
    tracer_.Span("core.durable", Tracer::kDurable, c.epoch, c.epoch, c.call_ns, d.durable_ns);
  }
  return out;
}

}  // namespace nvcbench
