// ycsb_service: YCSB through the DbService group-commit front-end, open loop.
//
// 200k rows of 1000-byte values (256-byte rows, so the values live out of
// line in the value pool), medium contention (4 of 10 read-modify-writes on
// 256 hot rows), a value cache of 20k entries against 200k rows (larger than
// cache). One submitter thread offers transactions at a fixed absolute rate,
// kArrivalRate, well below the engine's capacity on a 4-core host; 2 engine
// workers; epochs are cut by the 10 ms delay bound (the size bound is never
// reached) with the pipelined tail on. Device time, group commit and the
// persistence tail dominate, and submit -> durable latency is what a caller
// waits on.
//
// Each transaction is timed from its scheduled send time, so a stalled
// submitter or service charges the wait to every transaction behind it.
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nvcbench/report.h"
#include "nvcbench/workloads.h"
#include "src/service/db_service.h"
#include "src/workload/ycsb.h"

namespace nvcbench {
namespace {

using nvc::core::Database;
using nvc::service::DbService;
using nvc::service::ServiceSpec;
using nvc::service::TicketOutcome;
using nvc::service::TxnTicket;
using nvc::workload::YcsbConfig;
using nvc::workload::YcsbWorkload;

constexpr std::size_t kWorkers = 2;
constexpr double kArrivalRate = 2'000;  // transactions per second
// 10 ms, not 2: with 2 ms the service is bistable on a shared host, and in
// some runs every epoch outlasts the bound and latency doubles (NOTES.md).
constexpr std::chrono::microseconds kEpochDelay{10000};
constexpr std::size_t kCacheEntries = 20'000;
// A fixed-epoch run (--epochs N) offers N delay windows' worth of arrivals.
constexpr std::size_t kArrivalsPerFixedEpoch =
    static_cast<std::size_t>(kArrivalRate * static_cast<double>(kEpochDelay.count()) / 1e6);

YcsbConfig Config(std::uint64_t seed) {
  YcsbConfig config;
  config.rows = 200'000;
  config.hot_ops = 4;
  config.hot_rows = 256;
  config.seed = seed;
  // 256-byte rows keep the 1000-byte values out of line, in the value pool,
  // so reads go through the DRAM value cache.
  config.row_size = 256;
  return config;
}

nvc::core::DatabaseSpec Spec(const YcsbWorkload& workload) {
  nvc::core::DatabaseSpec spec = workload.Spec(kWorkers);
  spec.cache_max_entries = kCacheEntries;
  return spec;
}

ServiceSpec MakeServiceSpec() {
  ServiceSpec spec;
  spec.max_epoch_txns = 4096;
  spec.max_epoch_delay = kEpochDelay;
  spec.queue_capacity = 1 << 16;
  // Open loop: the submitter must never block; a rejection is a failure.
  spec.backpressure = nvc::service::BackpressurePolicy::kReject;
  return spec;
}

struct Fixture {
  Fixture(std::uint64_t seed, std::size_t arrivals)
      : workload(Config(seed)), spec(Spec(workload)) {
    nvc::sim::NvmConfig config;
    config.size_bytes = Database::RequiredDeviceBytes(spec);
    config.latency = nvc::sim::LatencyProfile::Optane();
    device = std::make_unique<nvc::sim::NvmDevice>(config);
    db = std::make_unique<Database>(*device, spec);
    db->Format();
    workload.Load(*db);
    db->FinalizeLoad();
    const std::int64_t start = NowNs();
    txns = workload.MakeEpoch(arrivals);
    gen_seconds = SecondsBetween(start, NowNs());
  }

  YcsbWorkload workload;
  nvc::core::DatabaseSpec spec;
  std::unique_ptr<nvc::sim::NvmDevice> device;
  std::unique_ptr<Database> db;
  TxnBatch txns;  // the whole arrival stream, in order
  double gen_seconds = 0;
};

struct Arrival {
  std::int64_t scheduled_ns = 0;
  std::int64_t call_ns = 0;
  std::int64_t return_ns = 0;
  TxnTicket ticket;
  bool admitted = false;
};

struct ServiceSegment {
  Outcomes outcomes;
  double wall_seconds = 0;
  double cpu_seconds = 0;
  // Windows of consecutive arrivals; the last one runs until the drain.
  std::vector<Window> windows;
  std::vector<double> submit_us;
  std::vector<double> lag_ms;
  std::vector<double> queue_depth;
  std::size_t epochs = 0;
  nvc::sim::NvmCounters nvm;
  EngineCounters engine;
  bool healthy = true;
};

// Offers txns[begin, end) at kArrivalRate through a fresh service over `db`,
// drains, and hands the database back.
ServiceSegment RunSegment(Fixture& fx, std::size_t begin, std::size_t end, Tracer& tracer) {
  ServiceSegment out;
  const nvc::sim::NvmCounters nvm_before = fx.device->stats().Snapshot();
  const EngineCounters engine_before = SnapshotEngine(fx.db->stats());
  DbService svc(std::move(fx.db), MakeServiceSpec());

  std::vector<Arrival> arrivals(end - begin);
  const std::size_t windows = std::min(kWindows, arrivals.size());
  // Window w holds arrivals [window_begin(w), window_begin(w + 1)).
  const auto window_begin = [&](std::size_t w) { return w * arrivals.size() / windows; };
  std::vector<std::int64_t> window_ns(windows + 1);
  std::vector<double> window_cpu(windows + 1);
  std::size_t next_window = 0;
  const auto gap = std::chrono::duration<double>(1.0 / kArrivalRate);
  const auto origin = std::chrono::steady_clock::now();
  const std::int64_t start = NowNs();
  const double cpu_start = ProcessCpuSeconds();
  // CPU the submitter burnt waiting for due times; the generator's, not the
  // service's, so it is left out of cpu_us_per_txn.
  double spin_cpu = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Arrival& a = arrivals[i];
    const auto due =
        origin + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     gap * static_cast<double>(i));
    // Spin rather than sleep: on a shared virtual host a halted core can
    // take milliseconds to wake, which would be charged to the service.
    const double spin_from = ThreadCpuSeconds();
    while (std::chrono::steady_clock::now() < due) {
    }
    spin_cpu += ThreadCpuSeconds() - spin_from;
    a.scheduled_ns =
        start + std::chrono::duration_cast<std::chrono::nanoseconds>(due - origin).count();
    if (next_window < windows && i == window_begin(next_window)) {
      window_ns[next_window] = a.scheduled_ns;
      window_cpu[next_window] = ProcessCpuSeconds() - spin_cpu;
      ++next_window;
    }
    a.call_ns = NowNs();
    nvc::StatusOr<TxnTicket> ticket = svc.Submit(std::move(fx.txns[begin + i]));
    a.return_ns = NowNs();
    if (ticket.ok()) {
      a.ticket = std::move(ticket).value();
      a.admitted = true;
    }
    if (tracer.enabled()) {
      out.queue_depth.push_back(static_cast<double>(svc.queue_depth()));
    }
  }
  out.healthy = svc.Drain().ok();
  const std::int64_t drained = NowNs();
  out.cpu_seconds = ProcessCpuSeconds() - cpu_start - spin_cpu;
  out.wall_seconds = SecondsBetween(start, drained);
  out.epochs = svc.epochs_executed();
  window_ns[windows] = drained;
  window_cpu[windows] = cpu_start + out.cpu_seconds;
  out.windows.resize(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    out.windows[w].wall_seconds = SecondsBetween(window_ns[w], window_ns[w + 1]);
    out.windows[w].cpu_seconds = window_cpu[w + 1] - window_cpu[w];
  }

  // Per window: epoch -> the wait of its oldest arrival in that window.
  std::vector<std::map<nvc::Epoch, double>> epoch_latency(windows);
  // Per window: when its last transaction became durable.
  std::vector<std::int64_t> window_durable_ns(windows, 0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const std::size_t w = i * windows / arrivals.size();
    const std::uint64_t id = begin + i + 1;
    ++out.outcomes.attempted;
    out.submit_us.push_back(SecondsBetween(a.call_ns, a.return_ns) * 1e6);
    out.lag_ms.push_back(SecondsBetween(a.scheduled_ns, a.call_ns) * 1e3);
    tracer.Span("service.submit", Tracer::kSubmitter, id, 0, a.call_ns, a.return_ns);
    if (!a.admitted) {
      ++out.outcomes.failed;
      continue;
    }
    const nvc::service::TicketResult& r = a.ticket.Get();
    if (r.outcome == TicketOutcome::kFailed) {
      ++out.outcomes.failed;
      continue;
    }
    ++(r.outcome == TicketOutcome::kCommitted ? out.outcomes.committed
                                              : out.outcomes.user_aborted);
    // The service times submit -> durable from inside Submit; the wait
    // before the call (a late submitter) is added to it.
    const double commit_ms =
        SecondsBetween(a.scheduled_ns, a.call_ns) * 1e3 + r.latency_micros / 1e3;
    ++out.windows[w].resolved;
    out.windows[w].commit_ms.emplace_back(commit_ms, 1);
    double& worst = epoch_latency[w][r.epoch];
    worst = std::max(worst, commit_ms);
    const auto durable_ns = a.call_ns + static_cast<std::int64_t>(r.latency_micros * 1e3);
    window_durable_ns[w] = std::max(window_durable_ns[w], durable_ns);
    tracer.Span("core.durable", Tracer::kDurable, id, r.epoch, a.scheduled_ns, durable_ns);
  }
  // Throughput is the completion rate: a window lasts from the previous
  // window's last durable point (the first window: from its first scheduled
  // send) to its own. Between scheduled sends it would only restate the
  // offered rate.
  for (std::size_t w = 0; w < windows; ++w) {
    const std::int64_t from = w == 0 ? window_ns[0] : window_durable_ns[w - 1];
    if (window_durable_ns[w] > from) {
      out.windows[w].wall_seconds = SecondsBetween(from, window_durable_ns[w]);
    }
  }
  for (std::size_t w = 0; w < windows; ++w) {
    for (const auto& [epoch, ms] : epoch_latency[w]) {
      out.windows[w].epoch_ms.push_back(ms);
    }
  }
  out.healthy = svc.Stop().ok() && out.healthy;
  fx.db = svc.TakeDatabase();
  out.healthy = fx.db->WaitIdle().ok() && out.healthy;
  out.nvm = Delta(nvm_before, fx.device->stats().Snapshot());
  out.engine = Delta(engine_before, SnapshotEngine(fx.db->stats()));
  return out;
}

// The same stream hand-batched into a zero-latency engine.
std::uint64_t ReferenceDigest(std::uint64_t seed, std::size_t arrivals) {
  YcsbWorkload workload(Config(seed));
  const nvc::core::DatabaseSpec spec = Spec(workload);
  nvc::sim::NvmConfig config;
  config.size_bytes = Database::RequiredDeviceBytes(spec);
  nvc::sim::NvmDevice device(config);
  Database db(device, spec);
  db.Format();
  workload.Load(db);
  db.FinalizeLoad();
  TxnBatch all = workload.MakeEpoch(arrivals);
  constexpr std::size_t kBatch = 1000;
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    TxnBatch batch;
    for (std::size_t j = i; j < std::min(all.size(), i + kBatch); ++j) {
      batch.push_back(std::move(all[j]));
    }
    db.ExecuteEpoch(std::move(batch));
  }
  db.WaitIdle().IgnoreError();
  return StateDigest(db, /*include_epoch=*/false);
}

}  // namespace

void RunYcsbService(const Options& opts, Tracer& tracer, RunReport& report) {
  const std::size_t warmup = static_cast<std::size_t>(kArrivalRate * opts.WarmupSeconds());
  const std::size_t arrivals =
      warmup + (opts.fixed_epochs > 0 ? opts.fixed_epochs * kArrivalsPerFixedEpoch
                                      : static_cast<std::size_t>(kArrivalRate * opts.seconds));
  double setup_seconds = 0;
  std::unique_ptr<Fixture> fx = BuildRepeatedly(
      kSetupRepeats, [&] { return std::make_unique<Fixture>(opts.seed, arrivals); },
      &setup_seconds);

  ServiceSegment measured;
  double untraced_throughput = 0;
  nvc::ProfileReport profile;
  if (warmup > 0) {
    report.outcomes += RunSegment(*fx, 0, warmup, tracer).outcomes;
  }
  if (!opts.trace) {
    measured = RunSegment(*fx, warmup, arrivals, tracer);
  } else {
    // First half untraced through one service, second half traced through
    // a second service over the same database (the profiler may only be
    // reconfigured while no epoch runs).
    const std::size_t half = warmup + (arrivals - warmup) / 2;
    const ServiceSegment base = RunSegment(*fx, warmup, half, tracer);
    untraced_throughput = static_cast<double>(base.outcomes.resolved()) / base.wall_seconds;
    report.outcomes += base.outcomes;
    fx->db->ConfigureProfiler(nvc::ProfilerConfig{.enabled = true});
    tracer.SetEnabled(true);
    measured = RunSegment(*fx, half, arrivals, tracer);
    profile = fx->db->ProfileReport();
  }
  report.outcomes += measured.outcomes;
  report.checks.Expect(measured.healthy, "the service drained and stopped cleanly");
  const nvc::core::MemoryBreakdown memory = fx->db->GetMemoryBreakdown();

  const std::uint64_t before = StateDigest(*fx->db, true);
  fx->db.reset();
  const Restart restart =
      RestartRepeatedly(*fx->device, fx->spec, fx->workload.Registry(), tracer);
  const double peak_rss = PeakRssMb();
  report.checks.Expect(restart.ok, "clean-restart Recover() succeeds");
  report.checks.Expect(StateDigest(*restart.db, true) == before,
                       "state after restart equals state before it");
  const std::uint64_t recovered_digest = StateDigest(*restart.db, false);

  if (!opts.trace) {
    EndToEnd e2e;
    e2e.windows = measured.windows;
    e2e.resolved = measured.outcomes.resolved();
    e2e.nvm = measured.nvm;
    e2e.recovery_seconds = restart.median_seconds;
    e2e.setup_seconds = setup_seconds;
    e2e.peak_rss_mb = peak_rss;
    EmitEndToEnd(e2e, report.metrics);
  } else {
    EmitLayerDefaults(report.metrics);
    LayerInputs in;
    in.resolved = measured.outcomes.resolved();
    in.epochs = measured.epochs;
    in.cpu_seconds = measured.cpu_seconds;
    in.nvm = measured.nvm;
    in.engine = measured.engine;
    in.profile = &profile;
    in.memory = memory;
    in.gen_seconds = fx->gen_seconds;
    in.generated_txns = arrivals;
    EmitCommonLayers(in, report.metrics);
    report.metrics.Set("service.submit_us_p99", Percentile(measured.submit_us, 99), "us");
    report.metrics.Set("service.txns_per_epoch",
                       static_cast<double>(measured.outcomes.attempted) /
                           static_cast<double>(std::max<std::size_t>(measured.epochs, 1)),
                       "txn/epoch");
    report.metrics.Set("service.queue_depth_p99", Percentile(measured.queue_depth, 99), "txn");
    report.metrics.Set("service.loadgen_lag_ms_p99", Percentile(measured.lag_ms, 99), "ms");
    EmitRecoveryLayer(restart.report, report.metrics);
    std::vector<double> p99;
    for (const Window& w : measured.windows) {
      p99.push_back(WeightedPercentile(w.commit_ms, 99));
    }
    report.metrics.Set("service.commit_p99_ms", Median(p99), "ms");
    const double traced_throughput =
        static_cast<double>(measured.outcomes.resolved()) / measured.wall_seconds;
    report.metrics.Set("trace.overhead_ratio", traced_throughput / untraced_throughput,
                       "ratio");
  }

  report.checks.Expect(ReferenceDigest(opts.seed, arrivals) == recovered_digest,
                       "state hash equals the zero-latency hand-batched reference");
}

}  // namespace nvcbench
