// tpcc_recover: TPC-C with the persistent index, closed loop, ending in a
// crash and a timed recovery.
//
// 8 warehouses, one worker (Options::tpcc_workers), 400-transaction epochs,
// the workload's own Spec() with enable_persistent_index on and
// new_order_capacity sized for the longest run (MaxEpochs). Inserts,
// Delivery deletes, the order counters and ten tables exercise the insert
// step, the allocators, the index-delta and GC-log tail and major GC. After
// a fixed warm-up, five times, one more epoch runs with a crash hook at
// kBeforeEpochPersist; the device drops its unflushed lines and a fresh
// Database recovers: scan, revert and replay of the crashed epoch. The timed
// region then runs on the recovered engine. This is the only workload whose
// recovery replays.
#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "nvcbench/closed_loop.h"
#include "nvcbench/report.h"
#include "nvcbench/workloads.h"
#include "src/core/oracle.h"
#include "src/workload/tpcc.h"

namespace nvcbench {
namespace {

using nvc::core::CrashSite;
using nvc::core::Database;
using nvc::workload::TpccConfig;
using nvc::workload::TpccWorkload;

constexpr std::size_t kEpochTxns = 400;
constexpr std::size_t kChunkEpochs = 16;
// Epochs per second of timed region the order tables are sized for, about
// 1.3x what one worker sustains on a 4-core host; a faster host ends its
// timed region early, at MaxEpochs, rather than exhausting the pools. The
// bound keeps peak memory (the device and its crash shadow, a full copy)
// near 1.5 GB for a 10-second run.
constexpr double kMaxEpochsPerSecond = 30;
// About one second of epochs; see the warm-up in RunTpccRecover.
constexpr std::size_t kWarmupEpochs = 30;
// Crash-recover cycles per run; recovery_s is their median.
constexpr std::size_t kCrashRepeats = 5;

// Epochs of the timed region at most.
std::size_t MaxEpochs(const Options& opts) {
  if (opts.fixed_epochs > 0) {
    return opts.fixed_epochs;
  }
  return static_cast<std::size_t>(opts.seconds * kMaxEpochsPerSecond);
}

TpccConfig Config(std::uint64_t seed, std::size_t max_epochs) {
  TpccConfig config;
  config.warehouses = 8;
  config.seed = seed;
  // NewOrder is 45% of the mix; room for the warm-up, the crashed epochs
  // and the timed region, with 5% headroom.
  config.new_order_capacity = static_cast<std::uint32_t>(
      (kWarmupEpochs + kCrashRepeats + max_epochs) * kEpochTxns * 45 / 100 * 21 / 20 + 1024);
  return config;
}

nvc::core::DatabaseSpec Spec(const TpccWorkload& workload, std::size_t workers) {
  nvc::core::DatabaseSpec spec = workload.Spec(workers);
  spec.enable_persistent_index = true;
  return spec;
}

struct Fixture {
  Fixture(std::uint64_t seed, std::size_t max_epochs, std::size_t workers, Tracer& tracer)
      : workload(Config(seed, max_epochs)), spec(Spec(workload, workers)) {
    nvc::sim::NvmConfig config;
    config.size_bytes = Database::RequiredDeviceBytes(spec);
    config.latency = nvc::sim::LatencyProfile::Optane();
    // The shadow image lets the crash drop every line not yet flushed.
    config.crash_tracking = nvc::sim::CrashTracking::kShadow;
    device = std::make_unique<nvc::sim::NvmDevice>(config);
    db = std::make_unique<Database>(*device, spec);
    db->Format();
    workload.Load(*db);
    db->FinalizeLoad();
    AttachLoop(tracer);
    loop->Prefetch();
  }

  // Drives `db` (a recovered engine replaces the loaded one) with the
  // workload's stream. Generation time accumulates across loops.
  void AttachLoop(Tracer& tracer) {
    if (loop != nullptr) {
      gen_seconds += loop->total_gen_seconds();
      generated_txns += loop->generated_txns();
    }
    loop = std::make_unique<ClosedLoop>(
        *db, *device, tracer, [this] { return workload.MakeEpoch(kEpochTxns); }, kChunkEpochs);
  }

  TpccWorkload workload;
  nvc::core::DatabaseSpec spec;
  std::unique_ptr<nvc::sim::NvmDevice> device;
  std::unique_ptr<Database> db;
  std::unique_ptr<ClosedLoop> loop;
  double gen_seconds = 0;
  std::uint64_t generated_txns = 0;
};

void CheckDatabase(Database& db, const TpccConfig& config, const std::string& when,
                   Checks& checks) {
  std::string message;
  const bool consistent = TpccWorkload::CheckConsistency(db, config, &message);
  checks.Expect(consistent, "TPC-C consistency " + when + ": " + message);
  message.clear();
  const std::size_t bad_slots = nvc::core::ValidatePersistentIndex(db, &message);
  checks.Expect(bad_slots == 0, "persistent index valid " + when + ": " +
                                    std::to_string(bad_slots) + " inconsistencies\n" + message);
}

}  // namespace

void RunTpccRecover(const Options& opts, Tracer& tracer, RunReport& report) {
  const std::size_t max_epochs = MaxEpochs(opts);
  double setup_seconds = 0;
  std::unique_ptr<Fixture> fx = BuildRepeatedly(
      kSetupRepeats, [&] {
        return std::make_unique<Fixture>(opts.seed, max_epochs, opts.tpcc_workers, tracer);
      },
      &setup_seconds);

  // Warm-up of a fixed number of epochs, so that every run crashes and
  // recovers a database of the same size: an engine that runs faster must
  // not look slower to recover because it inserted more orders.
  const SegmentResult warm =
      fx->loop->Run(std::numeric_limits<double>::infinity(), kWarmupEpochs);
  report.outcomes += warm.outcomes;
  report.checks.Expect(!warm.crashed, "no warm-up epoch crashed unexpectedly");
  fx->loop.reset();
  CheckDatabase(*fx->db, fx->workload.config(), "after the warm-up", report.checks);

  // Crash and recover kCrashRepeats times. Each cycle runs one more epoch,
  // stopped right before its epoch number would persist, drops every
  // unflushed line and recovers a fresh Database: scan, revert, replay. The
  // crashed epochs are not part of the measured stream; replay re-executes
  // them.
  std::vector<double> recovery_seconds;
  nvc::core::RecoveryReport recovery;
  bool recovered_ok = true;
  for (std::size_t cycle = 1; cycle <= kCrashRepeats && recovered_ok; ++cycle) {
    const std::string when = "after recovery " + std::to_string(cycle);
    fx->db->SetCrashHook([](CrashSite site) { return site == CrashSite::kBeforeEpochPersist; });
    const nvc::core::EpochResult crash_epoch =
        fx->db->ExecuteEpoch(fx->workload.MakeEpoch(kEpochTxns));
    const nvc::Status crash_idle = fx->db->WaitIdle();
    report.checks.Expect(crash_epoch.crashed || !crash_idle.ok(),
                         "the injected crash fired at kBeforeEpochPersist");
    fx->db.reset();
    fx->device->Crash();

    const std::int64_t start = NowNs();
    fx->db = std::make_unique<Database>(*fx->device, fx->spec);
    const nvc::StatusOr<nvc::core::RecoveryReport> recovered =
        fx->db->Recover(fx->workload.Registry());
    const std::int64_t end = NowNs();
    tracer.Span("core.recover", Tracer::kMain, crash_epoch.epoch, 0, start, end);
    recovery_seconds.push_back(SecondsBetween(start, end));
    recovered_ok = recovered.ok() && recovered->replayed;
    report.checks.Expect(recovered_ok, "Recover() replays the crashed epoch " + when);
    if (recovered_ok) {
      recovery = *recovered;
      CheckDatabase(*fx->db, fx->workload.config(), when, report.checks);
    }
  }

  // The timed region runs on the recovered engine.
  SegmentResult measured;
  double untraced_throughput = 0;
  nvc::ProfileReport profile;
  nvc::core::MemoryBreakdown memory;
  if (recovered_ok) {
    fx->AttachLoop(tracer);
    if (!opts.trace) {
      measured = fx->loop->Run(opts.TimedSeconds(), max_epochs);
    } else {
      const SegmentResult base =
          fx->loop->Run(opts.TimedSeconds() / 2, std::max<std::size_t>(max_epochs / 2, 1));
      untraced_throughput = static_cast<double>(base.outcomes.resolved()) / base.wall_seconds;
      report.outcomes += base.outcomes;
      fx->db->ConfigureProfiler(nvc::ProfilerConfig{.enabled = true});
      tracer.SetEnabled(true);
      measured = fx->loop->Run(opts.TimedSeconds() / 2,
                               std::max<std::size_t>(max_epochs - base.epochs, 1));
      profile = fx->db->ProfileReport();
    }
    report.outcomes += measured.outcomes;
    report.checks.Expect(!measured.crashed, "no epoch crashed unexpectedly");
    fx->loop.reset();
    memory = fx->db->GetMemoryBreakdown();
    CheckDatabase(*fx->db, fx->workload.config(), "after the run", report.checks);
  }
  const double peak_rss = PeakRssMb();

  if (!opts.trace) {
    EndToEnd e2e = ToEndToEnd(measured);
    e2e.recovery_seconds = Median(recovery_seconds);
    e2e.setup_seconds = setup_seconds;
    e2e.peak_rss_mb = peak_rss;
    EmitEndToEnd(e2e, report.metrics);
  } else {
    EmitLayerDefaults(report.metrics);
    LayerInputs in = ToLayerInputs(measured);
    in.profile = &profile;
    in.memory = memory;
    in.gen_seconds = fx->gen_seconds;
    in.generated_txns = fx->generated_txns;
    EmitCommonLayers(in, report.metrics);
    report.metrics.Set("core.durable_lag_ms_p50", Median(measured.lag_ms), "ms");
    report.metrics.Set("core.execute_call_ms_p50", Median(measured.call_ms), "ms");
    EmitRecoveryLayer(recovery, report.metrics);
    const double traced_throughput =
        static_cast<double>(measured.outcomes.resolved()) / measured.wall_seconds;
    report.metrics.Set("trace.overhead_ratio", traced_throughput / untraced_throughput,
                       "ratio");
  }
}

}  // namespace nvcbench
