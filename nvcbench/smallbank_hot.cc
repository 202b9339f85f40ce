// smallbank_hot: SmallBank at Figure 6's high contention, closed loop.
//
// 50k customers, 800 hot customers (~9 updates per hot customer per
// 8000-transaction epoch), one worker as in Figure 6's Zen comparison, the
// workload's own Spec() (the whole dataset fits the DRAM value cache).
// Transactions are tiny, so the epoch front half (insert, append, execute)
// dominates; the service, shard and crash-replay layers do no work here.
//
// The traced run also drives the Zen baseline over the same seeded stream
// (ref.zen_txn_s) and reports NVCaracal/Zen (ref.fig6_ratio).
#include <memory>
#include <string>

#include "nvcbench/closed_loop.h"
#include "nvcbench/report.h"
#include "nvcbench/workloads.h"
#include "src/workload/smallbank.h"
#include "src/zen/zen_db.h"

namespace nvcbench {
namespace {

using nvc::core::Database;
using nvc::workload::SmallBankConfig;
using nvc::workload::SmallBankWorkload;

constexpr std::size_t kEpochTxns = 8000;
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kChunkEpochs = 32;

SmallBankConfig Config(std::uint64_t seed) {
  SmallBankConfig config;
  config.customers = 50'000;
  config.hotspot_customers = kEpochTxns * 9 / 10 / 9;
  config.seed = seed;
  return config;
}

nvc::sim::NvmConfig DeviceConfig(const nvc::core::DatabaseSpec& spec,
                                 nvc::sim::LatencyProfile latency) {
  nvc::sim::NvmConfig config;
  config.size_bytes = Database::RequiredDeviceBytes(spec);
  config.latency = latency;
  return config;
}

struct Fixture {
  Fixture(std::uint64_t seed, Tracer& tracer)
      : workload(Config(seed)), spec(workload.Spec(kWorkers)) {
    device = std::make_unique<nvc::sim::NvmDevice>(
        DeviceConfig(spec, nvc::sim::LatencyProfile::Optane()));
    db = std::make_unique<Database>(*device, spec);
    db->Format();
    workload.Load(*db);
    db->FinalizeLoad();
    loop = std::make_unique<ClosedLoop>(
        *db, *device, tracer, [this] { return workload.MakeEpoch(kEpochTxns); }, kChunkEpochs);
    loop->Prefetch();
  }

  SmallBankWorkload workload;
  nvc::core::DatabaseSpec spec;
  std::unique_ptr<nvc::sim::NvmDevice> device;
  std::unique_ptr<Database> db;
  std::unique_ptr<ClosedLoop> loop;
};

// The same seeded stream, hand-batched into a zero-latency engine.
struct Reference {
  std::uint64_t digest = 0;
  Outcomes outcomes;
};
Reference RunReference(std::uint64_t seed, std::size_t epochs) {
  SmallBankWorkload workload(Config(seed));
  const nvc::core::DatabaseSpec spec = workload.Spec(kWorkers);
  nvc::sim::NvmDevice device(DeviceConfig(spec, nvc::sim::LatencyProfile::None()));
  Database db(device, spec);
  db.Format();
  workload.Load(db);
  db.FinalizeLoad();
  Reference ref;
  for (std::size_t e = 0; e < epochs; ++e) {
    const nvc::core::EpochResult r = db.ExecuteEpoch(workload.MakeEpoch(kEpochTxns));
    ref.outcomes.committed += r.committed;
    ref.outcomes.user_aborted += r.aborted;
  }
  db.WaitIdle().IgnoreError();
  ref.digest = StateDigest(db, /*include_epoch=*/true);
  return ref;
}

// Zen (Figure 6's comparison system) over the same stream: closed loop,
// batches of kEpochTxns, generation outside the timed region.
double ZenThroughput(std::uint64_t seed, double seconds) {
  SmallBankWorkload workload(Config(seed));
  const SmallBankConfig& config = workload.config();
  nvc::zen::ZenSpec spec;
  spec.workers = kWorkers;
  for (const char* name : {"savings", "checking"}) {
    spec.tables.push_back(nvc::zen::ZenTableSpec{
        .name = name, .value_size = 8, .capacity_slots = config.customers + 65'536});
  }
  nvc::sim::NvmConfig device_config;
  device_config.size_bytes = nvc::zen::ZenDb::RequiredDeviceBytes(spec);
  device_config.latency = nvc::sim::LatencyProfile::Optane();
  nvc::sim::NvmDevice device(device_config);
  nvc::zen::ZenDb db(device, spec);
  db.Format();
  for (std::uint64_t c = 0; c < config.customers; ++c) {
    db.BulkLoad(nvc::workload::kSavingsTable, c, &config.initial_balance, 8);
    db.BulkLoad(nvc::workload::kCheckingTable, c, &config.initial_balance, 8);
  }
  double timed = 0;
  std::uint64_t resolved = 0;
  while (timed < seconds) {
    std::vector<TxnBatch> chunk;
    for (std::size_t i = 0; i < kChunkEpochs; ++i) {
      chunk.push_back(workload.MakeEpoch(kEpochTxns));
    }
    for (TxnBatch& batch : chunk) {
      const std::int64_t start = NowNs();
      const nvc::zen::ZenBatchResult r = db.ExecuteBatch(std::move(batch));
      timed += SecondsBetween(start, NowNs());
      resolved += r.committed + r.aborted;
      if (timed >= seconds) {
        break;
      }
    }
  }
  return static_cast<double>(resolved) / timed;
}

}  // namespace

void RunSmallBankHot(const Options& opts, Tracer& tracer, RunReport& report) {
  double setup_seconds = 0;
  std::unique_ptr<Fixture> fx = BuildRepeatedly(
      kSetupRepeats, [&] { return std::make_unique<Fixture>(opts.seed, tracer); },
      &setup_seconds);

  SegmentResult measured;
  double untraced_throughput = 0;
  nvc::ProfileReport profile;
  if (opts.WarmupSeconds() > 0) {
    report.outcomes += fx->loop->Run(opts.WarmupSeconds(), 0).outcomes;
  }
  if (!opts.trace) {
    measured = fx->loop->Run(opts.TimedSeconds(), opts.fixed_epochs);
  } else {
    // First half untraced (the overhead baseline), second half traced.
    const SegmentResult base = fx->loop->Run(opts.TimedSeconds() / 2, opts.FirstHalfEpochs());
    untraced_throughput =
        static_cast<double>(base.outcomes.resolved()) / base.wall_seconds;
    report.outcomes += base.outcomes;
    fx->db->ConfigureProfiler(nvc::ProfilerConfig{.enabled = true});
    tracer.SetEnabled(true);
    measured = fx->loop->Run(opts.TimedSeconds() / 2, opts.SecondHalfEpochs(base.epochs));
    profile = fx->db->ProfileReport();
  }
  report.outcomes += measured.outcomes;
  report.checks.Expect(!measured.crashed, "no epoch crashed");
  const std::size_t epochs_run = fx->loop->epochs_run();
  const double gen_seconds = fx->loop->total_gen_seconds();
  const std::uint64_t generated = fx->loop->generated_txns();
  fx->loop.reset();
  const nvc::core::MemoryBreakdown memory = fx->db->GetMemoryBreakdown();

  const std::uint64_t before = StateDigest(*fx->db, true);
  fx->db.reset();
  const Restart restart =
      RestartRepeatedly(*fx->device, fx->spec, SmallBankWorkload::Registry(), tracer);
  const double peak_rss = PeakRssMb();
  report.checks.Expect(restart.ok, "clean-restart Recover() succeeds");
  const std::uint64_t after = StateDigest(*restart.db, true);
  report.checks.Expect(after == before, "state after restart equals state before it");

  if (!opts.trace) {
    EndToEnd e2e = ToEndToEnd(measured);
    e2e.recovery_seconds = restart.median_seconds;
    e2e.setup_seconds = setup_seconds;
    e2e.peak_rss_mb = peak_rss;
    EmitEndToEnd(e2e, report.metrics);
  } else {
    EmitLayerDefaults(report.metrics);
    LayerInputs in = ToLayerInputs(measured);
    in.profile = &profile;
    in.memory = memory;
    in.gen_seconds = gen_seconds;
    in.generated_txns = generated;
    EmitCommonLayers(in, report.metrics);
    report.metrics.Set("core.durable_lag_ms_p50", Median(measured.lag_ms), "ms");
    report.metrics.Set("core.execute_call_ms_p50", Median(measured.call_ms), "ms");
    EmitRecoveryLayer(restart.report, report.metrics);
    const double traced_throughput =
        static_cast<double>(measured.outcomes.resolved()) / measured.wall_seconds;
    report.metrics.Set("trace.overhead_ratio", traced_throughput / untraced_throughput,
                       "ratio");
    const double zen = ZenThroughput(opts.seed, opts.seconds / 2);
    report.metrics.Set("ref.zen_txn_s", zen, "txn/s");
    report.metrics.Set("ref.fig6_ratio", untraced_throughput / zen, "ratio");
  }

  const Reference ref = RunReference(opts.seed, epochs_run);
  report.checks.Expect(ref.digest == after,
                       "state hash equals the zero-latency hand-batched reference");
  report.checks.Expect(ref.outcomes.committed == report.outcomes.committed &&
                           ref.outcomes.user_aborted == report.outcomes.user_aborted,
                       "commit/abort counts equal the reference");
}

}  // namespace nvcbench
