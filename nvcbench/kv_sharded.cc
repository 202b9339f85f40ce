// kv_sharded: the seeded KV stream of the multi-shard scale-out bench on a
// ShardedDatabase of 2 shards x 1 worker, closed loop.
//
// 8192 keys in 256-byte rows; 16000 transactions per global epoch, of which
// ~5% are cross-shard transfers over mutually disjoint account keys placed
// ahead of every same-epoch write (so the router defers none), followed by
// single-key puts, read-modify-writes and 512-1023-byte pool-allocated puts.
// This is the only workload that runs routing, the fixed-point read exchange
// and the durability barrier; routing is the serial term of the global
// epoch. ExecuteEpoch returns once the epoch is durable on every shard.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "nvcbench/report.h"
#include "nvcbench/workloads.h"
#include "src/common/rng.h"
#include "src/core/oracle.h"
#include "src/shard/sharded_db.h"
#include "tests/test_util.h"

namespace nvcbench {
namespace {

using nvc::core::Database;
using nvc::shard::ShardedDatabase;
using nvc::shard::ShardedEpochResult;

constexpr std::size_t kShards = 2;
// One worker per shard: with two, four busy workers on a 4-core host let
// one slow core stall the durability barrier.
constexpr std::size_t kWorkersPerShard = 1;
constexpr std::size_t kKeys = 8192;
// Four times the scale-out bench's 4000. Each epoch starts a thread per
// shard and hands work to each shard's worker; on a shared host a stall in
// any of them delays the epoch, and fewer, larger epochs steady the figures
// (NOTES.md).
constexpr std::size_t kEpochTxns = 16000;
constexpr std::size_t kChunkEpochs = 32;
constexpr double kXferFraction = 0.05;

nvc::core::DatabaseSpec BaseSpec() {
  nvc::core::DatabaseSpec spec;
  spec.workers = kWorkersPerShard;
  spec.tables.push_back(nvc::core::TableSpec{.name = "kv",
                                             .row_size = 256,
                                             .ordered = false,
                                             .capacity_rows = kKeys + 64,
                                             .freelist_capacity = 1024});
  spec.value_blocks_per_core = 32768;
  spec.value_freelist_capacity = 65536;
  spec.log_bytes = 1u << 22;
  spec.cache_max_entries = 1 << 15;
  return spec;
}

// One global epoch of the stream, a pure function of (seed, epoch):
// disjoint-pair transfers over the low quarter of the keys (account
// balances) first, then single-key writes over the rest.
TxnBatch MakeEpoch(std::uint64_t seed, std::size_t epoch) {
  nvc::Rng rng(seed * 0x9e3779b97f4a7c15ULL + epoch * 1000003 + 42);
  TxnBatch out;
  out.reserve(kEpochTxns);
  const std::size_t account_keys = kKeys / 4;
  const std::size_t xfers =
      std::min(static_cast<std::size_t>(static_cast<double>(kEpochTxns) * kXferFraction),
               account_keys / 2);
  std::vector<nvc::Key> perm(account_keys);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = 0; i < 2 * xfers; ++i) {
    std::swap(perm[i], perm[i + rng.NextBounded(perm.size() - i)]);
  }
  for (std::size_t i = 0; i < xfers; ++i) {
    out.push_back(std::make_unique<nvc::test::KvXferTxn>(perm[2 * i], perm[2 * i + 1],
                                                         1 + rng.NextBounded(8)));
  }
  while (out.size() < kEpochTxns) {
    const nvc::Key key = account_keys + rng.NextBounded(kKeys - account_keys);
    const std::uint64_t pick = rng.NextBounded(100);
    if (pick < 30) {
      out.push_back(
          std::make_unique<nvc::test::KvPutTxn>(key, 1000 + rng.NextBounded(1u << 20)));
    } else if (pick < 50) {
      out.push_back(std::make_unique<nvc::test::KvRmwTxn>(key, rng.NextBounded(1000)));
    } else {
      out.push_back(std::make_unique<nvc::test::KvVarPutTxn>(
          key, static_cast<std::uint32_t>(512 + rng.NextBounded(512)), rng.Next()));
    }
  }
  return out;
}

template <typename Db>
void Load(Db& db) {
  db.Format();
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::uint64_t value = 1000 + k;
    db.BulkLoad(0, k, &value, sizeof(value));
  }
  db.FinalizeLoad();
}

struct Fixture {
  explicit Fixture(std::uint64_t seed_in) : seed(seed_in) {
    for (std::size_t s = 0; s < kShards; ++s) {
      nvc::sim::NvmConfig config;
      config.size_bytes = ShardedDatabase::RequiredDeviceBytes(BaseSpec());
      config.latency = nvc::sim::LatencyProfile::Optane();
      owned.push_back(std::make_unique<nvc::sim::NvmDevice>(config));
      devices.push_back(owned.back().get());
    }
    db = std::make_unique<ShardedDatabase>(devices, BaseSpec());
    Load(*db);
    Prefetch();
  }

  void Prefetch() {
    const std::int64_t start = NowNs();
    for (std::size_t i = 0; i < kChunkEpochs; ++i) {
      ready.push_back(MakeEpoch(seed, next_epoch++));
      generated_txns += ready.back().size();
    }
    gen_seconds += SecondsBetween(start, NowNs());
  }

  nvc::sim::NvmCounters DeviceTotals() const {
    nvc::sim::NvmCounters total;
    for (const nvc::sim::NvmDevice* d : devices) {
      total = Sum(total, d->stats().Snapshot());
    }
    return total;
  }

  EngineCounters EngineTotals() {
    EngineCounters total;
    for (std::size_t s = 0; s < db->shards(); ++s) {
      const EngineCounters c = SnapshotEngine(db->shard(s).stats());
      total.transient_writes += c.transient_writes;
      total.persistent_writes += c.persistent_writes;
      total.cache_hits += c.cache_hits;
      total.cache_misses += c.cache_misses;
    }
    return total;
  }

  std::uint64_t seed;
  std::vector<std::unique_ptr<nvc::sim::NvmDevice>> owned;
  std::vector<nvc::sim::NvmDevice*> devices;
  std::unique_ptr<ShardedDatabase> db;
  std::vector<TxnBatch> ready;  // generated epochs; [next_ready, end) not yet run
  std::size_t next_ready = 0;
  std::size_t next_epoch = 0;
  std::uint64_t generated_txns = 0;
  double gen_seconds = 0;
};

struct ShardSegment {
  Outcomes outcomes;
  std::size_t epochs = 0;
  double wall_seconds = 0;
  double cpu_seconds = 0;
  std::vector<EpochSample> samples;
  double route_s = 0, max_shard_cpu_s = 0, barrier_wait_s = 0;
  std::vector<double> imbalance;
  std::uint64_t cross_shard = 0, deferred = 0;
  nvc::sim::NvmCounters nvm;
  EngineCounters engine;
  bool crashed = false;
};

ShardSegment RunSegment(Fixture& fx, Tracer& tracer, double seconds, std::size_t max_epochs) {
  ShardSegment out;
  const nvc::sim::NvmCounters nvm_before = fx.DeviceTotals();
  const EngineCounters engine_before = fx.EngineTotals();
  bool stop = false;
  while (!stop && !out.crashed) {
    if (fx.next_ready == fx.ready.size()) {
      fx.ready.clear();
      fx.next_ready = 0;
      fx.Prefetch();
    }
    const std::int64_t start = NowNs();
    const double cpu_start = ProcessCpuSeconds();
    while (fx.next_ready < fx.ready.size()) {
      TxnBatch batch = std::move(fx.ready[fx.next_ready++]);
      const std::size_t n = batch.size();
      const double call_cpu = ProcessCpuSeconds();
      const std::int64_t call = NowNs();
      const ShardedEpochResult r = fx.db->ExecuteEpoch(std::move(batch));
      const std::int64_t ret = NowNs();
      tracer.Span("shard.execute_epoch", Tracer::kMain, r.epoch, 0, call, ret);
      if (tracer.enabled()) {
        tracer.Counters(ret, fx.DeviceTotals());
      }
      out.outcomes.attempted += n;
      ++out.epochs;
      if (r.crashed) {
        out.outcomes.failed += n;
        out.crashed = true;
        break;
      }
      out.outcomes.committed += r.committed;
      out.outcomes.user_aborted += r.aborted;
      // ExecuteEpoch returns once the epoch is durable on every shard; the
      // next call follows at once, so the cycle is the call itself.
      out.samples.push_back(EpochSample{.cycle_seconds = SecondsBetween(call, ret),
                                        .cycle_cpu_seconds = ProcessCpuSeconds() - call_cpu,
                                        .latency_ms = SecondsBetween(call, ret) * 1e3,
                                        .txns = n,
                                        .resolved = r.committed + r.aborted});
      out.route_s += r.routing_seconds;
      out.max_shard_cpu_s += r.max_shard_cpu_seconds;
      out.barrier_wait_s += r.seconds - r.routing_seconds - r.max_shard_cpu_seconds;
      double total_cpu = 0;
      for (const double c : r.shard_cpu_seconds) {
        total_cpu += c;
      }
      if (total_cpu > 0) {
        out.imbalance.push_back(r.max_shard_cpu_seconds * static_cast<double>(kShards) /
                                total_cpu);
      }
      out.cross_shard += r.cross_shard;
      out.deferred += r.deferred;
      stop = (max_epochs > 0 && out.epochs >= max_epochs) ||
             out.wall_seconds + SecondsBetween(start, ret) >= seconds;
      if (stop) {
        break;
      }
    }
    out.cpu_seconds += ProcessCpuSeconds() - cpu_start;
    out.wall_seconds += SecondsBetween(start, NowNs());
  }
  out.nvm = Delta(nvm_before, fx.DeviceTotals());
  out.engine = Delta(engine_before, fx.EngineTotals());
  return out;
}

// Logical state of the whole fleet: every shard's tables merged by key.
nvc::core::OracleState MergedState(ShardedDatabase& db) {
  nvc::core::OracleState merged;
  for (std::size_t s = 0; s < db.shards(); ++s) {
    nvc::core::OracleState shard = nvc::core::CaptureState(db.shard(s));
    merged.epoch = shard.epoch;
    merged.counters = shard.counters;
    merged.tables.resize(shard.tables.size());
    for (std::size_t t = 0; t < shard.tables.size(); ++t) {
      merged.tables[t].merge(shard.tables[t]);
    }
  }
  return merged;
}

struct Reference {
  std::uint64_t digest = 0;
  Outcomes outcomes;
};
// The same global epochs through one zero-latency engine.
Reference RunReference(std::uint64_t seed, std::size_t epochs) {
  const nvc::core::DatabaseSpec spec = BaseSpec();
  nvc::sim::NvmConfig config;
  config.size_bytes = Database::RequiredDeviceBytes(spec);
  nvc::sim::NvmDevice device(config);
  Database db(device, spec);
  Load(db);
  Reference ref;
  for (std::size_t e = 0; e < epochs; ++e) {
    const nvc::core::EpochResult r = db.ExecuteEpoch(MakeEpoch(seed, e));
    ref.outcomes.committed += r.committed;
    ref.outcomes.user_aborted += r.aborted;
  }
  db.WaitIdle().IgnoreError();
  ref.digest = nvc::core::StateHash(nvc::core::CaptureState(db));
  return ref;
}

}  // namespace

void RunKvSharded(const Options& opts, Tracer& tracer, RunReport& report) {
  double setup_seconds = 0;
  std::unique_ptr<Fixture> fx = BuildRepeatedly(
      kSetupRepeats, [&] { return std::make_unique<Fixture>(opts.seed); }, &setup_seconds);

  ShardSegment measured;
  double untraced_throughput = 0;
  nvc::ProfileReport profile;
  if (opts.WarmupSeconds() > 0) {
    report.outcomes += RunSegment(*fx, tracer, opts.WarmupSeconds(), 0).outcomes;
  }
  if (!opts.trace) {
    measured = RunSegment(*fx, tracer, opts.TimedSeconds(), opts.fixed_epochs);
  } else {
    const ShardSegment base =
        RunSegment(*fx, tracer, opts.TimedSeconds() / 2, opts.FirstHalfEpochs());
    untraced_throughput = static_cast<double>(base.outcomes.resolved()) / base.wall_seconds;
    report.outcomes += base.outcomes;
    fx->db->ConfigureProfiler(nvc::ProfilerConfig{.enabled = true});
    tracer.SetEnabled(true);
    measured = RunSegment(*fx, tracer, opts.TimedSeconds() / 2,
                          opts.SecondHalfEpochs(base.epochs));
    profile = fx->db->ProfileReport().combined;
  }
  report.outcomes += measured.outcomes;
  report.checks.Expect(!measured.crashed, "no global epoch crashed");
  report.checks.Expect(fx->db->deferred_depth() == 0 && measured.deferred == 0,
                       "the stream stays deferral-free");
  const std::size_t epochs_run = fx->next_epoch - (fx->ready.size() - fx->next_ready);

  nvc::core::MemoryBreakdown memory;
  for (std::size_t s = 0; s < fx->db->shards(); ++s) {
    const nvc::core::MemoryBreakdown m = fx->db->shard(s).GetMemoryBreakdown();
    memory.dram_index_bytes += m.dram_index_bytes;
    memory.dram_transient_bytes += m.dram_transient_bytes;
    memory.dram_cache_bytes += m.dram_cache_bytes;
    memory.nvm_row_bytes += m.nvm_row_bytes;
    memory.nvm_value_bytes += m.nvm_value_bytes;
    memory.nvm_log_bytes += m.nvm_log_bytes;
  }

  // Clean restart of the whole fleet, kRestartRepeats times.
  const std::uint64_t before = nvc::core::StateHash(MergedState(*fx->db));
  fx->db.reset();
  double recovery_seconds = 0;
  bool recovery_ok = true;
  nvc::shard::ShardedRecoveryReport recovery;
  const std::unique_ptr<ShardedDatabase> recovered = BuildRepeatedly(
      kRestartRepeats,
      [&] {
        const std::int64_t start = NowNs();
        auto db = std::make_unique<ShardedDatabase>(fx->devices, BaseSpec());
        const nvc::StatusOr<nvc::shard::ShardedRecoveryReport> r =
            db->Recover(nvc::test::KvRegistry());
        tracer.Span("core.recover", Tracer::kMain, 0, 0, start, NowNs());
        recovery_ok = recovery_ok && r.ok();
        if (r.ok()) {
          recovery = *r;
        }
        return db;
      },
      &recovery_seconds);
  const double peak_rss = PeakRssMb();
  report.checks.Expect(recovery_ok, "clean-restart sharded Recover() succeeds");
  const std::uint64_t after = nvc::core::StateHash(MergedState(*recovered));
  report.checks.Expect(after == before, "fleet state after restart equals state before it");

  const double resolved = static_cast<double>(measured.outcomes.resolved());
  if (!opts.trace) {
    EndToEnd e2e;
    e2e.windows = EpochWindows(measured.samples);
    e2e.resolved = measured.outcomes.resolved();
    e2e.nvm = measured.nvm;
    e2e.recovery_seconds = recovery_seconds;
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
    in.generated_txns = fx->generated_txns;
    EmitCommonLayers(in, report.metrics);
    const double epochs = static_cast<double>(std::max<std::size_t>(measured.epochs, 1));
    report.metrics.Set("shard.route_ms_per_epoch", measured.route_s * 1e3 / epochs, "ms/epoch");
    report.metrics.Set("shard.max_shard_cpu_ms_per_epoch", measured.max_shard_cpu_s * 1e3 / epochs,
                       "ms/epoch");
    report.metrics.Set("shard.barrier_wait_ms_per_epoch", measured.barrier_wait_s * 1e3 / epochs,
                       "ms/epoch");
    report.metrics.Set("shard.cpu_imbalance", Median(measured.imbalance), "ratio");
    report.metrics.Set("shard.cross_shard_share",
                       resolved > 0 ? static_cast<double>(measured.cross_shard) / resolved : 0,
                       "ratio");
    report.metrics.Set("shard.deferred_share",
                       static_cast<double>(measured.deferred) /
                           static_cast<double>(std::max<std::uint64_t>(
                               measured.outcomes.attempted, 1)),
                       "ratio");
    {
      // Shards recover one after another: their phase times add up.
      nvc::core::RecoveryReport total;
      for (const nvc::core::RecoveryReport& r : recovery.shards) {
        total.load_txn_seconds += r.load_txn_seconds;
        total.scan_rebuild_seconds += r.scan_rebuild_seconds;
        total.revert_seconds += r.revert_seconds;
        total.replay_seconds += r.replay_seconds;
        total.rows_scanned += r.rows_scanned;
        total.reverted_versions += r.reverted_versions;
      }
      EmitRecoveryLayer(total, report.metrics);
    }
    const double traced_throughput = resolved / measured.wall_seconds;
    report.metrics.Set("trace.overhead_ratio", traced_throughput / untraced_throughput,
                       "ratio");
  }

  const Reference ref = RunReference(opts.seed, epochs_run);
  report.checks.Expect(ref.digest == after,
                       "merged shard state equals a single-engine run of the same stream");
  report.checks.Expect(ref.outcomes.committed == report.outcomes.committed &&
                           ref.outcomes.user_aborted == report.outcomes.user_aborted,
                       "commit/abort counts equal the single-engine run");
}

}  // namespace nvcbench
