#include "nvcbench/report.h"

#include <algorithm>

namespace nvcbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double PerTxn(double value, std::uint64_t txns) {
  return txns == 0 ? 0 : value / static_cast<double>(txns);
}

}  // namespace

double WeightedPercentile(WeightedSamples samples, double p) {
  std::size_t total = 0;
  for (const auto& s : samples) {
    total += s.second;
  }
  if (total == 0) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  // Nearest-rank on the expanded sample: the smallest value whose
  // cumulative weight reaches p% of the total.
  const double target = p / 100.0 * static_cast<double>(total);
  std::size_t cumulative = 0;
  for (const auto& s : samples) {
    cumulative += s.second;
    if (static_cast<double>(cumulative) >= target) {
      return s.first;
    }
  }
  return samples.back().first;
}

std::vector<Window> EpochWindows(const std::vector<EpochSample>& samples) {
  std::vector<Window> windows(std::min(kWindows, samples.size()));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const EpochSample& s = samples[i];
    Window& w = windows[i * windows.size() / samples.size()];
    w.wall_seconds += s.cycle_seconds;
    w.cpu_seconds += s.cycle_cpu_seconds;
    w.resolved += s.resolved;
    w.epoch_ms.push_back(s.latency_ms);
    w.commit_ms.emplace_back(s.latency_ms, s.txns);
  }
  return windows;
}

void EmitEndToEnd(const EndToEnd& e2e, Metrics& metrics) {
  // Median over windows of a per-window figure.
  const auto median_of = [&](const auto& per_window) {
    std::vector<double> values;
    for (const Window& w : e2e.windows) {
      values.push_back(per_window(w));
    }
    return Median(values);
  };
  metrics.Set("throughput_txn_s", median_of([](const Window& w) {
                return w.wall_seconds > 0 ? static_cast<double>(w.resolved) / w.wall_seconds : 0;
              }),
              "txn/s");
  metrics.Set("epoch_p50_ms", median_of([](const Window& w) { return Percentile(w.epoch_ms, 50); }),
              "ms");
  metrics.Set("epoch_p90_ms", median_of([](const Window& w) { return Percentile(w.epoch_ms, 90); }),
              "ms");
  metrics.Set("commit_p50_ms",
              median_of([](const Window& w) { return WeightedPercentile(w.commit_ms, 50); }), "ms");
  metrics.Set("commit_p90_ms",
              median_of([](const Window& w) { return WeightedPercentile(w.commit_ms, 90); }), "ms");
  metrics.Set("cpu_us_per_txn",
              median_of([](const Window& w) { return PerTxn(w.cpu_seconds * 1e6, w.resolved); }),
              "us");
  metrics.Set("nvm_write_bytes_per_txn",
              PerTxn(static_cast<double>(e2e.nvm.write_bytes), e2e.resolved), "B");
  metrics.Set("nvm_read_bytes_per_txn",
              PerTxn(static_cast<double>(e2e.nvm.read_bytes), e2e.resolved), "B");
  metrics.Set("recovery_s", e2e.recovery_seconds, "s");
  metrics.Set("setup_s", e2e.setup_seconds, "s");
  metrics.Set("peak_rss_mb", e2e.peak_rss_mb, "MB");
}

void EmitLayerDefaults(Metrics& m) {
  for (const char* phase : {"insert", "append", "execute", "log-inputs"}) {
    m.Set(std::string("core.phase.") + phase + ".busy_us_per_txn", 0, "us/txn");
  }
  for (const char* phase : {"checkpoint", "gc-log", "tail-persist"}) {
    m.Set(std::string("core.phase.") + phase + ".wall_ms_per_epoch", 0, "ms/epoch");
  }
  m.Set("core.durable_lag_ms_p50", 0, "ms");
  m.Set("core.tail_overlap_fraction", 0, "ratio");
  m.Set("core.execute_call_ms_p50", 0, "ms");
  m.Set("core.transient_write_share", 0, "ratio");
  m.Set("sim.persisted_lines_per_txn", 0, "lines/txn");
  m.Set("sim.persist_ops_per_txn", 0, "ops/txn");
  m.Set("sim.fences_per_epoch", 0, "fences/epoch");
  m.Set("sim.read_granules_per_txn", 0, "granules/txn");
  m.Set("sim.modeled_device_us_per_txn", 0, "us/txn");
  m.Set("sim.host_cpu_us_per_txn", 0, "us/txn");
  m.Set("vstore.cache_hit_ratio", 0, "ratio");
  m.Set("service.commit_p99_ms", 0, "ms");
  m.Set("service.submit_us_p99", 0, "us");
  m.Set("service.txns_per_epoch", 0, "txn/epoch");
  m.Set("service.queue_depth_p99", 0, "txn");
  m.Set("service.loadgen_lag_ms_p99", 0, "ms");
  m.Set("shard.route_ms_per_epoch", 0, "ms/epoch");
  m.Set("shard.max_shard_cpu_ms_per_epoch", 0, "ms/epoch");
  m.Set("shard.barrier_wait_ms_per_epoch", 0, "ms/epoch");
  m.Set("shard.cpu_imbalance", 0, "ratio");
  m.Set("shard.cross_shard_share", 0, "ratio");
  m.Set("shard.deferred_share", 0, "ratio");
  m.Set("recovery.load_txn_s", 0, "s");
  m.Set("recovery.scan_rebuild_s", 0, "s");
  m.Set("recovery.revert_s", 0, "s");
  m.Set("recovery.replay_s", 0, "s");
  m.Set("recovery.rows_scanned", 0, "count");
  m.Set("recovery.reverted_versions", 0, "count");
  m.Set("index.dram_mb", 0, "MB");
  m.Set("alloc.transient_hwm_mb", 0, "MB");
  m.Set("alloc.nvm_used_mb", 0, "MB");
  m.Set("vstore.cache_mb", 0, "MB");
  m.Set("workload.gen_us_per_txn", 0, "us/txn");
  m.Set("ref.zen_txn_s", 0, "txn/s");
  m.Set("ref.fig6_ratio", 0, "ratio");
  m.Set("trace.overhead_ratio", 0, "ratio");
  m.Set("trace.spans", 0, "count");
}

void EmitCommonLayers(const LayerInputs& in, Metrics& m) {
  if (in.profile != nullptr) {
    const nvc::ProfileReport& p = *in.profile;
    const auto busy = [&](nvc::Phase phase) {
      return PerTxn(p.phase(phase).busy_ms * 1e3, in.resolved);
    };
    const auto wall = [&](nvc::Phase phase) {
      return p.epochs == 0 ? 0 : p.phase(phase).wall_ms / static_cast<double>(p.epochs);
    };
    // Batch append splits the append step in two sub-phases; both count.
    m.Set("core.phase.insert.busy_us_per_txn", busy(nvc::Phase::kInsert), "us/txn");
    m.Set("core.phase.append.busy_us_per_txn",
          busy(nvc::Phase::kAppend) + busy(nvc::Phase::kAppendCollect) +
              busy(nvc::Phase::kAppendBuild),
          "us/txn");
    m.Set("core.phase.execute.busy_us_per_txn", busy(nvc::Phase::kExecute), "us/txn");
    m.Set("core.phase.log-inputs.busy_us_per_txn", busy(nvc::Phase::kLogInputs), "us/txn");
    m.Set("core.phase.checkpoint.wall_ms_per_epoch", wall(nvc::Phase::kCheckpoint), "ms/epoch");
    m.Set("core.phase.gc-log.wall_ms_per_epoch", wall(nvc::Phase::kGcLog), "ms/epoch");
    m.Set("core.phase.tail-persist.wall_ms_per_epoch", wall(nvc::Phase::kTailPersist),
          "ms/epoch");
    m.Set("core.tail_overlap_fraction", p.pipeline.overlap_fraction(), "ratio");
  }
  const double writes =
      static_cast<double>(in.engine.transient_writes + in.engine.persistent_writes);
  m.Set("core.transient_write_share",
        writes > 0 ? static_cast<double>(in.engine.transient_writes) / writes : 0, "ratio");
  m.Set("sim.persisted_lines_per_txn",
        PerTxn(static_cast<double>(in.nvm.persisted_lines), in.resolved), "lines/txn");
  m.Set("sim.persist_ops_per_txn", PerTxn(static_cast<double>(in.nvm.persist_ops), in.resolved),
        "ops/txn");
  m.Set("sim.fences_per_epoch",
        in.epochs == 0 ? 0
                       : static_cast<double>(in.nvm.fences) / static_cast<double>(in.epochs),
        "fences/epoch");
  m.Set("sim.read_granules_per_txn",
        PerTxn(static_cast<double>(in.nvm.read_granules), in.resolved), "granules/txn");
  const double device_us = PerTxn(ModeledDeviceSeconds(in.nvm) * 1e6, in.resolved);
  m.Set("sim.modeled_device_us_per_txn", device_us, "us/txn");
  m.Set("sim.host_cpu_us_per_txn", PerTxn(in.cpu_seconds * 1e6, in.resolved) - device_us,
        "us/txn");
  const double lookups = static_cast<double>(in.engine.cache_hits + in.engine.cache_misses);
  m.Set("vstore.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(in.engine.cache_hits) / lookups : 0, "ratio");
  m.Set("index.dram_mb", static_cast<double>(in.memory.dram_index_bytes) / kMiB, "MB");
  m.Set("alloc.transient_hwm_mb", static_cast<double>(in.memory.dram_transient_bytes) / kMiB,
        "MB");
  m.Set("alloc.nvm_used_mb", static_cast<double>(in.memory.nvm_total()) / kMiB, "MB");
  m.Set("vstore.cache_mb", static_cast<double>(in.memory.dram_cache_bytes) / kMiB, "MB");
  m.Set("workload.gen_us_per_txn", PerTxn(in.gen_seconds * 1e6, in.generated_txns), "us/txn");
}

void EmitRecoveryLayer(const nvc::core::RecoveryReport& report, Metrics& m) {
  m.Set("recovery.load_txn_s", report.load_txn_seconds, "s");
  m.Set("recovery.scan_rebuild_s", report.scan_rebuild_seconds, "s");
  m.Set("recovery.revert_s", report.revert_seconds, "s");
  m.Set("recovery.replay_s", report.replay_seconds, "s");
  m.Set("recovery.rows_scanned", static_cast<double>(report.rows_scanned), "count");
  m.Set("recovery.reverted_versions", static_cast<double>(report.reverted_versions), "count");
}

}  // namespace nvcbench
