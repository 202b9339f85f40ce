// Turns raw measurements into the benchmark's named metrics.
//
// End-to-end metrics mean the same thing on every workload:
//   throughput_txn_s          resolved (committed + user-aborted) txns per
//                             wall second
//   epoch_p50_ms/_p90_ms      per epoch: from the send of its first
//                             transaction to its durable point
//   commit_p50_ms/_p90_ms     per transaction: from its send to its
//                             durable point
// p90 is the highest percentile with ten samples beyond it on every
// workload: a closed loop's transactions share their epoch's latency, and a
// run holds a few hundred epochs. On a closed loop the commit and epoch
// percentiles therefore coincide.
//   cpu_us_per_txn            process CPU (spun device latency included)
//   nvm_{write,read}_bytes_per_txn   the device ledger
//   recovery_s, setup_s, peak_rss_mb
// A closed loop sends a whole epoch at its ExecuteEpoch call; the open
// loop sends each transaction at its scheduled arrival time.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "nvcbench/bench_util.h"
#include "src/common/profiler.h"
#include "src/core/database.h"

namespace nvcbench {

// Latency samples with a weight (number of transactions sharing them).
using WeightedSamples = std::vector<std::pair<double, std::size_t>>;
double WeightedPercentile(WeightedSamples samples, double p);

// One closed-loop epoch as the end-to-end metrics see it. The cycle is the
// wall (and process CPU) time from this epoch's call to the next one's, or
// to the end of its timed stretch, so the cycles of a run add up to its
// timed region.
struct EpochSample {
  double cycle_seconds = 0;
  double cycle_cpu_seconds = 0;
  double latency_ms = 0;  // call -> durable
  std::size_t txns = 0;
  std::uint64_t resolved = 0;
};

// One consecutive slice of a run's timed region.
struct Window {
  double wall_seconds = 0;
  double cpu_seconds = 0;
  std::uint64_t resolved = 0;
  std::vector<double> epoch_ms;
  WeightedSamples commit_ms;
};

// End-to-end figures are medians over kWindows consecutive windows of the
// timed region: a transient stall of the host moves one window, not the
// figure. Latency percentiles are taken within each window first.
inline constexpr std::size_t kWindows = 10;

// Splits closed-loop epochs into kWindows windows of consecutive epochs. A
// closed loop sends every transaction of an epoch at its call, so each one
// commits with its epoch's latency.
std::vector<Window> EpochWindows(const std::vector<EpochSample>& samples);

struct EndToEnd {
  std::vector<Window> windows;
  std::uint64_t resolved = 0;
  nvc::sim::NvmCounters nvm;
  double recovery_seconds = 0;
  double setup_seconds = 0;
  double peak_rss_mb = 0;
};
void EmitEndToEnd(const EndToEnd& e2e, Metrics& metrics);

// Every per-layer metric, set to 0 with its unit, so a traced run always
// prints the full list; a workload overwrites the layers it exercises and
// leaves 0 where a layer does no work.
void EmitLayerDefaults(Metrics& metrics);

// Layers measured the same way on every workload.
struct LayerInputs {
  std::uint64_t resolved = 0;
  std::size_t epochs = 0;
  double cpu_seconds = 0;
  nvc::sim::NvmCounters nvm;
  EngineCounters engine;
  const nvc::ProfileReport* profile = nullptr;
  nvc::core::MemoryBreakdown memory;
  double gen_seconds = 0;
  std::uint64_t generated_txns = 0;
};
void EmitCommonLayers(const LayerInputs& in, Metrics& metrics);
void EmitRecoveryLayer(const nvc::core::RecoveryReport& report, Metrics& metrics);

}  // namespace nvcbench
