// Ablation benches for design choices and the extensions implemented beyond
// the paper's artifact (DESIGN.md section 6):
//
//   1. batch append — fixes the contended small-row large-epoch anomaly the
//      paper observes in section 6.9;
//   2. selective cache admission — the paper's section-7 future work,
//      targeting the cases where cached versions hurt (figure 9's -5.2%);
//   3. persistent row size — the inline/non-inline crossover behind the
//      figure 5 vs figure 7 YCSB configurations (Table 4);
//   4. cache LRU window K — the eviction knob of section 4.2.
#include "bench/harness.h"
#include "src/workload/ycsb.h"

namespace nvc::bench {
namespace {

using core::DatabaseSpec;
using core::EngineMode;
using workload::YcsbConfig;
using workload::YcsbWorkload;

YcsbConfig SmallRowHot() {
  YcsbConfig config = YcsbConfig::SmallRow();
  config.rows = Scaled(40'000);
  config.hot_ops = 7;
  return config;
}

void BatchAppendAblation() {
  std::printf("\n--- 1. batch append (contended smallrow; the 6.9 anomaly) ---\n");
  for (const std::size_t epoch_size : {Scaled(500), Scaled(2000), Scaled(8000)}) {
    for (const bool batch : {false, true}) {
      YcsbWorkload workload(SmallRowHot());
      const std::size_t epochs = std::max<std::size_t>(Scaled(16'000) / epoch_size, 2);
      const RunResult result = RunNvCaracal(
          workload, EngineMode::kNvCaracal, epochs, epoch_size,
          [&](DatabaseSpec& spec) { spec.enable_batch_append = batch; });
      std::printf("epoch %6zu txns  %-14s %10.0f txn/s\n", epoch_size,
                  batch ? "batch-append" : "sorted-insert", result.txns_per_sec);
    }
  }
}

void SelectiveCacheAblation() {
  std::printf("\n--- 2. selective cache admission (smallrow, where caching can hurt) ---\n");
  for (const std::uint32_t hot_ops : {0u, 7u}) {
    for (const auto policy : {DatabaseSpec::CachePolicy::kAlways,
                              DatabaseSpec::CachePolicy::kHotOnly}) {
      YcsbConfig config = YcsbConfig::SmallRow();
      config.rows = Scaled(40'000);
      config.hot_ops = hot_ops;
      YcsbWorkload workload(config);
      const RunResult result = RunNvCaracal(
          workload, EngineMode::kNvCaracal, 4, Scaled(2000),
          [&](DatabaseSpec& spec) { spec.cache_policy = policy; });
      std::printf("hot_ops %u  %-22s %10.0f txn/s   cache %5.1f MB\n", hot_ops,
                  policy == DatabaseSpec::CachePolicy::kAlways ? "admit-always"
                                                               : "admit-hot-only",
                  result.txns_per_sec,
                  static_cast<double>(result.memory.dram_cache_bytes) / 1e6);
    }
  }
}

void RowSizeAblation() {
  std::printf("\n--- 3. persistent row size (1 KB values: inline crossover at 2088 B) ---\n");
  for (const std::size_t row_size : {256u, 1280u, 2304u}) {
    YcsbConfig config;
    config.rows = Scaled(40'000);
    config.hot_ops = 4;
    config.row_size = row_size;
    YcsbWorkload workload(config);
    const RunResult result = RunNvCaracal(workload, EngineMode::kNvCaracal, 4, Scaled(2000));
    const char* placement = row_size >= 2304   ? "both versions inline"
                            : row_size >= 1280 ? "one version inline"
                                               : "pool values";
    std::printf("row %4zu B (%-20s) %10.0f txn/s   NVMw %7.1f MB\n", row_size, placement,
                result.txns_per_sec, static_cast<double>(result.nvm_write_bytes) / 1e6);
  }
}

void CacheKAblation() {
  std::printf("\n--- 4. cache LRU window K (YCSB medium contention) ---\n");
  for (const Epoch k : {1u, 5u, 20u, 60u}) {
    YcsbConfig config;
    config.rows = Scaled(40'000);
    config.hot_ops = 4;
    config.row_size = 2304;
    YcsbWorkload workload(config);
    const RunResult result =
        RunNvCaracal(workload, EngineMode::kNvCaracal, 6, Scaled(2000),
                     [&](DatabaseSpec& spec) { spec.cache_k = k; });
    std::printf("K = %2u  %10.0f txn/s   cache %6.1f MB   NVMr %7.1f MB\n", k,
                result.txns_per_sec,
                static_cast<double>(result.memory.dram_cache_bytes) / 1e6,
                static_cast<double>(result.nvm_read_bytes) / 1e6);
  }
}

}  // namespace
}  // namespace nvc::bench

int main(int argc, char** argv) {
  using namespace nvc::bench;
  ParseBenchFlags(argc, argv);
  PrintHeader("Ablations", "design-choice and extension sweeps (beyond the paper's figures)");
  BatchAppendAblation();
  SelectiveCacheAblation();
  RowSizeAblation();
  CacheKAblation();
  return 0;
}
