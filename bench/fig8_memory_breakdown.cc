// Figure 8: DRAM and NVMM consumption breakdown for NVCaracal's data
// structures on each benchmark.
//
// Paper shape: most storage is NVMM; the DRAM index + transient pool are
// ~12% of total on average (max 15.5%); YCSB's cached versions are large but
// optional; the transient pool is bounded by the epoch, not the dataset.
#include "bench/harness.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"

namespace nvc::bench {
namespace {

void PrintMemory(const std::string& label, const core::MemoryBreakdown& memory) {
  const double total =
      static_cast<double>(memory.dram_total() + memory.nvm_total());
  std::printf("%-14s | DRAM: index %7.1f MB  transient %6.1f MB  cache %7.1f MB"
              " | NVMM: rows %8.1f MB  values %7.1f MB  log %5.1f MB"
              " | DRAM share excl. cache %4.1f%%\n",
              label.c_str(), memory.dram_index_bytes / 1e6,
              memory.dram_transient_bytes / 1e6, memory.dram_cache_bytes / 1e6,
              memory.nvm_row_bytes / 1e6, memory.nvm_value_bytes / 1e6,
              memory.nvm_log_bytes / 1e6,
              100.0 * (memory.dram_index_bytes + memory.dram_transient_bytes) /
                  (total - memory.dram_cache_bytes));
}

}  // namespace
}  // namespace nvc::bench

int main(int argc, char** argv) {
  using namespace nvc::bench;
  ParseBenchFlags(argc, argv);
  using namespace nvc::workload;
  PrintHeader("Figure 8", "DRAM and NVMM consumption in NVCaracal");

  {
    YcsbConfig config;
    config.rows = Scaled(60'000);
    config.hot_ops = 4;
    config.row_size = 2304;
    YcsbWorkload workload(config);
    const RunResult result =
        RunNvCaracal(workload, nvc::core::EngineMode::kNvCaracal, 4, Scaled(2000));
    PrintMemory("YCSB", result.memory);
  }
  {
    YcsbConfig config = YcsbConfig::SmallRow();
    config.rows = Scaled(60'000);
    config.hot_ops = 4;
    YcsbWorkload workload(config);
    const RunResult result =
        RunNvCaracal(workload, nvc::core::EngineMode::kNvCaracal, 4, Scaled(2000));
    PrintMemory("YCSB-smallrow", result.memory);
  }
  {
    SmallBankConfig config;
    config.customers = Scaled(50'000);
    config.hotspot_customers = Scaled(2800);
    SmallBankWorkload workload(config);
    const RunResult result =
        RunNvCaracal(workload, nvc::core::EngineMode::kNvCaracal, 4, Scaled(8000));
    PrintMemory("SmallBank", result.memory);
  }
  {
    TpccConfig config;
    config.warehouses = 8;
    config.items = static_cast<std::uint32_t>(Scaled(2000));
    config.customers_per_district = 120;
    config.initial_orders_per_district = 120;
    config.new_order_capacity = static_cast<std::uint32_t>(Scaled(30'000));
    TpccWorkload workload(config);
    const RunResult result =
        RunNvCaracal(workload, nvc::core::EngineMode::kNvCaracal, 4, Scaled(3000));
    PrintMemory("TPC-C", result.memory);
  }
  return 0;
}
