// Figure 10: the cost of supporting failure recovery — NVCaracal vs
// NVCaracal without input logging (no-logging) vs NVCaracal in DRAM
// (all-DRAM); the latter two cannot recover from failures.
//
// Paper shape: input logging costs ~2% on TPC-C (inputs much smaller than
// outputs) and 4-17% on YCSB/SmallBank; NVCaracal stays within 2x of
// all-DRAM in most benchmarks (as little as 1.26x for contended SmallBank),
// far better than the raw DRAM/NVMM device gap.
#include "bench/harness.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"

namespace nvc::bench {
namespace {

using core::EngineMode;

template <typename MakeWorkload>
void RunModes(const char* label, MakeWorkload&& make_workload, std::size_t txns_per_epoch) {
  const struct {
    EngineMode mode;
    const char* name;
  } kModes[] = {
      {EngineMode::kNvCaracal, "NVCaracal "},
      {EngineMode::kNoLogging, "no-logging"},
      {EngineMode::kAllDram, "all-DRAM  "},
  };
  double nvcaracal = 0;
  double nolog = 0;
  double dram = 0;
  for (const auto& mode : kModes) {
    auto workload = make_workload();
    const RunResult result =
        RunNvCaracal(workload, mode.mode, /*epochs=*/4, txns_per_epoch);
    PrintRow(std::string(label) + "  " + mode.name, result);
    if (mode.mode == EngineMode::kNvCaracal) {
      nvcaracal = result.txns_per_sec;
    } else if (mode.mode == EngineMode::kNoLogging) {
      nolog = result.txns_per_sec;
    } else {
      dram = result.txns_per_sec;
    }
  }
  std::printf("    -> logging overhead %.1f%%; all-DRAM/NVCaracal %.2fx\n",
              100.0 * (1.0 - nvcaracal / nolog), dram / nvcaracal);
}

}  // namespace
}  // namespace nvc::bench

int main(int argc, char** argv) {
  using namespace nvc::bench;
  ParseBenchFlags(argc, argv);
  using namespace nvc::workload;
  PrintHeader("Figure 10", "Failure-recovery support cost: NVCaracal vs no-logging vs all-DRAM");

  auto ycsb = [](std::uint32_t value, std::uint32_t update, std::uint32_t hot) {
    return [=] {
      YcsbConfig config;
      config.rows = Scaled(40'000);
      config.value_size = value;
      config.update_bytes = update;
      config.hot_ops = hot;
      config.row_size = 256;
      return YcsbWorkload(config);
    };
  };
  RunModes("YCSB low ", ycsb(1000, 100, 0), Scaled(2000));
  RunModes("YCSB high", ycsb(1000, 100, 7), Scaled(2000));
  RunModes("smallrow low ", ycsb(64, 64, 0), Scaled(2000));
  RunModes("smallrow high", ycsb(64, 64, 7), Scaled(2000));

  auto smallbank = [](std::uint64_t hotspot) {
    return [=] {
      SmallBankConfig config;
      config.customers = Scaled(50'000);
      config.hotspot_customers = hotspot;
      return SmallBankWorkload(config);
    };
  };
  RunModes("SmallBank low ", smallbank(Scaled(2800)), Scaled(8000));
  RunModes("SmallBank high", smallbank(28), Scaled(8000));

  auto tpcc = [](std::uint32_t warehouses) {
    return [=] {
      TpccConfig config;
      config.warehouses = warehouses;
      config.items = static_cast<std::uint32_t>(Scaled(2000));
      config.customers_per_district = 120;
      config.initial_orders_per_district = 120;
      config.new_order_capacity = static_cast<std::uint32_t>(Scaled(30'000));
      return TpccWorkload(config);
    };
  };
  RunModes("TPC-C low ", tpcc(8), Scaled(3000));
  RunModes("TPC-C high", tpcc(1), Scaled(3000));
  return 0;
}
