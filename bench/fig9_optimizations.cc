// Figure 9: impact of the minor-GC and cached-version optimizations.
//
// Paper shape: minor GC is the bigger win wherever values are inline (9.8%
// contended SmallBank to 32.4% uncontended YCSB-smallrow); it never triggers
// for 256 B-row YCSB (values too large to inline). Cached versions help
// read-heavy cases by a few percent (up to 6% for YCSB) and can mildly hurt
// (-5.2% worst case for YCSB-smallrow) due to their maintenance cost.
#include "bench/harness.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"

namespace nvc::bench {
namespace {

using core::DatabaseSpec;
using core::EngineMode;

struct Variant {
  const char* label;
  bool minor_gc;
  bool cache;
};

const Variant kVariants[] = {
    {"no optimizations  ", false, false},
    {"+ minor GC        ", true, false},
    {"+ cached versions ", false, true},
    {"+ both (NVCaracal)", true, true},
};

template <typename Workload>
void RunVariants(const char* label, Workload&& make_workload, std::size_t txns_per_epoch) {
  double base = 0;
  for (const Variant& variant : kVariants) {
    auto workload = make_workload();
    const RunResult result = RunNvCaracal(
        workload, EngineMode::kNvCaracal, /*epochs=*/4, txns_per_epoch,
        [&](DatabaseSpec& spec) {
          spec.enable_minor_gc = variant.minor_gc;
          spec.enable_cache = variant.cache;
        });
    if (base == 0) {
      base = result.txns_per_sec;
    }
    std::printf("%-28s %-20s %10.0f txn/s  (%+5.1f%% vs none)\n", label, variant.label,
                result.txns_per_sec, 100.0 * (result.txns_per_sec / base - 1.0));
  }
}

}  // namespace
}  // namespace nvc::bench

int main(int argc, char** argv) {
  using namespace nvc::bench;
  ParseBenchFlags(argc, argv);
  using namespace nvc::workload;
  PrintHeader("Figure 9", "Impact of minor GC and cached versions on throughput");

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
  RunVariants("YCSB low", ycsb(1000, 100, 0), Scaled(2000));
  RunVariants("YCSB high", ycsb(1000, 100, 7), Scaled(2000));
  RunVariants("YCSB-smallrow low", ycsb(64, 64, 0), Scaled(2000));
  RunVariants("YCSB-smallrow high", ycsb(64, 64, 7), Scaled(2000));

  auto smallbank = [](std::uint64_t hotspot) {
    return [=] {
      SmallBankConfig config;
      config.customers = Scaled(50'000);
      config.hotspot_customers = hotspot;
      return SmallBankWorkload(config);
    };
  };
  RunVariants("SmallBank low", smallbank(Scaled(2800)), Scaled(8000));
  RunVariants("SmallBank high", smallbank(28), Scaled(8000));

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
  RunVariants("TPC-C low", tpcc(8), Scaled(3000));
  RunVariants("TPC-C high", tpcc(1), Scaled(3000));
  return 0;
}
