// Figure 6: SmallBank throughput, NVCaracal vs Zen, low / high contention,
// default and larger-than-cache datasets.
//
// Paper shape: NVCaracal beats Zen even at low contention (14-21%) because
// SmallBank's transaction inputs are tiny, shrinking the input-logging cost;
// the margin widens at high contention (31-37%) as transient updates remove
// NVMM writes on top of the shared cache benefit. Both engines improve under
// high contention (better cache hit rates); Zen degrades more on the large
// dataset.
#include "bench/harness.h"
#include "src/workload/smallbank.h"

namespace nvc::bench {
namespace {

using workload::SmallBankConfig;
using workload::SmallBankWorkload;

zen::ZenSpec ZenSpecFor(const SmallBankConfig& config, std::size_t cache_entries) {
  zen::ZenSpec spec;
  spec.workers = 1;
  for (const char* name : {"savings", "checking"}) {
    spec.tables.push_back(zen::ZenTableSpec{
        .name = name,
        .value_size = 8,  // Table 4: Zen SmallBank row size 32 B incl. header
        .capacity_slots = config.customers + 65'536,
    });
  }
  spec.cache_max_entries = cache_entries;
  return spec;
}

void RunDataset(const char* dataset_label, std::uint64_t customers,
                std::size_t cache_entries) {
  const std::size_t epochs = 5;
  const std::size_t txns_per_epoch = Scaled(8000);

  // Contention is scaled by *updates per hot customer per epoch*, the
  // quantity that drives the transient-write share. Paper low: 90k hot
  // accesses over 1M hot customers = 0.09/epoch (effectively uncontended at
  // our epoch size -> uniform); paper high: 90k over 10k = 9/epoch.
  const std::uint64_t high_hotspot =
      std::max<std::uint64_t>(txns_per_epoch * 9 / 10 / 9, 16);
  const struct {
    const char* label;
    std::uint64_t hotspot;
  } kContention[] = {
      {"low  (uniform)      ", customers},
      {"high (9 upd/row/ep) ", std::min<std::uint64_t>(high_hotspot, customers)},
  };

  for (const auto& contention : kContention) {
    SmallBankConfig config;
    config.customers = customers;
    config.hotspot_customers = contention.hotspot;

    SmallBankWorkload nv_workload(config);
    const RunResult nv = RunNvCaracal(nv_workload, core::EngineMode::kNvCaracal, epochs,
                                      txns_per_epoch, [&](core::DatabaseSpec& spec) {
                                        spec.cache_max_entries = cache_entries;
                                      });
    PrintRow(std::string(dataset_label) + " " + contention.label + "  NVCaracal", nv);

    SmallBankWorkload zen_workload(config);
    const RunResult zn = RunZen(zen_workload, ZenSpecFor(config, cache_entries), epochs,
                                txns_per_epoch, [&](zen::ZenDb& db) {
                                  for (std::uint64_t c = 0; c < config.customers; ++c) {
                                    db.BulkLoad(workload::kSavingsTable, c,
                                                &config.initial_balance, 8);
                                    db.BulkLoad(workload::kCheckingTable, c,
                                                &config.initial_balance, 8);
                                  }
                                });
    PrintRow(std::string(dataset_label) + " " + contention.label + "  Zen", zn);
    std::printf("    -> NVCaracal/Zen throughput ratio: %.2f\n",
                nv.txns_per_sec / zn.txns_per_sec);
  }
}

}  // namespace
}  // namespace nvc::bench

int main(int argc, char** argv) {
  using namespace nvc::bench;
  ParseBenchFlags(argc, argv);
  PrintHeader("Figure 6",
              "SmallBank throughput: NVCaracal vs Zen (scaled: paper used 18M/180M customers)");
  std::printf("\n--- (a) default dataset ---\n");
  RunDataset("default", Scaled(50'000), Scaled(17'000));
  std::printf("\n--- (b) larger-than-cache dataset (SmallBank-large) ---\n");
  RunDataset("large", Scaled(200'000), Scaled(17'000));
  return 0;
}
