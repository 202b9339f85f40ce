// Figure 11: recovery time, broken down into loading transactions from the
// input log, scanning persistent rows + rebuilding the index, reverting
// crashed-epoch versions (TPC-C only), and replaying the crashed epoch.
//
// Paper shape: the scan/rebuild phase dominates and scales with the number
// of persistent rows (values are not scanned); replay is bounded by the
// epoch size; TPC-C's revert adds noticeable time at low contention and
// almost none at high contention (fewer persistent values written under
// contention).
#include "bench/harness.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"

namespace nvc::bench {
namespace {

using core::CrashSite;
using core::Database;
using core::RecoveryReport;

template <typename Workload>
RecoveryReport CrashAndRecover(Workload& workload, std::size_t warmup_epochs,
                               std::size_t txns_per_epoch) {
  core::DatabaseSpec spec = workload.Spec(1);
  sim::NvmConfig device_config;
  device_config.size_bytes = Database::RequiredDeviceBytes(spec);
  device_config.latency = sim::LatencyProfile::Optane();
  device_config.crash_tracking = sim::CrashTracking::kShadow;
  sim::NvmDevice device(device_config);
  {
    Database db(device, spec);
    db.Format();
    workload.Load(db);
    db.FinalizeLoad();
    for (std::size_t e = 0; e < warmup_epochs; ++e) {
      db.ExecuteEpoch(workload.MakeEpoch(txns_per_epoch));
    }
    // Crash right before the epoch number would have been persisted: the
    // whole epoch executed, so replay has maximum work to redo.
    db.SetCrashHook([](CrashSite site) { return site == CrashSite::kBeforeEpochPersist; });
    db.ExecuteEpoch(workload.MakeEpoch(txns_per_epoch));
  }
  device.CrashChaos(/*seed=*/4242, /*keep_probability=*/0.5);

  Database recovered(device, spec);
  return recovered.Recover(workload.Registry()).value();
}

void PrintReport(const char* label, const RecoveryReport& report) {
  std::printf("%-18s total %7.1f ms | load txns %6.1f ms | scan+rebuild %7.1f ms"
              " (%zu rows) | revert %5.1f ms (%zu) | replay %7.1f ms (%zu txns)\n",
              label, report.total_seconds() * 1e3, report.load_txn_seconds * 1e3,
              report.scan_rebuild_seconds * 1e3, report.rows_scanned,
              report.revert_seconds * 1e3, report.reverted_versions,
              report.replay_seconds * 1e3, report.replayed_txns);
}

// Zen recovery for comparison (the paper: "Zen's recovery design does not
// require replaying transactions, but it requires scanning the database rows
// more than once. As the database size grows, Zen's recovery performance
// will scale worse than our design").
void ZenRecoveryRow(const char* label, std::uint64_t rows, std::uint32_t value_size) {
  zen::ZenSpec spec;
  spec.workers = 1;
  spec.tables.push_back(zen::ZenTableSpec{
      .name = "ycsb", .value_size = value_size, .capacity_slots = rows + 65'536});
  spec.cache_max_entries = rows;
  sim::NvmConfig device_config;
  device_config.size_bytes = zen::ZenDb::RequiredDeviceBytes(spec);
  device_config.latency = sim::LatencyProfile::Optane();
  device_config.crash_tracking = sim::CrashTracking::kShadow;
  sim::NvmDevice device(device_config);
  {
    zen::ZenDb db(device, spec);
    db.Format();
    std::vector<std::uint8_t> value(value_size);
    for (std::uint64_t key = 0; key < rows; ++key) {
      workload::YcsbWorkload::FillRow(key, value.data(), value_size);
      db.BulkLoad(0, key, value.data(), value_size);
    }
  }
  device.Crash();
  zen::ZenDb recovered(device, spec);
  const zen::ZenRecoveryReport report = recovered.Recover();
  std::printf("%-18s total %7.1f ms | two-pass scan over %zu slots (%zu live rows), no "
              "replay\n",
              label, report.seconds * 1e3, report.slots_scanned, report.live_rows);
}

}  // namespace
}  // namespace nvc::bench

int main(int argc, char** argv) {
  using namespace nvc::bench;
  ParseBenchFlags(argc, argv);
  using namespace nvc::workload;
  PrintHeader("Figure 11",
              "Recovery time breakdown (crash at end of epoch, before checkpoint)");

  {
    YcsbConfig config;
    config.rows = Scaled(60'000);
    config.hot_ops = 0;
    config.row_size = 2304;
    YcsbWorkload workload(config);
    PrintReport("YCSB low", CrashAndRecover(workload, 2, Scaled(2000)));
  }
  {
    YcsbConfig config;
    config.rows = Scaled(60'000);
    config.hot_ops = 7;
    config.row_size = 2304;
    YcsbWorkload workload(config);
    PrintReport("YCSB high", CrashAndRecover(workload, 2, Scaled(2000)));
  }
  {
    SmallBankConfig config;
    config.customers = Scaled(50'000);
    config.hotspot_customers = Scaled(2800);
    SmallBankWorkload workload(config);
    PrintReport("SmallBank low", CrashAndRecover(workload, 2, Scaled(8000)));
  }
  {
    SmallBankConfig config;
    config.customers = Scaled(50'000);
    config.hotspot_customers = 28;
    SmallBankWorkload workload(config);
    PrintReport("SmallBank high", CrashAndRecover(workload, 2, Scaled(8000)));
  }
  {
    TpccConfig config;
    config.warehouses = 8;
    config.items = static_cast<std::uint32_t>(Scaled(2000));
    config.customers_per_district = 120;
    config.initial_orders_per_district = 120;
    config.new_order_capacity = static_cast<std::uint32_t>(Scaled(30'000));
    TpccWorkload workload(config);
    PrintReport("TPC-C low", CrashAndRecover(workload, 2, Scaled(3000)));
  }
  {
    TpccConfig config;
    config.warehouses = 1;
    config.items = static_cast<std::uint32_t>(Scaled(2000));
    config.customers_per_district = 120;
    config.initial_orders_per_district = 120;
    config.new_order_capacity = static_cast<std::uint32_t>(Scaled(30'000));
    TpccWorkload workload(config);
    PrintReport("TPC-C high", CrashAndRecover(workload, 2, Scaled(3000)));
  }

  std::printf("\n--- Zen recovery (scales with the full tuple heap) ---\n");
  ZenRecoveryRow("Zen YCSB", Scaled(60'000), 1000);
  ZenRecoveryRow("Zen YCSB-large", Scaled(240'000), 1000);
  return 0;
}
