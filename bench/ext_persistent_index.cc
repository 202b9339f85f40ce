// Extension bench: persistent NVMM index vs. full-row-scan recovery (the
// paper's section-7 future work: "persisting the row indexes to NVMM to
// improve recovery time").
//
// Expected shape: the scan path reads every persistent row (row_size bytes
// per row), while the fast path reads 32-byte index slots plus only the rows
// named by the persisted major-GC list — recovery's dominant phase shrinks
// by roughly row_size/16, and the gap widens with dataset size.
#include "bench/harness.h"
#include "src/workload/ycsb.h"

namespace nvc::bench {
namespace {

using core::CrashSite;
using core::Database;
using core::RecoveryReport;
using workload::YcsbConfig;
using workload::YcsbWorkload;

RecoveryReport CrashAndRecover(std::uint64_t rows, bool enable_pindex) {
  YcsbConfig config;
  config.rows = rows;
  config.hot_ops = 4;
  config.row_size = 2304;
  YcsbWorkload workload(config);
  core::DatabaseSpec spec = workload.Spec(1);
  spec.enable_persistent_index = enable_pindex;

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
    for (int e = 0; e < 2; ++e) {
      db.ExecuteEpoch(workload.MakeEpoch(Scaled(1000)));
    }
    db.SetCrashHook([](CrashSite site) { return site == CrashSite::kBeforeEpochPersist; });
    db.ExecuteEpoch(workload.MakeEpoch(Scaled(1000)));
  }
  device.CrashChaos(8711, 0.5);

  Database recovered(device, spec);
  return recovered.Recover(workload.Registry()).value();
}

void RunSize(std::uint64_t rows) {
  for (const bool pindex : {false, true}) {
    const RecoveryReport report = CrashAndRecover(rows, pindex);
    std::printf("%8llu rows  %-18s rebuild %8.1f ms  replay %7.1f ms  total %8.1f ms"
                "  (fast path used: %s)\n",
                static_cast<unsigned long long>(rows),
                pindex ? "persistent-index" : "row-scan", report.scan_rebuild_seconds * 1e3,
                report.replay_seconds * 1e3, report.total_seconds() * 1e3,
                report.used_persistent_index ? "yes" : "no");
  }
}

}  // namespace
}  // namespace nvc::bench

int main(int argc, char** argv) {
  using namespace nvc::bench;
  ParseBenchFlags(argc, argv);
  PrintHeader("Extension", "recovery time: persistent NVMM index vs full row scan");
  RunSize(Scaled(30'000));
  RunSize(Scaled(120'000));
  return 0;
}
