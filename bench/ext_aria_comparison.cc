// Extension bench: Caracal-style vs Aria-style deterministic concurrency
// control on the same NVMM storage engine (paper section 7 future work).
//
// Expected shape: Caracal *improves* with contention (more transient
// versions, fewer NVMM writes) while Aria *degrades* with contention
// (conflicting transactions defer and re-execute), but Aria needs no
// pre-declared write sets. The effective-throughput column counts a
// transaction when it finally commits.
#include "bench/harness.h"
#include "src/workload/ycsb.h"

namespace nvc::bench {
namespace {

using core::ConcurrencyControl;
using core::Database;
using workload::YcsbConfig;
using workload::YcsbWorkload;

void Run(ConcurrencyControl cc, std::uint32_t hot_ops) {
  YcsbConfig config;
  config.rows = Scaled(40'000);
  config.hot_ops = hot_ops;
  config.row_size = 2304;
  YcsbWorkload workload(config);
  core::DatabaseSpec spec = workload.Spec(1);
  spec.concurrency = cc;

  sim::NvmConfig device_config;
  device_config.size_bytes = Database::RequiredDeviceBytes(spec);
  device_config.latency = sim::LatencyProfile::Optane();
  sim::NvmDevice device(device_config);
  Database db(device, spec);
  db.Format();
  workload.Load(db);
  db.FinalizeLoad();

  db.stats().Reset();
  double seconds = 0;
  std::size_t committed = 0;
  std::size_t deferrals = 0;
  const std::size_t epochs = 5;
  const std::size_t txns = Scaled(2000);
  for (std::size_t e = 0; e < epochs; ++e) {
    const core::EpochResult result = db.ExecuteEpoch(workload.MakeEpoch(txns));
    seconds += result.seconds;
    committed += result.committed;
    deferrals += result.deferred;
  }
  // Drain Aria's deferred queue so every transaction is accounted for.
  for (int drain = 0; drain < 256; ++drain) {
    const core::EpochResult result = db.ExecuteEpoch({});
    seconds += result.seconds;
    committed += result.committed;
    deferrals += result.deferred;
    if (result.deferred == 0) {
      break;
    }
  }
  std::printf("%-8s hot_ops %u: %9.0f committed txn/s   deferral events %7zu\n",
              cc == ConcurrencyControl::kAria ? "Aria" : "Caracal", hot_ops,
              static_cast<double>(committed) / seconds, deferrals);
}

}  // namespace
}  // namespace nvc::bench

int main(int argc, char** argv) {
  using namespace nvc::bench;
  ParseBenchFlags(argc, argv);
  PrintHeader("Extension",
              "Caracal vs Aria deterministic concurrency control (YCSB contention sweep)");
  for (const std::uint32_t hot_ops : {0u, 2u, 4u, 7u}) {
    Run(nvc::core::ConcurrencyControl::kCaracal, hot_ops);
    Run(nvc::core::ConcurrencyControl::kAria, hot_ops);
  }
  return 0;
}
