// Extension bench: cold tier on block storage (the conclusion's "extend to
// fast block-based storage" direction, LeanStore-style).
//
// Workload: YCSB with a hot set (7/10 operations) over a large cold
// keyspace. With the cold tier enabled, values that age out of the DRAM
// cache migrate from NVMM to (simulated) NVMe; expected shape: NVMM value
// footprint shrinks toward the hot set while throughput degrades only by the
// cold-read penalty on the uniform 30% of accesses.
#include "bench/harness.h"
#include "src/workload/ycsb.h"

namespace nvc::bench {
namespace {

using core::Database;
using workload::YcsbConfig;
using workload::YcsbWorkload;

void Run(bool cold_tier, Epoch k) {
  YcsbConfig config;
  config.rows = Scaled(40'000);
  config.value_size = 1000;
  config.update_bytes = 100;
  config.hot_ops = 7;
  config.hot_rows = 1024;
  config.row_size = 256;  // values live in the pools -> demotable
  YcsbWorkload workload(config);

  core::DatabaseSpec spec = workload.Spec(1);
  spec.enable_cold_tier = cold_tier;
  spec.cache_k = k;
  spec.cold_block_size = 1024;
  spec.cold_blocks_per_core = 2 * config.rows + 4096;
  spec.cold_freelist_capacity = config.rows + 4096;

  sim::NvmConfig hot_config;
  hot_config.size_bytes = Database::RequiredDeviceBytes(spec);
  hot_config.latency = sim::LatencyProfile::Optane();
  sim::NvmDevice hot(hot_config);

  sim::NvmConfig cold_config;
  cold_config.size_bytes = std::max<std::size_t>(Database::RequiredColdDeviceBytes(spec), 4096);
  cold_config.latency = sim::LatencyProfile::FastSsd();
  cold_config.access_granule = 4096;
  sim::NvmDevice cold(cold_config);

  Database db(hot, spec, cold_tier ? &cold : nullptr);
  db.Format();
  workload.Load(db);
  db.FinalizeLoad();

  db.stats().Reset();
  double total_seconds = 0;
  const std::size_t epochs = 12;
  const std::size_t txns = Scaled(1500);
  for (std::size_t e = 0; e < epochs; ++e) {
    total_seconds += db.ExecuteEpoch(workload.MakeEpoch(txns)).seconds;
  }
  const auto memory = db.GetMemoryBreakdown();
  std::printf("%-22s K=%-3u %9.0f txn/s | NVMM values %7.1f MB | cold values %7.1f MB"
              " | demotions %6llu | cold reads %6llu\n",
              cold_tier ? "cold tier enabled" : "NVMM only", k,
              static_cast<double>(epochs * txns) / total_seconds,
              memory.nvm_value_bytes / 1e6, memory.cold_value_bytes / 1e6,
              static_cast<unsigned long long>(db.stats().demotions.Sum()),
              static_cast<unsigned long long>(db.stats().cold_reads.Sum()));
}

}  // namespace
}  // namespace nvc::bench

int main(int argc, char** argv) {
  using namespace nvc::bench;
  ParseBenchFlags(argc, argv);
  PrintHeader("Extension", "cold tier on block storage: NVMM footprint vs throughput");
  Run(/*cold_tier=*/false, /*k=*/4);
  Run(/*cold_tier=*/true, /*k=*/4);
  Run(/*cold_tier=*/true, /*k=*/1);  // aggressive demotion
  return 0;
}
