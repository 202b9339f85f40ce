// nvcbench: the NVCaracal benchmark program.
//
//   nvcbench --workload NAME --seed N --seconds S --trace 0|1
//            [--epochs N] [--trace-out PATH] [--tpcc-workers N]
//
// Prints a human-readable metric table, then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the benchmark-side Chrome trace to --trace-out). Exits 1 when
// a correctness check fails, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "nvcbench/bench_util.h"
#include "nvcbench/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "nvcbench: %s\nusage: nvcbench --workload "
               "smallbank_hot|ycsb_service|tpcc_recover|kv_sharded --seed N --seconds S "
               "--trace 0|1 [--epochs N] [--trace-out PATH] [--tpcc-workers N]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvcbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--epochs") {
      opts.fixed_epochs = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace-out") {
      opts.trace_path = value;
    } else if (flag == "--tpcc-workers") {
      opts.tpcc_workers = std::strtoull(value, nullptr, 10);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.seconds <= 0) {
    return Usage("--seconds must be positive");
  }
  if (opts.tpcc_workers == 0) {
    return Usage("--tpcc-workers must be positive");
  }

  void (*run)(const Options&, Tracer&, RunReport&) = nullptr;
  if (opts.workload == "smallbank_hot") {
    run = RunSmallBankHot;
  } else if (opts.workload == "ycsb_service") {
    run = RunYcsbService;
  } else if (opts.workload == "tpcc_recover") {
    run = RunTpccRecover;
  } else if (opts.workload == "kv_sharded") {
    run = RunKvSharded;
  } else {
    return Usage(("unknown workload '" + opts.workload + "'").c_str());
  }

  Tracer tracer;
  RunReport report;
  try {
    run(opts, tracer, report);
  } catch (const std::exception& e) {
    report.checks.Expect(false, std::string("exception: ") + e.what());
  }
  const Outcomes& o = report.outcomes;
  report.checks.Expect(o.attempted > 0, "at least one transaction attempted");
  report.checks.Expect(o.attempted == o.committed + o.user_aborted + o.failed,
                       "attempted == committed + user-aborted + failed");
  report.checks.Expect(o.failed == 0, "no transaction failed");
  if (opts.trace) {
    report.metrics.Set("trace.spans", static_cast<double>(tracer.span_count()), "count");
    if (!opts.trace_path.empty()) {
      report.checks.Expect(tracer.WriteChromeTrace(opts.trace_path),
                           "Chrome trace written to " + opts.trace_path);
    }
  }

  std::printf("workload %s seed %llu: %llu attempted, %llu committed, %llu user-aborted, "
              "%llu failed\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.committed),
              static_cast<unsigned long long>(o.user_aborted),
              static_cast<unsigned long long>(o.failed));
  report.metrics.PrintTable(stdout);
  for (const std::string& failure : report.checks.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), report.metrics.ToJson().c_str());
  std::fflush(stdout);
  return report.checks.ok() ? 0 : 1;
}
