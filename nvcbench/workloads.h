// The benchmark's workloads. Each runs set-up, its timed region, recovery
// and its correctness checks, and fills `report` with every end-to-end
// metric (untraced run) or every per-layer metric (traced run).
#pragma once

#include "nvcbench/bench_util.h"

namespace nvcbench {

void RunSmallBankHot(const Options& opts, Tracer& tracer, RunReport& report);
void RunYcsbService(const Options& opts, Tracer& tracer, RunReport& report);
void RunTpccRecover(const Options& opts, Tracer& tracer, RunReport& report);
void RunKvSharded(const Options& opts, Tracer& tracer, RunReport& report);

}  // namespace nvcbench
