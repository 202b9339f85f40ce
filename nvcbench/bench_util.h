// Shared measurement plumbing for the nvcbench workloads: clocks, CPU and
// RSS probes, percentiles, the metric sink, benchmark-side tracing, the
// modeled device time and the oracle digest used by the correctness checks.
//
// Everything here observes the engine from outside, through its public
// calls; nothing is instrumented inside the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/core/oracle.h"
#include "src/sim/nvm_device.h"
#include "src/txn/transaction.h"

namespace nvcbench {

using TxnBatch = std::vector<std::unique_ptr<nvc::txn::Transaction>>;

// Nanoseconds on the steady clock since the process started measuring.
std::int64_t NowNs();
double SecondsBetween(std::int64_t start_ns, std::int64_t end_ns);

// Process CPU time (all threads), in seconds.
double ProcessCpuSeconds();
// CPU time of the calling thread, in seconds.
double ThreadCpuSeconds();

// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

// Linear-interpolated percentile (p in [0, 100]) of a copy of `values`;
// 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// What the command line asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // > 0: run exactly this many epochs (or, for the open-loop workload, this
  // many epochs' worth of arrivals) instead of a timed region. Used by the
  // ledger-determinism test, which needs identical work across runs.
  std::size_t fixed_epochs = 0;
  std::string trace_path;  // Chrome-trace output of a traced run
  // Engine workers of tpcc_recover. One by default: with two, revert-and-
  // replay recovery leaves stale persistent-index slots (see NOTES.md), and
  // test_pindex_replay.py runs that configuration to show the defect.
  std::size_t tpcc_workers = 1;

  // Length of the timed region: unbounded when the epoch count is fixed.
  double TimedSeconds() const {
    return fixed_epochs > 0 ? std::numeric_limits<double>::infinity() : seconds;
  }
  // Untimed warm-up before the timed region (none in a fixed-epoch run,
  // which must repeat exactly).
  double WarmupSeconds() const;
  // Epoch bounds of a traced run's untraced and traced halves: 0 (timed)
  // unless the epoch count is fixed, and then at least one epoch each.
  std::size_t FirstHalfEpochs() const;
  std::size_t SecondHalfEpochs(std::size_t first_half_run) const;
};

// Name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
  void PrintTable(std::FILE* out) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Outcome accounting shared by all workloads. attempted must equal
// committed + user_aborted + failed; the check is part of correctness.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t user_aborted = 0;
  std::uint64_t failed = 0;
  std::uint64_t resolved() const { return committed + user_aborted; }
  Outcomes& operator+=(const Outcomes& o) {
    attempted += o.attempted;
    committed += o.committed;
    user_aborted += o.user_aborted;
    failed += o.failed;
    return *this;
  }
};

// Correctness verdict: every failed check appends a line.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// Benchmark-side span recorder. Spans are kept in memory and written as
// Chrome-trace JSON at exit; counter snapshots taken at the same
// boundaries become counter tracks. Disabled tracers record nothing.
class Tracer {
 public:
  // Track ids (Chrome-trace tids).
  static constexpr std::uint32_t kMain = 1;
  static constexpr std::uint32_t kDurable = 2;
  static constexpr std::uint32_t kSubmitter = 3;

  // Recording starts disabled; a traced run enables it for its traced
  // segment only. Toggle only while no engine call is in flight.
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // `id` joins the spans of one epoch or one ticket; `parent` names the
  // span that caused this one (0 = none).
  void Span(const char* name, std::uint32_t track, std::uint64_t id, std::uint64_t parent,
            std::int64_t start_ns, std::int64_t end_ns);
  void Counters(std::int64_t at_ns, const nvc::sim::NvmCounters& counters);
  std::size_t span_count() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct SpanRec {
    const char* name;
    std::uint32_t track;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct CounterRec {
    std::int64_t at_ns;
    nvc::sim::NvmCounters counters;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
  std::vector<CounterRec> counters_;
};

// Element-wise b - a of two device snapshots.
nvc::sim::NvmCounters Delta(const nvc::sim::NvmCounters& a, const nvc::sim::NvmCounters& b);
nvc::sim::NvmCounters Sum(const nvc::sim::NvmCounters& a, const nvc::sim::NvmCounters& b);

// Device time the Optane latency profile charges for these counts.
double ModeledDeviceSeconds(const nvc::sim::NvmCounters& delta);

// Engine-side counters the metrics need, snapshotted from EngineStats.
struct EngineCounters {
  std::uint64_t transient_writes = 0;
  std::uint64_t persistent_writes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};
EngineCounters SnapshotEngine(nvc::EngineStats& stats);
EngineCounters Delta(const EngineCounters& a, const EngineCounters& b);

// Oracle digest of committed state. Epoch cuts differ between a timed run
// and its hand-batched reference, so the epoch number is left out unless
// asked for; under Caracal the rest depends only on submission order.
std::uint64_t StateDigest(nvc::core::Database& db, bool include_epoch);

// Records one epoch's durable time from the engine's durable-notify
// callback (SetEpochCallback) and tallies the per-transaction fates.
class DurableLog {
 public:
  struct Entry {
    nvc::Epoch epoch;
    std::int64_t durable_ns;
    std::size_t committed;
    std::size_t aborted;
  };
  nvc::core::EpochCallback Callback();
  // Takes every entry recorded so far. Call after WaitIdle.
  std::vector<Entry> Take();

 private:
  std::mutex mu_;
  std::vector<Entry> entries_;
};

// What one workload run hands back to main().
struct RunReport {
  Metrics metrics;
  Outcomes outcomes;
  Checks checks;
};

// A cheap build is repeated past its minimum count until the builds took
// this long together, at most kMaxRepeats times, so that the median of a
// sub-second figure rests on more samples than that of a slow one.
inline constexpr double kRepeatBudgetSeconds = 1.5;
inline constexpr std::size_t kMaxRepeats = 15;

// Builds something at least `times` times anew (each previous one destroyed
// first), more while the budget above lasts, and keeps the last;
// *median_seconds is the median build time.
template <typename Make>
auto BuildRepeatedly(std::size_t times, Make make, double* median_seconds) {
  decltype(make()) kept;
  std::vector<double> seconds;
  double total = 0;
  while (seconds.size() < times ||
         (seconds.size() < kMaxRepeats && total < kRepeatBudgetSeconds)) {
    kept.reset();
    const std::int64_t start = NowNs();
    kept = make();
    seconds.push_back(SecondsBetween(start, NowNs()));
    total += seconds.back();
  }
  *median_seconds = Median(seconds);
  return kept;
}

// Set-ups per run at least; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 3;
// Clean restarts per run at least; recovery_s is their median.
inline constexpr std::size_t kRestartRepeats = 5;

// A clean restart: DRAM is lost between epochs and a fresh Database
// recovers from the device, kRestartRepeats times over the same image.
struct Restart {
  std::unique_ptr<nvc::core::Database> db;  // the last recovered engine
  double median_seconds = 0;  // constructor + Recover()
  bool ok = true;             // every Recover() succeeded
  nvc::core::RecoveryReport report;  // of the last restart
};
Restart RestartRepeatedly(nvc::sim::NvmDevice& device, const nvc::core::DatabaseSpec& spec,
                          const nvc::txn::TxnRegistry& registry, Tracer& tracer);

}  // namespace nvcbench
