#include "nvcbench/bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>

namespace nvcbench {

std::int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double Options::WarmupSeconds() const {
  // Long enough for the caches, value pools and the service's epoch size
  // to settle; the first second of a cold run is not representative.
  constexpr double kWarmupSeconds = 1.0;
  return fixed_epochs > 0 ? 0 : kWarmupSeconds;
}

std::size_t Options::FirstHalfEpochs() const {
  return fixed_epochs > 0 ? std::max<std::size_t>(fixed_epochs / 2, 1) : 0;
}

std::size_t Options::SecondHalfEpochs(std::size_t first_half_run) const {
  return fixed_epochs > 0 && fixed_epochs > first_half_run ? fixed_epochs - first_half_run
         : fixed_epochs > 0                                 ? 1
                                                            : 0;
}

double SecondsBetween(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

std::string Metrics::ToJson() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const Entry& e : entries_) {
    char value[64];
    // %.17g keeps every digit the double carries; non-finite values would
    // not be JSON, so they are reported as 0 and caught by the checks.
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    os << (first ? "" : ", ") << '"' << e.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  os << '}';
  return os.str();
}

void Metrics::PrintTable(std::FILE* out) const {
  for (const Entry& e : entries_) {
    std::fprintf(out, "  %-44s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

void Checks::Expect(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
  }
}

void Tracer::Span(const char* name, std::uint32_t track, std::uint64_t id, std::uint64_t parent,
                  std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(SpanRec{name, track, id, parent, start_ns, end_ns});
}

void Tracer::Counters(std::int64_t at_ns, const nvc::sim::NvmCounters& counters) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  counters_.push_back(CounterRec{at_ns, counters});
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const char* const kTrackNames[] = {"", "main", "durable", "submitter"};
  bool first = true;
  for (std::uint32_t t = kMain; t <= kSubmitter; ++t) {
    os << (first ? "" : ",\n") << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << t
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \"" << kTrackNames[t] << "\"}}";
    first = false;
  }
  char buf[320];
  for (const SpanRec& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"name\": \"%s\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                  ", \"parent\": %" PRIu64 "}}",
                  s.track, s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent);
    os << buf;
  }
  for (const CounterRec& c : counters_) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\": \"C\", \"pid\": 1, \"name\": \"nvm\", \"ts\": %.3f, "
                  "\"args\": {\"write_bytes\": %" PRIu64 ", \"read_bytes\": %" PRIu64
                  ", \"persisted_lines\": %" PRIu64 ", \"fences\": %" PRIu64 "}}",
                  static_cast<double>(c.at_ns) / 1e3, c.counters.write_bytes,
                  c.counters.read_bytes, c.counters.persisted_lines, c.counters.fences);
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

nvc::sim::NvmCounters Delta(const nvc::sim::NvmCounters& a, const nvc::sim::NvmCounters& b) {
  return nvc::sim::NvmCounters{.read_bytes = b.read_bytes - a.read_bytes,
                               .read_granules = b.read_granules - a.read_granules,
                               .write_bytes = b.write_bytes - a.write_bytes,
                               .persisted_lines = b.persisted_lines - a.persisted_lines,
                               .persist_ops = b.persist_ops - a.persist_ops,
                               .fences = b.fences - a.fences};
}

nvc::sim::NvmCounters Sum(const nvc::sim::NvmCounters& a, const nvc::sim::NvmCounters& b) {
  return nvc::sim::NvmCounters{.read_bytes = a.read_bytes + b.read_bytes,
                               .read_granules = a.read_granules + b.read_granules,
                               .write_bytes = a.write_bytes + b.write_bytes,
                               .persisted_lines = a.persisted_lines + b.persisted_lines,
                               .persist_ops = a.persist_ops + b.persist_ops,
                               .fences = a.fences + b.fences};
}

double ModeledDeviceSeconds(const nvc::sim::NvmCounters& delta) {
  constexpr nvc::sim::LatencyProfile kProfile = nvc::sim::LatencyProfile::Optane();
  const double ns = static_cast<double>(delta.read_granules) * kProfile.read_ns_per_granule +
                    static_cast<double>(delta.persisted_lines) * kProfile.write_ns_per_line +
                    static_cast<double>(delta.fences) * kProfile.fence_ns;
  return ns / 1e9;
}

EngineCounters SnapshotEngine(nvc::EngineStats& stats) {
  return EngineCounters{.transient_writes = stats.transient_writes.Sum(),
                        .persistent_writes = stats.persistent_writes.Sum(),
                        .cache_hits = stats.cache_hits.Sum(),
                        .cache_misses = stats.cache_misses.Sum()};
}

EngineCounters Delta(const EngineCounters& a, const EngineCounters& b) {
  return EngineCounters{.transient_writes = b.transient_writes - a.transient_writes,
                        .persistent_writes = b.persistent_writes - a.persistent_writes,
                        .cache_hits = b.cache_hits - a.cache_hits,
                        .cache_misses = b.cache_misses - a.cache_misses};
}

std::uint64_t StateDigest(nvc::core::Database& db, bool include_epoch) {
  nvc::core::OracleState state = nvc::core::CaptureState(db);
  if (!include_epoch) {
    state.epoch = 0;
  }
  return nvc::core::StateHash(state);
}

Restart RestartRepeatedly(nvc::sim::NvmDevice& device, const nvc::core::DatabaseSpec& spec,
                          const nvc::txn::TxnRegistry& registry, Tracer& tracer) {
  Restart out;
  out.db = BuildRepeatedly(
      kRestartRepeats,
      [&] {
        const std::int64_t start = NowNs();
        auto db = std::make_unique<nvc::core::Database>(device, spec);
        const nvc::StatusOr<nvc::core::RecoveryReport> report = db->Recover(registry);
        tracer.Span("core.recover", Tracer::kMain, 0, 0, start, NowNs());
        out.ok = out.ok && report.ok();
        if (report.ok()) {
          out.report = *report;
        }
        return db;
      },
      &out.median_seconds);
  return out;
}

nvc::core::EpochCallback DurableLog::Callback() {
  return [this](const nvc::core::EpochResult& result,
                const std::vector<nvc::core::TxnOutcome>& outcomes) {
    const std::int64_t now = NowNs();
    std::size_t committed = 0;
    std::size_t aborted = 0;
    for (const nvc::core::TxnOutcome o : outcomes) {
      committed += o == nvc::core::TxnOutcome::kCommitted ? 1 : 0;
      aborted += o == nvc::core::TxnOutcome::kAborted ? 1 : 0;
    }
    std::lock_guard<std::mutex> lk(mu_);
    entries_.push_back(Entry{result.epoch, now, committed, aborted});
  };
}

std::vector<DurableLog::Entry> DurableLog::Take() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Entry> out;
  out.swap(entries_);
  return out;
}

}  // namespace nvcbench
