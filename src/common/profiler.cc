#include "src/common/profiler.h"

#include <algorithm>
#include <cassert>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace nvc {
namespace {

std::uint64_t SatSub(std::uint64_t a, std::uint64_t b) { return a >= b ? a - b : 0; }

double MsFromNs(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void AppendFormatted(std::string& out, const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) {
    out.append(buffer, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof(buffer) - 1));
  }
}

// Emits one Chrome-trace "X" (complete) event. ts/dur are microseconds.
void EmitCompleteEvent(std::ostream& os, bool& first, const char* name, double ts_us,
                       double dur_us, std::uint32_t tid, Epoch epoch,
                       const OpCounters* ops) {
  if (!first) {
    os << ",\n";
  }
  first = false;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":%.3f,"
                "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"epoch\":%u",
                name, ts_us, dur_us, tid, epoch);
  os << buffer;
  if (ops != nullptr) {
    std::snprintf(buffer, sizeof(buffer),
                  ",\"nvm_read_bytes\":%llu,\"nvm_write_bytes\":%llu,"
                  "\"nvm_write_lines\":%llu,\"nvm_persist_ops\":%llu,"
                  "\"nvm_fences\":%llu,\"transient_writes\":%llu,"
                  "\"persistent_writes\":%llu",
                  static_cast<unsigned long long>(ops->nvm_read_bytes),
                  static_cast<unsigned long long>(ops->nvm_write_bytes),
                  static_cast<unsigned long long>(ops->nvm_write_lines),
                  static_cast<unsigned long long>(ops->nvm_persist_ops),
                  static_cast<unsigned long long>(ops->nvm_fences),
                  static_cast<unsigned long long>(ops->transient_writes),
                  static_cast<unsigned long long>(ops->persistent_writes));
    os << buffer;
  }
  os << "}}";
}

void EmitThreadName(std::ostream& os, bool& first, std::uint32_t tid, const std::string& name) {
  if (!first) {
    os << ",\n";
  }
  first = false;
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
     << ",\"args\":{\"name\":\"" << name << "\"}}";
}

}  // namespace

OpCounters& OpCounters::operator+=(const OpCounters& o) {
  nvm_read_bytes += o.nvm_read_bytes;
  nvm_read_granules += o.nvm_read_granules;
  nvm_write_bytes += o.nvm_write_bytes;
  nvm_write_lines += o.nvm_write_lines;
  nvm_persist_ops += o.nvm_persist_ops;
  nvm_fences += o.nvm_fences;
  transient_writes += o.transient_writes;
  persistent_writes += o.persistent_writes;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  return *this;
}

OpCounters OpCounters::operator-(const OpCounters& o) const {
  OpCounters d;
  d.nvm_read_bytes = SatSub(nvm_read_bytes, o.nvm_read_bytes);
  d.nvm_read_granules = SatSub(nvm_read_granules, o.nvm_read_granules);
  d.nvm_write_bytes = SatSub(nvm_write_bytes, o.nvm_write_bytes);
  d.nvm_write_lines = SatSub(nvm_write_lines, o.nvm_write_lines);
  d.nvm_persist_ops = SatSub(nvm_persist_ops, o.nvm_persist_ops);
  d.nvm_fences = SatSub(nvm_fences, o.nvm_fences);
  d.transient_writes = SatSub(transient_writes, o.transient_writes);
  d.persistent_writes = SatSub(persistent_writes, o.persistent_writes);
  d.cache_hits = SatSub(cache_hits, o.cache_hits);
  d.cache_misses = SatSub(cache_misses, o.cache_misses);
  return d;
}

PhaseProfiler::PhaseProfiler() : origin_(std::chrono::steady_clock::now()) {}

std::uint64_t PhaseProfiler::NowNs() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - origin_)
                                        .count());
}

void PhaseProfiler::Configure(const ProfilerConfig& config) {
  assert(!active_ && "Configure during a profiled epoch");
  config_ = config;
  Reset();
}

void PhaseProfiler::Reset() {
  origin_ = std::chrono::steady_clock::now();
  active_ = false;
  phase_open_ = false;
  epochs_ = 0;
  dropped_.store(0, std::memory_order_relaxed);
  agg_ = {};
  for (auto& recorder : phase_epoch_wall_) {
    recorder.Clear();
  }
  epoch_wall_.Clear();
  driver_spans_.clear();
  driver_span_ops_.clear();
  epoch_others_.clear();
  for (auto& track : tracks_) {
    track.spans.clear();
  }
  epoch_phase_wall_ms_ = {};
  epoch_phase_ops_sum_ = OpCounters{};
  tail_open_ = false;
  tail_open_epoch_ = 0;
  tail_open_start_ns_ = 0;
  tail_spans_.clear();
  pipeline_ = PipelineStats{};
}

void PhaseProfiler::PushSpan(Track& track, const PhaseSpan& span) {
  if (track.spans.size() >= config_.max_spans_per_track) {
    // Workers hit the cap concurrently (their tracks are private but the
    // drop counter is shared), so the count must be atomic.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  track.spans.push_back(span);
}

void PhaseProfiler::BeginEpoch(Epoch epoch) {
  if (!config_.enabled) {
    return;
  }
  assert(!active_ && "BeginEpoch while an epoch is already being profiled");
  active_ = true;
  current_epoch_ = epoch;
  epoch_start_ns_ = NowNs();
  epoch_start_ops_ = Snapshot();
  epoch_phase_wall_ms_ = {};
  epoch_phase_ops_sum_ = OpCounters{};
}

void PhaseProfiler::BeginPhase(Phase phase) {
  if (!active_) {
    return;
  }
  assert(!phase_open_ && "phases must not nest");
  phase_open_ = true;
  current_phase_ = phase;
  phase_start_ns_ = NowNs();
  phase_start_ops_ = Snapshot();
}

void PhaseProfiler::EndPhase() {
  if (!active_ || !phase_open_) {
    return;
  }
  phase_open_ = false;
  const std::uint64_t end_ns = NowNs();
  const OpCounters delta = Snapshot() - phase_start_ops_;
  const auto idx = static_cast<std::size_t>(current_phase_);
  const double wall_ms = MsFromNs(end_ns - phase_start_ns_);

  PhaseAggregate& agg = agg_[idx];
  agg.activations += 1;
  agg.wall_ms += wall_ms;
  agg.ops += delta;
  epoch_phase_wall_ms_[idx] += wall_ms;
  epoch_phase_ops_sum_ += delta;

  driver_spans_.push_back(PhaseSpan{current_phase_, kDriverTrack, current_epoch_,
                                    phase_start_ns_, end_ns - phase_start_ns_});
  driver_span_ops_.push_back(delta);
}

void PhaseProfiler::EndEpoch() {
  if (!active_) {
    return;
  }
  if (phase_open_) {
    EndPhase();  // defensive: a phase left open attributes to itself
  }
  const std::uint64_t end_ns = NowNs();
  const OpCounters epoch_delta = Snapshot() - epoch_start_ops_;
  const OpCounters other = epoch_delta - epoch_phase_ops_sum_;
  const double epoch_ms = MsFromNs(end_ns - epoch_start_ns_);

  double phased_ms = 0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (epoch_phase_wall_ms_[i] > 0) {
      phase_epoch_wall_[i].Record(epoch_phase_wall_ms_[i]);
    }
    phased_ms += epoch_phase_wall_ms_[i];
  }
  const double other_ms = std::max(0.0, epoch_ms - phased_ms);
  const auto other_idx = static_cast<std::size_t>(Phase::kOther);
  agg_[other_idx].activations += 1;
  agg_[other_idx].wall_ms += other_ms;
  agg_[other_idx].ops += other;
  phase_epoch_wall_[other_idx].Record(other_ms);

  epoch_wall_.Record(epoch_ms);
  epoch_others_.push_back(EpochOther{current_epoch_, epoch_start_ns_,
                                     end_ns - epoch_start_ns_, other});
  ++epochs_;
  active_ = false;
}

void PhaseProfiler::BeginTailSpan(Epoch epoch) {
  if (!config_.enabled) {
    return;
  }
  tail_open_ = true;
  tail_open_epoch_ = epoch;
  tail_open_start_ns_ = NowNs();
}

void PhaseProfiler::EndTailSpan() {
  if (!config_.enabled || !tail_open_) {
    return;
  }
  tail_open_ = false;
  const std::uint64_t end_ns = NowNs();
  const std::uint64_t dur_ns = end_ns - tail_open_start_ns_;
  const double wall_ms = MsFromNs(dur_ns);
  // Tail-owned slot: no op attribution (the concurrent foreground would
  // pollute any device-counter delta taken here).
  const auto idx = static_cast<std::size_t>(Phase::kTailPersist);
  agg_[idx].activations += 1;
  agg_[idx].wall_ms += wall_ms;
  phase_epoch_wall_[idx].Record(wall_ms);
  if (tail_spans_.size() < config_.max_spans_per_track) {
    tail_spans_.push_back(PhaseSpan{Phase::kTailPersist, kDriverTrack, tail_open_epoch_,
                                    tail_open_start_ns_, dur_ns});
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PhaseProfiler::AddTailOverlap(std::uint64_t tail_ns, std::uint64_t overlapped_ns,
                                   std::uint64_t tail_cpu_ns) {
  if (!config_.enabled) {
    return;
  }
  pipeline_.tails += 1;
  pipeline_.tail_ns += tail_ns;
  pipeline_.tail_cpu_ns += tail_cpu_ns;
  pipeline_.overlapped_ns += std::min(overlapped_ns, tail_ns);
}

void PhaseProfiler::CancelEpoch() {
  phase_open_ = false;
  active_ = false;
  epoch_phase_wall_ms_ = {};
  epoch_phase_ops_sum_ = OpCounters{};
}

PhaseProfiler::WorkerScope::WorkerScope(PhaseProfiler& profiler, std::size_t worker) {
  if (!profiler.active_) {
    return;
  }
  profiler_ = &profiler;
  worker_ = static_cast<std::uint32_t>(worker % kMaxCores);
  start_ns_ = profiler.NowNs();
}

PhaseProfiler::WorkerScope::~WorkerScope() {
  if (profiler_ == nullptr) {
    return;
  }
  const std::uint64_t end_ns = profiler_->NowNs();
  profiler_->PushSpan(profiler_->tracks_[worker_],
                      PhaseSpan{profiler_->current_phase_, worker_,
                                profiler_->current_epoch_, start_ns_, end_ns - start_ns_});
}

ProfileReport PhaseProfiler::Report() const {
  ProfileReport report;
  report.enabled = config_.enabled;
  report.epochs = epochs_;
  report.dropped_spans = dropped_.load(std::memory_order_relaxed);
  report.pipeline = pipeline_;
  report.phases = agg_;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const LatencyRecorder& recorder = phase_epoch_wall_[i];
    if (!recorder.empty()) {
      report.phases[i].epoch_p50_ms = recorder.Percentile(50);
      report.phases[i].epoch_p95_ms = recorder.Percentile(95);
      report.phases[i].epoch_max_ms = recorder.Max();
    }
    report.total += agg_[i].ops;
  }
  for (const Track& track : tracks_) {
    for (const PhaseSpan& span : track.spans) {
      PhaseAggregate& agg = report.phases[static_cast<std::size_t>(span.phase)];
      agg.worker_spans += 1;
      agg.busy_ms += MsFromNs(span.dur_ns);
    }
  }
  if (!epoch_wall_.empty()) {
    report.epoch_wall_p50_ms = epoch_wall_.Percentile(50);
    report.epoch_wall_p95_ms = epoch_wall_.Percentile(95);
    report.epoch_wall_max_ms = epoch_wall_.Max();
  }
  return report;
}

std::string ProfileReport::ToTable() const {
  std::string out;
  AppendFormatted(out, "epoch-phase profile: %llu epochs, epoch wall p50 %.3f ms  p95 %.3f"
                       " ms  max %.3f ms\n",
                  static_cast<unsigned long long>(epochs), epoch_wall_p50_ms,
                  epoch_wall_p95_ms, epoch_wall_max_ms);
  AppendFormatted(out, "%-15s %6s %10s %10s %9s %9s %9s %12s %12s %9s %8s\n", "phase", "acts",
                  "wall-ms", "busy-ms", "ep-p50", "ep-p95", "ep-max", "NVMr-bytes",
                  "NVMw-lines", "persists", "fences");
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseAggregate& agg = phases[i];
    if (agg.activations == 0 && agg.worker_spans == 0) {
      continue;
    }
    AppendFormatted(out, "%-15s %6llu %10.3f %10.3f %9.3f %9.3f %9.3f %12llu %12llu %9llu"
                         " %8llu\n",
                    PhaseName(static_cast<Phase>(i)),
                    static_cast<unsigned long long>(agg.activations), agg.wall_ms, agg.busy_ms,
                    agg.epoch_p50_ms, agg.epoch_p95_ms, agg.epoch_max_ms,
                    static_cast<unsigned long long>(agg.ops.nvm_read_bytes),
                    static_cast<unsigned long long>(agg.ops.nvm_write_lines),
                    static_cast<unsigned long long>(agg.ops.nvm_persist_ops),
                    static_cast<unsigned long long>(agg.ops.nvm_fences));
  }
  if (dropped_spans > 0) {
    AppendFormatted(out, "(%llu spans dropped by max_spans_per_track)\n",
                    static_cast<unsigned long long>(dropped_spans));
  }
  return out;
}

void PhaseProfiler::WriteChromeTrace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  EmitThreadName(os, first, 0, "epochs");
  EmitThreadName(os, first, 1, "driver");
  for (std::size_t w = 0; w < kMaxCores; ++w) {
    if (!tracks_[w].spans.empty()) {
      EmitThreadName(os, first, static_cast<std::uint32_t>(w) + 2,
                     "worker " + std::to_string(w));
    }
  }
  if (!tail_spans_.empty()) {
    EmitThreadName(os, first, static_cast<std::uint32_t>(kMaxCores) + 2, "tail");
  }
  // Epoch track (tid 0): one span per epoch; args carry the op deltas not
  // attributed to any phase (the kOther share).
  for (const EpochOther& eo : epoch_others_) {
    const std::string name = "epoch " + std::to_string(eo.epoch);
    EmitCompleteEvent(os, first, name.c_str(), static_cast<double>(eo.start_ns) / 1e3,
                      static_cast<double>(eo.dur_ns) / 1e3, 0, eo.epoch, &eo.ops);
  }
  // Driver track (tid 1): serial phase brackets with per-phase op deltas.
  for (std::size_t i = 0; i < driver_spans_.size(); ++i) {
    const PhaseSpan& span = driver_spans_[i];
    EmitCompleteEvent(os, first, PhaseName(span.phase),
                      static_cast<double>(span.start_ns) / 1e3,
                      static_cast<double>(span.dur_ns) / 1e3, 1, span.epoch,
                      &driver_span_ops_[i]);
  }
  // Worker tracks (tid = worker + 2): per-worker phase spans; gaps between
  // spans of the same driver phase are barrier skew.
  for (std::size_t w = 0; w < kMaxCores; ++w) {
    for (const PhaseSpan& span : tracks_[w].spans) {
      EmitCompleteEvent(os, first, PhaseName(span.phase),
                        static_cast<double>(span.start_ns) / 1e3,
                        static_cast<double>(span.dur_ns) / 1e3,
                        static_cast<std::uint32_t>(w) + 2, span.epoch, nullptr);
    }
  }
  // Tail track: the epochs' asynchronous persistence tails.
  for (const PhaseSpan& span : tail_spans_) {
    EmitCompleteEvent(os, first, PhaseName(span.phase),
                      static_cast<double>(span.start_ns) / 1e3,
                      static_cast<double>(span.dur_ns) / 1e3,
                      static_cast<std::uint32_t>(kMaxCores) + 2, span.epoch, nullptr);
  }
  os << "\n]}\n";
}

bool PhaseProfiler::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return false;
  }
  WriteChromeTrace(out);
  return out.good();
}

}  // namespace nvc
