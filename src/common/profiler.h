// Epoch-phase profiler.
//
// Records (phase, worker, start, duration) spans around every parallel
// fan-out of the epoch loop plus the serial driver phases, and attributes
// operation-counter deltas (NVM reads/writes/persists/fences, engine cache
// and version counters) to the phase during which they occurred. The driver
// thread brackets each phase with BeginPhase/EndPhase (which snapshot the
// counters via a caller-supplied provider); workers record their own spans
// with WorkerScope inside the fan-out closure.
//
// The profiler is compiled in always and gated by ProfilerConfig::enabled:
// when off, every entry point is a single relaxed branch and no memory is
// touched. Phase boundaries only ever run on the driver thread while the
// workers are quiesced (before/after WorkerPool::RunParallel), so counter
// snapshots are consistent without synchronization; worker tracks are
// per-worker and never shared.
//
// Ops that happen inside an epoch but outside any bracketed phase (pool
// BeginEpoch resets, deferred index removals, ...) are attributed to the
// synthetic kOther phase at EndEpoch, so the per-phase deltas always sum
// exactly to the whole-epoch delta.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"

namespace nvc {

// One entry per distinct stretch of the epoch loop (DESIGN.md section 9).
enum class Phase : std::uint8_t {
  kLogInputs,      // input logging (NVCaracal mode)
  kInsert,         // insert step fan-out
  kMajorGc,        // major GC passes 1+2 and the GC-tail persists
  kCacheEvict,     // epoch-based K-LRU cache eviction
  kDemotion,       // cold-tier demotions
  kAppend,         // append step (single-phase variant)
  kAppendCollect,  // batch append sub-phase 1: intent collection
  kAppendBuild,    // batch append sub-phase 2: version-array builds
  kExecute,        // PWV execution + final-write checkpointing
  kCheckpoint,     // synchronous epoch checkpoint (load, instant-recovery
                   // finish); per-epoch tails record kTailPersist
  kGcLog,          // persisted major-GC list: written inside kTailPersist,
                   // so not recorded; kept because reports name it
  kRecoveryBackfill,  // instant-recovery redo: on-demand + background sweep
  kTailPersist,    // the epochs' asynchronous persistence tail, timed
                   // on the tail thread (no op attribution — the concurrent
                   // foreground would pollute device-counter deltas)
  kOther,          // synthetic: in-epoch work outside any bracketed phase
};
inline constexpr std::size_t kPhaseCount = 14;

constexpr const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kLogInputs: return "log-inputs";
    case Phase::kInsert: return "insert";
    case Phase::kMajorGc: return "major-gc";
    case Phase::kCacheEvict: return "cache-evict";
    case Phase::kDemotion: return "demotion";
    case Phase::kAppend: return "append";
    case Phase::kAppendCollect: return "append-collect";
    case Phase::kAppendBuild: return "append-build";
    case Phase::kExecute: return "execute";
    case Phase::kCheckpoint: return "checkpoint";
    case Phase::kGcLog: return "gc-log";
    case Phase::kRecoveryBackfill: return "recovery-backfill";
    case Phase::kTailPersist: return "tail-persist";
    case Phase::kOther: return "other";
  }
  return "?";
}

struct ProfilerConfig {
  bool enabled = false;
  // Per-track span cap; spans beyond it are counted in dropped_spans().
  std::size_t max_spans_per_track = 1 << 18;
};

// Counter snapshot attributed to phases as deltas. The NVM fields mirror the
// hot sim::NvmDevice counters; the engine fields a subset of EngineStats.
struct OpCounters {
  std::uint64_t nvm_read_bytes = 0;
  std::uint64_t nvm_read_granules = 0;
  std::uint64_t nvm_write_bytes = 0;
  std::uint64_t nvm_write_lines = 0;  // 64 B lines covered by Persist
  std::uint64_t nvm_persist_ops = 0;
  std::uint64_t nvm_fences = 0;
  std::uint64_t transient_writes = 0;
  std::uint64_t persistent_writes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  OpCounters& operator+=(const OpCounters& o);
  OpCounters operator-(const OpCounters& o) const;  // element-wise, saturating
};

struct PhaseSpan {
  Phase phase;
  std::uint32_t worker;  // worker id; kDriverTrack for driver-level spans
  Epoch epoch;
  std::uint64_t start_ns;  // since profiler Reset/Configure
  std::uint64_t dur_ns;
};

// Aggregated view of one phase across all profiled epochs.
struct PhaseAggregate {
  std::uint64_t activations = 0;   // driver-level BeginPhase..EndPhase pairs
  std::uint64_t worker_spans = 0;
  double wall_ms = 0;   // driver wall time, summed over activations
  double busy_ms = 0;   // worker span durations, summed over workers
  OpCounters ops;       // counter deltas attributed to this phase
  // Distribution of this phase's per-epoch wall time.
  double epoch_p50_ms = 0;
  double epoch_p95_ms = 0;
  double epoch_max_ms = 0;
};

// Pipelined-epoch overlap accounting (DESIGN.md section 13): how much of the
// asynchronous persistence tail ran concurrently with foreground execution.
struct PipelineStats {
  std::uint64_t tails = 0;          // asynchronous tails joined
  std::uint64_t tail_ns = 0;        // summed tail wall time
  std::uint64_t tail_cpu_ns = 0;    // summed tail-thread CPU time (the work a
                                    // dedicated tail core would absorb; wall
                                    // minus this is preemption, not work)
  std::uint64_t overlapped_ns = 0;  // tail time overlapped with the foreground
  double overlap_fraction() const {
    return tail_ns == 0 ? 0.0 : static_cast<double>(overlapped_ns) / static_cast<double>(tail_ns);
  }
};

struct ProfileReport {
  bool enabled = false;
  std::uint64_t epochs = 0;
  std::uint64_t dropped_spans = 0;
  PipelineStats pipeline;
  std::array<PhaseAggregate, kPhaseCount> phases{};
  OpCounters total;  // sum across phases == whole-epoch deltas
  double epoch_wall_p50_ms = 0;
  double epoch_wall_p95_ms = 0;
  double epoch_wall_max_ms = 0;

  const PhaseAggregate& phase(Phase p) const {
    return phases[static_cast<std::size_t>(p)];
  }
  // Human-readable per-phase table (one row per phase with activity).
  std::string ToTable() const;
};

class PhaseProfiler {
 public:
  // tid used for driver-level spans in worker_spans()/trace output.
  static constexpr std::uint32_t kDriverTrack = 0xFFFFFFFF;

  using SnapshotFn = std::function<OpCounters()>;

  PhaseProfiler();

  // Enables/disables and resets all recorded state. Must not be called
  // while an epoch is being profiled.
  void Configure(const ProfilerConfig& config);
  const ProfilerConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  // Supplies the counter snapshot taken at phase boundaries. Optional: when
  // absent, phases still get timing spans with zero op attribution.
  void SetSnapshotProvider(SnapshotFn fn) { snapshot_ = std::move(fn); }

  // ---- Driver-side bracketing (epoch loop thread only) ----------------------
  void BeginEpoch(Epoch epoch);
  void EndEpoch();
  // Discards the current epoch's partial aggregates (crash-injection path).
  void CancelEpoch();
  void BeginPhase(Phase phase);
  void EndPhase();

  // ---- Pipelined-tail accounting -------------------------------------------
  // Begin/EndTailSpan run on the tail thread and only touch tail-owned state
  // (the kTailPersist aggregate slot and a dedicated span track); the driver
  // never writes either, and Report() readers synchronize via the tail join.
  // AddTailOverlap runs on the driver thread after joining a tail.
  void BeginTailSpan(Epoch epoch);
  void EndTailSpan();
  void AddTailOverlap(std::uint64_t tail_ns, std::uint64_t overlapped_ns,
                      std::uint64_t tail_cpu_ns);
  const std::vector<PhaseSpan>& tail_spans() const { return tail_spans_; }

  bool in_epoch() const { return active_; }

  // RAII driver phase bracket (exception-safe across crash hooks).
  class ScopedPhase {
   public:
    ScopedPhase(PhaseProfiler& profiler, Phase phase) : profiler_(profiler) {
      profiler_.BeginPhase(phase);
    }
    ~ScopedPhase() { profiler_.EndPhase(); }
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

   private:
    PhaseProfiler& profiler_;
  };

  // RAII per-worker span, constructed inside the fan-out closure. Reads the
  // driver-set current phase/epoch; the WorkerPool job handoff orders those
  // writes before any worker runs.
  class WorkerScope {
   public:
    WorkerScope(PhaseProfiler& profiler, std::size_t worker);
    ~WorkerScope();
    WorkerScope(const WorkerScope&) = delete;
    WorkerScope& operator=(const WorkerScope&) = delete;

   private:
    PhaseProfiler* profiler_ = nullptr;  // null when profiling is off
    std::uint32_t worker_ = 0;
    std::uint64_t start_ns_ = 0;
  };

  // ---- Results --------------------------------------------------------------
  ProfileReport Report() const;

  // Worker span track (spans in recording order; disjoint by construction).
  const std::vector<PhaseSpan>& worker_spans(std::size_t worker) const {
    return tracks_[worker].spans;
  }
  const std::vector<PhaseSpan>& driver_spans() const { return driver_spans_; }
  std::uint64_t dropped_spans() const { return dropped_.load(std::memory_order_relaxed); }

  // Chrome-trace ("Trace Event Format") JSON, loadable in Perfetto or
  // chrome://tracing: one track per worker, one driver track, one epoch
  // track whose span args carry the phase-unattributed op deltas.
  void WriteChromeTrace(std::ostream& os) const;
  bool WriteChromeTrace(const std::string& path) const;

  // Clears all recorded spans and aggregates; keeps config and provider.
  void Reset();

 private:
  struct alignas(kCacheLineSize) Track {
    std::vector<PhaseSpan> spans;
  };
  // Per-epoch op deltas attributed to no phase (reported under kOther).
  struct EpochOther {
    Epoch epoch;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    OpCounters ops;
  };

  std::uint64_t NowNs() const;
  OpCounters Snapshot() const { return snapshot_ ? snapshot_() : OpCounters{}; }
  void PushSpan(Track& track, const PhaseSpan& span);

  ProfilerConfig config_;
  SnapshotFn snapshot_;
  std::chrono::steady_clock::time_point origin_;

  // Driver-side state (single-threaded).
  bool active_ = false;           // enabled && inside BeginEpoch..EndEpoch
  Epoch current_epoch_ = 0;
  std::uint64_t epoch_start_ns_ = 0;
  OpCounters epoch_start_ops_;
  bool phase_open_ = false;
  Phase current_phase_ = Phase::kOther;
  std::uint64_t phase_start_ns_ = 0;
  OpCounters phase_start_ops_;
  std::array<double, kPhaseCount> epoch_phase_wall_ms_{};
  OpCounters epoch_phase_ops_sum_;

  // Accumulated results.
  std::uint64_t epochs_ = 0;
  std::array<PhaseAggregate, kPhaseCount> agg_{};
  std::array<LatencyRecorder, kPhaseCount> phase_epoch_wall_;
  LatencyRecorder epoch_wall_;
  std::vector<PhaseSpan> driver_spans_;
  std::vector<OpCounters> driver_span_ops_;  // parallel to driver_spans_
  std::vector<EpochOther> epoch_others_;
  std::array<Track, kMaxCores> tracks_{};
  std::atomic<std::uint64_t> dropped_{0};  // bumped by concurrent WorkerScopes

  // Pipelined-tail state: the *_open_* fields and tail_spans_ are written
  // only by the tail thread; pipeline_ only by the driver (AddTailOverlap).
  bool tail_open_ = false;
  Epoch tail_open_epoch_ = 0;
  std::uint64_t tail_open_start_ns_ = 0;
  std::vector<PhaseSpan> tail_spans_;
  PipelineStats pipeline_;
};

}  // namespace nvc
