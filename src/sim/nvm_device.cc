#include "src/sim/nvm_device.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "src/common/latch.h"
#include "src/common/rng.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace nvc::sim {
namespace {

// TSC ticks per nanosecond, calibrated once. Falls back to steady_clock on
// non-x86 targets.
#if defined(__x86_64__)
double CalibrateTscPerNs() {
  const auto start_time = std::chrono::steady_clock::now();
  const std::uint64_t start_tsc = __rdtsc();
  // Busy wait ~2 ms of wall clock for a stable estimate.
  while (std::chrono::steady_clock::now() - start_time < std::chrono::milliseconds(2)) {
    CpuRelax();
  }
  const std::uint64_t end_tsc = __rdtsc();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start_time)
          .count();
  if (elapsed <= 0) {
    return 1.0;
  }
  return static_cast<double>(end_tsc - start_tsc) / static_cast<double>(elapsed);
}

double TscPerNs() {
  static const double ticks = CalibrateTscPerNs();
  return ticks;
}
#endif

std::uint64_t GranulesTouched(std::uint64_t offset, std::size_t n, std::size_t granule) {
  if (n == 0) {
    // Without this guard `offset + n - 1` underflows for offset 0 and the
    // charge paths would bill (and busy-wait for) ~2^64/granule granules.
    return 0;
  }
  const std::uint64_t first = offset / granule;
  const std::uint64_t last = (offset + n - 1) / granule;
  return last - first + 1;
}

}  // namespace

void SpinDelayNs(std::uint32_t ns) {
  if (ns == 0) {
    return;
  }
#if defined(__x86_64__)
  const std::uint64_t target = __rdtsc() + static_cast<std::uint64_t>(ns * TscPerNs());
  while (__rdtsc() < target) {
    CpuRelax();
  }
#else
  const auto end = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < end) {
    CpuRelax();
  }
#endif
}

LatencyProfile LatencyProfile::Scaled(double factor) const {
  LatencyProfile scaled;
  scaled.read_ns_per_granule = static_cast<std::uint32_t>(read_ns_per_granule * factor);
  scaled.write_ns_per_line = static_cast<std::uint32_t>(write_ns_per_line * factor);
  scaled.fence_ns = static_cast<std::uint32_t>(fence_ns * factor);
  return scaled;
}

NvmDevice::NvmDevice(const NvmConfig& config) : config_(config), size_(config.size_bytes) {
  if (size_ == 0) {
    throw std::invalid_argument("NvmDevice: size_bytes must be > 0");
  }
  if (!config_.backing_file.empty()) {
    struct stat st {};
    recovered_existing_file_ = (::stat(config_.backing_file.c_str(), &st) == 0 &&
                                static_cast<std::size_t>(st.st_size) >= size_);
    fd_ = ::open(config_.backing_file.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
      throw std::runtime_error("NvmDevice: cannot open backing file " + config_.backing_file);
    }
    if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      ::close(fd_);
      throw std::runtime_error("NvmDevice: ftruncate failed");
    }
    void* mapping = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    if (mapping == MAP_FAILED) {
      ::close(fd_);
      throw std::runtime_error("NvmDevice: mmap failed");
    }
    base_ = static_cast<std::uint8_t*>(mapping);
  } else {
    void* mapping = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mapping == MAP_FAILED) {
      throw std::runtime_error("NvmDevice: anonymous mmap failed");
    }
    base_ = static_cast<std::uint8_t*>(mapping);
  }
  if (config_.crash_tracking == CrashTracking::kShadow) {
    shadow_ = std::make_unique<std::uint8_t[]>(size_);
    std::memcpy(shadow_.get(), base_, size_);
  }
}

NvmDevice::~NvmDevice() {
  if (base_ != nullptr) {
    ::munmap(base_, size_);
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void NvmDevice::ChargeRead(std::uint64_t offset, std::size_t n, std::size_t core) {
  assert(core < kMaxCores && "core index out of range (validate workers <= kMaxCores)");
  if (n == 0) {
    return;
  }
  const std::uint64_t granules = GranulesTouched(offset, n, config_.access_granule);
  stats_.read_bytes.Add(core, n);
  stats_.read_granules.Add(core, granules);
  if (config_.latency.read_ns_per_granule != 0) {
    SpinDelayNs(static_cast<std::uint32_t>(granules * config_.latency.read_ns_per_granule));
  }
}

void NvmDevice::Persist(std::uint64_t offset, std::size_t n, std::size_t core) {
  assert(core < kMaxCores && "core index out of range (validate workers <= kMaxCores)");
  if (n == 0) {
    return;
  }
  const std::uint64_t lines = GranulesTouched(offset, n, kCacheLineSize);
  stats_.write_bytes.Add(core, n);
  stats_.persisted_lines.Add(core, lines);
  stats_.persist_ops.Add(core, 1);
  if (config_.latency.write_ns_per_line != 0) {
    SpinDelayNs(static_cast<std::uint32_t>(lines * config_.latency.write_ns_per_line));
  }
  if (shadow_ != nullptr) {
    pending_[core % kMaxCores].ranges.push_back({offset, n});
  }
}

void NvmDevice::ChargeSyntheticRead(std::size_t n, std::size_t core) {
  if (n == 0) {
    return;
  }
  const std::uint64_t granules = (n + config_.access_granule - 1) / config_.access_granule;
  stats_.read_bytes.Add(core, n);
  stats_.read_granules.Add(core, granules);
  if (config_.latency.read_ns_per_granule != 0) {
    SpinDelayNs(static_cast<std::uint32_t>(granules * config_.latency.read_ns_per_granule));
  }
}

void NvmDevice::ChargeSyntheticWrite(std::size_t n, std::size_t core) {
  if (n == 0) {
    return;
  }
  const std::uint64_t lines = (n + kCacheLineSize - 1) / kCacheLineSize;
  stats_.write_bytes.Add(core, n);
  stats_.persisted_lines.Add(core, lines);
  stats_.persist_ops.Add(core, 1);
  if (config_.latency.write_ns_per_line != 0) {
    SpinDelayNs(static_cast<std::uint32_t>(lines * config_.latency.write_ns_per_line));
  }
}

void NvmDevice::WritePersist(std::uint64_t offset, const void* src, std::size_t n,
                             std::size_t core) {
  if (n == 0) {
    return;  // src may be null (an empty epoch's log payload)
  }
  std::memcpy(base_ + offset, src, n);
  Persist(offset, n, core);
}

void NvmDevice::Fence(std::size_t core) {
  assert(core < kMaxCores && "core index out of range (validate workers <= kMaxCores)");
  stats_.fences.Add(core, 1);
  if (config_.latency.fence_ns != 0) {
    SpinDelayNs(config_.latency.fence_ns);
  }
  if (shadow_ != nullptr) {
    auto& pending = pending_[core % kMaxCores];
    for (const PendingRange& range : pending.ranges) {
      ApplyToShadow(range);
    }
    pending.ranges.clear();
  }
}

void NvmDevice::FenceAll(std::size_t core_for_stats) {
  assert(core_for_stats < kMaxCores && "core index out of range");
  stats_.fences.Add(core_for_stats, 1);
  if (config_.latency.fence_ns != 0) {
    SpinDelayNs(config_.latency.fence_ns);
  }
  if (shadow_ != nullptr) {
    for (auto& pending : pending_) {
      for (const PendingRange& range : pending.ranges) {
        ApplyToShadow(range);
      }
      pending.ranges.clear();
    }
  }
}

void NvmDevice::FenceWorkers(std::size_t limit, std::size_t core_for_stats) {
  assert(core_for_stats < kMaxCores && "core index out of range");
  stats_.fences.Add(core_for_stats, 1);
  if (config_.latency.fence_ns != 0) {
    SpinDelayNs(config_.latency.fence_ns);
  }
  if (shadow_ != nullptr) {
    for (std::size_t core = 0; core < limit && core < kMaxCores; ++core) {
      auto& pending = pending_[core];
      for (const PendingRange& range : pending.ranges) {
        ApplyToShadow(range);
      }
      pending.ranges.clear();
    }
  }
}

void NvmDevice::DetachPending() {
  if (shadow_ == nullptr) {
    return;
  }
  for (auto& pending : pending_) {
    detached_.insert(detached_.end(), pending.ranges.begin(), pending.ranges.end());
    pending.ranges.clear();
  }
}

void NvmDevice::FenceDetached(std::size_t count, std::size_t core) {
  assert(core < kMaxCores && "core index out of range");
  for (std::size_t i = 0; i < count; ++i) {
    stats_.fences.Add(core, 1);
    if (config_.latency.fence_ns != 0) {
      SpinDelayNs(config_.latency.fence_ns);
    }
  }
  if (shadow_ != nullptr) {
    for (const PendingRange& range : detached_) {
      ApplyToShadow(range);
    }
    detached_.clear();
    auto& pending = pending_[core % kMaxCores];
    for (const PendingRange& range : pending.ranges) {
      ApplyToShadow(range);
    }
    pending.ranges.clear();
  }
}

void NvmDevice::ApplyToShadow(const PendingRange& range) {
  // Persistence is line-granular: widen the range to full cache lines, the
  // way clwb writes back whole lines.
  const std::uint64_t first = range.offset / kCacheLineSize * kCacheLineSize;
  std::uint64_t last = (range.offset + range.length + kCacheLineSize - 1) / kCacheLineSize *
                       kCacheLineSize;
  if (last > size_) {
    last = size_;
  }
  std::memcpy(shadow_.get() + first, base_ + first, last - first);
}

void NvmDevice::Crash() {
  if (shadow_ == nullptr) {
    throw std::logic_error("NvmDevice::Crash requires CrashTracking::kShadow");
  }
  // Unfenced persists are lost too (including detached ones awaiting a tail
  // fence).
  for (auto& pending : pending_) {
    pending.ranges.clear();
  }
  detached_.clear();
  std::memcpy(base_, shadow_.get(), size_);
}

void NvmDevice::CrashTorn(std::uint64_t seed, double keep_probability) {
  if (shadow_ == nullptr) {
    throw std::logic_error("NvmDevice::CrashTorn requires CrashTracking::kShadow");
  }
  // Tear the in-flight persists: each staged-but-unfenced PendingRange is
  // split at cache-line granularity and every line independently reaches the
  // persisted image with keep_probability — a clwb was issued for the line,
  // so the hardware may or may not have completed the write-back when power
  // was cut. Iterating cores in index order keeps the outcome deterministic
  // from the seed.
  Rng rng(seed);
  const auto tear_range = [&](const PendingRange& range) {
    const std::uint64_t first = range.offset / kCacheLineSize * kCacheLineSize;
    std::uint64_t last = (range.offset + range.length + kCacheLineSize - 1) /
                         kCacheLineSize * kCacheLineSize;
    if (last > size_) {
      last = size_;
    }
    for (std::uint64_t line = first; line < last; line += kCacheLineSize) {
      if (rng.NextDouble() < keep_probability) {
        ApplyToShadow(PendingRange{line, std::min(kCacheLineSize, size_ - line)});
      }
    }
  };
  // Detached ranges (a pipelined tail in flight) are torn like any other
  // staged range; they come first so the outcome stays deterministic.
  for (const PendingRange& range : detached_) {
    tear_range(range);
  }
  detached_.clear();
  for (auto& pending : pending_) {
    for (const PendingRange& range : pending.ranges) {
      tear_range(range);
    }
    pending.ranges.clear();
  }
  // Everything else (dirty lines never covered by a persist, and the dropped
  // lines above) reverts to the persisted image.
  std::memcpy(base_, shadow_.get(), size_);
}

void NvmDevice::CrashChaos(std::uint64_t seed, double keep_probability) {
  if (shadow_ == nullptr) {
    throw std::logic_error("NvmDevice::CrashChaos requires CrashTracking::kShadow");
  }
  for (auto& pending : pending_) {
    pending.ranges.clear();
  }
  detached_.clear();
  Rng rng(seed);
  for (std::size_t line = 0; line < size_; line += kCacheLineSize) {
    const std::size_t len = std::min(kCacheLineSize, size_ - line);
    if (std::memcmp(base_ + line, shadow_.get() + line, len) == 0) {
      continue;  // clean or already persisted
    }
    if (rng.NextDouble() < keep_probability) {
      // The line happened to be written back by the cache before the crash:
      // it survives, and the persisted image must reflect that.
      std::memcpy(shadow_.get() + line, base_ + line, len);
    } else {
      std::memcpy(base_ + line, shadow_.get() + line, len);
    }
  }
}

}  // namespace nvc::sim
