#include "src/core/input_log.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/common/hash.h"
#include "src/common/profiler.h"
#include "src/common/serializer.h"
#include "src/common/worker_pool.h"
#include "src/txn/stream.h"

namespace nvc::core {
namespace {

// Checksum chunk size. Must divide evenly into worker slices only at chunk
// granularity, not byte granularity, so any value works; 4 KB keeps the
// per-chunk hash array tiny.
constexpr std::size_t kChecksumChunk = 4096;

std::uint64_t AlignDownLine(std::uint64_t offset) {
  return offset / kCacheLineSize * kCacheLineSize;
}

}  // namespace

InputLog::InputLog(sim::NvmDevice& device, std::uint64_t base_offset, std::size_t buffer_bytes)
    : device_(device), base_(base_offset), buffer_bytes_(buffer_bytes) {}

std::uint64_t InputLog::Checksum(const std::uint8_t* data, std::size_t n) {
  const std::size_t chunks = (n + kChecksumChunk - 1) / kChecksumChunk;
  std::vector<std::uint64_t> hashes(chunks);
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t begin = i * kChecksumChunk;
    hashes[i] = Fnv1a(data + begin, std::min(kChecksumChunk, n - begin));
  }
  return Fnv1a(reinterpret_cast<const std::uint8_t*>(hashes.data()),
               chunks * sizeof(std::uint64_t));
}

void InputLog::Format() {
  for (int parity = 0; parity < 2; ++parity) {
    auto* header = device_.As<LogHeader>(base_ + parity * buffer_bytes_);
    std::memset(header, 0, sizeof(LogHeader));
    device_.Persist(base_ + parity * buffer_bytes_, sizeof(LogHeader), 0);
  }
  device_.Fence(0);
}

std::size_t InputLog::LogEpoch(Epoch epoch,
                               const std::vector<std::unique_ptr<txn::Transaction>>& txns,
                               std::size_t core) {
  const std::vector<std::uint8_t> payload = txn::EncodeTxnStream(txns);

  const std::uint64_t buffer = BufferOffset(epoch);
  if (sizeof(LogHeader) + payload.size() > buffer_bytes_) {
    throw std::runtime_error("InputLog: epoch inputs exceed log buffer size");
  }

  // Invalidate the buffer first so a crash mid-write cannot leave a stale
  // complete header in front of new payload bytes.
  auto* header = device_.As<LogHeader>(buffer);
  header->complete = 0;
  device_.Persist(buffer + offsetof(LogHeader, complete), sizeof(std::uint64_t), core);
  device_.Fence(core);

  // Bulk, sequential payload write at close to full NVMM bandwidth.
  device_.WritePersist(buffer + sizeof(LogHeader), payload.data(), payload.size(), core);
  header->epoch = epoch;
  header->txn_count = static_cast<std::uint32_t>(txns.size());
  header->payload_bytes = payload.size();
  header->checksum = Checksum(payload.data(), payload.size());
  device_.Persist(buffer, sizeof(LogHeader), core);
  device_.Fence(core);

  header->complete = 1;
  device_.Persist(buffer + offsetof(LogHeader, complete), sizeof(std::uint64_t), core);
  device_.Fence(core);
  return payload.size();
}

std::size_t InputLog::LogEpochParallel(Epoch epoch,
                                       const std::vector<std::unique_ptr<txn::Transaction>>& txns,
                                       WorkerPool& pool, PhaseProfiler& profiler) {
  const std::size_t workers = pool.size();

  // Pass 1: encode disjoint serial-order ranges into per-worker DRAM
  // buffers. Concatenating the ranges reproduces EncodeTxnStream exactly
  // (records are independently framed).
  std::vector<std::vector<std::uint8_t>> parts(workers);
  pool.RunParallel([&](std::size_t w) {
    PhaseProfiler::WorkerScope scope(profiler, w);
    const Range r = SplitRange(txns.size(), workers, w);
    parts[w] = txn::EncodeTxnRange(txns, r.begin, r.end);
  });

  std::vector<std::uint64_t> part_base(workers);
  std::uint64_t payload_bytes = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    part_base[w] = payload_bytes;
    payload_bytes += parts[w].size();
  }

  const std::uint64_t buffer = BufferOffset(epoch);
  // Capacity check before the device is touched, like the serial path: an
  // overflowing epoch must leave the previous log intact.
  if (sizeof(LogHeader) + payload_bytes > buffer_bytes_) {
    throw std::runtime_error("InputLog: epoch inputs exceed log buffer size");
  }

  auto* header = device_.As<LogHeader>(buffer);
  header->complete = 0;
  device_.Persist(buffer + offsetof(LogHeader, complete), sizeof(std::uint64_t), 0);
  device_.Fence(0);

  // Pass 2: copy each worker's bytes to its prefix-summed position and
  // persist line-disjoint slices. Interior slice boundaries are aligned down
  // to cache lines so no line is covered by two Persist calls — the summed
  // persisted_lines/write_bytes equal the serial single-call counts; only
  // persist_ops grows (one op per active slice instead of one total).
  const std::uint64_t payload_start = buffer + sizeof(LogHeader);
  const std::uint64_t payload_end = payload_start + payload_bytes;
  pool.RunParallel([&](std::size_t w) {
    PhaseProfiler::WorkerScope scope(profiler, w);
    if (!parts[w].empty()) {
      std::memcpy(device_.At(payload_start + part_base[w]), parts[w].data(), parts[w].size());
    }
    const std::uint64_t slice_begin =
        w == 0 ? payload_start
               : std::max(payload_start, AlignDownLine(payload_start + part_base[w]));
    const std::uint64_t slice_end =
        w + 1 == workers
            ? payload_end
            : std::max(payload_start, AlignDownLine(payload_start + part_base[w + 1]));
    if (slice_end > slice_begin) {
      device_.Persist(slice_begin, slice_end - slice_begin, w);
    }
  });

  // Pass 3: hash disjoint checksum-chunk ranges straight off the device
  // image (all bytes are in place after the join above).
  const std::size_t chunks = (payload_bytes + kChecksumChunk - 1) / kChecksumChunk;
  std::vector<std::uint64_t> chunk_hashes(chunks);
  pool.RunParallel([&](std::size_t w) {
    PhaseProfiler::WorkerScope scope(profiler, w);
    const Range r = SplitRange(chunks, workers, w);
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const std::size_t begin = i * kChecksumChunk;
      chunk_hashes[i] = Fnv1a(device_.At(payload_start + begin),
                              std::min<std::size_t>(kChecksumChunk, payload_bytes - begin));
    }
  });

  header->epoch = epoch;
  header->txn_count = static_cast<std::uint32_t>(txns.size());
  header->payload_bytes = payload_bytes;
  header->checksum = Fnv1a(reinterpret_cast<const std::uint8_t*>(chunk_hashes.data()),
                           chunks * sizeof(std::uint64_t));
  device_.Persist(buffer, sizeof(LogHeader), 0);
  // The workers' payload persists are staged on their own cores: one
  // cross-core barrier orders payload + header before the complete flag,
  // exactly where the serial path fenced once. Bounded to the worker cores —
  // this runs concurrently with the previous epoch's tail thread, which owns
  // the device core at index `workers`.
  device_.FenceWorkers(workers, 0);

  header->complete = 1;
  device_.Persist(buffer + offsetof(LogHeader, complete), sizeof(std::uint64_t), 0);
  device_.Fence(0);
  return payload_bytes;
}

void InputLog::AttachDigestArea(std::uint64_t base_offset, std::size_t buffer_bytes) {
  digest_base_ = base_offset;
  digest_bytes_ = buffer_bytes;
}

void InputLog::FormatDigest() {
  for (int parity = 0; parity < 2; ++parity) {
    auto* header = device_.As<LogHeader>(digest_base_ + parity * digest_bytes_);
    std::memset(header, 0, sizeof(LogHeader));
    device_.Persist(digest_base_ + parity * digest_bytes_, sizeof(LogHeader), 0);
  }
  device_.Fence(0);
}

bool InputLog::LogDigest(Epoch epoch, const std::vector<DigestEntry>& entries,
                         std::size_t core) {
  const std::uint64_t buffer = DigestBufferOffset(epoch);
  const std::size_t payload_bytes = entries.size() * sizeof(DigestEntry);

  // Invalidate first in every case: after an overflow the buffer must not
  // present a stale complete digest next to the new epoch's log.
  auto* header = device_.As<LogHeader>(buffer);
  header->complete = 0;
  device_.Persist(buffer + offsetof(LogHeader, complete), sizeof(std::uint64_t), core);
  device_.Fence(core);

  if (sizeof(LogHeader) + payload_bytes > digest_bytes_) {
    return false;  // falls back to full replay for this epoch
  }

  device_.WritePersist(buffer + sizeof(LogHeader),
                       reinterpret_cast<const std::uint8_t*>(entries.data()), payload_bytes,
                       core);
  header->epoch = epoch;
  header->txn_count = static_cast<std::uint32_t>(entries.size());
  header->payload_bytes = payload_bytes;
  header->checksum =
      Checksum(reinterpret_cast<const std::uint8_t*>(entries.data()), payload_bytes);
  device_.Persist(buffer, sizeof(LogHeader), core);
  device_.Fence(core);

  header->complete = 1;
  device_.Persist(buffer + offsetof(LogHeader, complete), sizeof(std::uint64_t), core);
  device_.Fence(core);
  return true;
}

bool InputLog::LoadDigest(Epoch epoch, std::vector<DigestEntry>* out, std::size_t core) const {
  if (digest_bytes_ == 0) {
    return false;
  }
  const std::uint64_t buffer = DigestBufferOffset(epoch);
  device_.ChargeRead(buffer, sizeof(LogHeader), core);
  const auto* header = device_.As<LogHeader>(buffer);
  if (header->complete != 1 || header->epoch != epoch) {
    return false;
  }
  if (header->payload_bytes > digest_bytes_ - sizeof(LogHeader) ||
      header->payload_bytes != header->txn_count * sizeof(DigestEntry)) {
    return false;
  }
  const std::uint8_t* payload = device_.At(buffer + sizeof(LogHeader));
  device_.ChargeRead(buffer + sizeof(LogHeader), header->payload_bytes, core);
  if (Checksum(payload, header->payload_bytes) != header->checksum) {
    return false;
  }
  out->resize(header->txn_count);
  std::memcpy(out->data(), payload, header->payload_bytes);
  return true;
}

bool InputLog::LoadEpoch(Epoch epoch, const txn::TxnRegistry& registry,
                         std::vector<std::unique_ptr<txn::Transaction>>* out,
                         std::size_t core) const {
  const std::uint64_t buffer = BufferOffset(epoch);
  device_.ChargeRead(buffer, sizeof(LogHeader), core);
  const auto* header = device_.As<LogHeader>(buffer);
  if (header->complete != 1 || header->epoch != epoch) {
    return false;
  }
  if (header->payload_bytes > buffer_bytes_ - sizeof(LogHeader)) {
    return false;  // corrupt header: the claimed payload exceeds the buffer
  }
  const std::uint8_t* payload = device_.At(buffer + sizeof(LogHeader));
  device_.ChargeRead(buffer + sizeof(LogHeader), header->payload_bytes, core);
  if (Checksum(payload, header->payload_bytes) != header->checksum) {
    return false;
  }
  try {
    *out = txn::DecodeTxnStream(payload, header->payload_bytes, header->txn_count, registry);
  } catch (const SerializeError&) {
    // A payload that passes the checksum but decodes past its bounds is still
    // a torn/corrupt log: treat it as "no complete log", the same as a
    // checksum failure, rather than crashing the recovery.
    out->clear();
    return false;
  }
  return true;
}

bool InputLog::HasCompleteEpoch(Epoch epoch, std::size_t core) const {
  const std::uint64_t buffer = BufferOffset(epoch);
  device_.ChargeRead(buffer, sizeof(LogHeader), core);
  const auto* header = device_.As<LogHeader>(buffer);
  if (header->complete != 1 || header->epoch != epoch) {
    return false;
  }
  if (header->payload_bytes > buffer_bytes_ - sizeof(LogHeader)) {
    return false;
  }
  const std::uint8_t* payload = device_.At(buffer + sizeof(LogHeader));
  device_.ChargeRead(buffer + sizeof(LogHeader), header->payload_bytes, core);
  return Checksum(payload, header->payload_bytes) == header->checksum;
}

}  // namespace nvc::core
