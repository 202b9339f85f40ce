// NVMM input log (paper section 4.3).
//
// At the beginning of every epoch, the inputs and predetermined serial order
// of all transactions in the epoch are appended to NVMM and persisted before
// the execution phase starts. Only the log of the currently-executing epoch
// is ever needed (earlier epochs are covered by the checkpoint), so two
// buffers are used alternately by epoch parity.
//
// Record format inside a buffer:
//   LogHeader { epoch, txn_count, payload_bytes, checksum, complete }
//   repeated { type: u32, size: u32, payload[size] }
//
// The complete flag is persisted after the payload (fence in between), so a
// torn log is detected and the epoch is simply not replayed — it never
// started executing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/sim/nvm_device.h"
#include "src/txn/transaction.h"

namespace nvc {
class WorkerPool;
class PhaseProfiler;
}  // namespace nvc

namespace nvc::core {

// One record of the per-epoch replay digest: transaction slot `slot` (0-based
// serial-order index into the epoch's transaction vector) declares a write
// (update, delete, or insert) of `key` in `table`. Instant recovery inverts
// this into key -> slot-list to find the crashed-epoch transactions touching
// any given key without decoding the whole log.
struct DigestEntry {
  Key key;
  std::uint32_t table;
  std::uint32_t slot;
};
static_assert(sizeof(DigestEntry) == 16);

class InputLog {
 public:
  static std::size_t RequiredBytes(std::size_t buffer_bytes) { return 2 * buffer_bytes; }

  InputLog(sim::NvmDevice& device, std::uint64_t base_offset, std::size_t buffer_bytes);

  void Format();

  // Payload checksum: FNV-1a over the array of per-4096-byte-chunk FNV-1a
  // hashes. Chunking makes the value independent of how the payload was
  // produced (serial or per-worker slices) while letting the parallel path
  // hash disjoint chunk ranges on different workers.
  static std::uint64_t Checksum(const std::uint8_t* data, std::size_t n);

  // Serializes and persists the inputs of all transactions for `epoch`.
  // Returns the number of bytes logged. Issues its own fences; on return the
  // log is durable and marked complete.
  std::size_t LogEpoch(Epoch epoch,
                       const std::vector<std::unique_ptr<txn::Transaction>>& txns,
                       std::size_t core);

  // Parallel variant of LogEpoch (Caracal's log path): workers encode
  // disjoint serial-order transaction ranges into per-worker buffers, copy
  // them into the log at prefix-summed offsets (persisting line-disjoint
  // slices so the persisted line and byte counts match the serial bulk
  // write exactly), and hash disjoint checksum-chunk ranges; the calling
  // thread alone orders the header commits, with the same three fences as
  // the serial path. The persisted image is byte-identical to LogEpoch's.
  std::size_t LogEpochParallel(Epoch epoch,
                               const std::vector<std::unique_ptr<txn::Transaction>>& txns,
                               WorkerPool& pool, PhaseProfiler& profiler);

  // Reads back the complete log for `epoch`, decoding each record through
  // the registry. Returns false when no complete log for that epoch exists.
  bool LoadEpoch(Epoch epoch, const txn::TxnRegistry& registry,
                 std::vector<std::unique_ptr<txn::Transaction>>* out, std::size_t core) const;

  // Cheap completeness probe: header + checksum checks of LoadEpoch without
  // decoding the payload. Used by the sharded recovery coordinator to decide
  // the global replay policy before any shard recovers.
  bool HasCompleteEpoch(Epoch epoch, std::size_t core) const;

  // ---- Replay digest (instant recovery) -------------------------------------
  // The digest lives in its own pair of parity buffers and follows the same
  // invalidate -> payload -> header -> complete protocol as the log, so a
  // torn digest is detected and recovery falls back to full replay.

  // Attaches the digest area ([base_offset, base_offset + 2 * buffer_bytes)).
  void AttachDigestArea(std::uint64_t base_offset, std::size_t buffer_bytes);
  bool has_digest_area() const { return digest_bytes_ != 0; }

  void FormatDigest();

  // Persists the write-set digest for `epoch`. Returns false (leaving the
  // buffer invalidated) when the entries do not fit — the epoch is then
  // recovered by full replay instead of on-demand redo.
  bool LogDigest(Epoch epoch, const std::vector<DigestEntry>& entries, std::size_t core);

  // Loads the complete digest for `epoch`; false when absent/torn/overflowed.
  bool LoadDigest(Epoch epoch, std::vector<DigestEntry>* out, std::size_t core) const;

 private:
  struct LogHeader {
    Epoch epoch;
    std::uint32_t txn_count;
    std::uint64_t payload_bytes;
    std::uint64_t checksum;
    std::uint64_t complete;
  };

  std::uint64_t BufferOffset(Epoch epoch) const {
    return base_ + (epoch & 1) * buffer_bytes_;
  }
  std::uint64_t DigestBufferOffset(Epoch epoch) const {
    return digest_base_ + (epoch & 1) * digest_bytes_;
  }

  sim::NvmDevice& device_;
  std::uint64_t base_;
  std::size_t buffer_bytes_;
  std::uint64_t digest_base_ = 0;
  std::size_t digest_bytes_ = 0;
};

}  // namespace nvc::core
