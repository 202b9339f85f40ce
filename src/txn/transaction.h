// One-shot deterministic transaction model (paper section 3.1.1).
//
// A transaction receives all of its inputs up front, which lets the engine
// log the inputs to NVMM and re-execute the transaction deterministically
// during failure recovery. Each transaction participates in the three epoch
// phases through the callbacks below; the contexts are implemented by the
// engine.
//
// Write sets must be declared before execution (AppendStep). Transactions
// may abort only before issuing their first write (paper 4.6) — perform all
// reads and validity checks first, then writes.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <memory>
#include <unordered_map>

#include "src/common/serializer.h"
#include "src/common/types.h"

namespace nvc::txn {

using TxnType = std::uint32_t;
using CounterId = std::uint32_t;

// Insert-step context: creates rows and draws deterministic-order IDs.
class InsertContext {
 public:
  virtual ~InsertContext() = default;

  // Creates a new persistent row with its initial data (written to NVMM
  // directly — paper 4.1). data may be null to create the row with its
  // first version produced during execution.
  virtual void InsertRow(TableId table, Key key, const void* data, std::uint32_t size) = 0;

  // Atomically advances a registered counter (Caracal's TPC-C order-id
  // counters). NOT deterministic across replay; see RecoveryPolicy.
  virtual std::uint64_t CounterFetchAdd(CounterId counter, std::uint64_t delta) = 0;

  // The counter's value as of the start of this epoch (stable within the
  // epoch). TPC-C Delivery uses this to only pick orders from previous
  // epochs, keeping its write set readable during initialization.
  virtual std::uint64_t CounterEpochStart(CounterId counter) const = 0;

  // Atomically advances the counter only while it is below `bound`; returns
  // the previous value, or ~0 when the bound was reached (TPC-C Delivery:
  // "deliver the oldest undelivered order, if any").
  virtual std::uint64_t CounterFetchAddIfLess(CounterId counter, std::uint64_t bound) = 0;

  virtual Sid sid() const = 0;
};

// Append-step context: declares the update/delete write set.
class AppendContext {
 public:
  virtual ~AppendContext() = default;
  virtual void DeclareUpdate(TableId table, Key key) = 0;
  virtual void DeclareDelete(TableId table, Key key) = 0;

  // Reads the latest value committed before this epoch (cached or
  // persistent). Supports write sets that depend on stable row contents,
  // e.g. TPC-C Delivery reading an order's customer and line count. Must not
  // be used on rows that may have been inserted in the current epoch.
  virtual int ReadPreEpoch(TableId table, Key key, void* out, std::uint32_t cap) = 0;

  virtual Sid sid() const = 0;
};

// Declarative range scan over an ordered table (TableSchema::ordered).
// Delivers live rows with key in [lo, hi] ascending, at most `limit`.
struct ScanSpec {
  TableId table = 0;
  Key lo = 0;
  Key hi = 0;                 // inclusive upper bound
  std::uint32_t limit = ~0u;  // max live rows delivered
};

// Receives one live row per call; return false to stop the scan early.
using ScanRowFn = std::function<bool(Key key, const void* data, std::uint32_t size)>;

// Execution-phase context.
class ExecContext {
 public:
  virtual ~ExecContext() = default;

  // Reads the latest version visible to this transaction. Returns the value
  // size, or -1 when the row does not exist (for this SID). `cap` is the
  // capacity of out; larger values are truncated.
  virtual int Read(TableId table, Key key, void* out, std::uint32_t cap) = 0;

  // Writes a declared key. The data becomes visible to later transactions
  // immediately (early write visibility), so a transaction that writes a key
  // more than once must write the same final value each time: a later
  // transaction on another worker may already have read the earlier one.
  virtual void Write(TableId table, Key key, const void* data, std::uint32_t size) = 0;

  // Deletes a declared key (tombstone version).
  virtual void Delete(TableId table, Key key) = 0;

  // User-level abort; must precede all writes of this transaction.
  virtual void Abort() = 0;

  // Inserts a new row from within execution. Supported by the Aria
  // concurrency control (buffered, applied at commit); the Caracal engine
  // creates rows in the insert step instead and throws here.
  virtual void Insert(TableId table, Key key, const void* data, std::uint32_t size) {
    (void)table;
    (void)key;
    (void)data;
    (void)size;
    throw std::logic_error("Insert from execution requires ConcurrencyControl::kAria");
  }

  // Ordered-table queries (see TableSchema::ordered).
  virtual bool FirstInRange(TableId table, Key lo, Key hi, Key* found) = 0;
  virtual bool LastInRange(TableId table, Key lo, Key hi, Key* found) = 0;

  // Ordered range scan: every live row in [spec.lo, spec.hi] visible to this
  // transaction, ascending, at most spec.limit rows; returns the number
  // delivered. Under Aria the scan's observed key interval joins the read
  // set, so a smaller-SID write inside it deterministically defers this
  // transaction (phantom-safe); under Caracal visibility is decided per row
  // by the version machinery, which replay reproduces exactly. Contexts
  // without range support (e.g. instant-recovery redo) keep this default.
  virtual std::uint32_t Scan(const ScanSpec& spec, const ScanRowFn& fn) {
    (void)spec;
    (void)fn;
    throw std::logic_error("Scan requires an ordered table and a scan-capable engine");
  }

  // Epoch-start value of a deterministic counter (read-only; stable and
  // replay-identical). TPC-C StockLevel derives "the last 20 orders" from it.
  virtual std::uint64_t CounterEpochStart(CounterId counter) const = 0;

  virtual Sid sid() const = 0;
};

class Transaction {
 public:
  virtual ~Transaction() = default;

  // Workload-unique type tag used to decode logged inputs.
  virtual TxnType type() const = 0;

  // Serializes the transaction inputs for the NVMM input log.
  virtual void EncodeInputs(BinaryWriter& writer) const = 0;

  // Initialization phase.
  virtual void InsertStep(InsertContext& ctx) { (void)ctx; }
  virtual void AppendStep(AppendContext& ctx) { (void)ctx; }

  // Execution phase.
  virtual void Execute(ExecContext& ctx) = 0;

  // Declares every (table, key) this transaction may read — through
  // ExecContext::Read or AppendContext::ReadPreEpoch — as a pure function of
  // the transaction's inputs. Single-engine execution never calls it; the
  // multi-shard router (src/shard) uses it to classify transactions and to
  // resolve cross-shard reads from the pre-epoch exchange snapshot, so in
  // sharded deployments an incomplete declaration makes a cross-shard
  // transaction's reads fail. The default declares nothing (write-only
  // transactions need no override).
  virtual void DeclareReadSet(const std::function<void(TableId, Key)>& declare) const {
    (void)declare;
  }
};

// Decodes a logged transaction of a given type back into an executable
// object (deterministic replay).
using TxnDecoder = std::function<std::unique_ptr<Transaction>(BinaryReader&)>;

class TxnRegistry {
 public:
  void Register(TxnType type, TxnDecoder decoder) { decoders_[type] = std::move(decoder); }

  std::unique_ptr<Transaction> Decode(TxnType type, BinaryReader& reader) const {
    auto it = decoders_.find(type);
    if (it == decoders_.end()) {
      return nullptr;
    }
    return it->second(reader);
  }

  bool Has(TxnType type) const { return decoders_.count(type) != 0; }

 private:
  std::unordered_map<TxnType, TxnDecoder> decoders_;
};

}  // namespace nvc::txn
