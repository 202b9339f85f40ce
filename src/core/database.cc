#include "src/core/database.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "src/common/hash.h"
#include "src/common/partition.h"

namespace nvc::core {
namespace {
constexpr std::uint64_t kMagic = 0x4e564341524143ULL;  // "NVCARAC"
constexpr std::uint32_t kVersion = 1;

// Bulk-loaded rows all carry the first SID of epoch 1.
constexpr Sid kLoadSid(1, 1);
}  // namespace

Status DatabaseSpec::Validate() const {
  // Device core `workers` is the epoch tail's, so workers stays below
  // kMaxCores.
  if (workers == 0 || workers >= kMaxCores) {
    return Status::InvalidArgument("spec.workers must be in [1, " +
                                   std::to_string(kMaxCores) + "), got " +
                                   std::to_string(workers));
  }
  for (const TableSpec& table : tables) {
    if (table.row_size < vstore::kRowHeaderSize) {
      return Status::InvalidArgument(
          "table '" + table.name + "': row_size " + std::to_string(table.row_size) +
          " is below the persistent row header (" +
          std::to_string(vstore::kRowHeaderSize) + " bytes)");
    }
    if (table.capacity_rows == 0) {
      return Status::InvalidArgument("table '" + table.name + "': capacity_rows must be > 0");
    }
  }
  // Value-pool classes: positive geometry, strictly distinct block sizes
  // (ValuePoolForOffset maps offsets back by disjoint area, but duplicate
  // classes silently waste half the NVMM budget — reject them).
  for (const ValuePoolSpec& pool : value_pools) {
    if (pool.block_size == 0 || pool.blocks_per_core == 0 || pool.freelist_capacity == 0) {
      return Status::InvalidArgument(
          "value pool class " + std::to_string(pool.block_size) +
          " B: block_size, blocks_per_core, and freelist_capacity must all be > 0");
    }
  }
  for (std::size_t i = 0; i < value_pools.size(); ++i) {
    for (std::size_t j = i + 1; j < value_pools.size(); ++j) {
      if (value_pools[i].block_size == value_pools[j].block_size) {
        return Status::InvalidArgument("duplicate value pool class of " +
                                       std::to_string(value_pools[i].block_size) +
                                       " B; block sizes must be distinct");
      }
    }
  }
  if (value_pools.empty() &&
      (value_block_size == 0 || value_blocks_per_core == 0 || value_freelist_capacity == 0)) {
    return Status::InvalidArgument(
        "legacy value pool: value_block_size, value_blocks_per_core, and "
        "value_freelist_capacity must all be > 0");
  }
  if (log_bytes == 0 && ModeLogsInputs(mode)) {
    return Status::InvalidArgument("log_bytes must be > 0 when the engine mode logs inputs");
  }
  if (enable_cold_tier) {
    if (cold_block_size == 0 || cold_blocks_per_core == 0 || cold_freelist_capacity == 0) {
      return Status::InvalidArgument(
          "enable_cold_tier requires cold_block_size, cold_blocks_per_core, and "
          "cold_freelist_capacity > 0");
    }
    if (!enable_cache) {
      return Status::InvalidArgument(
          "enable_cold_tier requires enable_cache: demotion candidates are "
          "discovered by cache aging (DESIGN.md section 6)");
    }
  }
  if (enable_persistent_index && gc_log_capacity == 0) {
    return Status::InvalidArgument("enable_persistent_index requires gc_log_capacity > 0");
  }
  if (enable_instant_recovery) {
    if (!ModeLogsInputs(mode)) {
      return Status::InvalidArgument(
          "enable_instant_recovery requires an engine mode that logs inputs "
          "(EngineMode::kNvCaracal)");
    }
    if (recovery != RecoveryPolicy::kReplayInPlace) {
      return Status::InvalidArgument(
          "enable_instant_recovery requires RecoveryPolicy::kReplayInPlace: "
          "per-key redo relies on fully deterministic replay");
    }
    if (concurrency != ConcurrencyControl::kCaracal) {
      return Status::InvalidArgument(
          "enable_instant_recovery requires ConcurrencyControl::kCaracal: the "
          "replay digest is collected from pre-declared write sets");
    }
    if (digest_bytes <= sizeof(std::uint64_t) * 4) {
      return Status::InvalidArgument("enable_instant_recovery requires digest_bytes large "
                                     "enough for the digest header");
    }
    for (const auto& table : tables) {
      if (table.ordered) {
        return Status::InvalidArgument(
            "enable_instant_recovery does not support ordered tables: range "
            "queries cannot see rows whose redo has not materialized yet");
      }
    }
  }
  return Status::Ok();
}

std::vector<DatabaseSpec::ValuePoolSpec> Database::EffectiveValuePools(
    const DatabaseSpec& spec) {
  std::vector<DatabaseSpec::ValuePoolSpec> pools = spec.value_pools;
  if (pools.empty()) {
    pools.push_back(DatabaseSpec::ValuePoolSpec{spec.value_block_size,
                                                spec.value_blocks_per_core,
                                                spec.value_freelist_capacity});
  }
  std::sort(pools.begin(), pools.end(),
            [](const auto& a, const auto& b) { return a.block_size < b.block_size; });
  return pools;
}

Database::Layout Database::ComputeLayout(const DatabaseSpec& spec) {
  // Runs before any other member initialization (layout_ precedes pool_), so
  // this also stops WorkerPool/per-core arrays from being built with a core
  // count the kMaxCores-sharded device and stats paths cannot represent.
  const Status valid = spec.Validate();
  if (!valid.ok()) {
    throw std::invalid_argument("Database: " + valid.message());
  }
  Layout layout;
  std::uint64_t offset = 0;
  layout.superblock = offset;
  offset += AlignUp(sizeof(SuperBlock), kNvmAccessGranularity);
  layout.counters = offset;
  offset += AlignUp(2 * spec.counters.size() * sizeof(std::uint64_t) + sizeof(std::uint64_t),
                    kNvmAccessGranularity);
  layout.log = offset;
  offset += InputLog::RequiredBytes(spec.log_bytes);
  if (spec.enable_instant_recovery) {
    layout.digest = offset;
    offset += InputLog::RequiredBytes(spec.digest_bytes);
  }

  for (const auto& pool : EffectiveValuePools(spec)) {
    alloc::PersistentPoolConfig value_config{
        .block_size = pool.block_size,
        .blocks_per_core = pool.blocks_per_core,
        .freelist_capacity = pool.freelist_capacity,
        .gc_tail = true,
    };
    const std::uint64_t bytes = alloc::PersistentPool::RequiredBytes(value_config, spec.workers);
    layout.value_pools.push_back(
        ValuePoolArea{.base = offset, .end = offset + bytes, .block_size = pool.block_size});
    offset += bytes;
  }

  for (const TableSpec& table : spec.tables) {
    alloc::PersistentPoolConfig row_config{
        .block_size = table.row_size,
        .blocks_per_core = (table.capacity_rows + spec.workers - 1) / spec.workers + 1,
        .freelist_capacity = table.freelist_capacity,
        .gc_tail = false,
    };
    layout.row_pools.push_back(offset);
    offset += alloc::PersistentPool::RequiredBytes(row_config, spec.workers);
  }
  if (spec.enable_persistent_index) {
    for (const TableSpec& table : spec.tables) {
      layout.pindexes.push_back(offset);
      offset += AlignUp(index::PersistentIndex::RequiredBytes(table.capacity_rows),
                        kNvmAccessGranularity);
    }
    layout.gc_log = offset;
    // Header + two parity halves: a torn write never corrupts the half the
    // durable header points at.
    offset += AlignUp(sizeof(GcLogHeader) + 2 * spec.gc_log_capacity * sizeof(std::uint64_t),
                      kNvmAccessGranularity);
  }
  layout.total = offset;
  return layout;
}

std::size_t Database::RequiredDeviceBytes(const DatabaseSpec& spec) {
  return ComputeLayout(spec).total;
}

std::vector<Database::AreaInfo> Database::DescribeLayout(const DatabaseSpec& spec) {
  const Layout layout = ComputeLayout(spec);
  std::vector<AreaInfo> areas;
  areas.push_back({"superblock", layout.superblock, sizeof(SuperBlock)});
  areas.push_back({"counters", layout.counters,
                   2 * spec.counters.size() * sizeof(std::uint64_t)});
  areas.push_back({"input log (2 parity buffers)", layout.log,
                   InputLog::RequiredBytes(spec.log_bytes)});
  if (spec.enable_instant_recovery) {
    areas.push_back({"replay digest (2 parity buffers)", layout.digest,
                     InputLog::RequiredBytes(spec.digest_bytes)});
  }
  for (std::size_t i = 0; i < layout.value_pools.size(); ++i) {
    areas.push_back({"value pool class " + std::to_string(layout.value_pools[i].block_size) +
                         " B",
                     layout.value_pools[i].base,
                     layout.value_pools[i].end - layout.value_pools[i].base});
  }
  for (std::size_t i = 0; i < layout.row_pools.size(); ++i) {
    const std::uint64_t end =
        i + 1 < layout.row_pools.size()
            ? layout.row_pools[i + 1]
            : (layout.pindexes.empty() ? layout.total : layout.pindexes[0]);
    areas.push_back({"row pool: " + spec.tables[i].name, layout.row_pools[i],
                     end - layout.row_pools[i]});
  }
  for (std::size_t i = 0; i < layout.pindexes.size(); ++i) {
    const std::uint64_t end =
        i + 1 < layout.pindexes.size() ? layout.pindexes[i + 1] : layout.gc_log;
    areas.push_back({"persistent index: " + spec.tables[i].name, layout.pindexes[i],
                     end - layout.pindexes[i]});
  }
  if (spec.enable_persistent_index) {
    areas.push_back({"gc log", layout.gc_log, layout.total - layout.gc_log});
  }
  return areas;
}

std::size_t Database::RequiredColdDeviceBytes(const DatabaseSpec& spec) {
  if (!spec.enable_cold_tier) {
    return 0;
  }
  return alloc::PersistentPool::RequiredBytes(
      alloc::PersistentPoolConfig{.block_size = spec.cold_block_size,
                                  .blocks_per_core = spec.cold_blocks_per_core,
                                  .freelist_capacity = spec.cold_freelist_capacity,
                                  .gc_tail = true},
      spec.workers);
}

Database::Database(sim::NvmDevice& device, const DatabaseSpec& spec,
                   sim::NvmDevice* cold_device)
    : device_(device),
      cold_device_(cold_device),
      spec_(spec),
      layout_(ComputeLayout(spec)),
      pool_(spec.workers),
      transient_(spec.workers),
      load_rr_(spec.tables.size(), 0),
      core_state_(spec.workers),
      pending_major_gc_(spec.workers),
      scratch_(spec.workers) {
  // Spec-only invariants were validated by ComputeLayout (spec_.Validate());
  // only the device-dependent checks remain here.
  if (layout_.total > device_.size()) {
    throw std::invalid_argument("Database: device too small for spec (need " +
                                std::to_string(layout_.total) + " bytes)");
  }

  const auto value_pool_specs = EffectiveValuePools(spec_);
  for (std::size_t i = 0; i < value_pool_specs.size(); ++i) {
    alloc::PersistentPoolConfig value_config{
        .block_size = value_pool_specs[i].block_size,
        .blocks_per_core = value_pool_specs[i].blocks_per_core,
        .freelist_capacity = value_pool_specs[i].freelist_capacity,
        .gc_tail = true,
    };
    value_pools_.push_back(std::make_unique<alloc::PersistentPool>(
        device_, value_config, layout_.value_pools[i].base, spec_.workers));
  }

  for (std::size_t i = 0; i < spec_.tables.size(); ++i) {
    const TableSpec& table = spec_.tables[i];
    alloc::PersistentPoolConfig row_config{
        .block_size = table.row_size,
        .blocks_per_core = (table.capacity_rows + spec_.workers - 1) / spec_.workers + 1,
        .freelist_capacity = table.freelist_capacity,
        .gc_tail = false,
    };
    row_pools_.push_back(std::make_unique<alloc::PersistentPool>(device_, row_config,
                                                                 layout_.row_pools[i],
                                                                 spec_.workers));
    index::TableSchema schema{.id = static_cast<TableId>(i),
                              .name = table.name,
                              .row_size = table.row_size,
                              .ordered = table.ordered};
    tables_.push_back(std::make_unique<index::TableIndex>(schema));
  }

  if (spec_.enable_persistent_index) {
    for (std::size_t i = 0; i < spec_.tables.size(); ++i) {
      pindexes_.push_back(std::make_unique<index::PersistentIndex>(
          device_, layout_.pindexes[i], spec_.tables[i].capacity_rows));
    }
  }

  if (spec_.enable_cold_tier) {
    if (cold_device_ == nullptr) {
      throw std::invalid_argument("Database: enable_cold_tier requires a cold device");
    }
    if (cold_device_->size() < RequiredColdDeviceBytes(spec_)) {
      throw std::invalid_argument("Database: cold device too small");
    }
    cold_pool_ = std::make_unique<alloc::PersistentPool>(
        *cold_device_,
        alloc::PersistentPoolConfig{.block_size = spec_.cold_block_size,
                                    .blocks_per_core = spec_.cold_blocks_per_core,
                                    .freelist_capacity = spec_.cold_freelist_capacity,
                                    .gc_tail = true},
        0, spec_.workers);
  }

  log_ = std::make_unique<InputLog>(device_, layout_.log, spec_.log_bytes);
  if (spec_.enable_instant_recovery) {
    log_->AttachDigestArea(layout_.digest, spec_.digest_bytes);
  }
  cache_ = std::make_unique<vstore::VersionCache>(
      spec_.enable_cache ? spec_.cache_max_entries : 0, spec_.cache_k, spec_.workers);
  counters_ = std::vector<std::atomic<std::uint64_t>>(spec_.counters.size());
  for (std::size_t i = 0; i < spec_.counters.size(); ++i) {
    counters_[i].store(spec_.counters[i], std::memory_order_relaxed);
  }

  // Phase-boundary counter snapshots for the epoch-phase profiler. Only the
  // hot NVMM device is mirrored into the nvm_* fields (cold-tier block I/O
  // is a different cost model and has its own stats_ counters).
  profiler_.SetSnapshotProvider([this] {
    const sim::NvmCounters nvm = device_.stats().Snapshot();
    OpCounters ops;
    ops.nvm_read_bytes = nvm.read_bytes;
    ops.nvm_read_granules = nvm.read_granules;
    ops.nvm_write_bytes = nvm.write_bytes;
    ops.nvm_write_lines = nvm.persisted_lines;
    ops.nvm_persist_ops = nvm.persist_ops;
    ops.nvm_fences = nvm.fences;
    ops.transient_writes = stats_.transient_writes.Sum();
    ops.persistent_writes = stats_.persistent_writes.Sum();
    ops.cache_hits = stats_.cache_hits.Sum();
    ops.cache_misses = stats_.cache_misses.Sum();
    return ops;
  });
}

Database::~Database() {
  // Stop the pipelined tail thread (if it was ever started). A still-running
  // tail finishes its epoch first, so destruction never tears a flip.
  {
    std::unique_lock<std::mutex> lk(tail_mu_);
    tail_stop_ = true;
    tail_cv_.notify_all();
  }
  if (tail_thread_.joinable()) {
    tail_thread_.join();
  }
}

void Database::SetCrashHook(CrashHook hook) {
  if (tail_thread_.joinable()) {
    // Quiesce the in-flight tail so the swap cannot race the tail thread's
    // MaybeCrash reads and the hook only sees epochs submitted from now on.
    // A tail that already crashed stays sticky; the next ExecuteEpoch or
    // WaitIdle surfaces it regardless of the new hook.
    JoinTail();
  }
  crash_hook_ = std::move(hook);
}

void Database::SetPostLogHook(PostLogHook hook) {
  if (tail_thread_.joinable()) {
    JoinTail();  // same quiesce rationale as SetCrashHook
  }
  post_log_hook_ = std::move(hook);
}

Status Database::WaitIdle() {
  if (!tail_thread_.joinable()) {
    return Status::Ok();
  }
  if (!JoinTail()) {
    return Status::Aborted("crash hook fired during the asynchronous epoch tail");
  }
  return Status::Ok();
}

void Database::Format() {
  auto* sb = device_.As<SuperBlock>(layout_.superblock);
  std::memset(sb, 0, sizeof(SuperBlock));
  sb->magic = kMagic;
  sb->version = kVersion;
  sb->table_count = static_cast<std::uint32_t>(spec_.tables.size());
  sb->epoch = 0;
  device_.Persist(layout_.superblock, sizeof(SuperBlock), 0);
  for (auto& pool : value_pools_) {
    pool->Format();
  }
  for (auto& pool : row_pools_) {
    pool->Format();
  }
  log_->Format();
  if (log_->has_digest_area()) {
    log_->FormatDigest();
  }
  if (cold_pool_ != nullptr) {
    cold_pool_->Format();
  }
  for (auto& pindex : pindexes_) {
    pindex->Format();
  }
  if (spec_.enable_persistent_index) {
    auto* header = device_.As<GcLogHeader>(layout_.gc_log);
    *header = GcLogHeader{};
    device_.Persist(layout_.gc_log, sizeof(GcLogHeader), 0);
  }
  PersistCounters(0);
  PersistCounters(1);
  device_.Fence(0);
  current_epoch_ = 0;
  loaded_ = false;
}

void Database::BulkLoad(TableId table, Key key, const void* data, std::uint32_t size) {
  assert(!loaded_ && "BulkLoad after FinalizeLoad");
  InsertRowInternal(table, key, data, size, kLoadSid, load_rr_[table]++ % spec_.workers);
}

void Database::FinalizeLoad() {
  assert(!loaded_);
  CheckpointEpoch(1);
  current_epoch_ = 1;
  loaded_ = true;
}

void Database::PersistCounters(Epoch epoch, std::size_t core) {
  if (counters_.empty()) {
    return;
  }
  const std::size_t slot = epoch & 1;
  const std::uint64_t base =
      layout_.counters + slot * counters_.size() * sizeof(std::uint64_t);
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    *device_.As<std::uint64_t>(base + i * sizeof(std::uint64_t)) =
        counters_[i].load(std::memory_order_relaxed);
  }
  device_.Persist(base, counters_.size() * sizeof(std::uint64_t), core);
}

vstore::ValueLoc Database::AllocValue(std::uint32_t size, std::size_t core) {
  for (std::size_t i = 0; i < value_pools_.size(); ++i) {
    if (layout_.value_pools[i].block_size < size) {
      continue;
    }
    const std::uint64_t offset = value_pools_[i]->Alloc(core);
    if (offset != 0) {
      return vstore::ValueLoc::Make(false, size, offset);
    }
    // Class exhausted: spill to the next larger class.
  }
  throw std::runtime_error("value pools exhausted for size " + std::to_string(size));
}

alloc::PersistentPool& Database::ValuePoolForOffset(std::uint64_t offset) {
  for (std::size_t i = 0; i < layout_.value_pools.size(); ++i) {
    if (offset >= layout_.value_pools[i].base && offset < layout_.value_pools[i].end) {
      return *value_pools_[i];
    }
  }
  throw std::logic_error("value offset outside every value pool area");
}

void Database::FreeValue(std::size_t core, const vstore::ValueLoc& loc) {
  if (loc.is_cold()) {
    cold_pool_->Free(core, loc.offset());
    return;
  }
  ValuePoolForOffset(loc.offset()).Free(core, loc.offset());
}

void Database::FreeValueGc(std::size_t core, const vstore::ValueLoc& loc) {
  if (loc.is_cold()) {
    cold_pool_->FreeGc(core, loc.offset());
    return;
  }
  ValuePoolForOffset(loc.offset()).FreeGc(core, loc.offset());
}

void Database::ReadVersionValue(vstore::PersistentRow& row, const vstore::VersionDesc& desc,
                                void* out, std::size_t core) {
  const vstore::ValueLoc loc(desc.loc);
  if (loc.is_cold()) {
    cold_device_->ChargeRead(loc.offset(), loc.size(), core);
    std::memcpy(out, cold_device_->At(loc.offset()), loc.size());
    stats_.cold_reads.Add(core);
    return;
  }
  row.ReadValue(desc, out, core);
}

void Database::CheckTableId(TableId table) const {
  if (table >= tables_.size()) {
    throw std::out_of_range("Database: table id " + std::to_string(table) +
                            " out of range (spec has " + std::to_string(tables_.size()) +
                            " tables)");
  }
}

void Database::CheckCounterId(txn::CounterId id) const {
  if (id >= counters_.size()) {
    throw std::out_of_range("Database: counter id " + std::to_string(id) +
                            " out of range (spec has " + std::to_string(counters_.size()) +
                            " counters)");
  }
}

Database::InstantStripe& Database::StripeFor(TableId table, Key key) {
  return instant_stripes_[PartitionOf(table, key, kInstantStripes)];
}

bool Database::InstantKeyPending(TableId table, Key key) {
  InstantStripe& stripe = StripeFor(table, key);
  std::lock_guard<std::mutex> lk(stripe.mu);
  return stripe.pending.find(HashKey(table, key)) != stripe.pending.end();
}

void Database::InstantStripeInsert(TableId table, Key key) {
  InstantStripe& stripe = StripeFor(table, key);
  std::lock_guard<std::mutex> lk(stripe.mu);
  ++stripe.pending[HashKey(table, key)];
}

void Database::InstantStripeErase(TableId table, Key key) {
  InstantStripe& stripe = StripeFor(table, key);
  std::lock_guard<std::mutex> lk(stripe.mu);
  auto it = stripe.pending.find(HashKey(table, key));
  if (it != stripe.pending.end() && --it->second == 0) {
    stripe.pending.erase(it);
  }
}

StatusOr<std::uint32_t> Database::ReadCommitted(TableId table, Key key, void* out,
                                                std::uint32_t cap) {
  CheckTableId(table);
  // Instant recovery: a read of an unreplayed key first redoes that key's
  // slice of the crashed epoch (DESIGN.md section 12). The gate is striped
  // by key bucket: only a key still pending redo takes the global recovery
  // mutex (redo execution stays execute-once under instant_mu_); readers of
  // retired or never-pending keys proceed concurrently — a stripe erase
  // happens only after RetireKeyLocked persisted the key's final state, so
  // the lock-free read below observes it. Once the backfill retires the
  // window, the gate is a single acquire load again.
  if (instant_active_.load(std::memory_order_acquire)) {
    if (InstantKeyPending(table, key)) {
      std::unique_lock<std::mutex> lock(instant_mu_);
      if (instant_ != nullptr && instant_active_.load(std::memory_order_relaxed)) {
        try {
          RedoKeySliceLocked(table, key, 0);
        } catch (const CrashedException&) {
          return Status::Aborted("crash hook fired during on-demand replay of key " +
                                 std::to_string(key));
        }
        return ReadCommittedImpl(table, key, out, cap);
      }
    }
  }
  return ReadCommittedImpl(table, key, out, cap);
}

StatusOr<std::uint32_t> Database::ReadCommittedImpl(TableId table, Key key, void* out,
                                                    std::uint32_t cap) {
  vstore::RowEntry* entry = tables_[table]->Get(key);
  if (entry == nullptr || entry->prow == 0) {
    return Status::NotFound("no committed row for key " + std::to_string(key) +
                            " in table '" + spec_.tables[table].name + "'");
  }
  if (entry->latest_sid.load(std::memory_order_acquire) == ~0ULL) {
    // Deleted this epoch (or retire-deleted during instant recovery): the
    // index entry lingers until the deferred removal at epoch finish, but the
    // persistent row behind it is already freed and must not be read.
    return Status::NotFound("key " + std::to_string(key) + " in table '" +
                            spec_.tables[table].name + "' was deleted");
  }
  vstore::PersistentRow row = RowAt(entry);
  const vstore::VersionDesc v1 = row.ReadDesc(1);
  const vstore::VersionDesc desc = (v1.sid != 0 && !vstore::ValueLoc(v1.loc).is_null())
                                       ? v1
                                       : row.ReadDesc(0);
  if (desc.sid == 0 || vstore::ValueLoc(desc.loc).is_null()) {
    return Status::NotFound("no committed version for key " + std::to_string(key) +
                            " in table '" + spec_.tables[table].name + "'");
  }
  const vstore::ValueLoc loc(desc.loc);
  if (cap < loc.size()) {
    // Local bounce buffer: ReadCommitted calls may now run concurrently
    // (striped instant-recovery gate), so the shared core-0 scratch is off
    // limits on this path.
    std::vector<std::uint8_t> tmp(loc.size());
    ReadVersionValue(row, desc, tmp.data(), 0);
    std::memcpy(out, tmp.data(), cap);
    return cap;
  }
  ReadVersionValue(row, desc, out, 0);
  return loc.size();
}

StatusOr<std::vector<Database::ScanRow>> Database::RangeScan(TableId table, Key begin,
                                                             Key end, std::size_t limit) {
  CheckTableId(table);
  if (!tables_[table]->schema().ordered) {
    return Status::InvalidArgument("RangeScan on table '" + spec_.tables[table].name +
                                   "' which is not TableSpec::ordered");
  }
  // Key interval first (under the ordered latch), committed reads after —
  // the same collect-then-read shape as ExecScan. Ordered tables never
  // coexist with instant recovery (DatabaseSpec::Validate), so there is no
  // pending-redo window to gate on; ReadCommitted would handle one anyway.
  std::vector<Key> keys;
  tables_[table]->ForRangeWhile(begin, end, [&keys](Key key, vstore::RowEntry*) {
    keys.push_back(key);
    return true;
  });
  std::vector<ScanRow> rows;
  std::vector<std::uint8_t> buf(1 << 16);
  for (const Key key : keys) {
    if (rows.size() >= limit) {
      break;
    }
    StatusOr<std::uint32_t> n =
        ReadCommitted(table, key, buf.data(), static_cast<std::uint32_t>(buf.size()));
    if (!n.ok()) {
      if (n.status().code() == StatusCode::kNotFound) {
        continue;  // indexed but logically absent (deleted / never committed)
      }
      return n.status();
    }
    while (*n == buf.size()) {  // possibly truncated: grow and re-read
      buf.resize(buf.size() * 2);
      n = ReadCommitted(table, key, buf.data(), static_cast<std::uint32_t>(buf.size()));
      if (!n.ok()) {
        return n.status();
      }
    }
    rows.push_back(ScanRow{key, std::vector<std::uint8_t>(buf.begin(), buf.begin() + *n)});
  }
  return rows;
}

MemoryBreakdown Database::GetMemoryBreakdown() const {
  MemoryBreakdown breakdown;
  for (const auto& table : tables_) {
    breakdown.dram_index_bytes += table->ApproxBytes();
  }
  breakdown.dram_transient_bytes = transient_.high_water_bytes();
  breakdown.dram_cache_bytes = cache_->bytes();
  for (const auto& pool : row_pools_) {
    breakdown.nvm_row_bytes += pool->bytes_in_use();
  }
  for (const auto& pool : value_pools_) {
    breakdown.nvm_value_bytes += pool->bytes_in_use();
  }
  if (cold_pool_ != nullptr) {
    breakdown.cold_value_bytes = cold_pool_->bytes_in_use();
  }
  breakdown.nvm_log_bytes = last_log_bytes_;
  return breakdown;
}

}  // namespace nvc::core
