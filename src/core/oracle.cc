#include "src/core/oracle.h"

#include <unordered_map>

#include "src/vstore/persistent_row.h"

namespace nvc::core {
namespace {

void Report(std::string* out, std::size_t index, std::size_t max_reports,
            const std::string& line) {
  if (out != nullptr && index < max_reports) {
    out->append(line);
    out->push_back('\n');
  }
}

}  // namespace

OracleState CaptureState(Database& db) {
  OracleState state;
  state.epoch = db.current_epoch();
  state.counters.reserve(db.counter_count());
  for (std::size_t id = 0; id < db.counter_count(); ++id) {
    state.counters.push_back(db.counter_value(static_cast<txn::CounterId>(id)));
  }
  state.tables.resize(db.table_count());
  std::vector<std::uint8_t> buffer(1 << 16);
  for (std::size_t t = 0; t < db.table_count(); ++t) {
    auto& snapshot = state.tables[t];
    std::vector<Key> keys;
    db.table_index(static_cast<TableId>(t)).ForEach([&](Key key, vstore::RowEntry*) {
      keys.push_back(key);
    });
    for (Key key : keys) {
      const StatusOr<std::uint32_t> size = db.ReadCommitted(
          static_cast<TableId>(t), key, buffer.data(),
          static_cast<std::uint32_t>(buffer.size()));
      if (!size.ok()) {
        continue;  // indexed but no committed version: logically absent
      }
      snapshot.emplace(key,
                       std::vector<std::uint8_t>(buffer.begin(), buffer.begin() + *size));
    }
  }
  return state;
}

std::uint64_t StateHash(const OracleState& state) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(state.epoch);
  mix(state.counters.size());
  for (const std::uint64_t c : state.counters) {
    mix(c);
  }
  mix(state.tables.size());
  for (const auto& table : state.tables) {
    mix(table.size());
    for (const auto& [key, bytes] : table) {  // std::map: key order
      mix(key);
      mix(bytes.size());
      for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

std::uint64_t MultiShardStateHash(const std::vector<OracleState>& shards) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    mix(s);
    mix(StateHash(shards[s]));
  }
  return h;
}

std::size_t DiffShardedStates(const std::vector<OracleState>& expected,
                              const std::vector<OracleState>& actual, std::string* out,
                              std::size_t max_reports) {
  std::size_t divergences = 0;
  if (expected.size() != actual.size()) {
    Report(out, divergences++, max_reports,
           "shard count: expected " + std::to_string(expected.size()) + ", got " +
               std::to_string(actual.size()));
    return divergences;
  }
  // All shards of one deployment must agree on the global epoch; a stray
  // shard that checkpointed ahead or behind is itself a divergence even when
  // its row contents match the expectation.
  for (std::size_t s = 1; s < actual.size(); ++s) {
    if (actual[s].epoch != actual[0].epoch) {
      Report(out, divergences++, max_reports,
             "shard " + std::to_string(s) + ": epoch " + std::to_string(actual[s].epoch) +
                 " disagrees with shard 0's epoch " + std::to_string(actual[0].epoch));
    }
  }
  for (std::size_t s = 0; s < expected.size(); ++s) {
    std::string shard_out;
    const std::size_t n = DiffStates(expected[s], actual[s],
                                     out != nullptr ? &shard_out : nullptr, max_reports);
    if (n > 0 && out != nullptr) {
      std::size_t line_start = 0;
      for (std::size_t i = 0; i <= shard_out.size(); ++i) {
        if (i == shard_out.size() || shard_out[i] == '\n') {
          if (i > line_start && divergences < max_reports) {
            out->append("shard " + std::to_string(s) + ": " +
                        shard_out.substr(line_start, i - line_start));
            out->push_back('\n');
          }
          line_start = i + 1;
        }
      }
    }
    divergences += n;
  }
  return divergences;
}

std::size_t DiffStates(const OracleState& expected, const OracleState& actual,
                       std::string* out, std::size_t max_reports) {
  std::size_t divergences = 0;
  if (expected.epoch != actual.epoch) {
    Report(out, divergences++, max_reports,
           "epoch: expected " + std::to_string(expected.epoch) + ", got " +
               std::to_string(actual.epoch));
  }
  if (expected.counters.size() != actual.counters.size()) {
    Report(out, divergences++, max_reports,
           "counter count: expected " + std::to_string(expected.counters.size()) +
               ", got " + std::to_string(actual.counters.size()));
  } else {
    for (std::size_t id = 0; id < expected.counters.size(); ++id) {
      if (expected.counters[id] != actual.counters[id]) {
        Report(out, divergences++, max_reports,
               "counter " + std::to_string(id) + ": expected " +
                   std::to_string(expected.counters[id]) + ", got " +
                   std::to_string(actual.counters[id]));
      }
    }
  }
  if (expected.tables.size() != actual.tables.size()) {
    Report(out, divergences++, max_reports,
           "table count: expected " + std::to_string(expected.tables.size()) + ", got " +
               std::to_string(actual.tables.size()));
    return divergences;
  }
  for (std::size_t t = 0; t < expected.tables.size(); ++t) {
    const auto& exp = expected.tables[t];
    const auto& act = actual.tables[t];
    for (const auto& [key, bytes] : exp) {
      auto it = act.find(key);
      if (it == act.end()) {
        Report(out, divergences++, max_reports,
               "table " + std::to_string(t) + " key " + std::to_string(key) +
                   ": missing after recovery (expected " + std::to_string(bytes.size()) +
                   " bytes)");
      } else if (it->second != bytes) {
        std::size_t first_bad = 0;
        const std::size_t common = std::min(bytes.size(), it->second.size());
        while (first_bad < common && bytes[first_bad] == it->second[first_bad]) {
          ++first_bad;
        }
        Report(out, divergences++, max_reports,
               "table " + std::to_string(t) + " key " + std::to_string(key) +
                   ": value mismatch (expected " + std::to_string(bytes.size()) +
                   " bytes, got " + std::to_string(it->second.size()) +
                   ", first difference at byte " + std::to_string(first_bad) + ")");
      }
    }
    for (const auto& [key, bytes] : act) {
      if (exp.find(key) == exp.end()) {
        Report(out, divergences++, max_reports,
               "table " + std::to_string(t) + " key " + std::to_string(key) +
                   ": unexpected row after recovery (" + std::to_string(bytes.size()) +
                   " bytes)");
      }
    }
  }
  return divergences;
}

std::size_t ValidatePersistentIndex(Database& db, std::string* out,
                                    std::size_t max_reports) {
  // Index deltas are applied by the epoch's persistence tail, which may still
  // be in flight; quiesce before cross-checking so the index reflects every
  // cut epoch.
  (void)db.WaitIdle();
  std::size_t inconsistencies = 0;
  for (std::size_t t = 0; t < db.table_count(); ++t) {
    index::PersistentIndex* pindex = db.persistent_index(static_cast<TableId>(t));
    if (pindex == nullptr) {
      continue;
    }
    auto& dram = db.table_index(static_cast<TableId>(t));
    const std::size_t row_size = dram.schema().row_size;
    std::unordered_map<Key, std::uint64_t> live;
    pindex->ForEachLive(
        db.current_epoch(),
        [&](Key key, std::uint64_t prow) {
          if (!live.emplace(key, prow).second) {
            Report(out, inconsistencies++, max_reports,
                   "pindex table " + std::to_string(t) + " key " + std::to_string(key) +
                       ": duplicate live slot");
            return;
          }
          vstore::PersistentRow row(db.device(), prow, row_size);
          if (row.header()->key != key) {
            Report(out, inconsistencies++, max_reports,
                   "pindex table " + std::to_string(t) + " key " + std::to_string(key) +
                       ": row header holds key " + std::to_string(row.header()->key));
          }
          vstore::RowEntry* entry = dram.Get(key);
          if (entry == nullptr) {
            Report(out, inconsistencies++, max_reports,
                   "pindex table " + std::to_string(t) + " key " + std::to_string(key) +
                       ": live in NVMM index but absent from the DRAM index");
          } else if (entry->prow != prow) {
            Report(out, inconsistencies++, max_reports,
                   "pindex table " + std::to_string(t) + " key " + std::to_string(key) +
                       ": NVMM index names row offset " + std::to_string(prow) +
                       " but DRAM index names " + std::to_string(entry->prow));
          }
        },
        0);
    dram.ForEach([&](Key key, vstore::RowEntry* entry) {
      if (entry->prow != 0 && live.find(key) == live.end()) {
        Report(out, inconsistencies++, max_reports,
               "pindex table " + std::to_string(t) + " key " + std::to_string(key) +
                   ": in the DRAM index but not live in the NVMM index");
      }
    });
  }
  return inconsistencies;
}

std::size_t ValidateOrderedIndex(Database& db, std::string* out,
                                 std::size_t max_reports) {
  std::size_t inconsistencies = 0;
  for (std::size_t t = 0; t < db.table_count(); ++t) {
    auto& index = db.table_index(static_cast<TableId>(t));
    if (!index.schema().ordered) {
      continue;
    }
    std::unordered_map<Key, vstore::RowEntry*> hashed;
    index.ForEach([&](Key key, vstore::RowEntry* entry) {
      hashed.emplace(key, entry);
    });
    std::size_t walked = 0;
    Key prev = 0;
    bool first = true;
    index.ForRangeWhile(0, ~Key{0}, [&](Key key, vstore::RowEntry* entry) {
      ++walked;
      if (!first && key <= prev) {
        Report(out, inconsistencies++, max_reports,
               "ordered table " + std::to_string(t) + " key " + std::to_string(key) +
                   ": out of order after " + std::to_string(prev));
      }
      first = false;
      prev = key;
      auto it = hashed.find(key);
      if (it == hashed.end()) {
        Report(out, inconsistencies++, max_reports,
               "ordered table " + std::to_string(t) + " key " + std::to_string(key) +
                   ": in the ordered index but absent from the hash index");
      } else if (it->second != entry) {
        Report(out, inconsistencies++, max_reports,
               "ordered table " + std::to_string(t) + " key " + std::to_string(key) +
                   ": ordered and hash indexes name different row entries");
      }
      return true;
    });
    if (walked != hashed.size()) {
      Report(out, inconsistencies++, max_reports,
             "ordered table " + std::to_string(t) + ": ordered index holds " +
                 std::to_string(walked) + " keys but hash index holds " +
                 std::to_string(hashed.size()));
    }
  }
  return inconsistencies;
}

}  // namespace nvc::core
