// Epoch-phase profiler: span structure, per-phase NVM attribution, report
// aggregation, and the Chrome-trace JSON exporter.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/profiler.h"
#include "tests/test_util.h"

namespace nvc::test {
namespace {

using core::Database;
using core::DatabaseSpec;
using core::EpochResult;
using sim::NvmDevice;

// ---- Minimal JSON parser (schema validation for the trace exporter) ---------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& At(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseLiteral(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        out->push_back(text_[pos_++]);  // good enough for our own exporter
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }
  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      SkipWs();
      if (Consume('}')) {
        return true;
      }
      while (true) {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) {
          return false;
        }
        JsonValue value;
        if (!ParseValue(&value)) {
          return false;
        }
        out->object.emplace(std::move(key), std::move(value));
        if (Consume(',')) {
          continue;
        }
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      SkipWs();
      if (Consume(']')) {
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) {
          return false;
        }
        out->array.push_back(std::move(value));
        if (Consume(',')) {
          continue;
        }
        return Consume(']');
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return ParseLiteral("true");
    }
    if (c == 'f') {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return ParseLiteral("false");
    }
    if (c == 'n') {
      out->type = JsonValue::Type::kNull;
      return ParseLiteral("null");
    }
    // Number.
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) || text_[end] == '-' ||
            text_[end] == '+' || text_[end] == '.' || text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) {
      return false;
    }
    out->type = JsonValue::Type::kNumber;
    out->number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---- Fixture ----------------------------------------------------------------

class ProfilerTest : public ::testing::Test {
 protected:
  explicit ProfilerTest(std::size_t workers = 2)
      : spec_(SmallKvSpec(workers)), device_(ShadowDeviceConfig(spec_)) {}

  void SetUp() override {
    db_ = std::make_unique<Database>(device_, spec_);
    db_->Format();
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint64_t value = 1000 + i;
      db_->BulkLoad(0, i, &value, sizeof(value));
    }
    db_->FinalizeLoad();
    ProfilerConfig config;
    config.enabled = true;
    db_->ConfigureProfiler(config);
    db_->stats().Reset();
  }

  // A mixed epoch: small puts, RMW reads, and big (non-inline) values so
  // insert/append/execute/checkpoint and eventually major GC all do work.
  std::vector<std::unique_ptr<txn::Transaction>> MakeEpoch(std::uint64_t salt) {
    std::vector<std::unique_ptr<txn::Transaction>> txns;
    for (std::uint64_t i = 0; i < 16; ++i) {
      txns.push_back(std::make_unique<KvPutTxn>(i, salt * 100 + i));
      txns.push_back(std::make_unique<KvRmwTxn>(16 + i, salt + i));
      txns.push_back(std::make_unique<KvBigPutTxn>(32 + i, salt + i));
    }
    return txns;
  }

  // Waits for every epoch's persistence tail (a barrier caller), so each
  // tail's device traffic falls between two profiled epochs.
  void RunEpochs(std::size_t n) {
    for (std::size_t e = 0; e < n; ++e) {
      const EpochResult result = db_->ExecuteEpoch(MakeEpoch(e + 1));
      ASSERT_FALSE(result.crashed);
      ASSERT_EQ(result.committed, 48u);
      ASSERT_TRUE(db_->WaitIdle().ok());
    }
  }

  DatabaseSpec spec_;
  NvmDevice device_;
  std::unique_ptr<Database> db_;
};

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing) {
  db_->ConfigureProfiler(ProfilerConfig{});  // enabled = false
  RunEpochs(2);
  const ProfileReport report = db_->ProfileReport();
  EXPECT_FALSE(report.enabled);
  EXPECT_EQ(report.epochs, 0u);
  EXPECT_EQ(report.total.nvm_write_lines, 0u);
  EXPECT_TRUE(db_->profiler().driver_spans().empty());
  for (std::size_t w = 0; w < spec_.workers; ++w) {
    EXPECT_TRUE(db_->profiler().worker_spans(w).empty());
  }
}

TEST_F(ProfilerTest, ReportCountsEpochsAndCorePhases) {
  RunEpochs(3);
  const ProfileReport report = db_->ProfileReport();
  EXPECT_TRUE(report.enabled);
  EXPECT_EQ(report.epochs, 3u);
  EXPECT_EQ(report.dropped_spans, 0u);
  // Every epoch brackets these phases exactly once; the persistence tail
  // records one tail-thread span per epoch, joined once per epoch.
  EXPECT_EQ(report.phase(Phase::kLogInputs).activations, 3u);
  EXPECT_EQ(report.phase(Phase::kInsert).activations, 3u);
  EXPECT_EQ(report.phase(Phase::kAppend).activations, 3u);
  EXPECT_EQ(report.phase(Phase::kExecute).activations, 3u);
  EXPECT_EQ(report.phase(Phase::kTailPersist).activations, 3u);
  EXPECT_EQ(report.pipeline.tails, 3u);
  // The fan-out phases record one span per worker per activation.
  EXPECT_EQ(report.phase(Phase::kExecute).worker_spans, 3u * spec_.workers);
  EXPECT_GT(report.phase(Phase::kExecute).wall_ms, 0.0);
  EXPECT_GT(report.phase(Phase::kExecute).busy_ms, 0.0);
  EXPECT_GE(report.phase(Phase::kExecute).epoch_max_ms,
            report.phase(Phase::kExecute).epoch_p50_ms);
  // Epoch-wall distribution is populated and ordered.
  EXPECT_GT(report.epoch_wall_p50_ms, 0.0);
  EXPECT_GE(report.epoch_wall_p95_ms, report.epoch_wall_p50_ms);
  EXPECT_GE(report.epoch_wall_max_ms, report.epoch_wall_p95_ms);
  // The table dump mentions every active phase.
  const std::string table = report.ToTable();
  EXPECT_NE(table.find("execute"), std::string::npos);
  EXPECT_NE(table.find("tail-persist"), std::string::npos);
}

TEST_F(ProfilerTest, WorkerSpansAreSortedAndDisjoint) {
  RunEpochs(3);
  for (std::size_t w = 0; w < spec_.workers; ++w) {
    const auto& spans = db_->profiler().worker_spans(w);
    ASSERT_FALSE(spans.empty());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i].worker, w);
      if (i > 0) {
        // Recorded in order, never overlapping: each span starts at or after
        // the previous one ended.
        EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns + spans[i - 1].dur_ns);
      }
    }
  }
  // Driver phase brackets never overlap either (phases are sequential).
  const auto& driver = db_->profiler().driver_spans();
  ASSERT_FALSE(driver.empty());
  for (std::size_t i = 1; i < driver.size(); ++i) {
    EXPECT_GE(driver[i].start_ns, driver[i - 1].start_ns + driver[i - 1].dur_ns);
  }
}

TEST_F(ProfilerTest, WorkerSpansNestInsideMatchingDriverPhase) {
  RunEpochs(2);
  const auto& driver = db_->profiler().driver_spans();
  for (std::size_t w = 0; w < spec_.workers; ++w) {
    for (const PhaseSpan& span : db_->profiler().worker_spans(w)) {
      bool nested = false;
      for (const PhaseSpan& parent : driver) {
        if (parent.phase == span.phase && parent.epoch == span.epoch &&
            span.start_ns >= parent.start_ns &&
            span.start_ns + span.dur_ns <= parent.start_ns + parent.dur_ns) {
          nested = true;
          break;
        }
      }
      EXPECT_TRUE(nested) << "unnested span: phase " << PhaseName(span.phase) << " worker " << w
                          << " epoch " << span.epoch;
    }
  }
}

TEST_F(ProfilerTest, PerPhaseNvmDeltasSumToDeviceAndEngineTotals) {
  const sim::NvmCounters before = device_.stats().Snapshot();
  RunEpochs(4);
  const sim::NvmCounters after = device_.stats().Snapshot();
  const ProfileReport report = db_->ProfileReport();

  // Sum the per-phase attributions by hand (kOther picks up whatever
  // happened inside the epoch outside any bracketed phase).
  OpCounters summed;
  for (const PhaseAggregate& agg : report.phases) {
    summed += agg.ops;
  }
  EXPECT_EQ(summed.nvm_write_lines, report.total.nvm_write_lines);
  EXPECT_EQ(summed.nvm_persist_ops, report.total.nvm_persist_ops);
  EXPECT_EQ(summed.nvm_fences, report.total.nvm_fences);
  EXPECT_EQ(summed.nvm_read_bytes, report.total.nvm_read_bytes);

  // The engine-stats mirror (populated by each tail) equals the raw device
  // deltas...
  EXPECT_EQ(db_->stats().nvm_write_lines.Sum(), after.persisted_lines - before.persisted_lines);
  EXPECT_EQ(db_->stats().nvm_persist_ops.Sum(), after.persist_ops - before.persist_ops);
  EXPECT_EQ(db_->stats().nvm_fences.Sum(), after.fences - before.fences);

  // ...and everything outside the profiled epochs is the joined tails, which
  // run on the tail thread without op attribution: each checkpoints and
  // fences exactly once per worker (the execute phase's detached lines) plus
  // once after the epoch-number flip, reading nothing.
  EXPECT_LT(report.total.nvm_write_lines, after.persisted_lines - before.persisted_lines);
  EXPECT_EQ(after.fences - before.fences - report.total.nvm_fences, 4u * (spec_.workers + 1));
  EXPECT_EQ(report.total.nvm_read_bytes, after.read_bytes - before.read_bytes);
  EXPECT_GT(report.total.nvm_write_lines, 0u);

  // The phases that must persist data actually got attributed writes.
  EXPECT_GT(report.phase(Phase::kLogInputs).ops.nvm_write_lines, 0u);
  EXPECT_GT(report.phase(Phase::kExecute).ops.nvm_write_lines, 0u);
}

TEST_F(ProfilerTest, ChromeTraceIsValidJsonWithRequiredKeys) {
  RunEpochs(2);
  std::ostringstream os;
  db_->profiler().WriteChromeTrace(os);
  const std::string text = os.str();

  JsonValue root;
  ASSERT_TRUE(JsonParser(text).Parse(&root)) << text.substr(0, 400);
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  ASSERT_TRUE(root.Has("traceEvents"));
  const JsonValue& events = root.At("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);
  ASSERT_FALSE(events.array.empty());

  std::size_t complete_events = 0;
  std::size_t metadata_events = 0;
  std::uint64_t trace_write_lines = 0;
  for (const JsonValue& event : events.array) {
    ASSERT_EQ(event.type, JsonValue::Type::kObject);
    ASSERT_TRUE(event.Has("ph"));
    const std::string& ph = event.At("ph").str;
    if (ph == "M") {
      ++metadata_events;
      EXPECT_TRUE(event.Has("name"));
      EXPECT_TRUE(event.Has("pid"));
      EXPECT_TRUE(event.Has("tid"));
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete_events;
    // Chrome Trace Event Format required keys for complete events.
    for (const char* key : {"name", "ts", "dur", "pid", "tid"}) {
      EXPECT_TRUE(event.Has(key)) << "missing " << key;
    }
    EXPECT_EQ(event.At("ts").type, JsonValue::Type::kNumber);
    EXPECT_EQ(event.At("dur").type, JsonValue::Type::kNumber);
    EXPECT_GE(event.At("dur").number, 0.0);
    if (event.Has("args") && event.At("args").Has("nvm_write_lines")) {
      trace_write_lines +=
          static_cast<std::uint64_t>(event.At("args").At("nvm_write_lines").number);
    }
  }
  EXPECT_GT(complete_events, 0u);
  // Thread-name metadata: the epoch and phase tracks, one track per worker,
  // and the tail track.
  EXPECT_EQ(metadata_events, 3u + spec_.workers);

  // Args carry the per-phase deltas on the driver track and the unattributed
  // remainder on the epoch track, so summing across the whole trace must
  // reproduce the profiled epochs' total exactly (tail spans carry no ops).
  EXPECT_EQ(trace_write_lines, db_->ProfileReport().total.nvm_write_lines);
  EXPECT_GT(trace_write_lines, 0u);
}

TEST_F(ProfilerTest, ReconfigureResetsRecordedState) {
  RunEpochs(2);
  EXPECT_EQ(db_->ProfileReport().epochs, 2u);
  ProfilerConfig config;
  config.enabled = true;
  db_->ConfigureProfiler(config);  // re-enable clears history
  EXPECT_EQ(db_->ProfileReport().epochs, 0u);
  EXPECT_TRUE(db_->profiler().driver_spans().empty());
  RunEpochs(1);
  EXPECT_EQ(db_->ProfileReport().epochs, 1u);
}

TEST_F(ProfilerTest, SpanCapCountsDrops) {
  ProfilerConfig config;
  config.enabled = true;
  config.max_spans_per_track = 4;  // far fewer than spans per run
  db_->ConfigureProfiler(config);
  RunEpochs(3);
  EXPECT_GT(db_->profiler().dropped_spans(), 0u);
  for (std::size_t w = 0; w < spec_.workers; ++w) {
    EXPECT_LE(db_->profiler().worker_spans(w).size(), 4u);
  }
  // Aggregates keep counting past the span cap.
  EXPECT_EQ(db_->ProfileReport().epochs, 3u);
}

// Batch-append mode splits the append step into two sub-phases.
class ProfilerBatchAppendTest : public ProfilerTest {
 protected:
  ProfilerBatchAppendTest() {
    spec_.enable_batch_append = true;
  }
};

TEST_F(ProfilerBatchAppendTest, BatchAppendSubPhasesAreAttributed) {
  RunEpochs(2);
  const ProfileReport report = db_->ProfileReport();
  EXPECT_EQ(report.phase(Phase::kAppend).activations, 0u);
  EXPECT_EQ(report.phase(Phase::kAppendCollect).activations, 2u);
  EXPECT_EQ(report.phase(Phase::kAppendBuild).activations, 2u);
  EXPECT_EQ(report.phase(Phase::kAppendCollect).worker_spans, 2u * spec_.workers);
  EXPECT_EQ(report.phase(Phase::kAppendBuild).worker_spans, 2u * spec_.workers);
}

}  // namespace
}  // namespace nvc::test
