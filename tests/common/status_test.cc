// nvc::Status / StatusOr semantics, DatabaseSpec::Validate, and the
// bounds-checked Database accessors — the Status-API satellite surface.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/common/status.h"
#include "tests/test_util.h"

namespace nvc::test {
namespace {

using core::Database;
using core::DatabaseSpec;
using sim::NvmDevice;

TEST(StatusTest, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status s = Status::NotFound("row 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "row 7");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: row 7");
  EXPECT_EQ(s, Status::NotFound("row 7"));
  EXPECT_FALSE(s == Status::NotFound("row 8"));
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(-1), 42);

  StatusOr<int> err = Status::OutOfRange("id 99");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(err.value_or(-1), -1);
  EXPECT_THROW(err.value(), BadStatus);
  try {
    err.value();
  } catch (const BadStatus& bad) {
    EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(StatusOrTest, CopiesAndMoves) {
  StatusOr<std::string> a = std::string("payload");
  StatusOr<std::string> b = a;            // copy
  StatusOr<std::string> c = std::move(a); // move
  EXPECT_EQ(*b, "payload");
  EXPECT_EQ(*c, "payload");
  b = Status::Internal("gone");
  EXPECT_FALSE(b.ok());
  b = c;
  EXPECT_EQ(*b, "payload");
}

TEST(ValidateTest, AcceptsTheStockSpec) {
  EXPECT_TRUE(SmallKvSpec().Validate().ok());
  EXPECT_TRUE(SmallKvSpec(4).Validate().ok());
}

TEST(ValidateTest, RejectsBadWorkerCounts) {
  DatabaseSpec spec = SmallKvSpec();
  spec.workers = 0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.workers = kMaxCores + 1;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.workers = kMaxCores;  // device core `workers` belongs to the epoch tail
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ValidateTest, RejectsUndersizedRows) {
  DatabaseSpec spec = SmallKvSpec();
  spec.tables[0].row_size = 8;  // smaller than the row header
  const Status s = spec.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("row_size"), std::string::npos);
}

TEST(ValidateTest, RejectsColdTierWithoutCache) {
  DatabaseSpec spec = SmallKvSpec();
  spec.enable_cold_tier = true;
  spec.cold_block_size = 4096;
  spec.cold_blocks_per_core = 64;
  spec.cold_freelist_capacity = 64;
  spec.enable_cache = false;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.enable_cache = true;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(ValidateTest, CtorSurfacesValidateMessage) {
  DatabaseSpec spec = SmallKvSpec();
  spec.log_bytes = 0;  // NVCaracal mode logs inputs; needs a log area
  NvmDevice device(ShadowDeviceConfig(SmallKvSpec()));
  EXPECT_THROW(Database(device, spec), std::invalid_argument);
}

TEST(BoundsCheckTest, AccessorsThrowOnOutOfRangeIds) {
  const DatabaseSpec spec = SmallKvSpec();
  NvmDevice device(ShadowDeviceConfig(spec));
  Database db(device, spec);
  db.Format();
  db.FinalizeLoad();
  EXPECT_NO_THROW(db.table_rows(0));
  EXPECT_THROW(db.table_rows(1), std::out_of_range);
  EXPECT_THROW(db.table_index(7), std::out_of_range);
  EXPECT_THROW(db.counter_value(0), std::out_of_range);  // no counters configured
}

}  // namespace
}  // namespace nvc::test
