#include <gtest/gtest.h>

#include <set>

#include "util/bitset.h"
#include "util/crc32.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace csce {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::NotFound("missing"); };
  auto outer = [&inner]() -> Status {
    CSCE_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(13), 13u);
}

TEST(RngTest, UniformHitsAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(BitsetTest, SetTestClear) {
  DynamicBitset bits(130);
  EXPECT_FALSE(bits.Test(0));
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Clear(64);
  EXPECT_FALSE(bits.Test(64));
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(BitsetTest, ResetClearsAll) {
  DynamicBitset bits(100);
  for (size_t i = 0; i < 100; i += 3) bits.Set(i);
  bits.Reset();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(BitsetTest, OrWithUnions) {
  DynamicBitset a(70);
  DynamicBitset b(70);
  a.Set(1);
  a.Set(65);
  b.Set(2);
  b.Set(65);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(2));
  EXPECT_TRUE(a.Test(65));
  EXPECT_EQ(a.Count(), 3u);
}

TEST(BitMatrixTest, RowsSetTestCountAndIterate) {
  // 130 columns: three words per row, the last one partial.
  BitMatrix m(130);
  m.Set(1, 0);
  m.Set(1, 63);
  m.Set(1, 64);
  m.Set(1, 129);
  m.Set(2, 5);
  EXPECT_TRUE(m.Test(1, 64));
  EXPECT_FALSE(m.Test(1, 65));
  EXPECT_FALSE(m.Test(0, 0));
  EXPECT_EQ(m.RowCount(1), 4u);
  m.OrRow(2, 1);
  std::vector<uint32_t> cols;
  m.ForEachInRow(2, [&cols](uint32_t c) { cols.push_back(c); });
  EXPECT_EQ(cols, (std::vector<uint32_t>{0, 5, 63, 64, 129}));
  EXPECT_EQ(m.RowCount(0), 0u);
}

// The byte-at-a-time CRC-32 the slicing-by-8 form must reproduce.
uint32_t ByteWiseCrc32(const uint8_t* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesByteWiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(97);
  std::vector<uint8_t> buf(160);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 130; ++len) {
      std::string_view bytes(reinterpret_cast<const char*>(&buf[start]), len);
      ASSERT_EQ(util::Crc32(bytes), ByteWiseCrc32(&buf[start], len))
          << "start " << start << " length " << len;
    }
  }
}

TEST(TimerTest, MonotonicNonNegative) {
  WallTimer t;
  double a = t.Seconds();
  double b = t.Seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(MemoryTest, PeakRssPositive) {
  EXPECT_GT(PeakRssBytes(), 0u);
}

TEST(MemoryTest, CurrentRssPositive) {
  EXPECT_GT(CurrentRssBytes(), 0u);
}

}  // namespace
}  // namespace csce
