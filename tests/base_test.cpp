#include <gtest/gtest.h>

#include <set>

#include "base/check.hpp"
#include "base/logging.hpp"
#include "base/rational.hpp"
#include "base/rng.hpp"

namespace turbosyn {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    TS_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "TS_CHECK did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom message 42"), std::string::npos);
  }
}

TEST(Rational, NormalizationAndAccessors) {
  const Rational r(6, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 2);
  EXPECT_FALSE(r.is_integer());
  EXPECT_TRUE(Rational(4, 2).is_integer());
  EXPECT_THROW((void)Rational(1, 0), Error);
}

TEST(Rational, ComparisonsCrossMultiply) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_GE(Rational(7, 7), Rational(1));
  // Large values that would overflow naive 64-bit cross multiplication are
  // handled in 128 bits.
  EXPECT_LT(Rational(INT32_MAX, 1), Rational(INT64_MAX / 2, 1));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(4).floor(), 4);
  EXPECT_EQ(Rational(4).ceil(), 4);
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(5, 3).to_string(), "5/3");
  EXPECT_EQ(Rational(4, 2).to_string(), "2");
  EXPECT_EQ(Rational(-1, 2).to_string(), "-1/2");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
  EXPECT_THROW((void)rng.next_below(0), Error);
  for (int i = 0; i < 100; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Logging, LevelGatesOutput) {
  set_log_level(LogLevel::kQuiet);
  TS_INFO("this should not crash");  // dropped
  set_log_level(LogLevel::kDebug);
  TS_DEBUG("emitted at debug level");
  set_log_level(LogLevel::kQuiet);
  EXPECT_EQ(log_level(), LogLevel::kQuiet);
}

}  // namespace
}  // namespace turbosyn
