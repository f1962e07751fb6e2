#pragma once
// Exact rational numbers on 64-bit integers.
//
// Used to report exact maximum delay-to-register (MDR) ratios: the ratio of
// a cycle is delay(C)/weight(C) with both terms bounded by circuit size.
// Howard's solver (retime/howard.hpp) computes on integer pairs and builds
// one Rational from the winning cycle. Comparisons cross-multiply in 128
// bits.

#include <cstdint>
#include <iosfwd>
#include <string>

namespace turbosyn {

/// A normalized rational number num/den with den > 0 and gcd(|num|, den) = 1.
class Rational {
 public:
  constexpr Rational() = default;
  Rational(std::int64_t num, std::int64_t den);
  /// Implicit from integer, as in `Rational r = 3;`.
  constexpr Rational(std::int64_t value) : num_(value), den_(1) {}  // NOLINT

  std::int64_t num() const { return num_; }
  std::int64_t den() const { return den_; }

  bool is_integer() const { return den_ == 1; }
  /// Smallest integer >= this.
  std::int64_t ceil() const;
  /// Largest integer <= this.
  std::int64_t floor() const;
  std::string to_string() const;

  bool operator==(const Rational& o) const { return num_ == o.num_ && den_ == o.den_; }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const;
  bool operator>(const Rational& o) const { return o < *this; }
  bool operator<=(const Rational& o) const { return !(o < *this); }
  bool operator>=(const Rational& o) const { return !(*this < o); }

 private:
  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace turbosyn
