#include "base/rational.hpp"

#include <numeric>
#include <ostream>
#include <sstream>

#include "base/check.hpp"

namespace turbosyn {

Rational::Rational(std::int64_t num, std::int64_t den) : num_(num), den_(den) {
  TS_CHECK(den != 0, "rational with zero denominator");
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  const std::int64_t g = std::gcd(num_ < 0 ? -num_ : num_, den_);
  if (g > 1) {
    num_ /= g;
    den_ /= g;
  }
}

std::int64_t Rational::ceil() const {
  if (num_ >= 0) return (num_ + den_ - 1) / den_;
  return -((-num_) / den_);
}

std::int64_t Rational::floor() const {
  if (num_ >= 0) return num_ / den_;
  return -(((-num_) + den_ - 1) / den_);
}

std::string Rational::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

bool Rational::operator<(const Rational& o) const {
  return static_cast<__int128>(num_) * o.den_ < static_cast<__int128>(o.num_) * den_;
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  os << r.num();
  if (r.den() != 1) os << '/' << r.den();
  return os;
}

}  // namespace turbosyn
