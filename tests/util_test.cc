// Unit tests for util/: Status, Result, Rational, Rng, TextTable, fits, and
// the read-only file mapping.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <string>

#include "util/fit.h"
#include "util/mapped_file.h"
#include "util/rational.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

namespace rdfsr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(RationalTest, NormalizesSignAndGcd) {
  Rational r(6, -8);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 4);
  EXPECT_EQ(Rational(0, 5), Rational(0));
}

TEST(RationalTest, Arithmetic) {
  Rational a(1, 2), b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
  EXPECT_EQ(-a, Rational(-1, 2));
}

TEST(RationalTest, ArithmeticSurvivesInt64CrossProductOverflow) {
  // den * den = 1.6e19 > INT64_MAX, but the reduced sum fits: the 128-bit
  // intermediates must carry it exactly instead of wrapping.
  const Rational tiny(1, 4'000'000'000LL);
  EXPECT_EQ(tiny + tiny, Rational(1, 2'000'000'000LL));
  EXPECT_EQ(tiny - tiny, Rational(0));

  // num * num and den * den both overflow int64 before reduction.
  const Rational big(4'000'000'000'000'000'000LL, 9);
  const Rational inv(9, 4'000'000'000'000'000'000LL);
  EXPECT_EQ(big * inv, Rational(1));
  EXPECT_EQ(big / big, Rational(1));

  // Mixed-sign cross products at the boundary.
  const Rational neg(-4'000'000'000'000'000'000LL, 7);
  EXPECT_EQ(neg * Rational(7, 4'000'000'000'000'000'000LL), Rational(-1));
  EXPECT_EQ(neg - neg, Rational(0));

  // Subtraction whose cross products exceed int64 but whose difference is
  // small and exact.
  const Rational a(9'000'000'000'000'000'000LL, 9'000'000'000'000'000'001LL);
  EXPECT_EQ(a - a, Rational(0));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(9, 10), Rational(8, 9));
  EXPECT_GE(Rational(1), Rational(99, 100));
}

TEST(RationalTest, FromDoubleHitsGridValues) {
  EXPECT_EQ(Rational::FromDouble(0.5), Rational(1, 2));
  EXPECT_EQ(Rational::FromDouble(0.9), Rational(9, 10));
  EXPECT_EQ(Rational::FromDouble(0.01), Rational(1, 100));
  EXPECT_EQ(Rational::FromDouble(1.0), Rational(1));
  EXPECT_EQ(Rational::FromDouble(0.0), Rational(0));
}

TEST(RationalTest, FromDoubleNegativeAndRounding) {
  EXPECT_EQ(Rational::FromDouble(-0.25), Rational(-1, 4));
  const Rational pi = Rational::FromDouble(M_PI, 1000);
  EXPECT_NEAR(pi.ToDouble(), M_PI, 1e-5);
  EXPECT_LE(pi.den(), 1000);
}

TEST(RationalTest, ToStringForms) {
  EXPECT_EQ(Rational(3, 4).ToString(), "3/4");
  EXPECT_EQ(Rational(7).ToString(), "7");
}

TEST(RationalTest, Int64MinEdges) {
  // INT64_MIN exercises the one asymmetry of two's complement: its magnitude
  // does not fit a signed 64-bit value, so every path below used to be a
  // signed-negation UB before the unsigned-magnitude rewrite.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const Rational min(kMin, 1);
  EXPECT_EQ(min.num(), kMin);
  EXPECT_EQ(min.den(), 1);
  // Normalization may shrink the magnitude back into range...
  EXPECT_EQ(Rational(kMin, 2), Rational(kMin / 2, 1));
  EXPECT_EQ(Rational(kMin, -2), Rational(-(kMin / 2), 1));
  EXPECT_EQ(Rational(kMin, kMin), Rational(1));
  // ...but a positive result of magnitude 2^63 cannot narrow and must be a
  // checked fatal error, not a silent wrap.
  EXPECT_DEATH(-min, "Rational overflow");
  EXPECT_DEATH(Rational(kMin, -1), "Rational overflow");
  EXPECT_DEATH(min * Rational(-1), "Rational overflow");
  // Every operator reduces into int64 storage, so 2^63 * 2^63 = 2^126 is a
  // checked overflow even if a later division would cancel it back down.
  EXPECT_DEATH(min * min, "Rational overflow");
  // Arithmetic that cancels within one operation's 128-bit intermediates
  // stays exact.
  EXPECT_EQ(min / min, Rational(1));
  EXPECT_EQ(min * Rational(1, 2), Rational(kMin / 2));
  EXPECT_EQ(min + Rational(0), min);
}

TEST(RationalTest, FromDoubleExtremeMagnitudes) {
  // Above the int64 guard the expansion stops before the cast instead of
  // overflowing; the fallback convergent is 0/1.
  EXPECT_EQ(Rational::FromDouble(1e19), Rational(0));
  EXPECT_EQ(Rational::FromDouble(-1e19), Rational(0));
  // 9e18 is below the guard, exactly representable as a double, and fits
  // int64: it must come back exact.
  EXPECT_EQ(Rational::FromDouble(9.0e18), Rational(9'000'000'000'000'000'000LL));
  EXPECT_EQ(Rational::FromDouble(-9.0e18),
            Rational(-9'000'000'000'000'000'000LL));
  // A fractional value near the guard keeps its integer part.
  const Rational near = Rational::FromDouble(8.9e18 + 0.5);
  EXPECT_NEAR(near.ToDouble(), 8.9e18, 1e4);
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(TableTest, RendersHeaderAndRows) {
  TextTable t({"a", "bb"});
  t.AddRow({"1", "2"});
  t.AddRow({"333", "4"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(0.5405, 2), "0.54");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatCount(790703), "790,703");
  EXPECT_EQ(FormatCount(-1234567), "-1,234,567");
  EXPECT_EQ(FormatCount(12), "12");
}

TEST(FitTest, LinearRecoversLine) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {3, 5, 7, 9, 11};  // y = 1 + 2x
  const LinearFit fit = FitLinear(xs, ys);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(FitTest, PowerRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x = 1; x <= 32; x *= 2) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 2.5));
  }
  const PowerFit fit = FitPower(xs, ys);
  EXPECT_NEAR(fit.b, 2.5, 1e-6);
  EXPECT_NEAR(fit.a, 3.0, 1e-6);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(FitTest, ExponentialRecoversRate) {
  std::vector<double> xs, ys;
  for (double x = 0; x <= 10; ++x) {
    xs.push_back(x);
    ys.push_back(2.0 * std::exp(0.28 * x));
  }
  const ExpFit fit = FitExponential(xs, ys);
  EXPECT_NEAR(fit.b, 0.28, 1e-6);
  EXPECT_NEAR(fit.a, 2.0, 1e-6);
}

TEST(FitTest, SkipsNonPositivePoints) {
  std::vector<double> xs = {0, 1, 2, 4};
  std::vector<double> ys = {-1, 2, 4, 8};
  const PowerFit fit = FitPower(xs, ys);  // uses (1,2),(2,4),(4,8): y = 2x
  EXPECT_NEAR(fit.b, 1.0, 1e-9);
}

/// The resident size in kB of the mapping that starts at `start`, read from
/// /proc/self/smaps, or -1 when no mapping starts there.
long MappingRssKb(const void* start) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool in_mapping = false;
  while (std::getline(smaps, line)) {
    // A mapping's header line starts "<start>-<end> " in hex; its fields
    // ("Rss:      4096 kB") follow it.
    char* dash = nullptr;
    const unsigned long long first = std::strtoull(line.c_str(), &dash, 16);
    if (*dash == '-') {
      in_mapping = first == reinterpret_cast<std::uintptr_t>(start);
    } else if (in_mapping && line.rfind("Rss:", 0) == 0) {
      return std::strtol(line.c_str() + 4, nullptr, 10);
    }
  }
  return -1;
}

TEST(MappedFileTest, ReleaseDropsResidentPagesAndKeepsBytes) {
  const std::string path = ::testing::TempDir() + "mapped_file_release.bin";
  constexpr std::size_t kBytes = std::size_t{4} << 20;
  std::string want(kBytes, '\0');
  for (std::size_t i = 0; i < kBytes; ++i) {
    want[i] = static_cast<char>('a' + (i * 7 + i / 4096) % 26);
  }
  {
    std::ofstream out(path, std::ios::binary);
    out << want;
    ASSERT_TRUE(out.good());
  }
  auto file = util::MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->size(), kBytes);
  const char* data = file->text().data();

  long touched = 0;
  for (std::size_t i = 0; i < kBytes; i += 4096) touched += data[i];
  EXPECT_GT(touched, 0);
  const long resident = MappingRssKb(data);
  ASSERT_GE(resident, 2048) << "touching every page should map them";

  file->Release(data, data + kBytes);
  const long released = MappingRssKb(data);
  ASSERT_GE(released, 0);
  EXPECT_LT(released, resident);
  EXPECT_LE(released, 64);

  EXPECT_TRUE(file->text() == want) << "bytes changed after Release";
  std::remove(path.c_str());
}

TEST(MappedFileTest, EmptyFileMapsNothing) {
  const std::string path = ::testing::TempDir() + "mapped_file_empty.bin";
  { std::ofstream out(path, std::ios::binary); }
  auto file = util::MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->size(), 0u);
  EXPECT_TRUE(file->text().empty());
  file->Release(file->text().data(), file->text().data());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rdfsr
