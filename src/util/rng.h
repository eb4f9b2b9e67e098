// Deterministic pseudo-random number generation for generators and tests.
//
// All synthetic-data generators take an explicit seed so that every experiment
// and benchmark is reproducible bit-for-bit. We wrap SplitMix64 (for seeding) and
// xoshiro256** (for streams): both are tiny, fast, and fully specified here, so the
// library does not depend on unspecified standard-library distribution details.

#ifndef RDFSR_UTIL_RNG_H_
#define RDFSR_UTIL_RNG_H_

#include <cstdint>

#include "util/check.h"

namespace rdfsr {

/// Deterministic 64-bit PRNG (xoshiro256** seeded via SplitMix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (int i = 0; i < 4; ++i) s_[i] = SplitMix64(&x);
  }

  /// Uniform 64-bit value.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift reduction.
  std::uint64_t Below(std::uint64_t bound) {
    RDFSR_CHECK_GT(bound, 0u);
    // Debiased multiply-shift.
    std::uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t Range(std::int64_t lo, std::int64_t hi) {
    RDFSR_CHECK_LE(lo, hi);
    return lo + static_cast<std::int64_t>(
                    Below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with success probability p.
  bool Chance(double p) { return NextDouble() < p; }

  /// Forks an independent stream (for parallel sub-generators).
  Rng Fork() { return Rng(Next() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  static std::uint64_t SplitMix64(std::uint64_t* state) {
    std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace rdfsr

#endif  // RDFSR_UTIL_RNG_H_
