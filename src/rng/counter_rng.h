// Counter-based deterministic randomness.
//
// Every random decision in the preferential-attachment generators is a pure
// function of (seed, stream coordinates).  A stream coordinate is a 4-tuple
// (purpose, a, b, c): e.g. "the k drawn for node t's e-th edge on attempt r"
// is draw(kPurposePickK, t, e, r).  Because the value does not depend on
// which rank evaluates it or when, the parallel generator reproduces the
// sequential generator's choices bitwise, for any rank count and any
// partitioning scheme — the backbone of the exactness tests (DESIGN.md §5).
//
// The hash is a chained SplitMix64 permutation over the coordinates, which
// passes PractRand-style independence smoke tests (see tests/rng_test.cpp).
#pragma once

#include <cstdint>

#include "rng/splitmix.h"
#include "util/error.h"

namespace pagen::rng {

/// Coordinates of one logical random draw.
struct Stream {
  std::uint64_t purpose = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Deterministic counter-based generator keyed by a 64-bit seed.
/// Immutable and freely shareable across ranks/threads.
class CounterRng {
 public:
  explicit constexpr CounterRng(std::uint64_t seed)
      : key_(splitmix64_mix(seed ^ 0x1905feeb1905feebULL)) {}

  /// Raw 64 uniform bits for the given stream coordinates and round.
  /// Distinct (stream, round) pairs give independent-looking outputs.
  [[nodiscard]] constexpr std::uint64_t raw(const Stream& s,
                                            std::uint64_t round = 0) const {
    std::uint64_t h = key_;
    h = splitmix64_mix(h ^ (s.purpose + 0x9e3779b97f4a7c15ULL));
    h = splitmix64_mix(h ^ s.a);
    h = splitmix64_mix(h ^ s.b);
    h = splitmix64_mix(h ^ (s.c + (round << 32)));
    return h;
  }

  /// Unbiased uniform integer in [0, bound), bound >= 1.
  /// Lemire multiply-shift with deterministic rejection rounds.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound,
                                    const Stream& s) const {
    PAGEN_CHECK_MSG(bound >= 1, "uniform bound must be positive");
    using u128 = unsigned __int128;
    std::uint64_t x = raw(s, 0);
    u128 m = static_cast<u128>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      // Rejection threshold per Lemire (2019): discard the biased low slice.
      const std::uint64_t threshold = -bound % bound;
      std::uint64_t round = 1;
      while (lo < threshold) {
        x = raw(s, round++);
        m = static_cast<u128>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Unbiased uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::uint64_t range(std::uint64_t lo, std::uint64_t hi,
                                    const Stream& s) const {
    PAGEN_CHECK_MSG(lo <= hi, "range lower bound exceeds upper bound");
    return lo + below(hi - lo + 1, s);
  }

  /// Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] double unit(const Stream& s) const {
    return static_cast<double>(raw(s) >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability p.
  [[nodiscard]] bool coin(double p, const Stream& s) const {
    return unit(s) < p;
  }

  [[nodiscard]] std::uint64_t key() const { return key_; }

 private:
  std::uint64_t key_;
};

}  // namespace pagen::rng
