// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the library (FHP collision chirality,
// random lattice initialization, randomized tests) flows through these
// generators so that every experiment is reproducible from a single
// 64-bit seed. We implement SplitMix64 (seeding / stream splitting) and
// PCG32 (bulk generation) rather than using <random> engines because the
// exact output sequence is part of the library contract: golden tests
// pin it down.

#pragma once

#include <cstdint>

namespace lattice {

/// SplitMix64: tiny, statistically strong 64-bit generator. Used to
/// derive independent sub-seeds from one master seed.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// PCG32 (XSH-RR variant): 64-bit state, 32-bit output, period 2^64.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  constexpr Pcg32() noexcept : Pcg32(0x853c49e6748fea9bULL) {}
  explicit constexpr Pcg32(std::uint64_t seed,
                           std::uint64_t stream = 0xda3e39cb94b95bdbULL) noexcept
      : state_(0), inc_((stream << 1) | 1u) {
    next();
    state_ += seed;
    next();
  }

  constexpr std::uint32_t next() noexcept {
    const std::uint64_t old = state_;
    state_ = old * kMultiplier + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
    const auto rot = static_cast<std::uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Jump ahead: the state after `delta` calls of next(), in
  /// O(log delta) steps (Brown's LCG skip-ahead: the composed affine
  /// map x -> a·x + c is squared once per bit of delta). This is what
  /// lets a chunked fill start each chunk where the serial stream
  /// would be, so a parallel fill is bit-identical to a serial one.
  constexpr void advance(std::uint64_t delta) noexcept {
    std::uint64_t acc_mult = 1;
    std::uint64_t acc_plus = 0;
    std::uint64_t cur_mult = kMultiplier;
    std::uint64_t cur_plus = inc_;
    while (delta > 0) {
      if ((delta & 1u) != 0) {
        acc_mult *= cur_mult;
        acc_plus = acc_plus * cur_mult + cur_plus;
      }
      cur_plus = (cur_mult + 1) * cur_plus;
      cur_mult *= cur_mult;
      delta >>= 1;
    }
    state_ = acc_mult * state_ + acc_plus;
  }

  /// Uniform in [0, bound) without modulo bias (Lemire rejection).
  constexpr std::uint32_t next_below(std::uint32_t bound) noexcept {
    if (bound <= 1) return 0;
    const std::uint32_t threshold = (0u - bound) % bound;
    for (;;) {
      const std::uint32_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1), using the top 27 bits.
  constexpr double next_double() noexcept {
    return static_cast<double>(next() >> 5) * (1.0 / 134217728.0);
  }

  /// Bernoulli(p) draw.
  constexpr bool next_bool(double p) noexcept { return next_double() < p; }

  // UniformRandomBitGenerator interface for <algorithm> interop.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }
  constexpr result_type operator()() noexcept { return next(); }

 private:
  static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;

  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Derive the i-th independent sub-seed from a master seed.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t index) noexcept;

}  // namespace lattice
