#pragma once
// Deterministic random number generation.
//
// All simulation randomness flows through `Rng` (xoshiro256**) so that every
// experiment is reproducible from a single seed. Cryptographic randomness
// (key generation, nonces) uses the ChaCha20-based `Drbg` in crypto/, which
// is itself seeded deterministically in tests and benches.
//
// `next_u64` and `uniform01` are defined inline below: hot loops draw
// once per candidate event (MetroWorld's loss draws run at hundreds of
// millions per city run), and an out-of-line call per draw costs more
// than the generator step itself. Their bodies are the xoshiro256** 1.0
// reference; util_test pins the first draws of two seeds.

#include <cstdint>
#include <cstddef>
#include <vector>

#include "util/bytes.hpp"

namespace aseck::util {

/// SplitMix64 — used to expand a single seed into xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality, deterministic PRNG for simulation.
/// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next_u64(); }

  inline std::uint64_t next_u64();
  std::uint32_t next_u32() { return static_cast<std::uint32_t>(next_u64() >> 32); }

  /// Uniform in [0, bound) without modulo bias (Lemire rejection).
  std::uint64_t uniform(std::uint64_t bound);
  /// Uniform in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Uniform double in [0, 1).
  inline double uniform01();
  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);
  /// Standard normal via Box–Muller (cached spare).
  double gaussian();
  double gaussian(double mean, double stddev) { return mean + stddev * gaussian(); }
  /// Exponential with rate lambda (> 0).
  double exponential(double lambda);
  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform01() < p; }
  /// Poisson-distributed count (Knuth for small lambda, normal approx large).
  std::uint64_t poisson(double lambda);

  /// Random byte string of length n.
  Bytes bytes(std::size_t n);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element index; container must be non-empty.
  std::size_t index(std::size_t size) { return static_cast<std::size_t>(uniform(size)); }

  /// Derives an independent child stream (for per-component RNGs).
  Rng fork();

  /// Derives the `stream_id`-th independent stream from `master_seed`
  /// without constructing (or perturbing) a master generator. Used for
  /// per-shard RNGs in the sharded world: stream i is a pure function of
  /// (master_seed, i), so resharding or re-running any subset of shards
  /// reproduces the same draws. Streams for distinct ids are seeded at
  /// golden-ratio-spaced points of the SplitMix64 sequence space and then
  /// expanded into distinct 256-bit xoshiro states; adjacent ids share no
  /// prefix (known-answer + overlap tests in util_test.cpp pin this down
  /// across platforms).
  static Rng for_stream(std::uint64_t master_seed, std::uint64_t stream_id);

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl64(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl64(s_[3], 45);
  return result;
}

double Rng::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

}  // namespace aseck::util
