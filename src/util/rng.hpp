// Deterministic random number generation.
//
// Every stochastic component in the library takes an explicit Rng& so that
// experiments are reproducible from a single seed. The generator is
// xoshiro256** seeded through splitmix64 (the reference seeding procedure).
#pragma once

#include <cstdint>
#include <vector>

namespace cq {

/// splitmix64 step — used for seeding and for cheap stateless hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** PRNG with convenience samplers for common distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi);
  /// Standard normal via Box–Muller (cached pair).
  double normal();
  /// Normal with the given mean / stddev.
  double normal(double mean, double stddev);
  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = uniform_index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace cq
