#ifndef LIMEQO_COMMON_RNG_H_
#define LIMEQO_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace limeqo {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// All randomized components of the library (workload generation, policy
/// tie-breaking, neural initialization) take an Rng so that experiments are
/// reproducible from a single seed. The standard-library engines are avoided
/// because their streams differ across standard library implementations.
class Rng {
 public:
  /// Seeds the generator; two Rng instances with the same seed produce the
  /// same stream on every platform.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Writes n uniform doubles in [0, 1) to out[0, n): the values of n
  /// successive NextDouble() calls, leaving the same state, with the state
  /// held in locals for the whole loop.
  void NextDoubles(double* out, size_t n) {
    uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
    for (size_t i = 0; i < n; ++i) out[i] = ToUnitInterval(Step(s));
    for (int k = 0; k < 4; ++k) state_[k] = s[k];
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextUint64Below(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal deviate (Box-Muller with caching).
  double NextGaussian();

  /// Normal deviate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Log-normal deviate: exp(N(mu, sigma^2)).
  double LogNormal(double mu, double sigma);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle of the given vector.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextUint64Below(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Returns a vector {0, 1, ..., n-1} in random order.
  std::vector<int> Permutation(int n);

  /// Forks a child generator with an independent stream. Useful to give each
  /// module / repetition its own stream while deriving from one master seed.
  Rng Fork();

 private:
  /// One xoshiro256** step: returns the output for state `s` and advances
  /// it.
  static uint64_t Step(uint64_t* s) {
    const uint64_t r = s[1] * 5;
    const uint64_t result = ((r << 7) | (r >> 57)) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 45) | (s[3] >> 19);
    return result;
  }

  /// 53 random mantissa bits -> uniform in [0, 1).
  static double ToUnitInterval(uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// The first NextUint64() of Rng(seed), computed without constructing the
/// generator. Rng's constructor expands the seed through four splitmix64
/// steps, but the first xoshiro256** output reads only state word 1 — the
/// *second* splitmix64 step — so one finalizer round plus the output
/// scrambler reproduces `Rng(seed).NextUint64()` bitwise at a fraction of
/// the setup cost. Hot serving paths that need exactly one draw from a
/// per-index stream (the per-serving epsilon gate) use this instead of a
/// full Rng; paths that may need more than one draw (rejection-sampled
/// picks) must still construct the Rng. Pinned against the full generator
/// by tests/decision_kernel_test.cc.
inline uint64_t FirstDraw(uint64_t seed) {
  uint64_t z = seed + 2 * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const uint64_t r = z * 5;
  return ((r << 7) | (r >> 57)) * 9;
}

/// The first NextDouble() of Rng(seed) (uniform in [0, 1)), via FirstDraw.
/// `FirstUniform(seed) < p` is bitwise-equivalent to
/// `Rng(seed).Bernoulli(p)`.
inline double FirstUniform(uint64_t seed) {
  return static_cast<double>(FirstDraw(seed) >> 11) * 0x1.0p-53;
}

/// splitmix64-style finalizer combining two words into one well-mixed seed.
/// Used for domain separation: deriving independent, reproducible streams
/// (per module, per cell, per drift generation) from a single master seed
/// without consuming any Rng state.
uint64_t MixSeed(uint64_t a, uint64_t b);
inline uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  return MixSeed(MixSeed(a, b), c);
}

}  // namespace limeqo

#endif  // LIMEQO_COMMON_RNG_H_
