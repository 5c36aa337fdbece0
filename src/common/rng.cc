#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/status.h"

namespace limeqo {
namespace {

// splitmix64, used to expand a single seed into the xoshiro state.
uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& w : state_) w = SplitMix64(&s);
}

uint64_t Rng::NextUint64() { return Step(state_); }

double Rng::NextDouble() { return ToUnitInterval(NextUint64()); }

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::NextUint64Below(uint64_t n) {
  LIMEQO_CHECK(n > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  LIMEQO_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextUint64Below(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] so log(u1) is finite.
  double u1 = 1.0 - NextDouble();
  double u2 = NextDouble();
  double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Gaussian(mu, sigma));
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  Shuffle(&v);
  return v;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t x = a + 0x9E3779B97F4A7C15ULL * (b + 0x632BE59BD9B4E019ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace limeqo
