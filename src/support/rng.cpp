#include "support/rng.h"

#include <cmath>
#include <numbers>

#include "support/error.h"

namespace mood::support {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001B3ULL;  // FNV prime
  }
  return h;
}

std::uint64_t derive_seed(std::uint64_t parent, std::string_view label,
                          std::uint64_t index) {
  std::uint64_t h = splitmix64(parent ^ hash_label(label));
  return splitmix64(h ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
}

RngStream::RngStream(std::uint64_t seed) : seed_(seed) {
  // Whiten the seed into four non-zero state words via splitmix64, the
  // initialisation recommended by the xoshiro authors.
  std::uint64_t s = seed;
  for (auto& word : state_) {
    s = splitmix64(s);
    word = s;
  }
}

RngStream RngStream::fork(std::string_view label, std::uint64_t index) const {
  return RngStream(derive_seed(seed_, label, index));
}

std::uint64_t RngStream::uniform_index(std::uint64_t n) {
  expects(n > 0, "RngStream::uniform_index: n must be > 0");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (~0ULL - n + 1) % n;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

double RngStream::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller: two uniforms -> two independent standard normals.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double RngStream::normal(double mean, double stddev) {
  expects(stddev >= 0.0, "RngStream::normal: stddev must be >= 0");
  return mean + stddev * normal();
}

double RngStream::exponential(double lambda) {
  expects(lambda > 0.0, "RngStream::exponential: lambda must be > 0");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / lambda;
}

bool RngStream::bernoulli(double p) {
  expects(p >= 0.0 && p <= 1.0, "RngStream::bernoulli: p must be in [0,1]");
  return uniform() < p;
}

}  // namespace mood::support
