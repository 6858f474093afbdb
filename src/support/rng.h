#pragma once

/// \file rng.h
/// Deterministic, forkable random-number streams.
///
/// Every stochastic component in MooD (LPPM noise, synthetic mobility,
/// tie-breaking) draws from a named RngStream derived from a root seed.
/// Deriving a child stream hashes the parent seed with a label, so the same
/// (root seed, label path) always yields the same sequence regardless of the
/// order in which sibling streams are consumed. That property is what makes
/// the composition search (which applies LPPMs in many different orders)
/// reproducible and order-stable.

#include <cstdint>
#include <random>
#include <string_view>

#include "support/error.h"

namespace mood::support {

/// splitmix64 — used to whiten seeds before feeding the engine.
std::uint64_t splitmix64(std::uint64_t x);

/// FNV-1a hash of a label, used to derive named child streams.
std::uint64_t hash_label(std::string_view label);

/// Combine a parent seed with a label (and an optional index) into a child
/// seed. Deterministic and well-distributed.
std::uint64_t derive_seed(std::uint64_t parent, std::string_view label,
                          std::uint64_t index = 0);

/// A deterministic random stream with value-semantics.
///
/// Wraps xoshiro256** (public-domain, Blackman/Vigna). We implement the
/// engine ourselves instead of using std::mt19937_64 so that streams are
/// cheap to copy/fork and the exact sequence is pinned down by this
/// repository (libstdc++ distributions of `std::*_distribution` are not
/// portable across standard libraries; ours are).
class RngStream {
 public:
  using result_type = std::uint64_t;

  /// Creates a stream from a whitened seed.
  explicit RngStream(std::uint64_t seed = 0xC0FFEE);

  /// Forks a child stream identified by a label and optional index.
  /// Forking does not perturb this stream's own sequence.
  [[nodiscard]] RngStream fork(std::string_view label,
                               std::uint64_t index = 0) const;

  /// UniformRandomBitGenerator interface.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// Next raw 64-bit value. The draws LPPMs make per record are inline,
  /// so a noise loop pays no call per draw.
  std::uint64_t next() {
    // xoshiro256** step.
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    expects(lo <= hi, "RngStream::uniform: lo must be <= hi");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal variate (Box–Muller, stateless per call pair).
  double normal();

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential variate with the given rate lambda (> 0).
  double exponential(double lambda);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// The seed this stream was constructed with (pre-whitening).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t seed_;
  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace mood::support
