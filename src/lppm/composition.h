#pragma once

/// \file composition.h
/// Ordered composition of LPPMs (paper Eq. 3):
///   C_p(T) = L_ip ∘ ... ∘ L_i2 ∘ L_i1 (T)
/// — apply L_i1 first, feed its output to L_i2, and so on. Order matters.
/// A Composition is itself an Lppm, so the MooD engine treats singles and
/// compositions uniformly.
///
/// Noise keying follows Eq. 3 literally: a composition is its prefix plus
/// one stage. Stage i of C_p draws its noise from the owner's stream forked
/// by the name of C_p's first i+1 stages and the input's start time
/// (stage_stream). So stage 0 of every "GeoI+..." is exactly the single
/// GeoI output, and "GeoI+TRL+HMC" is HMC applied to the "GeoI+TRL" output:
/// a search over the prefix tree applies each node once (15 stages for
/// three singles), and every caller — search, recheck, the harness, the
/// tests — reaches a mechanism's noise through this one rule.

#include <string>
#include <string_view>
#include <vector>

#include "lppm/lppm.h"

namespace mood::lppm {

/// The noise stream of the stage that completes the mechanism named
/// `prefix` (a single's name, or a composition's first stages joined by
/// '+') when it runs on `input`: `owner` (the per-user stream) forked by
/// that name and `input`'s start time (0 for an empty trace). `input` is
/// always the trace the whole mechanism started from, never an
/// intermediate stage's output.
[[nodiscard]] support::RngStream stage_stream(const support::RngStream& owner,
                                              const mobility::Trace& input,
                                              std::string_view prefix);

/// Non-owning ordered sequence of LPPM stages. The referenced LPPMs must
/// outlive the composition (in practice they live in the LppmRegistry).
class Composition final : public Lppm {
 public:
  /// Precondition: stages non-empty, no nulls.
  explicit Composition(std::vector<const Lppm*> stages);

  /// Name in application order, e.g. "GeoI+TRL" = TRL(GeoI(T)).
  [[nodiscard]] std::string name() const override {
    return prefix_names_.back();
  }

  /// Applies every stage in turn. `rng` is the owner stream: stage i draws
  /// stage_stream(rng, trace, prefix_name(i + 1)).
  [[nodiscard]] mobility::Trace apply(const mobility::Trace& trace,
                                      support::RngStream rng) const override;

  /// Stage `i` alone, applied to `previous` — the output of the first i
  /// stages on `input` (`input` itself for i = 0) — with the stream apply()
  /// gives it. apply() is exactly these calls in turn.
  [[nodiscard]] mobility::Trace apply_stage(
      std::size_t i, const mobility::Trace& previous,
      const mobility::Trace& input, const support::RngStream& owner) const;

  /// Name of the first `length` stages, in [1, length()].
  [[nodiscard]] const std::string& prefix_name(std::size_t length) const {
    return prefix_names_.at(length - 1);
  }

  [[nodiscard]] const std::vector<const Lppm*>& stages() const {
    return stages_;
  }
  [[nodiscard]] std::size_t length() const { return stages_.size(); }

 private:
  std::vector<const Lppm*> stages_;
  std::vector<std::string> prefix_names_;
};

/// Applies a single LPPM or a Composition to `input` under the Eq. 3
/// keying: a single draws stage_stream(owner, input, its name), and a
/// composition keys each stage by its prefix. This is the output MooD
/// publishes for that mechanism when `owner` is the engine's stream for
/// the input's user.
[[nodiscard]] mobility::Trace apply_keyed(const Lppm& mechanism,
                                          const mobility::Trace& input,
                                          const support::RngStream& owner);

/// Enumerates every ordered selection of distinct LPPMs from `singles` with
/// length in [min_length, max_length]. With min_length = 1 and
/// max_length = n this is the paper's C, of size sum_{i=1..n} n!/(n-i)!
/// (= 15 for n = 3); with min_length = 2 it is C \ L, the set the engine
/// explores after the single-LPPM pass fails. Order of results is
/// deterministic: increasing length, then lexicographic by stage index.
std::vector<Composition> enumerate_compositions(
    const std::vector<const Lppm*>& singles, std::size_t min_length,
    std::size_t max_length);

/// Number of ordered selections of i distinct items out of n, summed over
/// i in [min_length, max_length] — the closed form of the enumeration size.
std::size_t composition_count(std::size_t n, std::size_t min_length,
                              std::size_t max_length);

}  // namespace mood::lppm
