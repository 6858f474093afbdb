#pragma once

/// \file attack.h
/// User re-identification attack interface (paper Eq. 1).
///
/// An attack trains once on background knowledge H (one past trace per
/// known user) and is then asked to re-associate anonymous traces with
/// users: A(T, H) = u. Training mutates the attack; re-identification is
/// const and safe to call concurrently — MooD's search fans candidate
/// protections out across threads against shared trained attacks.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "attacks/candidate.h"
#include "mobility/trace.h"

namespace mood::attacks {

/// Cumulative query work counters (since construction). POI and PIT count
/// their scans, which prune nothing and build no index; AP counts its
/// posting index, or its scans below kIndexMinPopulation. All zero for
/// attacks that count nothing (e.g. test mocks).
struct IndexStats {
  std::uint64_t queries = 0;            ///< argmin/targeted queries served
  std::uint64_t pruned_candidates = 0;  ///< eliminated by lower bounds alone
  std::uint64_t exact_evaluations = 0;  ///< priced with an exact divergence
  std::uint64_t rebuilds = 0;           ///< full index (re)builds
};

/// Abstract re-identification attack.
class Attack {
 public:
  virtual ~Attack() = default;

  /// Display name ("POI-Attack", "PIT-Attack", "AP-Attack").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Builds per-user profiles from background traces (one per user; the
  /// trace's user id is the identity learned). Replaces earlier training.
  virtual void train(const std::vector<mobility::Trace>& background) = 0;

  /// Returns the known user the anonymous trace most resembles, or
  /// std::nullopt when the attack cannot form a profile from the trace
  /// (e.g. no POIs survive obfuscation) — a failed attack, which counts as
  /// protection for the trace's owner.
  [[nodiscard]] virtual std::optional<mobility::UserId> reidentify(
      const mobility::Trace& anonymous_trace) const = 0;

  /// Targeted query: would reidentify(candidate.trace()) answer exactly
  /// `owner`? Must be decision-equivalent to that — this default is
  /// literally it — but concrete attacks override it to read their
  /// compiled form from the candidate and run a branch-and-bound scan that
  /// prices the owner first and prunes the rest of the population against
  /// that distance, which is what makes Algorithm 1's attack-in-the-loop
  /// search fast (the engine only ever needs this predicate, never the
  /// full argmin). A trace converts to a Candidate implicitly.
  [[nodiscard]] virtual bool reidentifies_target(
      const Candidate& candidate, const mobility::UserId& owner) const {
    const auto answer = reidentify(candidate.trace());
    return answer.has_value() && *answer == owner;
  }

  /// Number of trained profiles.
  [[nodiscard]] virtual std::size_t trained_users() const = 0;

  /// Query work counters (zero for attacks that count nothing).
  [[nodiscard]] virtual IndexStats index_stats() const { return {}; }
};

/// The one risk predicate, A_k(T') = U for some k (Algorithm 1 lines
/// 8-10): does any attack, asked in order, re-identify `owner` from the
/// candidate? Stops at the first that does, and adds the number of
/// attacks it asked to `*asked` (when given). Every attack reads the same
/// candidate, so each compiled form is built once per call at most.
inline bool any_reidentifies(std::span<const Attack* const> attacks,
                             const Candidate& candidate,
                             const mobility::UserId& owner,
                             std::size_t* asked = nullptr) {
  for (const Attack* attack : attacks) {
    if (asked != nullptr) ++*asked;
    if (attack->reidentifies_target(candidate, owner)) return true;
  }
  return false;
}

using AttackPtr = std::unique_ptr<Attack>;

}  // namespace mood::attacks
