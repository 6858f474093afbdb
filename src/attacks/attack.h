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
#include <string>
#include <vector>

#include "mobility/trace.h"

namespace mood::attacks {

/// Which machinery serves the AP attack's re-identification queries. Both
/// modes answer every query with the *same decision* — the scan exists so
/// the index can be validated against it (the tier-1 equivalence tests,
/// replay verification), never to trade accuracy for speed. POI and PIT
/// always answer by the scan.
enum class QueryMode {
  /// Flat compiled profiles + linear branch-and-bound scans
  /// (bounded_scan.h) — prices candidates in training order, pruning with
  /// the best distance so far. The oracle for the index.
  kScan,
  /// AP's per-cell posting index (ap_attack.h): admissible lower bounds
  /// eliminate most candidates before any exact pricing; survivors are
  /// priced with the same bounded divergences. The production default.
  kIndex,
};

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

  /// Targeted query: would reidentify() answer exactly `owner`? Must be
  /// decision-equivalent to `reidentify(trace) == owner` — this default is
  /// literally that — but concrete attacks override it with a
  /// branch-and-bound scan that prices the owner first and prunes the rest
  /// of the population against that distance, which is what makes
  /// Algorithm 1's attack-in-the-loop search fast (the engine only ever
  /// needs this predicate, never the full argmin).
  [[nodiscard]] virtual bool reidentifies_target(
      const mobility::Trace& anonymous_trace,
      const mobility::UserId& owner) const {
    const auto answer = reidentify(anonymous_trace);
    return answer.has_value() && *answer == owner;
  }

  /// Number of trained profiles.
  [[nodiscard]] virtual std::size_t trained_users() const = 0;

  /// Selects the query machinery (see QueryMode). Default no-op for
  /// attacks with one path (POI, PIT, test mocks). Not thread-safe — flip
  /// only outside parallel sections.
  virtual void set_query_mode(QueryMode /*mode*/) {}

  /// The active query machinery.
  [[nodiscard]] virtual QueryMode query_mode() const {
    return QueryMode::kScan;
  }

  /// Query work counters (zero for attacks that count nothing).
  [[nodiscard]] virtual IndexStats index_stats() const { return {}; }
};

/// True iff the attack's answer equals the true owner — the success
/// predicate A_k(T') = U used throughout Algorithm 1. Routed through the
/// targeted reidentifies_target query so trained attacks can prune their
/// population scan instead of pricing every user.
inline bool reidentifies(const Attack& attack, const mobility::Trace& trace,
                         const mobility::UserId& owner) {
  return attack.reidentifies_target(trace, owner);
}

using AttackPtr = std::unique_ptr<Attack>;

}  // namespace mood::attacks
