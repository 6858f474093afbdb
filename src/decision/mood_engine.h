#pragma once

/// \file mood_engine.h
/// The paper's contribution: Algorithm 1 — MooD's fine-grained multi-LPPM
/// user-centric protection.
///
/// Given a trace T, the trained attack set A, the single-LPPM set L, the
/// composition set C \ L and a utility metric M, the engine:
///   1. applies every single LPPM; if at least one defeats *all* attacks,
///      returns the protective output with the lowest distortion (line 14);
///   2. otherwise applies every multi-LPPM composition; if any protects,
///      returns the one with the best utility (line 26);
///   3. otherwise, if the trace spans at least delta, splits it in half by
///      time and recurses on both halves (fine-grained protection,
///      lines 27-34), renewing sub-trace ids at the end;
///   4. otherwise erases the trace (it is counted as data loss).
///
/// The engine is immutable and thread-safe after construction: callers
/// typically fan protect() out across users with parallel_for.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attacks/attack.h"
#include "lppm/composition.h"
#include "lppm/lppm.h"
#include "metrics/distortion.h"
#include "mobility/trace.h"

namespace mood::decision {

/// How a piece of data ended up protected.
enum class ProtectionLevel {
  kNone,         ///< nothing worked — data erased
  kSingle,       ///< one LPPM from L sufficed
  kComposition,  ///< a multi-LPPM composition from C \ L sufficed
  kFineGrained,  ///< protection came from time-split sub-traces
};

std::string to_string(ProtectionLevel level);

/// Engine tuning knobs.
struct MoodConfig {
  /// Recursion floor delta (paper §4.2: 4 h): traces shorter than this are
  /// erased instead of split further.
  mobility::Timestamp delta = 4 * mobility::kHour;

  /// Crowdsensing pre-slice period (paper §4.2: 24 h).
  mobility::Timestamp preslice = 24 * mobility::kHour;

  /// Root seed for all LPPM noise drawn by this engine.
  std::uint64_t seed = 0x4D00D;

  /// If true, the composition pass returns the first protective composition
  /// (ordered by increasing length) instead of evaluating all of them and
  /// keeping the best-utility one. Not paper-faithful — exists for the
  /// ablation bench quantifying the cost of exhaustive search.
  bool first_hit = false;
};

/// One protected output piece (the whole trace, or a sub-trace).
struct ProtectedPiece {
  mobility::Trace trace;            ///< obfuscated output
  std::string lppm;                 ///< winning LPPM/composition name
  ProtectionLevel level = ProtectionLevel::kNone;
  double distortion = 0.0;          ///< metric vs. the original piece
  std::size_t original_records = 0; ///< records of the original piece
};

/// Outcome of protecting one trace.
struct ProtectionResult {
  ProtectionLevel level = ProtectionLevel::kNone;
  std::vector<ProtectedPiece> pieces;
  std::size_t original_records = 0;
  std::size_t lost_records = 0;     ///< original records erased (Eq. 7)
  std::size_t lppm_applications = 0;   ///< search cost: LPPM invocations
  std::size_t attack_invocations = 0;  ///< search cost: attack calls

  /// All records survived into protected output.
  [[nodiscard]] bool fully_protected() const {
    return lost_records == 0 && !pieces.empty();
  }
  /// Record-weighted mean distortion over pieces (0 if none).
  [[nodiscard]] double mean_distortion() const;
  /// Original records that survived.
  [[nodiscard]] std::size_t protected_records() const {
    return original_records - lost_records;
  }
};

class MoodEngine {
 public:
  /// All pointers are non-owning and must outlive the engine. `attacks`
  /// must already be trained. `compositions` is C \ L (the engine runs the
  /// single pass from `singles` itself). One candidate serves every attack
  /// (attacks::Candidate), so throws PreconditionError when POI and PIT
  /// attacks cluster stays with different params.
  MoodEngine(std::vector<const lppm::Lppm*> singles,
             std::vector<lppm::Composition> compositions,
             std::vector<const attacks::Attack*> attacks,
             const metrics::UtilityMetric* metric, MoodConfig config);

  /// Search result of the non-recursive part of Algorithm 1 (lines 4-26).
  struct Candidate {
    std::string lppm;
    ProtectionLevel level = ProtectionLevel::kNone;
    mobility::Trace output;
    double distortion = 0.0;
  };

  /// Runs the single-LPPM pass then the composition pass on one trace;
  /// no splitting. nullopt when nothing protects. `cost` (optional)
  /// accumulates search-effort counters.
  [[nodiscard]] std::optional<Candidate> search(
      const mobility::Trace& trace, ProtectionResult* cost = nullptr) const;

  /// Full Algorithm 1 (search + recursive fine-grained splitting).
  /// Sub-trace ids are renewed in the returned pieces.
  [[nodiscard]] ProtectionResult protect(const mobility::Trace& trace) const;

  /// Crowdsensing mode (paper §4.2): slice into `config.preslice` chunks
  /// first, then run Algorithm 1 on every chunk independently.
  [[nodiscard]] ProtectionResult protect_crowdsensing(
      const mobility::Trace& trace) const;

  /// Re-applies a previously selected mechanism (single or composition, by
  /// name) to `trace` and tests it against every attack — the streaming
  /// gateway's cheap "does the current choice still protect the grown
  /// window?" check, one LPPM application instead of a full search().
  /// The output is identical to what search() would produce for that
  /// mechanism (same deterministic noise stream). nullopt when the
  /// mechanism no longer protects; throws PreconditionError for names the
  /// engine does not know.
  [[nodiscard]] std::optional<Candidate> recheck(
      const std::string& lppm_name, const mobility::Trace& trace,
      ProtectionResult* cost = nullptr) const;

  /// The trained attack set this engine searches against (non-owning; in
  /// construction order) — the list attacks::any_reidentifies walks for
  /// every LPPM output here and for every window in the decision kernel.
  [[nodiscard]] const std::vector<const attacks::Attack*>& attacks() const {
    return attacks_;
  }

  [[nodiscard]] const MoodConfig& config() const { return config_; }
  [[nodiscard]] std::size_t candidate_count() const {
    return singles_.size() + compositions_.size();
  }

 private:
  /// Applies one mechanism and tests it against every attack (early exit on
  /// the first successful re-identification, as in Algorithm 1's while
  /// loop). Returns the protective output and its distortion, or nullopt.
  [[nodiscard]] std::optional<std::pair<mobility::Trace, double>> try_mechanism(
      const lppm::Lppm& mechanism, const mobility::Trace& trace,
      ProtectionResult* cost) const;

  void protect_recursive(const mobility::Trace& trace,
                         ProtectionResult& result) const;

  [[nodiscard]] support::RngStream rng_for(const mobility::Trace& trace,
                                           const std::string& lppm_name) const;

  std::vector<const lppm::Lppm*> singles_;
  std::vector<lppm::Composition> compositions_;
  std::vector<const attacks::Attack*> attacks_;
  const metrics::UtilityMetric* metric_;
  MoodConfig config_;
};

/// Renames every piece to "<owner>#<index>" — the renew_Ids step of
/// Algorithm 1 (line 34): sub-traces published under fresh pseudonyms so
/// they appear to come from distinct users.
void renew_ids(std::vector<ProtectedPiece>& pieces,
               const mobility::UserId& owner);

}  // namespace mood::decision
