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
/// typically fan protect() out across users with parallel_for. search()
/// itself fans its composition pass out over the shared pool; nested in
/// such a per-user loop, that inner parallel_for runs serially on the
/// calling thread (support/thread_pool.h), so only a search called from
/// outside pool work (a gateway shard worker, a serial loop) spreads.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
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
  /// single pass from `singles` itself): each has at least two stages and
  /// none is listed twice, else PreconditionError. An empty list is
  /// HybridLPPM: search() is then the singles pass alone, the per-user
  /// best protective single LPPM. One candidate serves
  /// every attack (attacks::Candidate), so throws PreconditionError when
  /// POI and PIT attacks cluster stays with different params.
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
  /// accumulates search-effort counters: lppm_applications counts the
  /// candidates priced (one per single or composition), not stages.
  /// `singles` (optional) receives each single's price in L's order, as
  /// recheck() gives it: nullopt where an attack re-identifies its output.
  ///
  /// The singles pass (and the whole first_hit ablation) runs serially in
  /// order. The exhaustive composition pass walks the prefix tree of C \ L
  /// level by level (lppm/composition.h, Eq. 3 keying): each level is one
  /// parallel_for whose nodes apply their last stage to their prefix's
  /// output, so every node is applied once: 15 stages for three singles,
  /// where applying each candidate from the trace would take 33. A prefix that is not itself a candidate (a list that is not
  /// prefix-closed) is applied on demand in its level but not priced. Only
  /// the outputs the next level reads, plus the current best, stay alive.
  /// Winner, output and counts equal a serial recheck() scan's: lowest
  /// distortion, ties to the earliest position in C \ L.
  [[nodiscard]] std::optional<Candidate> search(
      const mobility::Trace& trace, ProtectionResult* cost = nullptr,
      std::vector<std::optional<double>>* singles = nullptr) const;

  /// Full Algorithm 1 (search + recursive fine-grained splitting).
  /// Sub-trace ids are renewed in the returned pieces.
  [[nodiscard]] ProtectionResult protect(const mobility::Trace& trace) const;

  /// Crowdsensing mode (paper §4.2): slice into `config.preslice` chunks
  /// first, then run Algorithm 1 on every chunk independently.
  [[nodiscard]] ProtectionResult protect_crowdsensing(
      const mobility::Trace& trace) const;

  /// Re-applies a previously selected mechanism (single or composition, by
  /// name) to `trace` and tests it against every attack, pricing the
  /// output when it protects. A composition is applied stage by stage from
  /// the trace (lppm::apply_keyed), with the streams search() gives its
  /// prefix tree's nodes, so the output is bit-identical to the one
  /// search() prices for that mechanism. nullopt when the mechanism no
  /// longer protects; throws PreconditionError for names the engine does
  /// not know.
  [[nodiscard]] std::optional<Candidate> recheck(
      const std::string& lppm_name, const mobility::Trace& trace,
      ProtectionResult* cost = nullptr) const;

  /// recheck(lppm_name, trace, cost).has_value() without the distortion:
  /// the streaming gateway's cheap "does the held choice still protect the
  /// grown window?" check, which only needs the verdict. Applies the same
  /// output and counts the same lppm_applications and attack_invocations
  /// as recheck().
  [[nodiscard]] bool still_protects(const std::string& lppm_name,
                                    const mobility::Trace& trace,
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
  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

  /// One node of the prefix tree over `compositions_`: the first `length`
  /// stages of `composition`, the first composition listed with that
  /// prefix (which may extend it). search() applies each node once.
  struct PrefixNode {
    const lppm::Composition* composition = nullptr;
    std::size_t length = 0;
    std::size_t parent = kNoNode;    ///< node of the first length-1 stages
    std::size_t position = kNoNode;  ///< index in compositions_ if priced
    bool extended = false;           ///< a longer node reads its output
  };

  /// Tests one output against every attack (early exit on the first
  /// successful re-identification, as in Algorithm 1's while loop) and
  /// counts one LPPM application. True if no attack re-identifies it.
  [[nodiscard]] bool protects(const mobility::Trace& trace,
                              const mobility::Trace& output,
                              ProtectionResult* cost) const;

  /// protects(), then the output's distortion if it protects.
  [[nodiscard]] std::optional<double> price(const mobility::Trace& trace,
                                            const mobility::Trace& output,
                                            ProtectionResult* cost) const;

  /// The single or composition called `lppm_name` and its level; throws
  /// PreconditionError for names the engine does not know.
  [[nodiscard]] std::pair<const lppm::Lppm*, ProtectionLevel> mechanism_named(
      const std::string& lppm_name) const;

  /// apply_keyed + price, for the serial paths (first_hit, recheck).
  [[nodiscard]] std::optional<Candidate> try_mechanism(
      const lppm::Lppm& mechanism, ProtectionLevel level,
      const mobility::Trace& trace, ProtectionResult* cost) const;

  void protect_recursive(const mobility::Trace& trace,
                         ProtectionResult& result) const;

  /// The per-user stream every stage stream is forked from
  /// (lppm::stage_stream adds the mechanism prefix and start time).
  [[nodiscard]] support::RngStream owner_stream(
      const mobility::Trace& trace) const;

  std::vector<const lppm::Lppm*> singles_;
  std::vector<lppm::Composition> compositions_;
  std::vector<const attacks::Attack*> attacks_;
  const metrics::UtilityMetric* metric_;
  MoodConfig config_;
  std::vector<PrefixNode> nodes_;
  /// Node of each single the composition pass extends, else kNoNode.
  std::vector<std::size_t> single_nodes_;
  /// levels_[k]: the nodes of length k+1 the composition pass applies in
  /// its k-th parallel_for (length-1 nodes the singles pass applied are
  /// left out).
  std::vector<std::vector<std::size_t>> levels_;
};

/// Renames every piece to "<owner>#<index>" — the renew_Ids step of
/// Algorithm 1 (line 34): sub-traces published under fresh pseudonyms so
/// they appear to come from distinct users.
void renew_ids(std::vector<ProtectedPiece>& pieces,
               const mobility::UserId& owner);

}  // namespace mood::decision
