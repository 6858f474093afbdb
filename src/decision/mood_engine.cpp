#include "decision/mood_engine.h"

#include <limits>

#include "attacks/pit_attack.h"
#include "attacks/poi_attack.h"
#include "support/error.h"

namespace mood::decision {

std::string to_string(ProtectionLevel level) {
  switch (level) {
    case ProtectionLevel::kNone: return "none";
    case ProtectionLevel::kSingle: return "single-LPPM";
    case ProtectionLevel::kComposition: return "multi-LPPM";
    case ProtectionLevel::kFineGrained: return "fine-grained";
  }
  return "?";
}

double ProtectionResult::mean_distortion() const {
  double weighted = 0.0;
  std::size_t records = 0;
  for (const auto& piece : pieces) {
    weighted += piece.distortion * static_cast<double>(piece.original_records);
    records += piece.original_records;
  }
  return records == 0 ? 0.0 : weighted / static_cast<double>(records);
}

MoodEngine::MoodEngine(std::vector<const lppm::Lppm*> singles,
                       std::vector<lppm::Composition> compositions,
                       std::vector<const attacks::Attack*> attacks,
                       const metrics::UtilityMetric* metric, MoodConfig config)
    : singles_(std::move(singles)),
      compositions_(std::move(compositions)),
      attacks_(std::move(attacks)),
      metric_(metric),
      config_(config) {
  support::expects(!singles_.empty(), "MoodEngine: empty LPPM set");
  support::expects(!attacks_.empty(), "MoodEngine: empty attack set");
  support::expects(metric_ != nullptr, "MoodEngine: null utility metric");
  support::expects(config_.delta > 0, "MoodEngine: delta must be positive");
  support::expects(config_.preslice > 0,
                   "MoodEngine: preslice must be positive");
  for (const auto* single : singles_) {
    support::expects(single != nullptr, "MoodEngine: null LPPM");
  }
  std::optional<clustering::PoiParams> stay_params;
  for (const auto* attack : attacks_) {
    support::expects(attack != nullptr, "MoodEngine: null attack");
    support::expects(attack->trained_users() > 0,
                     "MoodEngine: attack '" + attack->name() +
                         "' is untrained");
    const auto* poi = dynamic_cast<const attacks::PoiAttack*>(attack);
    const auto* pit = dynamic_cast<const attacks::PitAttack*>(attack);
    if (poi != nullptr || pit != nullptr) {
      const auto& stays = poi != nullptr ? poi->params() : pit->params();
      support::expects(!stay_params || *stay_params == stays,
                       "MoodEngine: POI and PIT attacks must share "
                       "stay-clustering params");
      stay_params = stays;
    }
  }
}

support::RngStream MoodEngine::rng_for(const mobility::Trace& trace,
                                       const std::string& lppm_name) const {
  // Keyed by owner, mechanism and the sub-trace's start time, so that every
  // (user, mechanism, sub-trace) triple draws an independent — yet fully
  // reproducible — noise stream regardless of evaluation order.
  const mobility::Timestamp t0 = trace.empty() ? 0 : trace.front().time;
  return support::RngStream(config_.seed)
      .fork(trace.user())
      .fork(lppm_name, static_cast<std::uint64_t>(t0));
}

std::optional<std::pair<mobility::Trace, double>> MoodEngine::try_mechanism(
    const lppm::Lppm& mechanism, const mobility::Trace& trace,
    ProtectionResult* cost) const {
  mobility::Trace output = mechanism.apply(trace, rng_for(trace, mechanism.name()));
  if (cost != nullptr) ++cost->lppm_applications;
  // Algorithm 1 lines 8-10: walk the attacks until one re-identifies.
  // They all read one candidate, so POI and PIT share one stay extraction.
  if (attacks::any_reidentifies(
          attacks_, output, trace.user(),
          cost != nullptr ? &cost->attack_invocations : nullptr)) {
    return std::nullopt;  // this mechanism failed
  }
  const double distortion = metric_->distortion(trace, output);
  return std::make_pair(std::move(output), distortion);
}

std::optional<MoodEngine::Candidate> MoodEngine::search(
    const mobility::Trace& trace, ProtectionResult* cost) const {
  if (trace.empty()) return std::nullopt;

  // ---- Single-LPPM pass (lines 4-14): keep the argmin-STD winner.
  std::optional<Candidate> best;
  for (const auto* single : singles_) {
    auto outcome = try_mechanism(*single, trace, cost);
    if (!outcome) continue;
    if (!best || outcome->second < best->distortion) {
      best = Candidate{single->name(), ProtectionLevel::kSingle,
                       std::move(outcome->first), outcome->second};
    }
  }
  if (best) return best;

  // ---- Composition pass (lines 16-26) over C \ L.
  for (const auto& composition : compositions_) {
    auto outcome = try_mechanism(composition, trace, cost);
    if (!outcome) continue;
    if (!best || outcome->second < best->distortion) {
      best = Candidate{composition.name(), ProtectionLevel::kComposition,
                       std::move(outcome->first), outcome->second};
    }
    if (config_.first_hit) break;  // ablation mode: stop at the first hit
  }
  return best;
}

std::optional<MoodEngine::Candidate> MoodEngine::recheck(
    const std::string& lppm_name, const mobility::Trace& trace,
    ProtectionResult* cost) const {
  if (trace.empty()) return std::nullopt;
  for (const auto* single : singles_) {
    if (single->name() != lppm_name) continue;
    auto outcome = try_mechanism(*single, trace, cost);
    if (!outcome) return std::nullopt;
    return Candidate{single->name(), ProtectionLevel::kSingle,
                     std::move(outcome->first), outcome->second};
  }
  for (const auto& composition : compositions_) {
    if (composition.name() != lppm_name) continue;
    auto outcome = try_mechanism(composition, trace, cost);
    if (!outcome) return std::nullopt;
    return Candidate{composition.name(), ProtectionLevel::kComposition,
                     std::move(outcome->first), outcome->second};
  }
  throw support::PreconditionError("MoodEngine::recheck: unknown mechanism '" +
                                   lppm_name + "'");
}

void MoodEngine::protect_recursive(const mobility::Trace& trace,
                                   ProtectionResult& result) const {
  if (trace.empty()) return;

  if (auto candidate = search(trace, &result)) {
    result.pieces.push_back(ProtectedPiece{
        std::move(candidate->output), candidate->lppm, candidate->level,
        candidate->distortion, trace.size()});
    return;
  }

  // Lines 27-34: fine-grained split while the piece spans at least delta.
  if (trace.duration() >= config_.delta) {
    auto [left, right] = trace.split_in_half();
    protect_recursive(left, result);
    protect_recursive(right, result);
    return;
  }

  // Line 36: give up on this piece; its records are erased.
  result.lost_records += trace.size();
}

ProtectionResult MoodEngine::protect(const mobility::Trace& trace) const {
  ProtectionResult result;
  result.original_records = trace.size();
  protect_recursive(trace, result);

  if (result.pieces.empty()) {
    result.level = ProtectionLevel::kNone;
  } else if (result.pieces.size() == 1 && result.lost_records == 0 &&
             result.pieces.front().level != ProtectionLevel::kFineGrained &&
             result.pieces.front().original_records == trace.size()) {
    // The whole trace was protected without splitting.
    result.level = result.pieces.front().level;
  } else {
    result.level = ProtectionLevel::kFineGrained;
    for (auto& piece : result.pieces) {
      piece.level = ProtectionLevel::kFineGrained;
    }
    renew_ids(result.pieces, trace.user());
  }
  return result;
}

ProtectionResult MoodEngine::protect_crowdsensing(
    const mobility::Trace& trace) const {
  ProtectionResult result;
  result.original_records = trace.size();
  if (trace.empty()) return result;

  for (const auto& slice : trace.slices(config_.preslice)) {
    ProtectionResult partial;
    partial.original_records = slice.size();
    protect_recursive(slice, partial);
    result.lost_records += partial.lost_records;
    result.lppm_applications += partial.lppm_applications;
    result.attack_invocations += partial.attack_invocations;
    for (auto& piece : partial.pieces) {
      result.pieces.push_back(std::move(piece));
    }
  }
  // Daily chunks are published under per-chunk pseudonyms in the
  // crowdsensing scenario, so ids are always renewed here.
  result.level =
      result.pieces.empty() ? ProtectionLevel::kNone
                            : ProtectionLevel::kFineGrained;
  renew_ids(result.pieces, trace.user());
  return result;
}

void renew_ids(std::vector<ProtectedPiece>& pieces,
               const mobility::UserId& owner) {
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    pieces[i].trace.set_user(owner + "#" + std::to_string(i));
  }
}

}  // namespace mood::decision
