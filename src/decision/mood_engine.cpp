#include "decision/mood_engine.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "attacks/pit_attack.h"
#include "attacks/poi_attack.h"
#include "support/error.h"
#include "support/thread_pool.h"

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

  // The prefix tree of C \ L, keyed by stage sequence. A single the
  // singles pass applies is a length-1 node the composition pass reads.
  std::map<std::vector<const lppm::Lppm*>, std::size_t> node_of;
  single_nodes_.assign(singles_.size(), kNoNode);
  for (std::size_t p = 0; p < compositions_.size(); ++p) {
    const lppm::Composition& composition = compositions_[p];
    support::expects(composition.length() >= 2,
                     "MoodEngine: composition '" + composition.name() +
                         "' has fewer than two stages");
    const auto& stages = composition.stages();
    std::size_t parent = kNoNode;
    for (std::size_t length = 1; length <= stages.size(); ++length) {
      const std::vector<const lppm::Lppm*> key(stages.begin(),
                                               stages.begin() + length);
      auto [it, added] = node_of.try_emplace(key, nodes_.size());
      if (added) {
        nodes_.push_back(PrefixNode{&composition, length, parent});
        if (levels_.size() < length) levels_.resize(length);
        const auto single = std::find(singles_.begin(), singles_.end(),
                                      stages.front());
        if (length == 1 && single != singles_.end()) {
          single_nodes_[single - singles_.begin()] = it->second;
        } else {
          levels_[length - 1].push_back(it->second);
        }
      }
      if (parent != kNoNode) nodes_[parent].extended = true;
      parent = it->second;
    }
    support::expects(nodes_[parent].position == kNoNode,
                     "MoodEngine: composition '" + composition.name() +
                         "' is listed twice");
    nodes_[parent].position = p;
  }
}

support::RngStream MoodEngine::owner_stream(
    const mobility::Trace& trace) const {
  // Every (user, mechanism prefix, sub-trace start) draws an independent —
  // yet fully reproducible — noise stream regardless of evaluation order.
  return support::RngStream(config_.seed).fork(trace.user());
}

bool MoodEngine::protects(const mobility::Trace& trace,
                          const mobility::Trace& output,
                          ProtectionResult* cost) const {
  if (cost != nullptr) ++cost->lppm_applications;
  // Algorithm 1 lines 8-10: walk the attacks until one re-identifies.
  // They all read one candidate, so POI and PIT share one stay extraction.
  return !attacks::any_reidentifies(
      attacks_, output, trace.user(),
      cost != nullptr ? &cost->attack_invocations : nullptr);
}

std::optional<double> MoodEngine::price(const mobility::Trace& trace,
                                        const mobility::Trace& output,
                                        ProtectionResult* cost) const {
  if (!protects(trace, output, cost)) return std::nullopt;  // it failed
  return metric_->distortion(trace, output);
}

std::optional<MoodEngine::Candidate> MoodEngine::try_mechanism(
    const lppm::Lppm& mechanism, ProtectionLevel level,
    const mobility::Trace& trace, ProtectionResult* cost) const {
  mobility::Trace output =
      lppm::apply_keyed(mechanism, trace, owner_stream(trace));
  const std::optional<double> distortion = price(trace, output, cost);
  if (!distortion) return std::nullopt;
  return Candidate{mechanism.name(), level, std::move(output), *distortion};
}

std::optional<MoodEngine::Candidate> MoodEngine::search(
    const mobility::Trace& trace, ProtectionResult* cost,
    std::vector<std::optional<double>>* singles) const {
  if (singles != nullptr) singles->assign(singles_.size(), std::nullopt);
  if (trace.empty()) return std::nullopt;
  const support::RngStream owner = owner_stream(trace);
  // Prefix-tree outputs by node. A level's outputs are freed once the next
  // level has read them.
  std::vector<mobility::Trace> outputs(nodes_.size());

  // ---- Single-LPPM pass (lines 4-14): keep the argmin-STD winner. A
  // failing single the composition pass extends keeps its output.
  std::optional<Candidate> best;
  for (std::size_t s = 0; s < singles_.size(); ++s) {
    const lppm::Lppm& single = *singles_[s];
    mobility::Trace output = lppm::apply_keyed(single, trace, owner);
    const std::optional<double> distortion = price(trace, output, cost);
    if (singles != nullptr) (*singles)[s] = distortion;
    if (!distortion) {
      if (single_nodes_[s] != kNoNode) {
        outputs[single_nodes_[s]] = std::move(output);
      }
      continue;
    }
    if (!best || *distortion < best->distortion) {
      best = Candidate{single.name(), ProtectionLevel::kSingle,
                       std::move(output), *distortion};
    }
  }
  if (best) return best;

  // ---- Composition pass (lines 16-26) over C \ L.
  if (config_.first_hit) {  // ablation mode: stop at the first hit
    for (const auto& composition : compositions_) {
      if (auto hit = try_mechanism(composition, ProtectionLevel::kComposition,
                                   trace, cost)) {
        return hit;
      }
    }
    return std::nullopt;
  }

  // Level by level over the prefix tree: a node's output depends only on
  // its prefix's output and its own stage stream, so each level fans out
  // over the shared pool. A failing candidate is dropped at once; a
  // protecting one is merged into `best` by (distortion, position), which
  // picks the serial strict-< scan's winner (the lowest position among
  // equal minima) in any finishing order.
  std::vector<std::pair<std::size_t, std::size_t>> costs(compositions_.size());
  std::size_t best_position = 0;
  std::mutex best_mutex;
  for (const std::vector<std::size_t>& level : levels_) {
    support::parallel_for(level.size(), [&](std::size_t j) {
      const PrefixNode& node = nodes_[level[j]];
      const mobility::Trace& previous =
          node.parent == kNoNode ? trace : outputs[node.parent];
      mobility::Trace output = node.composition->apply_stage(
          node.length - 1, previous, trace, owner);
      if (node.position != kNoNode) {
        ProtectionResult own;
        const std::optional<double> distortion = price(trace, output, &own);
        costs[node.position] = {own.lppm_applications, own.attack_invocations};
        if (distortion) {
          std::optional<Candidate> displaced = Candidate{
              node.composition->prefix_name(node.length),
              ProtectionLevel::kComposition,
              node.extended ? output : std::move(output), *distortion};
          {
            const std::lock_guard lock(best_mutex);
            if (!best || *distortion < best->distortion ||
                (*distortion == best->distortion &&
                 node.position < best_position)) {
              best.swap(displaced);
              best_position = node.position;
            }
          }
          // `displaced` (the old best, or this output) is freed outside the
          // lock.
        }
      }
      if (node.extended) outputs[level[j]] = std::move(output);
    });
    // This level's parents are read by no later level.
    for (const std::size_t id : level) {
      if (nodes_[id].parent != kNoNode) outputs[nodes_[id].parent] = {};
    }
  }
  if (cost != nullptr) {
    for (const auto& [applications, invocations] : costs) {
      cost->lppm_applications += applications;
      cost->attack_invocations += invocations;
    }
  }
  return best;
}

std::pair<const lppm::Lppm*, ProtectionLevel> MoodEngine::mechanism_named(
    const std::string& lppm_name) const {
  for (const auto* single : singles_) {
    if (single->name() == lppm_name) {
      return {single, ProtectionLevel::kSingle};
    }
  }
  for (const auto& composition : compositions_) {
    if (composition.name() == lppm_name) {
      return {&composition, ProtectionLevel::kComposition};
    }
  }
  throw support::PreconditionError("MoodEngine::recheck: unknown mechanism '" +
                                   lppm_name + "'");
}

std::optional<MoodEngine::Candidate> MoodEngine::recheck(
    const std::string& lppm_name, const mobility::Trace& trace,
    ProtectionResult* cost) const {
  if (trace.empty()) return std::nullopt;
  const auto [mechanism, level] = mechanism_named(lppm_name);
  return try_mechanism(*mechanism, level, trace, cost);
}

bool MoodEngine::still_protects(const std::string& lppm_name,
                                const mobility::Trace& trace,
                                ProtectionResult* cost) const {
  if (trace.empty()) return false;
  const lppm::Lppm& mechanism = *mechanism_named(lppm_name).first;
  return protects(trace,
                  lppm::apply_keyed(mechanism, trace, owner_stream(trace)),
                  cost);
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
