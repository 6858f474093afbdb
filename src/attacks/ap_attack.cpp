#include "attacks/ap_attack.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "profiles/summaries.h"
#include "support/error.h"

namespace mood::attacks {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-thread query buffers: the bounds of every entry, then the
/// (bound, index) pairs worth pricing. Thread-local, so concurrent const
/// queries share nothing, and sized to the population once per thread.
struct QueryBuffers {
  std::vector<double> bounds;
  std::vector<std::pair<double, std::uint32_t>> candidates;
};

QueryBuffers& query_buffers() {
  thread_local QueryBuffers buffers;
  return buffers;
}

}  // namespace

void ApAttack::train(const std::vector<mobility::Trace>& background) {
  support::expects(
      background.size() < std::numeric_limits<std::uint32_t>::max(),
      "ApAttack::train: population exceeds the posting index");
  compiled_.clear();
  compiled_.reserve(background.size());
  for (const auto& trace : background) {
    compiled_.emplace_back(trace.user(),
                           profiles::CompiledHeatmap::from_trace(trace, grid_));
  }
  owner_index_ = first_occurrences(compiled_);

  // Two passes over the compiled heatmaps, whose cells are sorted: count
  // the postings of every distinct cell, then fill them in training order.
  Postings postings;
  std::size_t total = 0;
  for (std::uint32_t i = 0; i < compiled_.size(); ++i) {
    const auto& cells = compiled_[i].second.cells();
    if (cells.empty()) postings.empty_entries.push_back(i);
    total += cells.size();
  }
  postings.cells.reserve(total);
  for (const auto& [user, map] : compiled_) {
    for (const auto& cell : map.cells()) postings.cells.push_back(cell.cell);
  }
  std::sort(postings.cells.begin(), postings.cells.end());
  postings.cells.erase(
      std::unique(postings.cells.begin(), postings.cells.end()),
      postings.cells.end());
  postings.cells.shrink_to_fit();
  const auto position = [&](auto& from, const geo::CellIndex& cell) {
    from = std::lower_bound(from, postings.cells.cend(), cell);
    return static_cast<std::size_t>(from - postings.cells.cbegin());
  };
  postings.begin.assign(postings.cells.size() + 1, 0);
  for (const auto& [user, map] : compiled_) {
    auto from = postings.cells.cbegin();
    for (const auto& cell : map.cells()) {
      ++postings.begin[position(from, cell.cell) + 1];
    }
  }
  for (std::size_t c = 1; c < postings.begin.size(); ++c) {
    postings.begin[c] += postings.begin[c - 1];
  }
  postings.entry.resize(total);
  postings.root.resize(total);
  std::vector<std::uint32_t> next(postings.begin.begin(),
                                  postings.begin.end() - 1);
  for (std::uint32_t i = 0; i < compiled_.size(); ++i) {
    auto from = postings.cells.cbegin();
    for (const auto& cell : compiled_[i].second.cells()) {
      const std::uint32_t k = next[position(from, cell.cell)]++;
      postings.entry[k] = i;
      postings.root[k] = std::sqrt(cell.probability);
    }
  }
  postings_ = std::move(postings);
  counters_.count_build();
}

void ApAttack::lower_bounds(const profiles::CompiledHeatmap& query,
                            std::vector<double>& bounds) const {
  // `bounds` accumulates each entry's affinity first. Query cells are
  // sorted, so every entry sums its shared cells in ascending order.
  bounds.assign(compiled_.size(), 0.0);
  const Postings& p = postings_;
  auto cell = p.cells.cbegin();
  for (const auto& q : query.cells()) {
    cell = std::lower_bound(cell, p.cells.cend(), q.cell);
    if (cell == p.cells.cend()) break;
    if (*cell != q.cell) continue;
    const auto c = static_cast<std::size_t>(cell - p.cells.cbegin());
    const double root = std::sqrt(q.probability);
    for (std::uint32_t k = p.begin[c]; k < p.begin[c + 1]; ++k) {
      bounds[p.entry[k]] += root * p.root[k];
    }
  }
  for (double& bound : bounds) {
    bound = profiles::topsoe_affinity_lower_bound(bound);
  }
  for (const std::uint32_t i : p.empty_entries) bounds[i] = kInf;
}

std::optional<mobility::UserId> ApAttack::index_argmin(
    const profiles::CompiledHeatmap& query) const {
  QueryBuffers& buffers = query_buffers();
  lower_bounds(query, buffers.bounds);
  buffers.candidates.clear();
  for (std::uint32_t i = 0; i < buffers.bounds.size(); ++i) {
    if (buffers.bounds[i] < kInf) {
      buffers.candidates.emplace_back(buffers.bounds[i], i);
    }
  }
  std::sort(buffers.candidates.begin(), buffers.candidates.end());
  // The scan's first strict minimum is the lexicographic minimum of
  // (divergence, index); once a bound passes the best divergence, no
  // later candidate can reach it.
  double best = kInf;
  std::size_t best_at = compiled_.size();
  std::uint64_t evals = 0;
  for (const auto& [bound, i] : buffers.candidates) {
    if (bound > best) break;
    ++evals;
    const double d =
        profiles::topsoe_divergence_bounded(query, compiled_[i].second, best);
    if (d < best || (d == best && i < best_at)) {
      best = d;
      best_at = i;
    }
  }
  counters_.count_query(compiled_.size() - evals, evals);
  if (best_at == compiled_.size()) return std::nullopt;
  return compiled_[best_at].first;
}

bool ApAttack::index_is_first_argmin(const profiles::CompiledHeatmap& query,
                                     std::size_t owner_at) const {
  std::uint64_t evals = 1;
  const double target =
      profiles::topsoe_divergence(query, compiled_[owner_at].second);
  if (target == kInf) {
    counters_.count_query(0, evals);
    return false;
  }
  QueryBuffers& buffers = query_buffers();
  lower_bounds(query, buffers.bounds);
  // A candidate whose bound exceeds the target can neither tie (earlier)
  // nor beat (later) the owner. The rest are priced most promising first.
  buffers.candidates.clear();
  for (std::uint32_t i = 0; i < buffers.bounds.size(); ++i) {
    if (i != owner_at && buffers.bounds[i] <= target) {
      buffers.candidates.emplace_back(buffers.bounds[i], i);
    }
  }
  const std::uint64_t pruned =
      compiled_.size() - 1 - buffers.candidates.size();
  std::sort(buffers.candidates.begin(), buffers.candidates.end());
  bool owns = true;
  for (const auto& [bound, i] : buffers.candidates) {
    ++evals;
    const double d =
        profiles::topsoe_divergence_bounded(query, compiled_[i].second, target);
    if (i < owner_at ? d <= target : d < target) {
      owns = false;
      break;
    }
  }
  counters_.count_query(pruned, evals);
  return owns;
}

std::optional<mobility::UserId> ApAttack::reidentify(
    const mobility::Trace& anonymous_trace) const {
  const auto anonymous_map =
      profiles::CompiledHeatmap::from_trace(anonymous_trace, grid_);
  if (anonymous_map.empty()) return std::nullopt;
  const auto bounded = [&](const profiles::CompiledHeatmap& map,
                           double bound) {
    return profiles::topsoe_divergence_bounded(anonymous_map, map, bound);
  };
  if (mode_ == QueryMode::kScan) return scan_argmin(compiled_, bounded);
  if (compiled_.size() >= kIndexMinPopulation) {
    return index_argmin(anonymous_map);
  }
  return counted_scan_argmin(compiled_, bounded, counters_);
}

bool ApAttack::reidentifies_target(const Candidate& candidate,
                                   const mobility::UserId& owner) const {
  const profiles::CompiledHeatmap& anonymous_map = candidate.heatmap(grid_);
  if (anonymous_map.empty()) return false;
  const auto exact = [&](const profiles::CompiledHeatmap& map) {
    return profiles::topsoe_divergence(anonymous_map, map);
  };
  const auto bounded = [&](const profiles::CompiledHeatmap& map,
                           double bound) {
    return profiles::topsoe_divergence_bounded(anonymous_map, map, bound);
  };
  if (mode_ == QueryMode::kScan) {
    return scan_is_first_argmin(compiled_, owner, exact, bounded);
  }
  if (compiled_.size() < kIndexMinPopulation) {
    return counted_scan_is_first_argmin(compiled_, owner_index_, owner, exact,
                                        bounded, counters_);
  }
  const auto it = owner_index_.find(owner);
  if (it == owner_index_.end()) {
    counters_.count_query(0, 0);
    return false;
  }
  return index_is_first_argmin(anonymous_map, it->second);
}

}  // namespace mood::attacks
