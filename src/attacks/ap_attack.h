#pragma once

/// \file ap_attack.h
/// AP-Attack [Maouche et al. 2017] (paper §4.1.1): profiles are heatmaps
/// over a fixed grid (800 m cells by default); the anonymous heatmap is
/// attributed to the known user minimising the Topsoe divergence. The paper
/// calls it "the most powerful attack currently known" and uses it alone
/// for the Fig. 6 experiment.
///
/// train() compiles every trained heatmap into its flat sorted form once
/// and indexes the population by cell: for every cell any trained heatmap
/// visits, a posting list of (entry, sqrt q) pairs in training order. A
/// query walks the postings of its own cells once, which sums every
/// entry's affinity BC = sum sqrt(p q) and with it the Hellinger lower
/// bound topsoe_affinity_lower_bound(BC) <= T (profiles/summaries.h).
/// Candidates are then priced with the exact bounded divergence in
/// ascending (bound, index) order, until a bound passes the pruning bound
/// (the owner's divergence for the targeted query, the best so far for
/// the argmin) or, in the targeted query, a candidate beats the owner.
///
/// The answers are decision-identical to the linear scans of
/// bounded_scan.h, which stay the oracle (QueryMode::kScan) and serve
/// populations below kIndexMinPopulation: both are order-independent
/// functions of the same exact divergences — the targeted query asks
/// whether some earlier entry ties the owner or some later one beats it,
/// the argmin takes the lexicographic minimum of (divergence, index) — and
/// a bound only skips an entry whose computed divergence it cannot exceed.
/// Queries are const and thread-safe: the per-query buffers are
/// thread-local and the counters are relaxed atomics.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "attacks/bounded_scan.h"
#include "geo/cell_grid.h"
#include "profiles/heatmap.h"

namespace mood::attacks {

/// Below this many trained users the AP attack answers by the plain
/// bounded scans: the posting pass and the candidate sort cost more than
/// the early-exiting exact divergences they would skip. Delegation
/// preserves decisions trivially (the scan *is* the definition) and the
/// counters keep their meaning: queries and exact evaluations are still
/// counted, prunes are zero.
inline constexpr std::size_t kIndexMinPopulation = 64;

/// Which machinery serves the AP attack's re-identification queries. Both
/// modes answer every query with the *same decision* — the scan exists so
/// the index can be validated against it (the tier-1 equivalence tests,
/// replay verification), never to trade accuracy for speed.
enum class QueryMode {
  /// Flat compiled profiles + linear branch-and-bound scans
  /// (bounded_scan.h) — prices candidates in training order, pruning with
  /// the best distance so far. The oracle for the index.
  kScan,
  /// The per-cell posting index: admissible lower bounds eliminate most
  /// candidates before any exact pricing; survivors are priced with the
  /// same bounded divergences. The production default.
  kIndex,
};

class ApAttack final : public Attack {
 public:
  /// The grid must be shared (same projection + cell size) with any LPPM
  /// reasoning about heatmaps so that cell boundaries agree.
  explicit ApAttack(geo::CellGrid grid) : grid_(std::move(grid)) {}

  [[nodiscard]] std::string name() const override { return "AP-Attack"; }

  void train(const std::vector<mobility::Trace>& background) override;

  [[nodiscard]] std::optional<mobility::UserId> reidentify(
      const mobility::Trace& anonymous_trace) const override;

  /// Reads the candidate's heatmap on this attack's grid. Index by
  /// default, linear scan in kScan mode.
  [[nodiscard]] bool reidentifies_target(
      const Candidate& candidate,
      const mobility::UserId& owner) const override;

  [[nodiscard]] std::size_t trained_users() const override {
    return compiled_.size();
  }

  /// Selects the query machinery (see QueryMode). Not thread-safe — flip
  /// only outside parallel sections.
  void set_query_mode(QueryMode mode) { mode_ = mode; }
  [[nodiscard]] IndexStats index_stats() const override {
    return counters_.stats();
  }

  /// The posting pass: sets `bounds` to one lower bound on
  /// topsoe_divergence(query, entry) per trained entry, in training order,
  /// exactly as the index prunes with it (+infinity for empty entries).
  /// Reuses `bounds`' capacity.
  void lower_bounds(const profiles::CompiledHeatmap& query,
                    std::vector<double>& bounds) const;

  [[nodiscard]] const geo::CellGrid& grid() const { return grid_; }

 private:
  [[nodiscard]] std::optional<mobility::UserId> index_argmin(
      const profiles::CompiledHeatmap& query) const;
  [[nodiscard]] bool index_is_first_argmin(
      const profiles::CompiledHeatmap& query, std::size_t owner_at) const;

  geo::CellGrid grid_;
  std::vector<std::pair<mobility::UserId, profiles::CompiledHeatmap>>
      compiled_;
  /// Posting index over compiled_ in CSR form, rebuilt by train(): the
  /// postings of cells[c] are [begin[c], begin[c + 1]) of entry (the
  /// entry's training index) and root (the square root of the entry's
  /// probability in that cell), in training order.
  struct Postings {
    std::vector<geo::CellIndex> cells;  ///< every visited cell, ascending
    std::vector<std::uint32_t> begin;   ///< cells.size() + 1 offsets
    std::vector<std::uint32_t> entry;
    std::vector<double> root;
    std::vector<std::uint32_t> empty_entries;  ///< heatmaps without cells
  } postings_;
  std::unordered_map<mobility::UserId, std::size_t> owner_index_;
  IndexCounters counters_;
  QueryMode mode_ = QueryMode::kIndex;
};

}  // namespace mood::attacks
