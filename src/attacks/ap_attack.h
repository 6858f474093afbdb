#pragma once

/// \file ap_attack.h
/// AP-Attack [Maouche et al. 2017] (paper §4.1.1): profiles are heatmaps
/// over a fixed grid (800 m cells by default); the anonymous heatmap is
/// attributed to the known user minimising the Topsoe divergence. The paper
/// calls it "the most powerful attack currently known" and uses it alone
/// for the Fig. 6 experiment.
///
/// train() compiles every trained heatmap into its flat sorted form once
/// and indexes the population (PopulationIndex over bucketed-mass
/// summaries); queries build the anonymous heatmap run-collapsed (no hash
/// map) and, by default, prune candidates through the index before
/// pricing survivors with branch-and-bound bounded divergences — see
/// population_index.h and bounded_scan.h. The linear scans stay available
/// as the index's oracle (QueryMode::kScan).

#include <string>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "attacks/population_index.h"
#include "geo/cell_grid.h"
#include "profiles/heatmap.h"

namespace mood::attacks {

class ApAttack final : public Attack {
 public:
  /// The grid must be shared (same projection + cell size) with any LPPM
  /// reasoning about heatmaps so that cell boundaries agree.
  explicit ApAttack(geo::CellGrid grid) : grid_(std::move(grid)) {}

  [[nodiscard]] std::string name() const override { return "AP-Attack"; }

  void train(const std::vector<mobility::Trace>& background) override;

  [[nodiscard]] std::optional<mobility::UserId> reidentify(
      const mobility::Trace& anonymous_trace) const override;

  [[nodiscard]] bool reidentifies_target(
      const mobility::Trace& anonymous_trace,
      const mobility::UserId& owner) const override;

  [[nodiscard]] std::size_t trained_users() const override {
    return compiled_.size();
  }

  void set_query_mode(QueryMode mode) override { mode_ = mode; }
  [[nodiscard]] QueryMode query_mode() const override { return mode_; }
  [[nodiscard]] IndexStats index_stats() const override {
    return index_.stats();
  }

  /// Compiles the anonymous-side heatmap exactly as the optimized queries
  /// do internally. Exposed so the streaming gateway can maintain it
  /// incrementally (CompiledHeatmap::apply_update) instead of recompiling
  /// per decision.
  [[nodiscard]] profiles::CompiledHeatmap compile_anonymous(
      const mobility::Trace& trace) const {
    return profiles::CompiledHeatmap::from_trace(trace, grid_);
  }

  /// Targeted query over a pre-compiled anonymous heatmap. Decision-
  /// identical to reidentifies_target(trace, owner) whenever
  /// `anonymous_map` carries the same cells as compile_anonymous(trace).
  /// Index by default, linear scan in kScan mode.
  [[nodiscard]] bool reidentifies_compiled(
      const profiles::CompiledHeatmap& anonymous_map,
      const mobility::UserId& owner) const;

  [[nodiscard]] const geo::CellGrid& grid() const { return grid_; }

 private:
  geo::CellGrid grid_;
  std::vector<std::pair<mobility::UserId, profiles::CompiledHeatmap>>
      compiled_;
  /// Pruning index over compiled_; rebuilt by train().
  PopulationIndex<ApIndexTraits> index_;
  QueryMode mode_ = QueryMode::kIndex;
};

}  // namespace mood::attacks
