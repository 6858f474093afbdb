#pragma once

/// \file heatmap_confusion.h
/// HMC — Heat Map Confusion [Maouche et al., IMWUT 2018]: perturbation +
/// dummy hybrid designed specifically against re-identification attacks.
///
/// The user's trace is viewed as a heatmap on the shared grid. The
/// mechanism picks a *donor* — another user from a pool of background
/// heatmaps — and re-locates the trace so its heatmap looks like the
/// donor's: the k-th hottest cell of the user maps onto the k-th hottest
/// cell of the donor, and each record keeps its offset inside the cell and
/// its timestamp.
///
/// Faithful imperfection — the alteration is *utility-budgeted*, as in the
/// original ("the objective ... is to preserve a certain level of data
/// utility"). Relocating the mass fraction w of the records by a distance
/// d costs w*d metres of expected displacement. HMC plans an alignment of
/// the hottest cells (up to `hot_coverage` of the mass and
/// `max_mapped_cells` cells) onto the donor whose plan is cheapest; if
/// even that cheapest plan would cost more than `distortion_budget_m`, the
/// mechanism refuses and returns the trace unchanged — imitating anyone
/// would destroy the data. Cells outside the plan pass through unchanged.
///
/// The refusals and the residue are exactly what keeps a minority of users
/// re-identifiable in the paper's Fig. 6/7: users whose mobility lives far
/// from every potential donor (no affordable plan — the orphan archetype),
/// users with secondary places below the coverage cut (POI/PIT catch
/// them), and broad flat fleets like Cabspotting where the cell cap binds
/// (Fig. 7d).

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "geo/cell_grid.h"
#include "lppm/lppm.h"
#include "profiles/heatmap.h"

namespace mood::lppm {

/// Immutable pool of candidate donor heatmaps (one per known user).
class DonorPool {
 public:
  /// Builds the pool from background traces on the given grid.
  DonorPool(const std::vector<mobility::Trace>& background,
            const geo::CellGrid& grid);

  struct Entry {
    mobility::UserId user;
    profiles::Heatmap heatmap;
    /// Donor cells pre-ranked by decreasing count (computed once).
    std::vector<std::pair<geo::CellIndex, double>> ranked;
  };

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

 private:
  std::vector<Entry> entries_;
};

class HeatmapConfusion final : public Lppm {
 public:
  /// Preconditions: pool non-null and non-empty; hot_coverage in (0, 1];
  /// max_mapped_cells >= 1; distortion_budget_m > 0. Cell size defaults to
  /// the paper's 800 m (the grid arrives ready-made).
  HeatmapConfusion(geo::CellGrid grid, std::shared_ptr<const DonorPool> pool,
                   double hot_coverage = 0.85,
                   std::size_t max_mapped_cells = 32,
                   double distortion_budget_m = 5000.0);

  [[nodiscard]] std::string name() const override { return "HMC"; }

  [[nodiscard]] mobility::Trace apply(const mobility::Trace& trace,
                                      support::RngStream rng) const override;

  /// Cost of imitating `donor`: sum over the user's ranked cells (up to
  /// the coverage/cell budgets) of mass_fraction x distance from the
  /// user's cell to the rank-aligned donor cell, in expected metres of
  /// displacement per record.
  [[nodiscard]] double relocation_cost(
      const std::vector<std::pair<geo::CellIndex, double>>& user_cells,
      double user_total, const DonorPool::Entry& donor) const;

  /// The donor chosen for a heatmap (exposed for tests/analysis): the
  /// first non-self pool entry, in pool order, with minimal
  /// relocation_cost. Returns nullptr if no eligible donor exists.
  ///
  /// Branch-and-bound: every cost term is non-negative and the terms are
  /// summed in relocation_cost's order from bit-identical haversines
  /// (geo::TrigPoint), so a donor is dropped as soon as its partial cost
  /// is no longer below the best so far — exactly the donor, and the
  /// cost, that the exhaustive scan of relocation_cost would pick.
  [[nodiscard]] const DonorPool::Entry* choose_donor(
      const profiles::Heatmap& user_map, const mobility::UserId& owner) const;

 private:
  /// The donor-independent half of a plan: the user's hottest cells that
  /// the coverage/cell budgets select, in rank order.
  struct UserPlan {
    double total = 0.0;  ///< user_total; <= 0 prices every donor at inf
    std::vector<geo::CellIndex> cells;
    std::vector<double> masses;           ///< count / user_total
    std::vector<geo::TrigPoint> centers;  ///< trig_point(cell_center(cell))
  };

  struct Choice {
    const DonorPool::Entry* donor = nullptr;
    /// relocation_cost of `donor`; infinity while there is none.
    double cost = std::numeric_limits<double>::infinity();
  };

  [[nodiscard]] UserPlan plan_for(const profiles::Heatmap& user_map) const;
  [[nodiscard]] Choice cheapest_donor(const UserPlan& plan,
                                      const mobility::UserId& owner) const;

  geo::CellGrid grid_;
  std::shared_ptr<const DonorPool> pool_;
  double hot_coverage_;
  std::size_t max_mapped_cells_;
  double distortion_budget_m_;
  /// Centres of the donor ranks a plan can read, flat in pool order:
  /// entry i owns donor_centers_[donor_offsets_[i] .. donor_offsets_[i+1]),
  /// its first min(max_mapped_cells, ranked.size()) cells (`rank % n`
  /// never reaches further).
  std::vector<geo::TrigPoint> donor_centers_;
  std::vector<std::size_t> donor_offsets_;
};

}  // namespace mood::lppm
