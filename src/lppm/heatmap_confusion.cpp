#include "lppm/heatmap_confusion.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "profiles/summaries.h"
#include "support/error.h"

namespace mood::lppm {

DonorPool::DonorPool(const std::vector<mobility::Trace>& background,
                     const geo::CellGrid& grid) {
  entries_.reserve(background.size());
  for (const auto& trace : background) {
    Entry entry;
    entry.user = trace.user();
    entry.heatmap = profiles::Heatmap::from_trace(trace, grid);
    entry.ranked = entry.heatmap.ranked_cells();
    entries_.push_back(std::move(entry));
  }
}

HeatmapConfusion::HeatmapConfusion(geo::CellGrid grid,
                                   std::shared_ptr<const DonorPool> pool,
                                   double hot_coverage,
                                   std::size_t max_mapped_cells,
                                   double distortion_budget_m)
    : grid_(std::move(grid)),
      pool_(std::move(pool)),
      hot_coverage_(hot_coverage),
      max_mapped_cells_(max_mapped_cells),
      distortion_budget_m_(distortion_budget_m) {
  support::expects(pool_ != nullptr && !pool_->empty(),
                   "HMC: donor pool must be non-empty");
  support::expects(hot_coverage > 0.0 && hot_coverage <= 1.0,
                   "HMC: hot_coverage must be in (0, 1]");
  support::expects(max_mapped_cells >= 1,
                   "HMC: max_mapped_cells must be >= 1");
  support::expects(distortion_budget_m > 0.0,
                   "HMC: distortion budget must be positive");
  const auto& entries = pool_->entries();
  donor_offsets_.reserve(entries.size() + 1);
  donor_offsets_.push_back(0);
  for (const auto& entry : entries) {
    donor_offsets_.push_back(donor_offsets_.back() +
                             std::min(max_mapped_cells_, entry.ranked.size()));
  }
  donor_centers_.reserve(donor_offsets_.back());  // exact: no slack
  donor_units_.reserve(donor_offsets_.back());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::size_t readable = donor_offsets_[i + 1] - donor_offsets_[i];
    for (std::size_t rank = 0; rank < readable; ++rank) {
      donor_centers_.push_back(
          geo::trig_point(grid_.cell_center(entries[i].ranked[rank].first)));
      donor_units_.push_back(geo::unit_vector(donor_centers_.back()));
    }
  }
}

template <typename Term>
double HeatmapConfusion::sum_over_plan(
    const std::vector<std::pair<geo::CellIndex, double>>& user_cells,
    double user_total, const DonorPool::Entry& donor, Term term) const {
  if (donor.ranked.empty() || user_total <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  double sum = 0.0;
  double covered = 0.0;
  const double target = hot_coverage_ * user_total;
  for (std::size_t rank = 0;
       rank < user_cells.size() && rank < max_mapped_cells_ &&
       covered < target;
       ++rank) {
    const auto& [cell, count] = user_cells[rank];
    const auto& donor_cell = donor.ranked[rank % donor.ranked.size()].first;
    const double mass = count / user_total;
    sum += mass * term(grid_.cell_center(cell), grid_.cell_center(donor_cell));
    covered += count;
  }
  return sum;
}

double HeatmapConfusion::relocation_cost(
    const std::vector<std::pair<geo::CellIndex, double>>& user_cells,
    double user_total, const DonorPool::Entry& donor) const {
  return sum_over_plan(user_cells, user_total, donor,
                       [](const geo::GeoPoint& a, const geo::GeoPoint& b) {
                         return geo::haversine_m(a, b);
                       });
}

double HeatmapConfusion::relocation_lower_bound(
    const std::vector<std::pair<geo::CellIndex, double>>& user_cells,
    double user_total, const DonorPool::Entry& donor) const {
  return sum_over_plan(
      user_cells, user_total, donor,
      [](const geo::GeoPoint& a, const geo::GeoPoint& b) {
        return profiles::deflate_bound(
            geo::chord_m(geo::unit_vector(geo::trig_point(a)),
                         geo::unit_vector(geo::trig_point(b))),
            profiles::kBallAbsMarginM);
      });
}

HeatmapConfusion::UserPlan HeatmapConfusion::plan_for(
    const std::vector<std::pair<geo::CellIndex, double>>& ranked,
    double total) const {
  // The ranks relocation_cost walks: the loop bounds do not depend on the
  // donor, so the plan's masses and centres are computed once.
  UserPlan plan;
  plan.total = total;
  if (plan.total <= 0.0) return plan;
  double covered = 0.0;
  const double target = hot_coverage_ * plan.total;
  for (std::size_t rank = 0;
       rank < ranked.size() && rank < max_mapped_cells_ && covered < target;
       ++rank) {
    const auto& [cell, count] = ranked[rank];
    plan.cells.push_back(cell);
    plan.masses.push_back(count / plan.total);
    plan.centers.push_back(geo::trig_point(grid_.cell_center(cell)));
    plan.units.push_back(geo::unit_vector(plan.centers.back()));
    covered += count;
  }
  return plan;
}

HeatmapConfusion::Choice HeatmapConfusion::cheapest_donor(
    const UserPlan& plan, const mobility::UserId& owner) const {
  // Filter and refine. Stage 1 sums relocation_lower_bound's terms, each
  // at most the haversine term it stands for, and drops the donor once
  // that partial bound reaches the best cost: its exact cost can only be
  // higher. Stage 2 is relocation_cost's sum, term for term, cut off the
  // same way. Terms are non-negative, so partial sums only grow.
  Choice best;
  if (plan.total <= 0.0) return best;  // every donor costs infinity
  const std::size_t ranks = plan.masses.size();
  const auto& entries = pool_->entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& entry = entries[i];
    if (entry.user == owner) continue;  // never donate to yourself
    const std::size_t n = entry.ranked.size();
    if (n == 0) continue;  // infinite cost: never strictly below the best
    const geo::UnitVector* units = donor_units_.data() + donor_offsets_[i];
    double bound = 0.0;
    for (std::size_t rank = 0, d = 0; rank < ranks; ++rank) {
      bound += plan.masses[rank] *
               profiles::deflate_bound(geo::chord_m(plan.units[rank], units[d]),
                                       profiles::kBallAbsMarginM);
      if (!(bound < best.cost)) break;
      if (++d == n) d = 0;  // rank % n without the division
    }
    if (!(bound < best.cost)) continue;  // cannot win: no haversine priced
    const geo::TrigPoint* centers = donor_centers_.data() + donor_offsets_[i];
    double cost = 0.0;
    for (std::size_t rank = 0, d = 0; rank < ranks; ++rank) {
      cost += plan.masses[rank] *
              geo::haversine_m(plan.centers[rank], centers[d]);
      if (!(cost < best.cost)) break;
      if (++d == n) d = 0;
    }
    if (cost < best.cost) best = Choice{&entry, cost};
  }
  return best;
}

const DonorPool::Entry* HeatmapConfusion::choose_donor(
    const profiles::Heatmap& user_map, const mobility::UserId& owner) const {
  return cheapest_donor(plan_for(user_map.ranked_cells(), user_map.total()),
                        owner)
      .donor;
}

mobility::Trace HeatmapConfusion::apply(const mobility::Trace& trace,
                                        support::RngStream /*rng*/) const {
  if (trace.empty()) return trace;
  // One projection per record: its local point and cell feed both the
  // count and the relocation below.
  const auto& records = trace.records();
  std::vector<geo::EnuPoint> locals;
  std::vector<geo::CellIndex> cells;
  locals.reserve(records.size());
  cells.reserve(records.size());
  for (const auto& record : records) {
    locals.push_back(grid_.projection().to_enu(record.position));
    cells.push_back(grid_.cell_of(locals.back()));
  }
  // The user's cells hottest first, counted without a Heatmap: the same
  // (cell, count) pairs in the same order as Heatmap::ranked_cells.
  auto ranked = profiles::cell_counts(cells);
  profiles::rank_cells(ranked);
  const UserPlan plan = plan_for(ranked, static_cast<double>(trace.size()));
  const Choice choice = cheapest_donor(plan, trace.user());
  if (choice.donor == nullptr) {
    return trace;  // degenerate pool: nothing to confuse with
  }

  // Feasibility: if even the cheapest plan exceeds the distortion budget,
  // refuse — imitating anyone would cost more utility than the mechanism
  // is allowed to spend. (This is how orphan users escape HMC.)
  if (choice.cost > distortion_budget_m_) return trace;

  // Execute the plan: align the user's hottest cells onto the donor's,
  // rank by rank, up to the coverage target and the cell cap. At most
  // max_mapped_cells entries, so a sorted vector beats a hash map.
  const auto& donor_ranked = choice.donor->ranked;
  std::vector<std::pair<geo::CellIndex, geo::CellIndex>> mapping;
  mapping.reserve(plan.cells.size());
  for (std::size_t rank = 0; rank < plan.cells.size(); ++rank) {
    mapping.emplace_back(plan.cells[rank],
                         donor_ranked[rank % donor_ranked.size()].first);
  }
  std::sort(mapping.begin(), mapping.end());

  std::vector<mobility::Record> out;
  out.reserve(trace.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const mobility::Record& record = records[i];
    const geo::CellIndex& cell = cells[i];
    const auto mapped = std::lower_bound(
        mapping.begin(), mapping.end(), cell,
        [](const auto& entry, const geo::CellIndex& c) {
          return entry.first < c;
        });
    if (mapped == mapping.end() || mapped->first != cell) {
      out.push_back(record);  // unmapped cell: residual leakage by design
      continue;
    }
    const geo::EnuPoint offset = grid_.offset_from(cell, locals[i]);
    out.push_back(mobility::Record{grid_.point_in_cell(mapped->second, offset),
                                   record.time});
  }
  return mobility::Trace(trace.user(), std::move(out));
}

}  // namespace mood::lppm
