#include "profiles/heatmap.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "support/error.h"

namespace mood::profiles {

Heatmap Heatmap::from_trace(const mobility::Trace& trace,
                            const geo::CellGrid& grid) {
  Heatmap map;
  for (const auto& record : trace.records()) {
    map.add(grid.cell_of(record.position));
  }
  return map;
}

double Heatmap::probability(const geo::CellIndex& cell) const {
  if (total_ <= 0.0) return 0.0;
  const auto it = counts_.find(cell);
  return it == counts_.end() ? 0.0 : it->second / total_;
}

void Heatmap::add(const geo::CellIndex& cell, double count) {
  support::expects(count >= 0.0, "Heatmap::add: negative count");
  counts_[cell] += count;
  total_ += count;
}

std::vector<std::pair<geo::CellIndex, double>> Heatmap::ranked_cells() const {
  std::vector<std::pair<geo::CellIndex, double>> cells(counts_.begin(),
                                                       counts_.end());
  rank_cells(cells);
  return cells;
}

void rank_cells(std::vector<std::pair<geo::CellIndex, double>>& cells) {
  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
}

namespace {

/// Largest cell box counted densely: 16 KiB of 32-bit counts on the stack.
constexpr std::int64_t kDenseBoxCells = 4096;

/// Flat open-addressing cell -> count table with linear probing. A slot
/// whose count is 0 is empty; `used_` lists the occupied slots, so
/// reset() clears exactly what the last call touched.
class CellCounter {
 public:
  /// Forgets the previous call's cells.
  void reset() {
    for (const std::uint32_t slot : used_) slots_[slot].count = 0;
    used_.clear();
  }

  /// Adds `n` >= 1 visits to `cell`.
  void add(const geo::CellIndex& cell, std::uint32_t n) {
    if (2 * (used_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = geo::CellIndexHash{}(cell) & mask;
    while (slots_[slot].count != 0) {
      if (slots_[slot].cell == cell) {
        slots_[slot].count += n;
        return;
      }
      slot = (slot + 1) & mask;
    }
    slots_[slot] = Slot{cell, n};
    used_.push_back(static_cast<std::uint32_t>(slot));
  }

  /// The counted cells in ascending cell order.
  [[nodiscard]] std::vector<std::pair<geo::CellIndex, double>> sorted()
      const {
    std::vector<std::pair<geo::CellIndex, double>> counts;
    counts.reserve(used_.size());
    for (const std::uint32_t slot : used_) {
      counts.emplace_back(slots_[slot].cell,
                          static_cast<double>(slots_[slot].count));
    }
    std::sort(counts.begin(), counts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return counts;
  }

 private:
  static constexpr std::size_t kInitialSlots = 256;

  struct Slot {
    geo::CellIndex cell;
    std::uint32_t count = 0;
  };

  /// Doubles the table (power-of-two sizes, load at most one half) and
  /// re-probes every occupied slot into it.
  void grow() {
    std::vector<Slot> bigger(std::max(kInitialSlots, 2 * slots_.size()));
    std::vector<std::uint32_t> moved;
    moved.reserve(bigger.size() / 2);
    const std::size_t mask = bigger.size() - 1;
    for (const std::uint32_t old : used_) {
      std::size_t slot = geo::CellIndexHash{}(slots_[old].cell) & mask;
      while (bigger[slot].count != 0) slot = (slot + 1) & mask;
      bigger[slot] = slots_[old];
      moved.push_back(static_cast<std::uint32_t>(slot));
    }
    slots_.swap(bigger);
    used_.swap(moved);
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> used_;
};

/// The calling thread's counter, shared by both cell_counts forms. Per
/// thread, so concurrent callers share nothing.
CellCounter& thread_counter() {
  thread_local CellCounter counter;
  return counter;
}

/// Counts the cells cell_at(0..n-1) in the calling thread's CellCounter.
template <typename CellAt>
std::vector<std::pair<geo::CellIndex, double>> count_in_table(
    std::size_t n, CellAt cell_at) {
  // Cleared on entry, not on exit: a call that throws midway leaves no
  // stale counts behind.
  CellCounter& counter = thread_counter();
  counter.reset();
  geo::CellIndex run_cell = cell_at(0);
  std::uint32_t run = 1;
  for (std::size_t i = 1; i < n; ++i) {
    const geo::CellIndex cell = cell_at(i);
    if (cell == run_cell) {
      ++run;
      continue;
    }
    counter.add(run_cell, run);
    run_cell = cell;
    run = 1;
  }
  counter.add(run_cell, run);
  return counter.sorted();
}

/// Counts the cells cell_at(0..n-1), n >= 1, whose box is [lo, hi]:
/// densely on the stack when the box holds at most kDenseBoxCells cells,
/// else in the table. The dense count also checks each cell against the
/// box, so a coordinate beyond the grid's 32-bit range, whose cell the
/// box does not bound, falls back to the table too.
template <typename CellAt>
std::vector<std::pair<geo::CellIndex, double>> count_cells(
    std::size_t n, CellAt cell_at, geo::CellIndex lo, geo::CellIndex hi) {
  support::expects(n <= std::numeric_limits<std::uint32_t>::max(),
                   "cell_counts: too many records for 32-bit counts");
  const std::int64_t width = std::int64_t{hi.ix} - lo.ix + 1;
  const std::int64_t height = std::int64_t{hi.iy} - lo.iy + 1;
  if (width <= 0 || height <= 0 || width * height > kDenseBoxCells) {
    return count_in_table(n, cell_at);
  }
  // Slot (ix - lo.ix) * height + (iy - lo.iy): ascending slots are
  // ascending cells. Only the box's slots are zeroed.
  std::array<std::uint32_t, kDenseBoxCells> counts;
  std::fill_n(counts.begin(), width * height, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const geo::CellIndex cell = cell_at(i);
    const std::int64_t column = std::int64_t{cell.ix} - lo.ix;
    const std::int64_t row = std::int64_t{cell.iy} - lo.iy;
    if (column < 0 || column >= width || row < 0 || row >= height) {
      return count_in_table(n, cell_at);
    }
    ++counts[column * height + row];
  }
  std::vector<std::pair<geo::CellIndex, double>> pairs;
  pairs.reserve(static_cast<std::size_t>(
      std::count_if(counts.begin(), counts.begin() + width * height,
                    [](std::uint32_t count) { return count != 0; })));
  for (std::int64_t column = 0; column < width; ++column) {
    for (std::int64_t row = 0; row < height; ++row) {
      const std::uint32_t count = counts[column * height + row];
      if (count == 0) continue;
      pairs.emplace_back(
          geo::CellIndex{static_cast<std::int32_t>(lo.ix + column),
                         static_cast<std::int32_t>(lo.iy + row)},
          static_cast<double>(count));
    }
  }
  return pairs;
}

}  // namespace

std::vector<std::pair<geo::CellIndex, double>> cell_counts(
    std::span<const mobility::Record> records, const geo::CellGrid& grid) {
  if (records.empty()) return {};
  // cell_of's ix reads only the longitude and its iy only the latitude,
  // each through monotone rounded steps, so the cells of the extreme
  // coordinates bound every record's cell.
  geo::GeoPoint low = records.front().position;
  geo::GeoPoint high = low;
  for (const mobility::Record& record : records) {
    low.lat = std::min(low.lat, record.position.lat);
    low.lon = std::min(low.lon, record.position.lon);
    high.lat = std::max(high.lat, record.position.lat);
    high.lon = std::max(high.lon, record.position.lon);
  }
  return count_cells(
      records.size(),
      [&](std::size_t i) { return grid.cell_of(records[i].position); },
      grid.cell_of(low), grid.cell_of(high));
}

std::vector<std::pair<geo::CellIndex, double>> cell_counts(
    std::span<const geo::CellIndex> cells) {
  if (cells.empty()) return {};
  geo::CellIndex low = cells.front();
  geo::CellIndex high = low;
  for (const geo::CellIndex& cell : cells) {
    low.ix = std::min(low.ix, cell.ix);
    low.iy = std::min(low.iy, cell.iy);
    high.ix = std::max(high.ix, cell.ix);
    high.iy = std::max(high.iy, cell.iy);
  }
  return count_cells(
      cells.size(), [&](std::size_t i) { return cells[i]; }, low, high);
}

double topsoe_divergence(const Heatmap& a, const Heatmap& b) {
  if (a.empty() || b.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  // Terms are non-zero only where p or q is non-zero. One scan of `a` with
  // a single find into `b` per cell covers every shared and a-only cell;
  // the b-only cells each contribute q ln 2, and since b's probabilities
  // sum to one their total is ln 2 times the mass of b NOT shared with a —
  // no second scan (nor the former contains() + find() double lookup).
  double divergence = 0.0;
  double shared_q_mass = 0.0;
  bool any_shared = false;
  auto term = [](double p, double q) {
    if (p <= 0.0) return 0.0;
    return p * std::log(2.0 * p / (p + q));
  };
  for (const auto& [cell, count] : a.counts()) {
    const double p = count / a.total();
    const auto it = b.counts().find(cell);
    if (it == b.counts().end()) {
      divergence += term(p, 0.0);
      continue;
    }
    const double q = it->second / b.total();
    divergence += term(p, q) + term(q, p);
    shared_q_mass += q;
    any_shared = true;
  }
  // Disjoint supports hit the 2 ln 2 ceiling *exactly* (both
  // distributions carry unit mass), so return the constant instead of an
  // order-dependent sum of per-cell roundings: whole populations tie at
  // the ceiling (an anonymous map matching nobody), and re-identification
  // must break that tie identically in every implementation.
  if (!any_shared) return 2.0 * std::log(2.0);
  // max() guards the fully-shared case, where rounding can push the
  // accumulated mass a hair past one.
  return divergence + std::max(0.0, 1.0 - shared_q_mass) * std::log(2.0);
}

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// p ln(2p); 0 for p = 0 (the limit).
double self_term(double p) { return p <= 0.0 ? 0.0 : p * std::log(2.0 * p); }

/// Compiles (cell, count) pairs already sorted by cell into the empty
/// `out` (reusing its capacity).
void compile_cells(const std::vector<std::pair<geo::CellIndex, double>>& counts,
                   double total, std::vector<CompiledHeatmapCell>& out) {
  out.reserve(counts.size());
  for (const auto& [cell, count] : counts) {
    const double p = count / total;
    out.push_back(
        CompiledHeatmapCell{cell, p, self_term(p), p * std::log(2.0)});
  }
}

}  // namespace

CompiledHeatmap::CompiledHeatmap(const Heatmap& source) {
  if (source.empty() || source.total() <= 0.0) return;
  std::vector<std::pair<geo::CellIndex, double>> counts(
      source.counts().begin(), source.counts().end());
  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  compile_cells(counts, source.total(), cells_);
}

CompiledHeatmap CompiledHeatmap::from_trace(const mobility::Trace& trace,
                                            const geo::CellGrid& grid) {
  CompiledHeatmap compiled;
  if (trace.empty()) return compiled;
  compile_cells(cell_counts(trace.records(), grid),
                static_cast<double>(trace.size()), compiled.cells_);
  return compiled;
}

double topsoe_divergence(const CompiledHeatmap& a, const CompiledHeatmap& b) {
  return topsoe_divergence_bounded(a, b, kInfinity);
}

double topsoe_divergence_bounded(const CompiledHeatmap& a,
                                 const CompiledHeatmap& b, double bound) {
  if (a.empty() || b.empty()) return kInfinity;
  const auto& ca = a.cells();
  const auto& cb = b.cells();
  // Disjoint supports return the 2 ln 2 ceiling exactly (see the legacy
  // overload). Two consequences for the bound logic: a bound at or within
  // rounding of the ceiling cannot prune soundly (the running sum may
  // overshoot the constant by an ulp before the merge proves
  // disjointness), so such bounds finish the merge — they would prune
  // next to nothing anyway, every divergence lies at or below the
  // ceiling. Bounds clearly below the ceiling bail as usual: a disjoint
  // pair's final value is the ceiling, which exceeds them regardless.
  const double ceiling = 2.0 * std::log(2.0);
  const bool can_bail = bound < ceiling * (1.0 - 1e-14);
  double divergence = 0.0;
  bool any_shared = false;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ca.size() && j < cb.size()) {
    if (ca[i].cell == cb[j].cell) {
      // Shared cell: p ln(2p/(p+q)) + q ln(2q/(p+q))
      //            = p ln(2p) + q ln(2q) - (p+q) ln(p+q).
      // Non-negative by the log-sum inequality; the max() enforces that
      // under rounding too (p ~ q can produce a ~1e-17 negative), so the
      // running sum is monotone and the bound check below never bails on
      // a pair whose exact value is still within the bound.
      const double pq = ca[i].probability + cb[j].probability;
      divergence += std::max(
          0.0, ca[i].self_term + cb[j].self_term - pq * std::log(pq));
      any_shared = true;
      ++i;
      ++j;
    } else if (ca[i].cell < cb[j].cell) {
      divergence += ca[i].solo_term;
      ++i;
    } else {
      divergence += cb[j].solo_term;
      ++j;
    }
    if (can_bail && divergence > bound) return kInfinity;
  }
  if (!any_shared) return ceiling;
  for (; i < ca.size(); ++i) {
    divergence += ca[i].solo_term;
    if (divergence > bound) return kInfinity;
  }
  for (; j < cb.size(); ++j) {
    divergence += cb[j].solo_term;
    if (divergence > bound) return kInfinity;
  }
  return divergence;
}

}  // namespace mood::profiles
