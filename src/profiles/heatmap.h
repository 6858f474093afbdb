#pragma once

/// \file heatmap.h
/// Heatmap mobility profile (Fig. 1, right): visit counts aggregated over a
/// fixed cell grid (800 m cells in the paper). AP-attack [Maouche et al.
/// 2017] matches anonymous heatmaps to known users with the Topsoe
/// divergence; HMC [Maouche et al. 2018] aligns a user's heatmap onto a
/// donor's to confuse that matching.

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geo/cell_grid.h"
#include "mobility/record.h"
#include "mobility/trace.h"

namespace mood::profiles {

/// Sparse cell -> count map over a shared CellGrid.
class Heatmap {
 public:
  using CountMap =
      std::unordered_map<geo::CellIndex, double, geo::CellIndexHash>;

  Heatmap() = default;

  /// Builds the heatmap of a trace on the given grid (one count per record).
  static Heatmap from_trace(const mobility::Trace& trace,
                            const geo::CellGrid& grid);

  /// Raw (unnormalised) counts.
  [[nodiscard]] const CountMap& counts() const { return counts_; }

  /// Sum of all counts.
  [[nodiscard]] double total() const { return total_; }

  [[nodiscard]] bool empty() const { return counts_.empty(); }
  [[nodiscard]] std::size_t cell_count() const { return counts_.size(); }

  /// Probability of a cell (count / total); 0 for unseen cells.
  [[nodiscard]] double probability(const geo::CellIndex& cell) const;

  /// Adds `count` visits to a cell.
  void add(const geo::CellIndex& cell, double count = 1.0);

  /// Cells sorted by decreasing count (ties broken by cell index for
  /// determinism). The "hot ranking" HMC's alignment uses; see rank_cells.
  [[nodiscard]] std::vector<std::pair<geo::CellIndex, double>> ranked_cells()
      const;

 private:
  CountMap counts_;
  double total_ = 0.0;
};

/// Cell-sorted (cell, count) pairs of a record range: one count per record,
/// cells in ascending index order, each distinct cell once. The counts are
/// exact small integers, so they equal Heatmap::from_trace's bit for bit.
///
/// Counts in a flat open-addressing table keyed by geo::CellIndexHash,
/// one per thread and reused between calls: a call clears only the slots
/// the previous one touched, grows the table by rehashing when it fills
/// to half, and sorts only the distinct cells at the end. A run of
/// consecutive records in one cell (a dwelling raw trace) costs one table
/// probe; obfuscated outputs scatter their records, but over few cells,
/// which is why they are counted and not sorted.
std::vector<std::pair<geo::CellIndex, double>> cell_counts(
    std::span<const mobility::Record> records, const geo::CellGrid& grid);

/// Sorts (cell, count) pairs hottest first, ties by ascending cell: a total
/// order over distinct cells, and the one Heatmap::ranked_cells returns.
void rank_cells(std::vector<std::pair<geo::CellIndex, double>>& cells);

/// Topsoe divergence between two heatmaps viewed as distributions:
///   sum_c p ln(2p/(p+q)) + q ln(2q/(p+q))
/// Symmetric, bounded by 2 ln 2, zero iff the distributions coincide.
/// Infinite if either heatmap is empty.
double topsoe_divergence(const Heatmap& a, const Heatmap& b);

/// One cell of a compiled heatmap: the normalised probability plus the two
/// precomputed Topsoe ingredients that depend on p alone.
struct CompiledHeatmapCell {
  geo::CellIndex cell;
  double probability = 0.0;  ///< count / total
  double self_term = 0.0;    ///< p ln(2p) — shared-cell term is
                             ///<   a.self + b.self - (p+q) ln(p+q)
  double solo_term = 0.0;    ///< p ln 2 — the cell's term when q = 0
};

/// Flat form of a Heatmap for the inference hot path: cells sorted by
/// index with pre-normalised probabilities, so the Topsoe divergence
/// becomes a cache-friendly two-pointer merge instead of hash lookups, and
/// partial sums can drive branch-and-bound early exits. Immutable: a
/// streaming window is compiled afresh from its records (from_trace)
/// whenever a verdict reads it.
class CompiledHeatmap {
 public:
  CompiledHeatmap() = default;

  /// Compiles an existing heatmap (used once per profile at train time).
  explicit CompiledHeatmap(const Heatmap& source);

  /// Builds the compiled heatmap of a trace from cell_counts: no
  /// per-record sort and no node-based hash map, whether the trace dwells
  /// (raw) or scatters (an LPPM output). Cell probabilities are
  /// bit-identical to compiling Heatmap::from_trace(trace, grid).
  static CompiledHeatmap from_trace(const mobility::Trace& trace,
                                    const geo::CellGrid& grid);

  /// Cells in ascending index order.
  [[nodiscard]] const std::vector<CompiledHeatmapCell>& cells() const {
    return cells_;
  }
  [[nodiscard]] bool empty() const { return cells().empty(); }
  [[nodiscard]] std::size_t cell_count() const { return cells().size(); }

 private:
  std::vector<CompiledHeatmapCell> cells_;
};

/// Topsoe divergence over compiled heatmaps. Symmetric; same decision
/// behaviour as the legacy overload (values agree to rounding — the merge
/// sums in cell order, the hash scan in bucket order).
double topsoe_divergence(const CompiledHeatmap& a, const CompiledHeatmap& b);

/// Bounded Topsoe divergence: every per-cell term is non-negative, so the
/// running sum only grows — as soon as it exceeds `bound` the scan bails
/// out and returns infinity. Otherwise returns the exact divergence,
/// bit-identical to the unbounded overload. The branch-and-bound argmin
/// scans pass their current best distance as `bound`.
double topsoe_divergence_bounded(const CompiledHeatmap& a,
                                 const CompiledHeatmap& b, double bound);

}  // namespace mood::profiles
