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
#include "support/error.h"

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
/// partial sums can drive branch-and-bound early exits. Training profiles
/// are immutable; a streaming window's updatable form keeps raw counts,
/// edited per record by apply_update and turned into cells by compile()
/// only when a query reads them.
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

  /// Builds an *updatable* compiled heatmap: identical cells to
  /// from_trace(trace, grid), counted by the same cell_counts, but the raw
  /// integer cell counts are retained so apply_update can fold newly
  /// arrived (and newly expired) records in without recompiling from the
  /// whole trace. Start from an empty trace for a fresh streaming window.
  static CompiledHeatmap incremental(const mobility::Trace& trace,
                                     const geo::CellGrid& grid);

  /// Incremental count maintenance for sliding windows: adds one count per
  /// record of `added`, then removes one per record of `removed`, editing
  /// the sorted raw counts in place (a binary search and an increment, or
  /// an insert for a new cell; a decrement, or an erase when a cell drops
  /// to zero). O(log cells) per record plus the insert/erase shift —
  /// independent of the window length, with no sort, no merge and no
  /// allocation once the counts' capacity is reached. It does NOT
  /// renormalise: the cells become stale until compile(), and reading a
  /// stale heatmap's cells is a precondition failure. Counts are exact
  /// small integers, so the compiled heatmap is bit-identical to
  /// from_trace on the updated window whatever the interleaving of
  /// updates. Preconditions: built by incremental(); every removed record
  /// was previously added.
  void apply_update(std::span<const mobility::Record> added,
                    std::span<const mobility::Record> removed,
                    const geo::CellGrid& grid);

  /// Recomputes the cells (p, p ln 2p, p ln 2) from the raw counts if an
  /// apply_update left them stale: one pass over the counts, no copy and
  /// no re-sort. A no-op on a fresh heatmap.
  void compile();

  /// True when built by incremental() (raw counts retained, apply_update
  /// allowed).
  [[nodiscard]] bool updatable() const { return updatable_; }

  /// Raw (cell, count) pairs in ascending cell order — exact small
  /// integers; non-empty only for updatable() heatmaps. Together with
  /// raw_total() this is the full mutable state, stale or not, and it
  /// equals incremental(window, grid)'s for the window it counts.
  [[nodiscard]] const std::vector<std::pair<geo::CellIndex, double>>&
  raw_counts() const {
    return counts_;
  }
  [[nodiscard]] double raw_total() const { return total_; }

  /// Cells in ascending index order. Precondition: no apply_update since
  /// the last compile().
  [[nodiscard]] const std::vector<CompiledHeatmapCell>& cells() const {
    support::expects(!stale_,
                     "CompiledHeatmap::cells: counts changed since the last "
                     "compile()");
    return cells_;
  }
  [[nodiscard]] bool empty() const { return cells().empty(); }
  [[nodiscard]] std::size_t cell_count() const { return cells().size(); }

 private:
  std::vector<CompiledHeatmapCell> cells_;
  /// Raw (cell, count) pairs in ascending cell order; populated only for
  /// updatable() heatmaps. Counts are exact small integers.
  std::vector<std::pair<geo::CellIndex, double>> counts_;
  double total_ = 0.0;
  bool updatable_ = false;
  bool stale_ = false;  ///< counts_ changed since cells_ was compiled
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
