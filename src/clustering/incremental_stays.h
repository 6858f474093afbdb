#pragma once

/// \file incremental_stays.h
/// Incremental stay-point extraction for sliding windows.
///
/// extract_pois() is the dominant cost of rebuilding the PIT/POI mobility
/// profiles from scratch on every streaming decision: it re-scans the whole
/// window although only a handful of records changed. StayTracker exploits
/// two structural properties of the sequential stay-point algorithm to make
/// maintenance O(changed records) amortised:
///
///  * *Forward determinism.* The scan only ever looks forward from the
///    current anchor, so a run closed by a radius break is final — no
///    future append can change it. Only the trailing run (terminated by
///    end-of-window, not by a break) is provisional, and when that open run
///    fails the dwell/count thresholds, no sub-run of it can succeed
///    either (spans and counts of subintervals only shrink), so the
///    finalised prefix plus the qualifying open run *is* the full
///    extraction result.
///  * *Anchor restartability.* Every index that is not strictly inside a
///    successful stay becomes an anchor during the scan, and the scan from
///    an anchor is a pure function of the records from that index on. So
///    evicting the window's front is free whenever the new front is such
///    an index: dropped stays are popped, the rest is untouched. Only when
///    the eviction boundary *splits a stay* (or cuts into the open run)
///    does the tracker fall back to a bounded rebuild — one fresh
///    extraction of the remaining window.
///
/// The projection origin is pinned at the first record the tracker ever
/// sees (extract_pois' origin overload): a moving front must not move the
/// projection, or every previously finalised centroid would shift by a
/// rounding. The maintained POI list is bit-identical to
/// extract_pois(window, params, origin()) after every update — the
/// incremental-vs-full property tests in profiles_test assert exactly
/// that — and equals plain extract_pois(window, params) whenever the
/// window still starts at the first-ever record (the non-lossy streaming
/// configuration).

#include <cstdint>
#include <optional>
#include <vector>

#include "clustering/poi_extraction.h"
#include "geo/geo.h"
#include "mobility/trace.h"

namespace mood::clustering {

// ---- Checkpoint snapshots --------------------------------------------
// Plain-value mirrors of the trackers' full internal state, used by the
// gateway's checkpoint format (src/stream/snapshot.h). The tracker must
// be serialized *directly*: it reflects the window at the last refresh,
// which under a staleness bound includes records already evicted from the
// current window, so it cannot be rebuilt from the window alone.
// from_snapshot(snapshot()) is an exact round trip: every subsequent
// update() is bit-identical to one on the original object.

/// StayTracker::snapshot() payload.
struct StayTrackerSnapshot {
  PoiParams params;
  bool has_origin = false;
  geo::GeoPoint origin;
  struct Stay {
    Poi poi;
    std::uint64_t start = 0;  ///< absolute record index of the first member
    std::uint64_t end = 0;    ///< absolute record index of the last member
  };
  std::vector<Stay> finals;
  bool run_valid = false;
  std::uint64_t run_anchor = 0;
  std::uint64_t run_j = 0;
  double run_sx = 0.0;
  double run_sy = 0.0;
  mobility::Timestamp run_t_start = 0;
  mobility::Timestamp run_t_end = 0;
  std::uint64_t base = 0;
  std::uint64_t size = 0;
  std::uint64_t generation = 0;
  std::uint64_t updates = 0;
  std::uint64_t rebuilds = 0;
};

/// VisitAccumulator::snapshot() payload.
struct VisitAccumulatorSnapshot {
  double merge_distance_m = 200.0;
  std::vector<Poi> states;
  std::uint64_t folded = 0;
};

/// TrackedVisitStates::snapshot() payload.
struct TrackedVisitStatesSnapshot {
  StayTrackerSnapshot stays;
  VisitAccumulatorSnapshot visits;
  std::uint64_t synced_generation = 0;
};

/// Incrementally maintained extract_pois() over a sliding window.
class StayTracker {
 public:
  StayTracker() = default;
  explicit StayTracker(PoiParams params) : params_(params) {}

  /// Pre-pins the projection origin instead of adopting the front of the
  /// first non-empty window. Callers that may evict *before* the first
  /// sync (e.g. a one-shot fold of a bounded window) pass the first
  /// record ever folded here, so the maintained profiles stay a pure
  /// function of the record sequence — never of how updates were chunked
  /// relative to evictions.
  StayTracker(PoiParams params, const geo::GeoPoint& origin)
      : params_(params), has_origin_(true), origin_(origin) {}

  /// Syncs the tracker to `window` after `appended` records were appended
  /// to its back and `evicted` records were dropped from its front since
  /// the last update (or construction). Deltas may be accumulated across
  /// several window changes before syncing — the resulting state is a pure
  /// function of the window content, never of the update chunking.
  void update(const mobility::Trace& window, std::size_t appended,
              std::size_t evicted);

  /// The extraction result: finalised stays plus the open trailing run
  /// when it qualifies. Bit-identical to
  /// extract_pois(window, params(), origin()).
  [[nodiscard]] std::vector<Poi> pois() const;

  /// Finalised stays only (closed by a radius break; immutable under
  /// appends). Incremental consumers fold these once each plus the
  /// ever-changing provisional() on every refresh.
  [[nodiscard]] std::size_t final_count() const { return finals_.size(); }
  [[nodiscard]] const Poi& final_at(std::size_t i) const {
    return finals_[i].poi;
  }

  /// The open trailing run, when it currently qualifies as a stay.
  [[nodiscard]] std::optional<Poi> provisional() const;

  /// Bumped whenever previously reported finals are no longer a prefix of
  /// the current finals (eviction or rebuild) — consumers accumulating
  /// per-final state must restart when it changes.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  [[nodiscard]] const PoiParams& params() const { return params_; }
  /// Pinned projection origin; meaningful once a record has been seen.
  [[nodiscard]] const geo::GeoPoint& origin() const { return origin_; }
  [[nodiscard]] bool has_origin() const { return has_origin_; }

  /// Incremental updates performed (every update() call on a non-empty
  /// window) and full re-extractions among them (the bounded rebuild
  /// fallback: stay-splitting evictions, plus cold starts).
  [[nodiscard]] std::uint64_t updates() const { return updates_; }
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

  /// Full internal state as a plain value (checkpointing).
  [[nodiscard]] StayTrackerSnapshot snapshot() const;
  /// Exact inverse of snapshot(): the restored tracker resumes updates
  /// bit-identically to the original.
  static StayTracker from_snapshot(const StayTrackerSnapshot& snapshot);

 private:
  /// One finalised stay with its absolute record-index range (indices keep
  /// counting across evictions; window position = index - base_).
  struct TrackedStay {
    Poi poi;
    std::size_t start = 0;
    std::size_t end = 0;
  };

  /// The open trailing run: all records in [anchor, j] lie within the stay
  /// radius of the anchor; sx/sy accumulate their projected coordinates in
  /// ascending index order (the same order a one-shot extraction sums in).
  /// t_start/t_end mirror the anchor's and j's timestamps so the run can
  /// be judged without re-touching the window.
  struct OpenRun {
    std::size_t anchor = 0;
    std::size_t j = 0;
    double sx = 0.0;
    double sy = 0.0;
    mobility::Timestamp t_start = 0;
    mobility::Timestamp t_end = 0;
  };

  /// Re-extracts the whole window from scratch (pinned origin).
  void rebuild(const mobility::Trace& window);
  /// Resumes the sequential scan until the open run reaches the window
  /// end, finalising every run closed by a radius break along the way.
  void scan(const mobility::Trace& window);
  [[nodiscard]] Poi make_poi(const mobility::Trace& window, std::size_t anchor,
                             std::size_t j, double sx, double sy) const;

  PoiParams params_;
  bool has_origin_ = false;
  geo::GeoPoint origin_;
  std::vector<TrackedStay> finals_;
  OpenRun run_;
  bool run_valid_ = false;
  std::size_t base_ = 0;  ///< absolute index of window.records()[0]
  std::size_t size_ = 0;  ///< tracked window size
  std::uint64_t generation_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t rebuilds_ = 0;
};

/// Incrementally maintained build_visit_sequence() *states* (the merged
/// POI set both the POI profile and the MMC states are built from; the
/// visit order itself plays no role in the compiled profiles — see
/// profiles/markov_profile.h).
///
/// Folding is order-dependent (merged centroids accumulate sequentially),
/// so the accumulator replays exactly the one-shot merge order: finalised
/// stays are folded once each, in chronological order, and the provisional
/// trailing stay — which changes every update — is only folded into a
/// scratch copy at compile time, never into the retained states.
class VisitAccumulator {
 public:
  VisitAccumulator() = default;
  explicit VisitAccumulator(double merge_distance_m)
      : merge_distance_m_(merge_distance_m) {}

  /// Drops all retained state and re-folds the given stays in order.
  void rebuild(const std::vector<Poi>& pois);

  /// Folds one newly finalised stay (the next one in chronological order).
  void append(const Poi& poi);

  /// Stays folded so far (== StayTracker::final_count() once synced).
  [[nodiscard]] std::size_t folded() const { return folded_; }

  /// Merged states in insertion order, with `provisional` (if any) folded
  /// last — bit-identical to build_visit_sequence(all pois).states.
  [[nodiscard]] std::vector<Poi> states_with(
      const std::optional<Poi>& provisional) const;

  /// Full internal state as a plain value (checkpointing).
  [[nodiscard]] VisitAccumulatorSnapshot snapshot() const;
  static VisitAccumulator from_snapshot(
      const VisitAccumulatorSnapshot& snapshot);

 private:
  void fold(std::vector<Poi>& states, const Poi& poi) const;

  double merge_distance_m_ = 200.0;
  std::vector<Poi> states_;
  std::size_t folded_ = 0;
};

/// StayTracker + VisitAccumulator + their generation sync in one unit:
/// the merged visit states of a sliding window, maintained incrementally.
/// This is the single implementation of the subtle "replay all finals on
/// generation change, append new finals otherwise" logic; the decision
/// kernel compiles its PIT and POI profiles from states().
class TrackedVisitStates {
 public:
  TrackedVisitStates() = default;
  /// The projection is pinned at `origin` (see the StayTracker origin
  /// constructor).
  TrackedVisitStates(PoiParams params, const geo::GeoPoint& origin)
      : stays_(params, origin), visits_(params.max_diameter_m) {}

  /// Syncs to `window` (StayTracker::update semantics) and re-folds the
  /// visit states accordingly.
  void update(const mobility::Trace& window, std::size_t appended,
              std::size_t evicted);

  /// Merged visit states with the provisional trailing stay folded last —
  /// bit-identical to build_visit_sequence(extract_pois(window, params,
  /// origin), params.max_diameter_m).states.
  [[nodiscard]] std::vector<Poi> states() const {
    return visits_.states_with(stays_.provisional());
  }

  [[nodiscard]] const StayTracker& tracker() const { return stays_; }

  /// Full internal state as a plain value (checkpointing).
  [[nodiscard]] TrackedVisitStatesSnapshot snapshot() const;
  static TrackedVisitStates from_snapshot(
      const TrackedVisitStatesSnapshot& snapshot);

 private:
  StayTracker stays_;
  VisitAccumulator visits_;
  std::uint64_t synced_generation_ = 0;
};

}  // namespace mood::clustering
