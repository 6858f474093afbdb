#pragma once

/// \file poi_extraction.h
/// Point-of-Interest extraction from a mobility trace.
///
/// Implements the spatio-temporal stay-point clustering used throughout the
/// location-privacy literature (Zhou et al. 2004; the configuration in the
/// paper, §4.1.1: max cluster diameter 200 m, min dwell 1 h): a POI is a
/// maximal run of consecutive records that stays within a disk of the given
/// diameter for at least the minimum duration. POI-attack and PIT-attack
/// both build their profiles on these clusters.

#include <vector>

#include "geo/geo.h"
#include "mobility/trace.h"

namespace mood::clustering {

/// One extracted Point of Interest.
struct Poi {
  geo::GeoPoint center;              ///< centroid of the member records
  std::size_t record_count = 0;      ///< how many records fell in the stay
  mobility::Timestamp dwell = 0;     ///< time spent in the stay (seconds)
  mobility::Timestamp start = 0;     ///< time of the first member record
  mobility::Timestamp end = 0;       ///< time of the last member record
};

/// Extraction parameters. Defaults follow the paper's §4.1.1 (200 m
/// diameter, 1 h dwell); `min_points` additionally requires a stay to hold
/// a minimum number of records so that sparsely-sampled traces (or dummy
/// clouds) cannot produce two-record artefact POIs.
struct PoiParams {
  double max_diameter_m = 200.0;          ///< spatial extent of a stay
  mobility::Timestamp min_dwell = 3600;   ///< minimal stay duration (1 h)
  std::size_t min_points = 3;             ///< minimal records per stay

  friend bool operator==(const PoiParams&, const PoiParams&) = default;
};

/// Extracts POIs from a trace in chronological order.
///
/// Sequential stay-point detection: starting at record i, the stay extends
/// while every subsequent record remains within `max_diameter_m` of the
/// anchor record i; the run becomes a POI when its time span reaches
/// `min_dwell`. Runs shorter than the dwell threshold are skipped (the user
/// was moving through). O(n · run-length); robust to GPS jitter at the
/// 200 m diameter used here.
std::vector<Poi> extract_pois(const mobility::Trace& trace,
                              const PoiParams& params = {});

/// Same extraction with the local projection pinned at an explicit origin
/// instead of the trace's first record. The default overload is exactly
/// extract_pois(trace, params, trace.front().position); the explicit form
/// serves the decision kernel's sliding windows, whose front moves while
/// the projection stays pinned at the user's first-ever record
/// (decision::UserKernelState::stay_origin), so the centroids of stays
/// still in the window do not shift by a rounding.
std::vector<Poi> extract_pois(const mobility::Trace& trace,
                              const PoiParams& params,
                              const geo::GeoPoint& origin);

/// Sequence of POI indices visited, in chronological order of the stays —
/// the input the Mobility Markov Chain is estimated from. POIs closer than
/// `merge_distance_m` are considered the same state (repeated visits to a
/// home/workplace land on one state even though stay-point detection emits
/// a new cluster per visit).
struct PoiVisitSequence {
  std::vector<Poi> states;          ///< deduplicated POIs (MMC states)
  std::vector<std::size_t> visits;  ///< indices into `states`, time-ordered
};

PoiVisitSequence build_visit_sequence(const std::vector<Poi>& pois,
                                      double merge_distance_m = 200.0);

}  // namespace mood::clustering
