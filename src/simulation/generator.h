#pragma once

/// \file generator.h
/// Synthetic mobility generator — the stand-in for the paper's four real
/// datasets (MDC, PrivaMov, Geolife, Cabspotting), which are
/// access-restricted or unavailable offline (see DESIGN.md §3).
///
/// Two user populations:
///  * routine users: POI-anchored daily life — overnight at home, weekday
///    work blocks, evening/weekend leisure, straight-line commutes, GPS
///    jitter. Their POIs are either private (unique location — makes the
///    user re-identifiable) or drawn from a city-wide shared pool (makes
///    profiles overlap). A configurable minority relocates mid-period, so
///    its background profile no longer matches the data to protect — the
///    paper's "naturally protected" users.
///  * cab fleet (Cabspotting): vehicles hop between shared hotspots around
///    the clock. Fleet homogeneity yields the low natural vulnerability of
///    Fig. 6d/7d; a territorial minority (favouring a district + private
///    depot) stays distinctive.
///
/// All randomness is derived from `seed` via forked streams: the same
/// parameters always produce byte-identical datasets.

#include <cstdint>
#include <string>

#include "geo/geo.h"
#include "mobility/dataset.h"

namespace mood::simulation {

/// Knobs of the synthetic city and its population.
struct GeneratorParams {
  std::string dataset_name = "synthetic";
  geo::GeoPoint city_center{45.0, 5.0};

  // Population.
  std::size_t users = 40;
  bool cab_fleet = false;

  // Period simulated (the paper's "30 most active successive days").
  int days = 30;
  mobility::Timestamp start_time = 1546300800;  // 2019-01-01 00:00 UTC

  // Record density (before any scaling by the caller). Individual users
  // sample at a personal multiple of this rate drawn uniformly from
  // [activity_min, activity_max] — real datasets mix heavy and casual
  // contributors, which is why the paper's user-ratio (Fig. 2) and
  // record-ratio (Fig. 3) charts differ.
  double records_per_user_per_day = 250.0;
  double activity_min = 0.5;
  double activity_max = 1.6;

  // POI structure (routine users).
  std::size_t shared_poi_pool = 40;      ///< city-wide hotspot count
  double shared_poi_spread_m = 4000.0;   ///< hotspot scatter around downtown
  std::size_t pois_per_user_min = 3;     ///< home + work + leisure...
  std::size_t pois_per_user_max = 6;
  /// Probability that home/work are private (unique location) rather than
  /// drawn from the shared hotspot pool. Shared-primary users ("downtown
  /// dwellers") are hidden by cell-level smearing (TRL) because several
  /// users occupy the same cells — but their private leisure places still
  /// leak through budgeted HMC. The two knobs shape which LPPM fails on
  /// whom, and therefore the union gain of HybridLPPM.
  double p_private_poi = 0.7;
  /// Probability that a leisure POI is private (default: leisure is more
  /// personal than home/work hotspots).
  double p_private_leisure = 0.85;
  double private_poi_spread_m = 12000.0; ///< private POI scatter (suburbs)
  double relocation_prob = 0.15;         ///< mid-period movers (nat. protected)

  // Districts (city-small): when districts > 0, each routine user is
  // anchored to a home district drawn from `districts` anchor points
  // scattered district_spread_m around downtown, and their private POIs
  // scatter private_poi_spread_m around that anchor instead of the city
  // centre (relocators redraw a fresh district). Commuter-style locality:
  // large populations decompose into geographic clusters the way real
  // cities do. 0 keeps the legacy single-blob scatter (bit-identical
  // datasets for old presets).
  std::size_t districts = 0;
  double district_spread_m = 10000.0;

  // Wanderers: users whose days are long roaming tours through a private
  // angular sector of the city outskirts. Their territory signature
  // spreads over so many cells that every LPPM leaves a recognisable
  // residue — the "orphan users" MooD's fine-grained stage exists for.
  double wanderer_fraction = 0.0;
  double wander_radius_min_m = 12000.0;  ///< sector band, inner radius
  double wander_radius_max_m = 20000.0;  ///< sector band, outer radius

  // Cab fleet structure. Territorial cabs favour a district; the strength
  // of that preference is graded per cab (uniform in [bias_min, bias_max])
  // so distinctiveness forms a continuum: weakly territorial cabs are
  // detectable raw yet hidden by mild obfuscation, strongly territorial
  // ones resist even strong mechanisms.
  double territorial_fraction = 0.5;     ///< cabs with a favoured district
  double territory_radius_m = 4000.0;
  double territory_bias_min = 0.45;      ///< prob. a hop stays in-district
  double territory_bias_max = 0.95;

  // Signal quality / motion.
  double gps_noise_m = 25.0;
  double speed_mps = 8.0;

  std::uint64_t seed = 42;
};

/// Generates the dataset. Deterministic in `params`.
mobility::Dataset generate(const GeneratorParams& params);

}  // namespace mood::simulation
