#include "simulation/presets.h"

#include "support/error.h"

namespace mood::simulation {

GeneratorParams preset_params(const std::string& name, double scale,
                              std::uint64_t seed) {
  support::expects(scale > 0.0 && scale <= 4.0,
                   "preset_params: scale must be in (0, 4]");
  GeneratorParams p;
  p.seed = seed;
  p.days = 30;

  if (name == "mdc") {
    // Geneva. 141 users, ~904k records => ~214 records/user/day.
    p.dataset_name = "MDC";
    p.city_center = geo::GeoPoint{46.2044, 6.1432};
    p.users = 141;
    p.records_per_user_per_day = 214.0 * scale;
    p.shared_poi_pool = 35;
    p.shared_poi_spread_m = 3500.0;
    p.p_private_poi = 0.5;       // half the homes/works are hotspot-shared
    p.p_private_leisure = 0.85;  // leisure stays personal
    p.private_poi_spread_m = 9000.0;
    p.relocation_prob = 0.24;  // ~24% naturally protected (Fig. 7a: 34/141)
    p.wanderer_fraction = 0.035;  // a few orphan users (Fig. 7a: 3)
  } else if (name == "privamov") {
    // Lyon. 41 users, ~949k records => ~771 records/user/day (dense
    // collection campaign). Highly distinctive users (Fig. 7b: 37/41
    // vulnerable).
    p.dataset_name = "PrivaMov";
    p.city_center = geo::GeoPoint{45.7640, 4.8357};
    p.users = 41;
    p.records_per_user_per_day = 771.0 * scale;
    p.shared_poi_pool = 10;  // dense sharing: campus-style collection
    p.shared_poi_spread_m = 3000.0;
    p.p_private_poi = 0.6;
    p.p_private_leisure = 0.9;
    p.private_poi_spread_m = 8000.0;
    p.pois_per_user_max = 4;
    p.relocation_prob = 0.08;
    p.wanderer_fraction = 0.1;  // Fig. 7b: 3 orphans of 41
  } else if (name == "geolife") {
    // Beijing. 41 active users, ~1.47M records => ~1194 records/user/day.
    p.dataset_name = "Geolife";
    p.city_center = geo::GeoPoint{39.9042, 116.4074};
    p.users = 41;
    p.records_per_user_per_day = 1194.0 * scale;
    p.shared_poi_pool = 12;
    p.shared_poi_spread_m = 5000.0;
    p.p_private_poi = 0.55;
    p.p_private_leisure = 0.85;
    p.pois_per_user_max = 5;
    p.private_poi_spread_m = 10000.0;  // Beijing sprawl
    p.relocation_prob = 0.2;
    p.wanderer_fraction = 0.07;  // Fig. 7c: 2 orphans of 41
    p.wander_radius_min_m = 14000.0;
    p.wander_radius_max_m = 22000.0;
  } else if (name == "cabspotting") {
    // San Francisco cab fleet. 531 cabs, ~11.2M records => ~703/cab/day.
    p.dataset_name = "Cabspotting";
    p.city_center = geo::GeoPoint{37.7749, -122.4194};
    p.users = 531;
    p.cab_fleet = true;
    p.records_per_user_per_day = 703.0 * scale;
    p.shared_poi_pool = 60;
    p.shared_poi_spread_m = 4500.0;
    p.private_poi_spread_m = 7000.0;   // depot scatter
    p.territorial_fraction = 0.53;     // Fig. 7d: 281/531 vulnerable
    p.territory_radius_m = 2500.0;
    p.territory_bias_min = 0.45;       // graded distinctiveness: TRL hides
    p.territory_bias_max = 0.95;       // the weakly territorial cabs only
    p.speed_mps = 9.0;
  } else if (name == "city-small") {
    // Synthetic metropolis for population-index scaling studies: ~10k
    // routine users spread over 32 commuter districts, at a deliberately
    // thin per-user record rate so the full population trains in minutes.
    p.dataset_name = "CitySmall";
    p.city_center = geo::GeoPoint{45.7640, 4.8357};  // Lyon-shaped sprawl
    p.users = 10000;
    p.days = 4;
    p.records_per_user_per_day = 72.0 * scale;
    p.shared_poi_pool = 150;
    p.shared_poi_spread_m = 4000.0;
    p.p_private_poi = 0.7;
    p.p_private_leisure = 0.85;
    p.pois_per_user_max = 5;
    p.private_poi_spread_m = 1500.0;  // tight around the home district
    p.districts = 32;
    p.district_spread_m = 14000.0;
    p.relocation_prob = 0.1;
    p.wanderer_fraction = 0.01;
  } else {
    throw support::PreconditionError("unknown dataset preset: " + name);
  }
  return p;
}

mobility::Dataset make_preset_dataset(const std::string& name, double scale,
                                      std::uint64_t seed) {
  return generate(preset_params(name, scale, seed));
}

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> names{"mdc", "privamov", "geolife",
                                              "cabspotting", "city-small"};
  return names;
}

}  // namespace mood::simulation
