#include "profiles/poi_profile.h"

#include <algorithm>
#include <limits>

#include "geo/geo.h"

namespace mood::profiles {

PoiProfile PoiProfile::from_trace(const mobility::Trace& trace,
                                  const clustering::PoiParams& params) {
  // Merge repeated visits so each meaningful place appears once.
  auto seq = clustering::build_visit_sequence(
      clustering::extract_pois(trace, params), params.max_diameter_m);
  return PoiProfile(std::move(seq.states));
}

double poi_profile_distance(const PoiProfile& a, const PoiProfile& b) {
  if (a.empty() || b.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  double total = 0.0;
  for (const auto& pa : a.pois()) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& pb : b.pois()) {
      best = std::min(best, geo::haversine_m(pa.center, pb.center));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

CompiledPoiProfile::CompiledPoiProfile(const PoiProfile& source) {
  centers_.reserve(source.size());
  for (const auto& poi : source.pois()) {
    centers_.push_back(geo::trig_point(poi.center));
  }
}

CompiledPoiProfile CompiledPoiProfile::from_states(
    const std::vector<clustering::Poi>& states) {
  CompiledPoiProfile profile;
  profile.centers_.reserve(states.size());
  for (const auto& poi : states) {
    profile.centers_.push_back(geo::trig_point(poi.center));
  }
  return profile;
}

double poi_profile_distance(const CompiledPoiProfile& a,
                            const CompiledPoiProfile& b) {
  return poi_profile_distance_bounded(
      a, b, std::numeric_limits<double>::infinity());
}

double poi_profile_distance_bounded(const CompiledPoiProfile& a,
                                    const CompiledPoiProfile& b,
                                    double bound) {
  if (a.empty() || b.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  // The final distance is total / |a|; each nearest-POI term is >= 0 and
  // rounded division is monotone in the numerator, so once the partial
  // quotient exceeds `bound` the final one must too. (Comparing a
  // pre-scaled bound*|a| instead could disagree with the final division by
  // an ulp and break exactness of the decision.)
  const double n = static_cast<double>(a.size());
  double total = 0.0;
  for (const auto& pa : a.centers()) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& pb : b.centers()) {
      best = std::min(best, geo::haversine_m(pa, pb));
    }
    total += best;
    if (total / n > bound) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return total / n;
}

}  // namespace mood::profiles
