#include "core/hybrid.h"

#include "support/error.h"

namespace mood::core {

HybridLppm::HybridLppm(std::vector<const lppm::Lppm*> singles,
                       std::vector<const attacks::Attack*> attacks,
                       const metrics::UtilityMetric* metric,
                       std::uint64_t seed)
    : singles_(std::move(singles)),
      attacks_(std::move(attacks)),
      metric_(metric),
      seed_(seed) {
  support::expects(!singles_.empty(), "HybridLppm: empty LPPM set");
  support::expects(!attacks_.empty(), "HybridLppm: empty attack set");
  support::expects(metric_ != nullptr, "HybridLppm: null metric");
}

std::optional<HybridLppm::Result> HybridLppm::protect(
    const mobility::Trace& trace) const {
  if (trace.empty()) return std::nullopt;
  std::optional<Result> best;
  for (const auto* single : singles_) {
    auto rng = support::RngStream(seed_).fork(trace.user()).fork(single->name());
    mobility::Trace output = single->apply(trace, std::move(rng));
    if (attacks::any_reidentifies(attacks_, output, trace.user())) continue;
    const double distortion = metric_->distortion(trace, output);
    if (!best || distortion < best->distortion) {
      best = Result{single->name(), std::move(output), distortion};
    }
  }
  return best;
}

}  // namespace mood::core
