#include "support/math.h"

#include <cmath>
#include <cstddef>
#include <limits>

#include "support/error.h"

namespace mood::support {

namespace {

constexpr double kMinusOneOverE = -0.367879441171442321595;  // -1/e

/// Lanes evaluated together: enough independent exp/divide chains to
/// cover a division's latency, few enough to stay in registers.
constexpr std::size_t kLanes = 4;

/// W_{-1} of x[0..N-1] into w[0..N-1], the lanes interleaved.
template <std::size_t N>
void halley_lanes(const double* x, double* w) {
  double wl[N];
  bool live[N];
  for (std::size_t k = 0; k < N; ++k) {
    // At the branch point the value is exactly -1.
    live[k] = !(x[k] <= kMinusOneOverE + 1e-16);
    if (!live[k]) {
      wl[k] = -1.0;
      continue;
    }
    // Initial guess. Near the branch point use the square-root expansion
    // w = -1 - p - p^2/3 with p = sqrt(2(1 + e x)); elsewhere the
    // asymptotic log-log series w = L1 - L2 + L2/L1.
    const double p2 = 2.0 * (1.0 + std::exp(1.0) * x[k]);
    if (p2 < 0.25) {
      const double p = -std::sqrt(p2);
      wl[k] = -1.0 + p - p2 / 6.0;
    } else {
      const double l1 = std::log(-x[k]);
      const double l2 = std::log(-l1);
      wl[k] = l1 - l2 + l2 / l1;
    }
  }

  // Halley iterations. Every lane starts at iteration 0, so the shared
  // counter is each lane's own and caps each at 32; a lane leaves when
  // its step is small, the block when no lane is left. A lane that has
  // left still computes a step, which is discarded: cheaper than the
  // mispredicted branches of skipping it, since lanes leave after 3 or 4
  // steps in no predictable pattern.
  for (int iter = 0; iter < 32; ++iter) {
    bool any_live = false;
    for (std::size_t k = 0; k < N; ++k) {
      const double ew = std::exp(wl[k]);
      const double f = wl[k] * ew - x[k];
      const double denominator =
          ew * (wl[k] + 1.0) - (wl[k] + 2.0) * f / (2.0 * wl[k] + 2.0);
      const double step = f / denominator;
      const double next = wl[k] - step;
      const bool moving =
          !(std::abs(step) < 1e-14 * (1.0 + std::abs(next)));
      wl[k] = live[k] ? next : wl[k];
      live[k] = live[k] && moving;
      any_live = any_live || live[k];
    }
    if (!any_live) break;
  }
  for (std::size_t k = 0; k < N; ++k) w[k] = wl[k];
}

}  // namespace

double lambert_w_minus1(double x) {
  double w;
  lambert_w_minus1(std::span<const double>(&x, 1), std::span<double>(&w, 1));
  return w;
}

void lambert_w_minus1(std::span<const double> x, std::span<double> w) {
  expects(x.size() == w.size(), "lambert_w_minus1: spans differ in length");
  for (const double value : x) {
    expects(value >= kMinusOneOverE &&
                value <= -std::numeric_limits<double>::min(),
            "lambert_w_minus1: argument outside [-1/e, -DBL_MIN]");
  }
  std::size_t i = 0;
  for (; i + kLanes <= x.size(); i += kLanes) {
    halley_lanes<kLanes>(&x[i], &w[i]);
  }
  switch (x.size() - i) {
    case 1:
      halley_lanes<1>(&x[i], &w[i]);
      break;
    case 2:
      halley_lanes<2>(&x[i], &w[i]);
      break;
    case 3:
      halley_lanes<3>(&x[i], &w[i]);
      break;
    default:
      break;
  }
}

}  // namespace mood::support
