#pragma once

/// \file math.h
/// Special functions the library needs that the standard library lacks.

#include <span>

namespace mood::support {

/// Lambert W, branch W_{-1}: the solution w <= -1 of w * e^w = x for
/// x in [-1/e, -DBL_MIN]. Used by the planar Laplace radius sampler of
/// Geo-indistinguishability (Andrés et al. 2013).
///
/// Accuracy: |w e^w - x| / |x| < 1e-12 across the domain (Halley
/// iterations from the standard series initial guess). Subnormal
/// arguments are outside it: there e^w underflows before the iterations
/// converge.
/// Throws PreconditionError outside [-1/e, -DBL_MIN].
double lambert_w_minus1(double x);

/// W_{-1} of every x[i] into w[i]. Evaluates 4 lanes at a time, so one
/// lane's exp and divisions overlap another's instead of waiting on them.
/// Each lane keeps every operation of the scalar form, in its order: the
/// same initial guess, the same Halley step, its own early exit and its
/// own 32-iteration cap. So w[i] equals lambert_w_minus1(x[i]) bit for
/// bit; the scalar form is this one on one element.
/// Throws PreconditionError, before writing any w[i], if the spans differ
/// in length or any x[i] is outside [-1/e, -DBL_MIN].
void lambert_w_minus1(std::span<const double> x, std::span<double> w);

}  // namespace mood::support
