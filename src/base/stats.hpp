// Accuracy-evaluation statistics used by the mixed-precision validation
// (§5.2.3): relative L2 norms for GRIST fields and grid-area-weighted RMSD
// for LICOM tripolar-grid fields.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "base/error.hpp"

namespace ap3::stats {

inline double mean(std::span<const double> x) {
  AP3_REQUIRE(!x.empty());
  double s = 0.0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}

/// Relative L2 norm of (test − ref) against ref — the GRIST mixed-precision
/// acceptance metric (threshold 5 %).
inline double relative_l2(std::span<const double> test,
                          std::span<const double> ref) {
  AP3_REQUIRE(test.size() == ref.size() && !ref.empty());
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    const double d = test[i] - ref[i];
    num += d * d;
    den += ref[i] * ref[i];
  }
  AP3_REQUIRE_MSG(den > 0.0, "relative_l2: reference field is identically zero");
  return std::sqrt(num / den);
}

/// Plain RMSD.
inline double rmsd(std::span<const double> test, std::span<const double> ref) {
  AP3_REQUIRE(test.size() == ref.size() && !ref.empty());
  double s = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    const double d = test[i] - ref[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(ref.size()));
}

/// Grid-area-weighted RMSD — the LICOM tripolar-grid acceptance metric.
/// Points with zero weight (land) do not contribute.
inline double weighted_rmsd(std::span<const double> test,
                            std::span<const double> ref,
                            std::span<const double> area) {
  AP3_REQUIRE(test.size() == ref.size() && test.size() == area.size());
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    const double d = test[i] - ref[i];
    num += area[i] * d * d;
    den += area[i];
  }
  AP3_REQUIRE_MSG(den > 0.0, "weighted_rmsd: total weight is zero");
  return std::sqrt(num / den);
}

/// Pearson correlation, used to score AI-physics skill.
inline double correlation(std::span<const double> x, std::span<const double> y) {
  AP3_REQUIRE(x.size() == y.size() && x.size() > 1);
  const double mx = mean(x), my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

/// Coefficient of determination R² of prediction y against truth x.
inline double r_squared(std::span<const double> truth,
                        std::span<const double> pred) {
  AP3_REQUIRE(truth.size() == pred.size() && !truth.empty());
  const double m = mean(truth);
  double ss_res = 0.0, ss_tot = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - m) * (truth[i] - m);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace ap3::stats
