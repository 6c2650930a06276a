// getTiming-style performance report (§6.2).
//
// The paper measures with GPTL timers inside Coupler 7, reduces with the
// maximum across ranks ("to account for potential load imbalance"), and
// converts to SYPD with the getTiming script. Here the timers are the
// driver's obs spans ("run" and its "run:*" phases), the reduction is the
// obs::merge collective, and summarize_timing() keeps that subtree and
// derives SYPD from the "run" total, excluding initialization — exactly the
// paper's measurement basis.
#pragma once

#include <string>
#include <vector>

#include "obs/merge.hpp"

namespace ap3::cpl {

struct TimingSummary {
  /// The "run" span and its "run:*" phases, sorted by name; total_max is the
  /// getTiming reduction (max across ranks of the per-rank total).
  std::vector<obs::MergedSpan> phases;
  double simulated_seconds = 0.0;
  double wall_seconds = 0.0;  ///< total_max of the "run" span
  /// Simulated-years-per-day, the paper's headline metric.
  double sypd() const;
  std::string to_string() const;
};

/// Keep `report`'s "run" subtree as the getTiming phases (not collective:
/// the cross-rank reduction already happened in obs::merge).
/// `simulated_seconds` is the model time the measured window covered.
TimingSummary summarize_timing(const obs::MergedReport& report,
                               double simulated_seconds);

}  // namespace ap3::cpl
