#include "coupler/timing.hpp"

#include <sstream>

#include "base/constants.hpp"

namespace ap3::cpl {

double TimingSummary::sypd() const {
  if (wall_seconds <= 0.0) return 0.0;
  const double years = simulated_seconds / constants::kSecondsPerYear;
  const double wall_days = wall_seconds / constants::kSecondsPerDay;
  return years / wall_days;
}

std::string TimingSummary::to_string() const {
  std::ostringstream os;
  os << "timing report (max across ranks, init excluded)\n";
  for (const obs::MergedSpan& phase : phases) {
    std::string label = "  " + phase.name;
    if (label.size() < 28) label.resize(28, ' ');
    os << label << " " << phase.total_max << " s  (mean "
       << phase.total_mean << " s, " << phase.calls << " calls)\n";
  }
  os << "  simulated " << simulated_seconds << " s in " << wall_seconds
     << " s wall -> " << sypd() << " SYPD\n";
  return os.str();
}

TimingSummary summarize_timing(const obs::MergedReport& report,
                               double simulated_seconds) {
  TimingSummary summary;
  summary.simulated_seconds = simulated_seconds;
  for (const obs::MergedSpan& span : report.spans) {
    if (span.name != "run" && !span.name.starts_with("run:")) continue;
    summary.phases.push_back(span);
    if (span.name == "run") summary.wall_seconds = span.total_max;
  }
  return summary;
}

}  // namespace ap3::cpl
