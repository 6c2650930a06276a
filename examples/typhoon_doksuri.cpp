// The Typhoon Doksuri forecast experiment (§7.1, Figs. 1/6/7), scaled to
// laptop resolution.
//
// A synthetic Doksuri analog (the paper initializes from analyses we do not
// have; see DESIGN.md substitutions) is seeded in the western Pacific of the
// coupled model at a fine ("3v2-like") and a coarse ("25v10-like")
// configuration. The example prints the forecast track and intensity
// alongside the synthetic best track, the fine-vs-coarse structure contrast
// (eye depth, wind maxima, surface Rossby number extremes), and the SST
// cold wake under the storm.
#include <cstdio>
#include <cmath>
#include <vector>

#include "base/rng.hpp"
#include "coupler/driver.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;

struct TrackPoint {
  double hours;
  double lon, lat, wind;
  int category;
};

struct CaseResult {
  std::vector<TrackPoint> track;
  double min_h = 1e300;
  double max_wind = 0.0;
  double ro_min = 0.0, ro_max = 0.0;
  double wake_cooling_k = 0.0;
};

/// Synthetic "best track": the seed location advected by a steering flow
/// with deterministic perturbations standing in for the CMA analysis.
std::vector<TrackPoint> synthetic_best_track(int n_fixes, double hours_step) {
  std::vector<TrackPoint> track;
  Rng rng(20230723);
  double lon = 133.0, lat = 16.5, wind = 35.0;
  for (int k = 0; k < n_fixes; ++k) {
    track.push_back({k * hours_step, lon, lat, wind,
                     atm::intensity_category(wind)});
    lon -= 0.55 * hours_step / 6.0 + 0.08 * rng.normal();  // WNW motion
    lat += 0.38 * hours_step / 6.0 + 0.06 * rng.normal();
    wind += (k < n_fixes / 2 ? 2.2 : -1.4) * hours_step / 6.0;  // intensify, land-fall decay
  }
  return track;
}

CaseResult run_case(int nranks, int mesh_n, int ocn_nx, int ocn_ny,
                    int windows) {
  static CaseResult result;
  result = CaseResult{};
  par::run(nranks, [&](par::Comm& comm) {
    cpl::CoupledConfig config;
    config.atm.mesh_n = mesh_n;
    config.atm.nlev = 8;
    config.ocn.grid = grid::TripolarConfig{ocn_nx, ocn_ny, 8};
    config.atm.drag_per_second = 5e-7;  // weak large-scale drag for the case
    cpl::CoupledModel model(comm, {config});

    atm::VortexSpec spec;
    spec.lon_deg = 133.0;
    spec.lat_deg = 16.5;
    spec.radius_km = 350.0;
    spec.max_wind_ms = 50.0;
    spec.depression_m = 130.0;
    const double sst_before = model.sst_near(spec.lon_deg, spec.lat_deg, 700.0);
    model.seed_typhoon(spec);
    // Background steering flow (the paper's storm is steered by the
    // subtropical ridge): uniform easterly with a poleward component.
    if (model.has_atm()) {
      auto& dycore = model.atm().dycore();
      for (std::size_t c = 0; c < dycore.mesh().num_owned(); ++c) {
        double u = 0.0, v = 0.0;
        dycore.wind_at(c, u, v);
        dycore.set_wind_at(c, u - 5.5, v + 1.2);
      }
    }

    double lon = spec.lon_deg, lat = spec.lat_deg;
    const double hours_per_window = model.atm_window_seconds() / 3600.0;
    for (int w = 0; w < windows; ++w) {
      const atm::VortexFix fix = model.track_typhoon(lon, lat, 700.0);
      if (comm.rank() == 0 && fix.found) {
        result.track.push_back({w * hours_per_window, fix.lon_deg, fix.lat_deg,
                                fix.max_wind_ms,
                                atm::intensity_category(fix.max_wind_ms)});
        result.min_h = std::min(result.min_h, fix.min_h_m);
        result.max_wind = std::max(result.max_wind, fix.max_wind_ms);
      }
      if (fix.found) {
        lon = fix.lon_deg;
        lat = fix.lat_deg;
      }
      model.run_windows(1);
    }

    // Ocean response: surface Rossby number extremes (Fig. 6c/d quantity).
    if (model.has_ocn()) {
      const auto ro = model.ocn().surface_rossby_number();
      double lo = 0.0, hi = 0.0;
      for (double r : ro) {
        lo = std::min(lo, r);
        hi = std::max(hi, r);
      }
      result.ro_min = comm.allreduce_value(lo, par::ReduceOp::kMin);
      result.ro_max = comm.allreduce_value(hi, par::ReduceOp::kMax);
    } else {
      result.ro_min = comm.allreduce_value(0.0, par::ReduceOp::kMin);
      result.ro_max = comm.allreduce_value(0.0, par::ReduceOp::kMax);
    }
    // Cold wake along the early track: compare the storm-genesis region.
    const double sst_after = model.sst_near(spec.lon_deg, spec.lat_deg, 700.0);
    if (comm.rank() == 0) result.wake_cooling_k = sst_before - sst_after;
  });
  return result;
}

}  // namespace

int main() {
  std::printf("Typhoon Doksuri analog forecast (coupled AP3ESM mini)\n");
  std::printf("======================================================\n\n");

  const int windows = 10;
  std::printf("running fine case (3v2-like)...\n");
  const CaseResult fine = run_case(2, 10, 96, 72, windows);
  std::printf("running coarse case (25v10-like)...\n\n");
  const CaseResult coarse = run_case(2, 5, 40, 30, windows);

  const auto best = synthetic_best_track(static_cast<int>(fine.track.size()),
                                         fine.track.size() > 1
                                             ? fine.track[1].hours
                                             : 6.0);

  std::printf("forecast track (fine) vs synthetic best track:\n");
  std::printf("  t[h]    model lon/lat         wind  cat | best lon/lat    "
              "     wind  cat |  error[km]\n");
  double mean_error = 0.0;
  for (size_t k = 0; k < fine.track.size() && k < best.size(); ++k) {
    const auto& m = fine.track[k];
    const auto& b = best[k];
    const double err =
        atm::track_distance_km(m.lon, m.lat, b.lon, b.lat);
    mean_error += err;
    std::printf("  %5.1f   %7.2fE %6.2fN  %5.1f   C%d  | %7.2fE %6.2fN  %5.1f"
                "   C%d  | %9.1f\n",
                m.hours, m.lon, m.lat, m.wind, m.category, b.lon, b.lat,
                b.wind, b.category, err);
  }
  if (!fine.track.empty())
    mean_error /= static_cast<double>(fine.track.size());
  std::printf("  mean track error: %.0f km\n\n", mean_error);

  std::printf("fine vs coarse structure (Fig. 6 contrast):\n");
  std::printf("  metric                     fine (3v2-like)  coarse (25v10-like)\n");
  std::printf("  min central thickness [m]  %15.1f  %19.1f\n", fine.min_h,
              coarse.min_h);
  std::printf("  max 10m-wind proxy [m/s]   %15.1f  %19.1f\n", fine.max_wind,
              coarse.max_wind);
  std::printf("  surface Ro range           [%6.3f, %5.3f]   [%6.3f, %5.3f]\n",
              fine.ro_min, fine.ro_max, coarse.ro_min, coarse.ro_max);
  std::printf("  SST cold wake [K]          %15.3f  %19.3f\n",
              fine.wake_cooling_k, coarse.wake_cooling_k);
  std::printf(
      "\nExpected (paper): the finer configuration resolves a deeper eye and a"
      "\nricher sea-surface Rossby-number response; at these toy resolutions"
      "\nthe track drifts faster than the real 3-km forecast, but the"
      "\nstructure contrast and the air-sea coupling pathway are the same.\n");
  return 0;
}
