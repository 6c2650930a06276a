// Regenerates Fig. 7: the Doksuri track/intensity comparison. The coupled
// mini-model forecast track is compared against the synthetic best track
// (the stand-in for the CMA analysis; see DESIGN.md substitutions), with
// the same diagnostics the figure carries: positions, intensity categories,
// and track errors over forecast time.
#include <cmath>
#include <cstdio>
#include <vector>

#include "base/rng.hpp"
#include "coupler/driver.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;

struct Fix {
  double hours, lon, lat, wind;
};

std::vector<Fix> best_track(int n, double hours_step) {
  std::vector<Fix> out;
  Rng rng(20230723);
  double lon = 133.0, lat = 17.0, wind = 38.0;
  for (int k = 0; k < n; ++k) {
    out.push_back({k * hours_step, lon, lat, wind});
    lon -= 0.55 * hours_step / 6.0 + 0.05 * rng.normal();
    lat += 0.38 * hours_step / 6.0 + 0.04 * rng.normal();
    wind += (k < n / 2 ? 2.0 : -1.5) * hours_step / 6.0;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("Fig. 7 — Doksuri analog: forecast track vs reference track\n");
  std::printf("============================================================\n\n");

  static std::vector<Fix> forecast;
  static double hours_step = 6.0;
  par::run(2, [&](par::Comm& comm) {
    cpl::CoupledConfig config;
    config.atm.mesh_n = 10;
    config.atm.nlev = 8;
    config.atm.drag_per_second = 5e-7;
    config.ocn.grid = grid::TripolarConfig{96, 72, 8};
    cpl::CoupledModel model(comm, {config});

    atm::VortexSpec spec;
    spec.lon_deg = 133.0;
    spec.lat_deg = 17.0;
    spec.radius_km = 350.0;
    spec.max_wind_ms = 50.0;
    spec.depression_m = 130.0;
    model.seed_typhoon(spec);
    if (model.has_atm()) {
      auto& dycore = model.atm().dycore();
      for (std::size_t c = 0; c < dycore.mesh().num_owned(); ++c) {
        double u = 0.0, v = 0.0;
        dycore.wind_at(c, u, v);
        dycore.set_wind_at(c, u - 5.5, v + 1.2);
      }
    }

    hours_step = model.atm_window_seconds() / 3600.0;
    double lon = spec.lon_deg, lat = spec.lat_deg;
    for (int w = 0; w < 8; ++w) {
      const atm::VortexFix fix = model.track_typhoon(lon, lat, 700.0);
      if (fix.found) {
        lon = fix.lon_deg;
        lat = fix.lat_deg;
        if (comm.rank() == 0)
          forecast.push_back({w * hours_step, lon, lat, fix.max_wind_ms});
      }
      model.run_windows(1);
    }
  });

  const auto reference = best_track(static_cast<int>(forecast.size()),
                                    hours_step);
  std::printf("  t[h]   forecast lon/lat  wind cat |  best lon/lat     wind "
              "cat | err[km]\n");
  double mean_err = 0.0, early_err = 0.0;
  int early = 0;
  for (std::size_t k = 0; k < forecast.size(); ++k) {
    const Fix& f = forecast[k];
    const Fix& b = reference[k];
    const double err = atm::track_distance_km(f.lon, f.lat, b.lon, b.lat);
    mean_err += err;
    if (k < forecast.size() / 2) {
      early_err += err;
      ++early;
    }
    std::printf("  %4.0f   %6.2fE %5.2fN  %5.1f  C%d | %6.2fE %5.2fN  %5.1f "
                " C%d | %7.0f\n",
                f.hours, f.lon, f.lat, f.wind,
                atm::intensity_category(f.wind), b.lon, b.lat, b.wind,
                atm::intensity_category(b.wind), err);
  }
  if (!forecast.empty()) {
    mean_err /= static_cast<double>(forecast.size());
    std::printf("\n  mean track error %.0f km (first half: %.0f km)\n",
                mean_err, early ? early_err / early : 0.0);
  }
  std::printf("\npaper's qualitative claims: close agreement in the initial\n"
              "stage, qualitative consistency later, and a more intense storm\n"
              "than coarse reanalysis — at this toy resolution the early-stage\n"
              "agreement and the intensity evolution are the reproduced parts.\n");
  return 0;
}
