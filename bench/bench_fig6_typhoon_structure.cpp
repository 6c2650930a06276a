// Regenerates the Fig. 6 contrast: typhoon structure at fine ("3v2-like")
// versus coarse ("25v10-like") coupled resolution — eye depth and
// compactness in the wind field, and the richness of the sea-surface
// Rossby-number response beneath the storm.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "base/constants.hpp"
#include "coupler/driver.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;

struct StructureMetrics {
  double eye_depth_m = 0.0;        ///< central thickness deficit
  double max_wind = 0.0;
  double rmw_km = 0.0;             ///< radius of maximum wind
  double ro_p99 = 0.0;             ///< 99th percentile |Ro| near the storm
  int cells_in_core = 0;           ///< resolution of the eye region
};

StructureMetrics run_case(int mesh_n, int ocn_nx, int ocn_ny) {
  static StructureMetrics metrics;
  metrics = StructureMetrics{};
  par::run(2, [&](par::Comm& comm) {
    cpl::CoupledConfig config;
    config.atm.mesh_n = mesh_n;
    config.atm.nlev = 8;
    config.atm.drag_per_second = 5e-7;
    config.ocn.grid = grid::TripolarConfig{ocn_nx, ocn_ny, 8};
    cpl::CoupledModel model(comm, {config});

    atm::VortexSpec spec;
    spec.lon_deg = 133.0;
    spec.lat_deg = 17.0;
    spec.radius_km = 350.0;
    spec.max_wind_ms = 50.0;
    spec.depression_m = 120.0;
    model.seed_typhoon(spec);
    model.run_windows(3);
    const atm::VortexFix fix = model.track_typhoon(133.0, 17.0, 900.0);

    // Wind profile around the center: max wind and its radius.
    double local_best_wind = 0.0, local_rmw = 0.0;
    int local_core_cells = 0;
    if (model.has_atm()) {
      auto& dycore = model.atm().dycore();
      for (std::size_t c = 0; c < dycore.mesh().num_owned(); ++c) {
        const double lon = dycore.mesh().lon_rad(c) * constants::kRadToDeg;
        const double lat = dycore.mesh().lat_rad(c) * constants::kRadToDeg;
        const double r =
            atm::track_distance_km(fix.lon_deg, fix.lat_deg, lon, lat);
        if (r > 1200.0) continue;
        if (r < 800.0) ++local_core_cells;  // ~core region at toy scale
        double u = 0.0, v = 0.0;
        dycore.wind_at(c, u, v);
        const double wind = std::sqrt(u * u + v * v);
        if (wind > local_best_wind) {
          local_best_wind = wind;
          local_rmw = r;
        }
      }
    }
    const double best_wind =
        comm.allreduce_value(local_best_wind, par::ReduceOp::kMax);
    // The rank holding the max reports its radius; others report 0.
    const double rmw = comm.allreduce_value(
        local_best_wind == best_wind ? local_rmw : 0.0, par::ReduceOp::kMax);
    const int core_cells =
        comm.allreduce_value(local_core_cells, par::ReduceOp::kSum);

    // Ocean response near the storm: |Ro| distribution tail.
    double local_p99 = 0.0;
    if (model.has_ocn()) {
      const auto ro = model.ocn().surface_rossby_number();
      std::vector<double> magnitudes;
      std::size_t col = 0;
      const auto& g = model.ocn().ocean_grid();
      for (auto gid : model.ocn().ocean_gids()) {
        const int gi = static_cast<int>(gid % g.nx());
        const int gj = static_cast<int>(gid / g.nx());
        if (atm::track_distance_km(fix.lon_deg, fix.lat_deg, g.lon_deg(gi),
                                   g.lat_deg(gj)) < 1500.0)
          magnitudes.push_back(std::abs(ro[col]));
        ++col;
      }
      std::sort(magnitudes.begin(), magnitudes.end());
      if (!magnitudes.empty())
        local_p99 = magnitudes[magnitudes.size() * 99 / 100];
    }
    const double ro_p99 = comm.allreduce_value(local_p99, par::ReduceOp::kMax);

    if (comm.rank() == 0) {
      metrics.eye_depth_m = config.atm.mean_depth_m - fix.min_h_m;
      metrics.max_wind = best_wind;
      metrics.rmw_km = rmw;
      metrics.ro_p99 = ro_p99;
      metrics.cells_in_core = core_cells;
    }
  });
  return metrics;
}

}  // namespace

int main() {
  std::printf("Fig. 6 — typhoon structure, fine vs coarse coupled resolution\n");
  std::printf("==============================================================\n\n");
  std::printf("running fine (3v2-like) case...\n");
  const StructureMetrics fine = run_case(10, 96, 72);
  std::printf("running coarse (25v10-like) case...\n\n");
  const StructureMetrics coarse = run_case(4, 32, 24);

  std::printf("  metric                          fine        coarse\n");
  std::printf("  eye depth [m]              %9.1f   %11.1f\n",
              fine.eye_depth_m, coarse.eye_depth_m);
  std::printf("  max wind [m/s]             %9.1f   %11.1f\n", fine.max_wind,
              coarse.max_wind);
  std::printf("  radius of max wind [km]    %9.0f   %11.0f\n", fine.rmw_km,
              coarse.rmw_km);
  std::printf("  cells inside the core      %9d   %11d\n", fine.cells_in_core,
              coarse.cells_in_core);
  std::printf("  ocean |Ro| p99 near storm  %9.4f   %11.4f\n", fine.ro_p99,
              coarse.ro_p99);

  std::printf("\npaper's qualitative claims to reproduce:\n");
  std::printf("  [%c] fine case resolves the core with more cells\n",
              fine.cells_in_core > 2 * coarse.cells_in_core ? 'x' : ' ');
  std::printf("  [%c] fine case sustains stronger maximum winds\n",
              fine.max_wind > coarse.max_wind ? 'x' : ' ');
  std::printf("  [%c] fine case shows a richer sea-surface Ro response\n",
              fine.ro_p99 > coarse.ro_p99 ? 'x' : ' ');
  return 0;
}
