// Tests for the CPL7-style coupler: clock alarms, bulk flux physics, the
// fully coupled AP3ESM driver in both task layouts (§5.1.2), coupling
// frequencies (§6.1), and air–sea feedback (typhoon cold wake direction).
#include <gtest/gtest.h>

#include <cmath>

#include "base/constants.hpp"
#include "coupler/clock.hpp"
#include "coupler/driver.hpp"
#include "coupler/fluxes.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;
using namespace ap3::cpl;

CoupledConfig small_coupled_config() {
  CoupledConfig config;
  config.atm.mesh_n = 5;  // 500 cells
  config.atm.nlev = 6;
  config.ocn.grid = grid::TripolarConfig{40, 30, 6};
  config.ocn_couple_ratio = 5;
  return config;
}

// --- clock ------------------------------------------------------------------

TEST(Clock, AdvancesAndRings) {
  Clock clock(0.0, 480.0);
  const int ocn = clock.add_alarm("ocn", 5);
  const int ice = clock.add_alarm("ice", 1);
  int ocn_rings = 0, ice_rings = 0;
  for (int s = 0; s < 10; ++s) {
    if (clock.ringing(ocn)) ++ocn_rings;
    if (clock.ringing(ice)) ++ice_rings;
    clock.advance();
  }
  EXPECT_EQ(ocn_rings, 2);   // steps 0 and 5
  EXPECT_EQ(ice_rings, 10);  // every step (180/day cadence)
  EXPECT_DOUBLE_EQ(clock.now(), 4800.0);
  EXPECT_EQ(clock.alarm_name(ocn), "ocn");
}

TEST(Clock, PaperCouplingFrequencies) {
  // §6.1: 180, 36, 180 couplings/day for atm, ocn, ice. With the master step
  // at the atm period, the ocean alarm rings every 5th step.
  const double atm_period = constants::kSecondsPerDay / 180.0;
  Clock clock(0.0, atm_period);
  const int ocn = clock.add_alarm("ocn", 5);
  int rings = 0;
  for (int s = 0; s < 180; ++s) {
    if (clock.ringing(ocn)) ++rings;
    clock.advance();
  }
  EXPECT_EQ(rings, 36);
  EXPECT_DOUBLE_EQ(clock.now(), constants::kSecondsPerDay);
}

TEST(Clock, BadAlarmThrows) {
  Clock clock(0.0, 1.0);
  EXPECT_THROW(clock.add_alarm("x", 0), ap3::Error);
  EXPECT_THROW(Clock(0.0, -1.0), ap3::Error);
}

// --- bulk fluxes -----------------------------------------------------------------

TEST(Fluxes, SunWarmsOcean) {
  BulkFluxConfig config;
  std::vector<double> taux{0.05}, tauy{0.0}, tbot{300.0}, qbot{0.018},
      gsw{900.0}, glw{400.0}, precip{0.0}, sst{300.0}, ifrac{0.0};
  std::vector<double> qnet(1), fresh(1), otaux(1), otauy(1);
  compute_air_sea_fluxes(config,
                         {taux, tauy, tbot, qbot, gsw, glw, precip, sst, ifrac},
                         {qnet, fresh, otaux, otauy});
  EXPECT_GT(qnet[0], 0.0);  // strong sun dominates
}

TEST(Fluxes, ColdDryAirCoolsOcean) {
  BulkFluxConfig config;
  std::vector<double> taux{0.3}, tauy{0.0}, tbot{275.0}, qbot{0.001},
      gsw{0.0}, glw{280.0}, precip{0.0}, sst{302.0}, ifrac{0.0};
  std::vector<double> qnet(1), fresh(1), otaux(1), otauy(1);
  compute_air_sea_fluxes(config,
                         {taux, tauy, tbot, qbot, gsw, glw, precip, sst, ifrac},
                         {qnet, fresh, otaux, otauy});
  EXPECT_LT(qnet[0], -100.0);  // latent + sensible + longwave losses
}

TEST(Fluxes, StrongerWindMoreEvaporativeCooling) {
  BulkFluxConfig config;
  auto qnet_for = [&](double tau) {
    std::vector<double> taux{tau}, tauy{0.0}, tbot{295.0}, qbot{0.005},
        gsw{0.0}, glw{350.0}, precip{0.0}, sst{302.0}, ifrac{0.0};
    std::vector<double> qnet(1), fresh(1), otaux(1), otauy(1);
    compute_air_sea_fluxes(
        config, {taux, tauy, tbot, qbot, gsw, glw, precip, sst, ifrac},
        {qnet, fresh, otaux, otauy});
    return qnet[0];
  };
  EXPECT_LT(qnet_for(1.0), qnet_for(0.05));  // typhoon winds cool more
}

TEST(Fluxes, IceInsulatesAndDampsStress) {
  BulkFluxConfig config;
  std::vector<double> taux{0.2}, tauy{0.1}, tbot{250.0}, qbot{0.001},
      gsw{100.0}, glw{250.0}, precip{1e-5}, sst{272.0}, ifrac{1.0};
  std::vector<double> qnet(1), fresh(1), otaux(1), otauy(1);
  compute_air_sea_fluxes(config,
                         {taux, tauy, tbot, qbot, gsw, glw, precip, sst, ifrac},
                         {qnet, fresh, otaux, otauy});
  // Full cover: only the weak conductive flux, halved stress, no rain input.
  EXPECT_NEAR(qnet[0], 2.0 * (250.0 - 272.0), 1e-9);
  EXPECT_DOUBLE_EQ(otaux[0], 0.1);
  EXPECT_DOUBLE_EQ(fresh[0], 0.0);
}

TEST(Fluxes, QsatMonotone) {
  EXPECT_GT(qsat_surface(305.0), qsat_surface(285.0));
}

// --- coupled driver ----------------------------------------------------------------

TEST(Coupled, SequentialLayoutRunsAndStaysPhysical) {
  par::run(2, [](par::Comm& comm) {
    CoupledConfig config = small_coupled_config();
    CoupledModel model(comm, {config});
    EXPECT_TRUE(model.has_atm());
    EXPECT_TRUE(model.has_ocn());
    model.run_windows(2 * config.ocn_couple_ratio);
    EXPECT_EQ(model.windows_run(), 10);
    const CoupledDiagnostics diag = model.diagnostics();
    EXPECT_GT(diag.mean_sst_k, 270.0);
    EXPECT_LT(diag.mean_sst_k, 310.0);
    EXPECT_TRUE(std::isfinite(diag.max_surface_current));
    EXPECT_GE(diag.ice_fraction, 0.0);
    EXPECT_LT(diag.ice_fraction, 0.5);
    EXPECT_EQ(diag.windows, 10);
  });
}

TEST(Coupled, ConcurrentLayoutPartitionsComponents) {
  par::run(4, [](par::Comm& comm) {
    CoupledConfig config = small_coupled_config();
    config.layout = Layout::kConcurrent;
    config.atm_ranks = 2;
    CoupledModel model(comm, {config});
    if (comm.rank() < 2) {
      EXPECT_TRUE(model.has_atm());
      EXPECT_FALSE(model.has_ocn());
      EXPECT_TRUE(model.has_ice());
    } else {
      EXPECT_FALSE(model.has_atm());
      EXPECT_TRUE(model.has_ocn());
      EXPECT_FALSE(model.has_ice());
      EXPECT_THROW(model.ice(), ap3::Error);
    }
    model.run_windows(config.ocn_couple_ratio);
    const double sst = model.diagnostics().mean_sst_k;
    EXPECT_GT(sst, 270.0);
    EXPECT_LT(sst, 310.0);
  });
}

TEST(Coupled, SequentialAndConcurrentAgreeClosely) {
  // The two task layouts implement the same lagged coupling algorithm, so
  // global diagnostics must match to high precision (identical component
  // decompositions are not required for agreement of area means).
  static double sst_seq, sst_con;
  CoupledConfig config = small_coupled_config();
  par::run(2, [&](par::Comm& comm) {
    CoupledModel model(comm, {config});
    model.run_windows(config.ocn_couple_ratio);
    const double sst = model.diagnostics().mean_sst_k;  // collective
    if (comm.rank() == 0) sst_seq = sst;
  });
  par::run(2, [&](par::Comm& comm) {
    CoupledConfig concurrent = config;
    concurrent.layout = Layout::kConcurrent;
    concurrent.atm_ranks = 1;
    CoupledModel model(comm, {concurrent});
    model.run_windows(config.ocn_couple_ratio);
    const double sst = model.diagnostics().mean_sst_k;  // collective
    if (comm.rank() == 0) sst_con = sst;
  });
  EXPECT_NEAR(sst_seq, sst_con, 0.05);
}

TEST(Coupled, OceanCouplesAtConfiguredRatio) {
  par::run(1, [](par::Comm& comm) {
    CoupledConfig config = small_coupled_config();
    CoupledModel model(comm, {config});
    model.run_windows(10);
    // The ocean advanced 2 windows of 5 atm windows each.
    ASSERT_TRUE(model.has_ocn());
    EXPECT_GT(model.ocn().baroclinic_steps(), 0);
    // Atmosphere ran every window.
    EXPECT_EQ(model.atm().model_steps(), 10);
    const CoupledDiagnostics diag = model.diagnostics();
    EXPECT_EQ(diag.atm_steps, 10);
    EXPECT_EQ(diag.ocn_baroclinic_steps, model.ocn().baroclinic_steps());
  });
}

TEST(Coupled, TyphoonSeedTrackAndColdWake) {
  par::run(2, [](par::Comm& comm) {
    CoupledConfig config = small_coupled_config();
    CoupledModel model(comm, {config});

    atm::VortexSpec spec;
    spec.lon_deg = 135.0;
    spec.lat_deg = 18.0;
    spec.max_wind_ms = 45.0;
    spec.depression_m = 80.0;
    const double sst_before = model.sst_near(135.0, 18.0, 800.0);
    model.seed_typhoon(spec);
    const atm::VortexFix fix0 = model.track_typhoon(135.0, 18.0, 1200.0);
    ASSERT_TRUE(fix0.found);
    EXPECT_GT(fix0.max_wind_ms, 15.0);

    model.run_windows(2 * config.ocn_couple_ratio);
    const atm::VortexFix fix1 = model.track_typhoon(fix0.lon_deg, fix0.lat_deg,
                                                    2000.0);
    EXPECT_TRUE(fix1.found);
    // Cold wake: enhanced evaporative cooling under the storm lowers local
    // SST relative to the pre-storm state.
    const double sst_after = model.sst_near(fix0.lon_deg, fix0.lat_deg, 800.0);
    EXPECT_LT(sst_after, sst_before + 0.5);
    EXPECT_TRUE(std::isfinite(sst_after));
  });
}

TEST(Coupled, GetTimingReportsSypd) {
  // §6.2: GPTL-style timers + getTiming reduction (max across ranks),
  // whole-application measurement excluding initialization.
  par::run(2, [](par::Comm& comm) {
    CoupledConfig config = small_coupled_config();
    CoupledModel model(comm, {config});
    model.run_windows(config.ocn_couple_ratio);
    const TimingSummary summary = model.timing_summary();
    EXPECT_GT(summary.wall_seconds, 0.0);
    EXPECT_GT(summary.simulated_seconds, 0.0);
    EXPECT_GT(summary.sypd(), 0.0);
    // Phases present and nested times bounded by the run total.
    bool saw_atm = false, saw_ocn = false;
    for (const obs::MergedSpan& phase : summary.phases) {
      EXPECT_LE(phase.total_mean, phase.total_max + 1e-12);
      if (phase.name == "run:atm_ice_phase:atm_run") saw_atm = true;
      if (phase.name == "run:ocn_phase:ocn_run") saw_ocn = true;
      if (phase.name != "run") {
        EXPECT_LE(phase.total_max, summary.wall_seconds + 1e-9);
      }
    }
    EXPECT_TRUE(saw_atm);
    EXPECT_TRUE(saw_ocn);
    // The report renders.
    EXPECT_NE(summary.to_string().find("SYPD"), std::string::npos);
  });
}

TEST(Coupled, WindowSecondsConsistent) {
  par::run(1, [](par::Comm& comm) {
    CoupledConfig config = small_coupled_config();
    CoupledModel model(comm, {config});
    EXPECT_DOUBLE_EQ(model.atm_window_seconds(),
                     config.atm.model_dt_seconds());
    EXPECT_DOUBLE_EQ(model.ocn_window_seconds(),
                     5.0 * config.atm.model_dt_seconds());
  });
}

// --- config validation (regression: bad configs used to crash or hang deep
// inside construction instead of failing fast with a clear message) ----------

TEST(CoupledValidation, RejectsNonPositiveCoupleRatio) {
  CoupledConfig config = small_coupled_config();
  config.ocn_couple_ratio = 0;
  EXPECT_THROW(validate_coupled_config(config, 1), ap3::Error);
  config.ocn_couple_ratio = -3;
  EXPECT_THROW(validate_coupled_config(config, 1), ap3::Error);
}

TEST(CoupledValidation, RejectsNonPositiveRegridNeighbors) {
  CoupledConfig config = small_coupled_config();
  config.regrid_neighbors = 0;
  EXPECT_THROW(validate_coupled_config(config, 1), ap3::Error);
}

TEST(CoupledValidation, RejectsNegativeRebalanceEvery) {
  CoupledConfig config = small_coupled_config();
  config.rebalance_every = -1;
  EXPECT_THROW(validate_coupled_config(config, 1), ap3::Error);
}

TEST(CoupledValidation, RejectsNegativeIceDt) {
  CoupledConfig config = small_coupled_config();
  config.ice_dt_seconds = -1.0;
  EXPECT_THROW(validate_coupled_config(config, 1), ap3::Error);
}

TEST(CoupledValidation, RejectsBadConcurrentPartition) {
  CoupledConfig config = small_coupled_config();
  config.layout = Layout::kConcurrent;
  config.atm_ranks = -1;
  EXPECT_THROW(validate_coupled_config(config, 4), ap3::Error);
  // atm_ranks must leave at least one rank for the ocean.
  config.atm_ranks = 4;
  EXPECT_THROW(validate_coupled_config(config, 4), ap3::Error);
  config.atm_ranks = 5;
  EXPECT_THROW(validate_coupled_config(config, 4), ap3::Error);
  // A concurrent layout needs at least two ranks to partition.
  config.atm_ranks = 1;
  EXPECT_THROW(validate_coupled_config(config, 1), ap3::Error);
  // And the boundary case that IS legal.
  EXPECT_NO_THROW(validate_coupled_config(config, 2));
}

TEST(CoupledValidation, ConstructionFailsFastOnBadConfig) {
  par::run(1, [](par::Comm& comm) {
    CoupledConfig config = small_coupled_config();
    config.ocn_couple_ratio = 0;
    EXPECT_THROW(CoupledModel model(comm, {config}), ap3::Error);
  });
}

}  // namespace
