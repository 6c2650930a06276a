// Cross-module integration tests: the full component chain through the
// coupler, restart round trips through the parallel I/O layer, regridding
// between the real component grids, the perf model fed by real component
// constants, and the typhoon pipeline end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "coupler/driver.hpp"
#include "obs/obs.hpp"
#include "io/subfile.hpp"
#include "par/comm.hpp"
#include "perf/scaling.hpp"

namespace {

using namespace ap3;

cpl::CoupledConfig tiny_config() {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 5;
  config.atm.nlev = 6;
  config.ocn.grid = grid::TripolarConfig{40, 30, 6};
  return config;
}

TEST(Integration, AtmToOcnRegridPreservesPhysicalRange) {
  par::run(2, [](par::Comm& comm) {
    cpl::CoupledModel model(comm, {tiny_config()});
    model.run_windows(5);
    // After one full ocean coupling cycle the ocean forcing derived from
    // regridded atmosphere fields must be physical.
    ASSERT_TRUE(model.has_ocn());
    const ocn::OcnModel& ocn = model.ocn();
    // Run another cycle and check SST stays in a physical band everywhere.
    model.run_windows(5);
    for (auto gid : ocn.ocean_gids()) {
      const int i = static_cast<int>(gid % ocn.config().grid.nx) - ocn.x0();
      const int j = static_cast<int>(gid / ocn.config().grid.nx) - ocn.y0();
      EXPECT_GT(ocn.temp(i, j, 0), -5.0);
      EXPECT_LT(ocn.temp(i, j, 0), 40.0);
    }
  });
}

TEST(Integration, IceRespondsToOceanThroughCoupler) {
  par::run(2, [](par::Comm& comm) {
    cpl::CoupledModel model(comm, {tiny_config()});
    const double ice0 = model.diagnostics().ice_fraction;
    model.run_windows(10);
    const double ice1 = model.diagnostics().ice_fraction;
    // Ice evolves (the initial caps adjust to the coupled SST field) and
    // stays a valid fraction.
    EXPECT_GE(ice1, 0.0);
    EXPECT_LE(ice1, 1.0);
    EXPECT_NE(ice0, ice1);
  });
}

TEST(Integration, LandCellsUseLandModelOceanCellsUseSst) {
  par::run(1, [](par::Comm& comm) {
    cpl::CoupledConfig config = tiny_config();
    cpl::CoupledModel model(comm, {config});
    model.run_windows(6);
    ASSERT_TRUE(model.has_atm());
    atm::AtmModel* atm = &model.atm();
    int land_checked = 0, ocean_checked = 0;
    for (std::size_t c = 0; c < atm->dycore().mesh().num_owned(); ++c) {
      if (atm->is_land(c)) {
        // Land skin temperature is the land model's prognostic value.
        EXPECT_NEAR(atm->tskin(c), atm->land().tskin(c), 1e-12);
        ++land_checked;
      } else {
        // Ocean skin temperature tracks the (possibly ice-modulated) SST.
        EXPECT_GT(atm->tskin(c), 200.0);
        EXPECT_LT(atm->tskin(c), 320.0);
        ++ocean_checked;
      }
    }
    EXPECT_GT(land_checked, 0);
    EXPECT_GT(ocean_checked, 0);
  });
}

TEST(Integration, OceanRestartThroughSubfileIo) {
  // Write the ocean surface state with the §5.2.5 machinery, reload it into
  // a fresh model, and verify bitwise agreement — the restart pathway.
  const std::string base = "/tmp/ap3_it_restart";
  par::run(4, [&](par::Comm& comm) {
    ocn::OcnConfig config;
    config.grid = grid::TripolarConfig{48, 36, 6};
    ocn::OcnModel model(comm, config);
    mct::AttrVect x2o(ocn::OcnModel::import_fields(), model.ocean_gids().size());
    for (auto& t : x2o.field("taux")) t = 0.1;
    model.import_state(x2o);
    model.run(0.0, config.baroclinic_dt_seconds() * 5);

    io::FieldData sst;
    sst.ids = model.ocean_gids();
    for (auto gid : model.ocean_gids()) {
      const int i = static_cast<int>(gid % config.grid.nx) - model.x0();
      const int j = static_cast<int>(gid / config.grid.nx) - model.y0();
      sst.values.push_back(model.temp(i, j, 0));
    }
    io::write_subfiles(comm, {base, 2}, sst);
    comm.barrier();

    ocn::OcnModel fresh(comm, config);
    const io::FieldData back =
        io::read_subfiles(comm, {base, 2}, fresh.ocean_gids());
    std::size_t col = 0;
    for (auto gid : fresh.ocean_gids()) {
      const int i = static_cast<int>(gid % config.grid.nx) - fresh.x0();
      const int j = static_cast<int>(gid / config.grid.nx) - fresh.y0();
      fresh.temp_level(0)[fresh.field_index(i, j)] = back.values[col];
      ++col;
    }
    // The reloaded surface matches the source bitwise.
    col = 0;
    for (auto gid : fresh.ocean_gids()) {
      const int i = static_cast<int>(gid % config.grid.nx) - fresh.x0();
      const int j = static_cast<int>(gid / config.grid.nx) - fresh.y0();
      EXPECT_EQ(fresh.temp(i, j, 0), sst.values[col]);
      ++col;
    }
    comm.barrier();
  });
  for (int k = 0; k < 2; ++k)
    std::remove((base + "." + std::to_string(k) + ".bin").c_str());
}

TEST(Integration, TrainedAiSuiteDrivesAtmosphereStably) {
  // Swap the AI suite into the running atmosphere (the §5.2.1 deployment
  // path) and verify the model integrates stably with physical output.
  par::run(1, [](par::Comm& comm) {
    atm::AtmConfig config;
    config.mesh_n = 5;
    config.nlev = 8;
    grid::IcosahedralGrid mesh(config.mesh_n);
    atm::AtmModel model(comm, config, mesh);

    atm::ConventionalPhysics conventional;
    const atm::TrainingData data = atm::generate_training_data(
        conventional, 16, 4, static_cast<std::size_t>(config.nlev), 11,
        config.model_dt_seconds());
    ai::SuiteConfig suite_config;
    suite_config.levels = config.nlev;
    suite_config.cnn_hidden = 8;
    suite_config.mlp_hidden = 16;
    const atm::TrainedSuite trained =
        atm::train_ai_physics(data, suite_config, 6, 3e-3f);
    model.set_physics(std::make_unique<atm::AiPhysics>(trained.suite));
    EXPECT_STREQ(model.physics().name(), "ai");

    model.run(0.0, 3 * config.model_dt_seconds());
    const auto& state = model.dycore().state();
    for (std::size_t c = 0; c < model.dycore().mesh().num_owned(); ++c) {
      for (std::size_t k = 0; k < state.nlev; ++k) {
        EXPECT_TRUE(std::isfinite(state.temp[state.tq(c, k)]));
        EXPECT_GT(state.temp[state.tq(c, k)], 120.0);
        EXPECT_LT(state.temp[state.tq(c, k)], 400.0);
        EXPECT_GE(state.q[state.tq(c, k)], 0.0);
      }
    }
  });
}

TEST(Integration, PerfModelUsesRealComponentConstants) {
  // The AI-physics flops in the perf workload must equal the real network's
  // flops (the model is fed by the implementation, not by magic numbers).
  const perf::AtmWorkload w = perf::AtmWorkload::paper(1.0);
  const ai::SuiteConfig paper = ai::SuiteConfig::paper_scale();
  const double expected = ai::TendencyCnn(paper).flops_per_column() +
                          ai::RadiationMlp(paper).flops_per_column();
  EXPECT_DOUBLE_EQ(w.ai_physics_flops, expected);
}

TEST(Integration, CoupledTimersObserveComponentRatio) {
  // The atmosphere does far more work per window than the ice; wall-clock
  // observation through the whole stack should reflect it. Measured with the
  // observability layer's RAII span.
  par::run(1, [](par::Comm& comm) {
    cpl::CoupledModel model(comm, {tiny_config()});
    const std::size_t mark = obs::local().event_count();
    {
      AP3_SPAN("cpl:total");
      model.run_windows(5);
    }
    double total = 0.0;
    for (const auto& agg : obs::local().aggregate_spans(mark)) {
      if (agg.name == "cpl:total") total = agg.total_seconds;
    }
    EXPECT_GT(total, 0.0);
    EXPECT_EQ(model.windows_run(), 5);
  });
}

TEST(Integration, ConcurrentLayoutSurvivesTyphoonPipeline) {
  par::run(4, [](par::Comm& comm) {
    cpl::CoupledConfig config = tiny_config();
    config.layout = cpl::Layout::kConcurrent;
    config.atm_ranks = 2;
    cpl::CoupledModel model(comm, {config});
    model.seed_typhoon(atm::VortexSpec{});
    model.run_windows(6);
    const atm::VortexFix fix = model.track_typhoon(130.0, 15.0, 2500.0);
    // Every rank gets the identical broadcast fix.
    const double check = comm.allreduce_value(fix.lon_deg, par::ReduceOp::kMax) -
                         comm.allreduce_value(fix.lon_deg, par::ReduceOp::kMin);
    EXPECT_EQ(check, 0.0);
  });
}

}  // namespace
