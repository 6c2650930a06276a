// Configuration of the GRIST-mini atmosphere component.
//
// Sub-stepping mirrors §6.1: at 1 km the paper uses dycore/tracer/model
// timesteps of 8 s / 30 s / 120 s — ratios of 1 : 3.75 : 15 with 30 vertical
// layers. This reproduction keeps those ratios (15 dycore substeps and 4
// tracer substeps per model step) at every resolution, with the dycore step
// chosen from the mesh spacing by a gravity-wave CFL condition.
#pragma once

#include <cstdint>

#include "grid/icosahedral.hpp"

namespace ap3::atm {

struct AtmConfig {
  int mesh_n = 8;            ///< icosahedral subdivision (cells = 20 n²)
  int nlev = 30;             ///< vertical layers (paper: 30)
  int dycore_substeps = 15;  ///< dycore steps per model step (120/8)
  int tracer_substeps = 4;   ///< tracer steps per model step (~120/30)
  double mean_depth_m = 1000.0;  ///< equivalent depth of the SW layer
  double drag_per_second = 2.0e-6;   ///< Rayleigh drag on momentum
  double albedo = 0.3;
  bool mixed_precision = false;  ///< §5.2.3 group-scaled dycore state
  /// §5.1.1: offload the conflict-free dycore loops through the SWGOMP-style
  /// directive layer (results are bitwise identical to the serial path).
  bool use_swgomp = false;
  std::uint64_t seed = 2023;

  // Synthetic straggler stall (same contract as OcnConfig's): every model
  // step sleeps stall_seconds_per_point × (owned cells with global id
  // >= stall_cell_begin) and reports the slept time on "atm:busy_seconds".
  // The icosahedral mesh has no block decomposition to re-cut, so an atm
  // straggler exercises the balancer's busy-channel assessment path without
  // ever migrating; never touches model state.
  double stall_seconds_per_point = 0.0;
  std::int64_t stall_cell_begin = -1;  ///< -1: no stall band

  /// Gravity-wave speed of the layer.
  double wave_speed() const;
  /// Dycore timestep from CFL on the mean cell spacing.
  double dycore_dt_seconds() const;
  double model_dt_seconds() const { return dycore_dt_seconds() * dycore_substeps; }
  double tracer_dt_seconds() const {
    return model_dt_seconds() / tracer_substeps;
  }

  /// The paper's five configurations (1/3/6/10/25 km); this reproduction
  /// scales the same shapes down by `shrink` (mesh_n divided, ratios kept).
  static AtmConfig for_resolution_km(double km, double shrink = 1.0);
};

}  // namespace ap3::atm
