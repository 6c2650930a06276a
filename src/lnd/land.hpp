// Land surface model: bucket hydrology + surface energy balance.
//
// §5.1.1: "GRIST and the land surface model directly exchange data,
// bypassing the coupler. Consequently, AP3ESM does not currently include a
// coupler-owned land model component." This model is therefore owned and
// stepped by the atmosphere component directly: the atmosphere hands it
// radiation, near-surface state, and precipitation; it returns the updated
// skin temperature and moisture availability that feed the surface schemes.
#pragma once

#include <cstdint>
#include <vector>

namespace ap3::lnd {

struct LandConfig {
  double heat_capacity = 2.0e6;   ///< areal heat capacity [J/m²/K]
                                  ///< (slab deep enough for multi-hour steps)
  double bucket_depth = 0.15;     ///< max soil water [m]
  double evap_coeff = 1.2e-10;    ///< evaporation [m/s per W/m²]; latent heat
                                  ///< stays below ~30 % of absorbed energy
  double runoff_fraction = 0.1;   ///< of over-capacity water
  double emissivity = 0.96;
  double albedo = 0.25;
};

/// Per-cell forcing from the atmosphere for one land step.
struct LandForcing {
  double gsw = 0.0;     ///< downward shortwave [W/m²]
  double glw = 0.0;     ///< downward longwave [W/m²]
  double t_air = 288.0; ///< lowest-level air temperature [K]
  double precip = 0.0;  ///< [kg/m²/s]
};

/// Per-cell response back to the atmosphere.
struct LandResponse {
  double tskin = 288.0;      ///< updated skin temperature [K]
  double evaporation = 0.0;  ///< moisture flux to atmosphere [kg/m²/s]
  double sensible = 0.0;     ///< sensible heat flux [W/m²]
};

class LandModel {
 public:
  LandModel(std::size_t ncells, LandConfig config = {});

  std::size_t ncells() const { return tskin_.size(); }
  double tskin(std::size_t cell) const { return tskin_[cell]; }
  double soil_water(std::size_t cell) const { return water_[cell]; }

  /// Advance cell `cell` by `dt` seconds under `forcing`.
  LandResponse step_cell(std::size_t cell, double dt, const LandForcing& forcing);

  // Checkpoint access: the full prognostic state is (tskin, water).
  const std::vector<double>& tskin_state() const { return tskin_; }
  const std::vector<double>& water_state() const { return water_; }
  void set_state(std::vector<double> tskin, std::vector<double> water) {
    tskin_ = std::move(tskin);
    water_ = std::move(water);
  }

 private:
  LandConfig config_;
  std::vector<double> tskin_;
  std::vector<double> water_;  ///< bucket content [m]
};

}  // namespace ap3::lnd
