#include "lnd/land.hpp"

#include <algorithm>
#include <cmath>

#include "base/constants.hpp"
#include "base/error.hpp"

namespace ap3::lnd {

using constants::kLatentVap;
using constants::kRhoWater;
using constants::kStefanBoltzmann;

LandModel::LandModel(std::size_t ncells, LandConfig config)
    : config_(config), tskin_(ncells, 288.0), water_(ncells, 0.05) {}

LandResponse LandModel::step_cell(std::size_t cell, double dt,
                                  const LandForcing& forcing) {
  AP3_REQUIRE(cell < tskin_.size());
  double& tskin = tskin_[cell];
  double& water = water_[cell];

  // Energy balance: absorbed SW + incoming LW − emitted LW − turbulent flux.
  const double absorbed_sw = forcing.gsw * (1.0 - config_.albedo);
  const double absorbed_lw = config_.emissivity * forcing.glw;
  const double emitted =
      config_.emissivity * kStefanBoltzmann * tskin * tskin * tskin * tskin;
  const double sensible = 15.0 * (tskin - forcing.t_air);  // bulk exchange

  // Evaporation limited by bucket content; wetter soil evaporates faster.
  const double wetness = std::clamp(water / config_.bucket_depth, 0.0, 1.0);
  const double available_energy = std::max(0.0, absorbed_sw);
  double evap_ms = config_.evap_coeff * available_energy * wetness;  // [m/s]
  evap_ms = std::min(evap_ms, water / std::max(dt, 1.0));
  const double latent = evap_ms * kRhoWater * kLatentVap;

  const double net = absorbed_sw + absorbed_lw - emitted - sensible - latent;
  tskin += dt * net / config_.heat_capacity;
  tskin = std::clamp(tskin, 180.0, 340.0);

  // Bucket hydrology: precipitation in, evaporation out, runoff above cap.
  water += dt * (forcing.precip / kRhoWater - evap_ms);
  if (water > config_.bucket_depth) {
    water -= config_.runoff_fraction * (water - config_.bucket_depth);
    water = std::min(water, config_.bucket_depth * 1.5);
  }
  if (water < 0.0) water = 0.0;

  LandResponse response;
  response.tskin = tskin;
  response.evaporation = evap_ms * kRhoWater;
  response.sensible = sensible;
  return response;
}

}  // namespace ap3::lnd
