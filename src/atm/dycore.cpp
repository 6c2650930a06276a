#include "atm/dycore.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "base/constants.hpp"
#include "base/error.hpp"
#include "base/hash.hpp"
#include "pp/swgomp.hpp"
#include "precision/group_scaled.hpp"

namespace ap3::atm {

using constants::kEarthRadiusM;
using constants::kGravity;
using constants::kOmega;

double AtmConfig::wave_speed() const {
  return std::sqrt(kGravity * mean_depth_m);
}

double AtmConfig::dycore_dt_seconds() const {
  const double spacing_m =
      grid::IcosaCounts::resolution_km(mesh_n) * 1000.0;
  return 0.2 * spacing_m / wave_speed();
}

AtmConfig AtmConfig::for_resolution_km(double km, double shrink) {
  AtmConfig config;
  const auto counts = grid::IcosaCounts::for_resolution_km(km * shrink);
  config.mesh_n = static_cast<int>(counts.n);
  return config;
}

namespace {
std::array<double, 3> normalize3(std::array<double, 3> v) {
  const double r = std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
  return {v[0] / r, v[1] / r, v[2] / r};
}
std::array<double, 3> cross3(const std::array<double, 3>& a,
                             const std::array<double, 3>& b) {
  return {a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
          a[0] * b[1] - a[1] * b[0]};
}
double dot3(const std::array<double, 3>& a, const std::array<double, 3>& b) {
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}
}  // namespace

LocalMesh::LocalMesh(const par::Comm& comm, const grid::IcosahedralGrid& mesh) {
  ncells_global_ = static_cast<std::int64_t>(mesh.num_cells());
  const grid::Range1D mine =
      grid::partition_1d(ncells_global_, comm.size(), comm.rank());
  owned_begin_ = mine.begin;
  num_owned_ = static_cast<std::size_t>(mine.size());

  area_.resize(num_owned_);
  coriolis_.resize(num_owned_);
  lon_.resize(num_owned_);
  lat_.resize(num_owned_);
  center_.resize(num_owned_);
  east_.resize(num_owned_);
  north_.resize(num_owned_);
  neighbors_.resize(num_owned_);

  // Ghosts: neighbor cells outside my contiguous range, sorted by gid.
  std::set<std::int64_t> ghost_set;
  for (std::size_t c = 0; c < num_owned_; ++c) {
    const auto gid = static_cast<std::size_t>(owned_begin_) + c;
    for (auto nb : mesh.cell_neighbors(gid)) {
      const auto nb64 = static_cast<std::int64_t>(nb);
      if (nb64 < mine.begin || nb64 >= mine.end) ghost_set.insert(nb64);
    }
  }
  ghost_ids_.assign(ghost_set.begin(), ghost_set.end());
  std::map<std::int64_t, std::size_t> ghost_slot;
  for (std::size_t g = 0; g < ghost_ids_.size(); ++g)
    ghost_slot[ghost_ids_[g]] = num_owned_ + g;

  for (std::size_t c = 0; c < num_owned_; ++c) {
    const auto gid = static_cast<std::size_t>(owned_begin_) + c;
    const grid::SpherePoint& center = mesh.cell_center(gid);
    center_[c] = {center.x, center.y, center.z};
    lon_[c] = center.lon();
    lat_[c] = center.lat();
    area_[c] = mesh.cell_area(gid) * kEarthRadiusM * kEarthRadiusM;
    coriolis_[c] = 2.0 * kOmega * std::sin(lat_[c]);
    // Local east/north basis (east degenerate at poles is fine: triangular
    // cell centers never sit exactly on the pole).
    const std::array<double, 3> up = center_[c];
    std::array<double, 3> east = {-up[1], up[0], 0.0};
    const double enorm = std::sqrt(dot3(east, east));
    if (enorm < 1e-12) {
      east = {1.0, 0.0, 0.0};
    } else {
      east = {east[0] / enorm, east[1] / enorm, east[2] / enorm};
    }
    east_[c] = east;
    north_[c] = cross3(up, east);

    const auto nbs = mesh.cell_neighbors(gid);
    const auto& edges = mesh.cell_edge_ids(gid);
    for (int k = 0; k < 3; ++k) {
      const auto nb = static_cast<std::int64_t>(nbs[static_cast<std::size_t>(k)]);
      Neighbor& entry = neighbors_[c][static_cast<std::size_t>(k)];
      entry.slot = (nb >= mine.begin && nb < mine.end)
                       ? static_cast<std::size_t>(nb - mine.begin)
                       : ghost_slot.at(nb);
      const auto edge = edges[static_cast<std::size_t>(k)];
      const auto& ev = mesh.edge_vertex_ids(edge);
      entry.edge_len_m =
          grid::IcosahedralGrid::arc(mesh.vertex(ev[0]), mesh.vertex(ev[1])) *
          kEarthRadiusM;
      const grid::SpherePoint& nb_center =
          mesh.cell_center(static_cast<std::size_t>(nb));
      entry.dist_m =
          grid::IcosahedralGrid::arc(center, nb_center) * kEarthRadiusM;
      // Outward direction: the chord toward the neighbor's center. Using the
      // un-projected chord makes the normal exactly antisymmetric between
      // the two sides of the face, so upwind fluxes cancel pairwise and mass
      // is conserved to round-off across any rank count. (The spurious
      // radial component is harmless: velocities stay tangent.)
      entry.out_normal = normalize3({nb_center.x - center.x,
                                     nb_center.y - center.y,
                                     nb_center.z - center.z});
    }
  }

  auto owner = [this, &comm](std::int64_t gid) {
    return grid::owner_1d(ncells_global_, comm.size(), gid);
  };
  std::vector<std::int64_t> owned_list(num_owned_);
  for (std::size_t c = 0; c < num_owned_; ++c)
    owned_list[c] = owned_begin_ + static_cast<std::int64_t>(c);
  halo_ = std::make_unique<grid::GraphHalo>(comm, owned_list, ghost_ids_, owner);
}

void LocalMesh::exchange(std::vector<double>& slot_field) const {
  AP3_REQUIRE(slot_field.size() == num_slots());
  std::span<const double> owned(slot_field.data(), num_owned_);
  std::span<double> ghosts(slot_field.data() + num_owned_, num_ghosts());
  halo_->exchange(owned, ghosts);
}

Dycore::Dycore(const par::Comm& comm, const AtmConfig& config,
               const grid::IcosahedralGrid& mesh)
    : comm_(comm), config_(config), local_(comm, mesh) {
  const std::size_t slots = local_.num_slots();
  state_.nlev = static_cast<std::size_t>(config.nlev);
  state_.h.assign(slots, config.mean_depth_m);
  state_.vx.assign(slots, 0.0);
  state_.vy.assign(slots, 0.0);
  state_.vz.assign(slots, 0.0);
  state_.temp.assign(slots * state_.nlev, 0.0);
  state_.q.assign(slots * state_.nlev, 0.0);
  h_flux_div_.assign(local_.num_owned(), 0.0);

  // Climatological initial columns: warm surface, cold top, humid boundary
  // layer, latitude dependence.
  for (std::size_t c = 0; c < local_.num_owned(); ++c) {
    const double coslat = std::cos(local_.lat_rad(c));
    for (std::size_t k = 0; k < state_.nlev; ++k) {
      const double depth =
          static_cast<double>(k + 1) / static_cast<double>(state_.nlev);
      const double tsurf = 255.0 + 45.0 * coslat * coslat;
      state_.temp[state_.tq(c, k)] = 215.0 + (tsurf - 215.0) * depth;
      state_.q[state_.tq(c, k)] =
          0.016 * coslat * std::exp(-4.0 * (1.0 - depth));
    }
  }
  // Tracer halos are refreshed inside step_tracers; dynamic fields are
  // exchanged now so diagnostics before the first step see valid ghosts.
  exchange_dynamic_fields();
}

void Dycore::exchange_dynamic_fields() {
  local_.exchange(state_.h);
  local_.exchange(state_.vx);
  local_.exchange(state_.vy);
  local_.exchange(state_.vz);
}

void Dycore::perturb_temperature(std::uint64_t seed, double amplitude_k) {
  // Each (cell, level) offset hashes (seed, global id, level) so the same
  // scenario produces the same field on any rank count — an ensemble member's
  // trajectory depends only on its spec, never on the decomposition.
  for (std::size_t c = 0; c < local_.num_owned(); ++c) {
    const std::int64_t gid = local_.global_id(c);
    for (std::size_t k = 0; k < state_.nlev; ++k) {
      std::uint64_t h = kFnvBasis;
      h = fnv1a(h, &seed, sizeof(seed));
      h = fnv1a_value(h, gid);
      h = fnv1a_value(h, static_cast<std::int64_t>(k));
      // Top 53 bits -> uniform double in [0, 1).
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      state_.temp[state_.tq(c, k)] += amplitude_k * (2.0 * u - 1.0);
    }
  }
  // Refresh tracer ghosts level by level (same idiom as step_tracers).
  std::vector<double> level(local_.num_slots());
  for (std::size_t k = 0; k < state_.nlev; ++k) {
    for (std::size_t s = 0; s < local_.num_slots(); ++s)
      level[s] = state_.temp[state_.tq(s, k)];
    local_.exchange(level);
    for (std::size_t s = 0; s < local_.num_slots(); ++s)
      state_.temp[state_.tq(s, k)] = level[s];
  }
}

void Dycore::apply_mixed_precision() {
  if (!config_.mixed_precision) return;
  constexpr std::size_t kGroup = 64;
  precision::round_through_mixed(state_.h, kGroup);
  precision::round_through_mixed(state_.vx, kGroup);
  precision::round_through_mixed(state_.vy, kGroup);
  precision::round_through_mixed(state_.vz, kGroup);
}

void Dycore::step_dynamics(double dt) {
  const std::size_t n = local_.num_owned();
  exchange_dynamic_fields();

  // --- continuity: dh/dt = -div(h V), upwind face thickness -----------------
  // Conflict-free over cells: offloadable through the SWGOMP-style layer
  // (§5.1.1 "most of the GRIST loops are conflict-free").
  auto continuity_body = [&](std::size_t c) {
    double div = 0.0;
    for (const LocalMesh::Neighbor& nb : local_.neighbors(c)) {
      // Face-normal velocity: average of the two cells.
      const double vn =
          0.5 * ((state_.vx[c] + state_.vx[nb.slot]) * nb.out_normal[0] +
                 (state_.vy[c] + state_.vy[nb.slot]) * nb.out_normal[1] +
                 (state_.vz[c] + state_.vz[nb.slot]) * nb.out_normal[2]);
      const double h_face = vn >= 0.0 ? state_.h[c] : state_.h[nb.slot];
      div += h_face * vn * nb.edge_len_m;
    }
    h_flux_div_[c] = div / local_.area_m2(c);
  };
  if (config_.use_swgomp) {
    pp::swgomp::target_parallel_for("grist_continuity", n, continuity_body);
  } else {
    for (std::size_t c = 0; c < n; ++c) continuity_body(c);
  }
  for (std::size_t c = 0; c < n; ++c) state_.h[c] -= dt * h_flux_div_[c];

  // --- momentum with the *new* h (forward–backward) -------------------------
  local_.exchange(state_.h);
  auto momentum_body = [&](std::size_t c) {
    // Pressure gradient via Green-Gauss over the cell faces. Subtracting the
    // cell value makes the gradient of a constant field exactly zero even
    // though the discrete face normals do not sum to the zero vector.
    double gx = 0.0, gy = 0.0, gz = 0.0;
    for (const LocalMesh::Neighbor& nb : local_.neighbors(c)) {
      const double dh = 0.5 * (state_.h[nb.slot] - state_.h[c]);
      gx += dh * nb.out_normal[0] * nb.edge_len_m;
      gy += dh * nb.out_normal[1] * nb.edge_len_m;
      gz += dh * nb.out_normal[2] * nb.edge_len_m;
    }
    const double inv_area = 1.0 / local_.area_m2(c);
    gx *= inv_area;
    gy *= inv_area;
    gz *= inv_area;

    // Coriolis: f (k × V), k = outward radial.
    const auto& up = local_.center(c);
    const double f = local_.coriolis(c);
    const std::array<double, 3> vel = {state_.vx[c], state_.vy[c], state_.vz[c]};
    const std::array<double, 3> kxv = cross3(up, vel);

    state_.vx[c] += dt * (-kGravity * gx - f * kxv[0] -
                          config_.drag_per_second * vel[0]);
    state_.vy[c] += dt * (-kGravity * gy - f * kxv[1] -
                          config_.drag_per_second * vel[1]);
    state_.vz[c] += dt * (-kGravity * gz - f * kxv[2] -
                          config_.drag_per_second * vel[2]);

    // Re-project tangent to the sphere.
    const double radial =
        state_.vx[c] * up[0] + state_.vy[c] * up[1] + state_.vz[c] * up[2];
    state_.vx[c] -= radial * up[0];
    state_.vy[c] -= radial * up[1];
    state_.vz[c] -= radial * up[2];
  };
  if (config_.use_swgomp) {
    pp::swgomp::target_parallel_for("grist_momentum", n, momentum_body);
  } else {
    for (std::size_t c = 0; c < n; ++c) momentum_body(c);
  }
  apply_mixed_precision();
}

void Dycore::step_tracers(double dt) {
  const std::size_t n = local_.num_owned();
  const std::size_t nlev = state_.nlev;
  local_.exchange(state_.vx);
  local_.exchange(state_.vy);
  local_.exchange(state_.vz);

  // Per-level upwind advection; level fields are strided views into the
  // packed (slot, lev) arrays, exchanged level by level.
  std::vector<double> level(local_.num_slots());
  std::vector<double> tendency(n);
  for (int tracer = 0; tracer < 2; ++tracer) {
    std::vector<double>& field = tracer == 0 ? state_.temp : state_.q;
    for (std::size_t k = 0; k < nlev; ++k) {
      for (std::size_t s = 0; s < local_.num_slots(); ++s)
        level[s] = field[state_.tq(s, k)];
      local_.exchange(level);
      auto tracer_body = [&](std::size_t c) {
        double flux = 0.0;
        for (const LocalMesh::Neighbor& nb : local_.neighbors(c)) {
          const double vn =
              0.5 * ((state_.vx[c] + state_.vx[nb.slot]) * nb.out_normal[0] +
                     (state_.vy[c] + state_.vy[nb.slot]) * nb.out_normal[1] +
                     (state_.vz[c] + state_.vz[nb.slot]) * nb.out_normal[2]);
          const double phi_face = vn >= 0.0 ? level[c] : level[nb.slot];
          // Advective form: vn · (phi_face − phi_c) keeps constants exact.
          flux += vn * (phi_face - level[c]) * nb.edge_len_m;
        }
        tendency[c] = -flux / local_.area_m2(c);
      };
      if (config_.use_swgomp) {
        pp::swgomp::target_parallel_for("grist_tracer", n, tracer_body);
      } else {
        for (std::size_t c = 0; c < n; ++c) tracer_body(c);
      }
      for (std::size_t c = 0; c < n; ++c)
        field[state_.tq(c, k)] = level[c] + dt * tendency[c];
    }
  }
}

double Dycore::total_mass() const {
  double local = 0.0;
  for (std::size_t c = 0; c < local_.num_owned(); ++c)
    local += state_.h[c] * local_.area_m2(c);
  return comm_.allreduce_value(local, par::ReduceOp::kSum);
}

double Dycore::max_wind() const {
  double local = 0.0;
  for (std::size_t c = 0; c < local_.num_owned(); ++c) {
    const double speed2 = state_.vx[c] * state_.vx[c] +
                          state_.vy[c] * state_.vy[c] +
                          state_.vz[c] * state_.vz[c];
    local = std::max(local, speed2);
  }
  return std::sqrt(comm_.allreduce_value(local, par::ReduceOp::kMax));
}

double Dycore::max_h_deviation() const {
  double local = 0.0;
  for (std::size_t c = 0; c < local_.num_owned(); ++c)
    local = std::max(local, std::abs(state_.h[c] - config_.mean_depth_m));
  return comm_.allreduce_value(local, par::ReduceOp::kMax);
}

std::vector<double> Dycore::relative_vorticity() const {
  // Circulation / area, with edge tangents t = r̂ × n̂ (right-handed around
  // the outward normal).
  std::vector<double> out(local_.num_owned());
  for (std::size_t c = 0; c < local_.num_owned(); ++c) {
    const auto& up = local_.center(c);
    double circulation = 0.0;
    for (const LocalMesh::Neighbor& nb : local_.neighbors(c)) {
      const std::array<double, 3> tangent = cross3(up, nb.out_normal);
      const double vt =
          0.5 * ((state_.vx[c] + state_.vx[nb.slot]) * tangent[0] +
                 (state_.vy[c] + state_.vy[nb.slot]) * tangent[1] +
                 (state_.vz[c] + state_.vz[nb.slot]) * tangent[2]);
      circulation += vt * nb.edge_len_m;
    }
    out[c] = circulation / local_.area_m2(c);
  }
  return out;
}

void Dycore::wind_at(std::size_t owned, double& u_east, double& v_north) const {
  const auto& east = local_.east(owned);
  const auto& north = local_.north(owned);
  u_east = state_.vx[owned] * east[0] + state_.vy[owned] * east[1] +
           state_.vz[owned] * east[2];
  v_north = state_.vx[owned] * north[0] + state_.vy[owned] * north[1] +
            state_.vz[owned] * north[2];
}

void Dycore::set_wind_at(std::size_t owned, double u_east, double v_north) {
  const auto& east = local_.east(owned);
  const auto& north = local_.north(owned);
  state_.vx[owned] = u_east * east[0] + v_north * north[0];
  state_.vy[owned] = u_east * east[1] + v_north * north[1];
  state_.vz[owned] = u_east * east[2] + v_north * north[2];
}

}  // namespace ap3::atm
