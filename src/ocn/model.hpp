// OcnModel — the LICOM-mini ocean component.
//
// Tripolar lat-lon grid (§6.1: nx × ny × 80 levels), A-grid finite-volume
// dynamics with the paper's barotropic/baroclinic/tracer split (2 s / 20 s /
// 20 s ratios), Canuto-style vertical mixing, linear EOS, and the §5.2.2
// 3-D non-ocean point exclusion with bitwise-identical results. Kernels
// dispatch through the pp layer so the component runs on any execution
// space (§5.3), and the dycore state can round through the §5.2.3 mixed-
// precision representation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "balance/rebalanceable.hpp"
#include "grid/halo.hpp"
#include "grid/partition.hpp"
#include "grid/tripolar.hpp"
#include "io/checkpoint.hpp"
#include "mct/attrvect.hpp"
#include "mct/gsmap.hpp"
#include "ocn/canuto.hpp"
#include "ocn/config.hpp"
#include "ocn/eos.hpp"
#include "par/comm.hpp"

namespace ap3::ocn {

class OcnModel : public balance::Rebalanceable {
 public:
  /// Collective construction = MCT `init` (balanced block decomposition).
  /// `grid`, when non-null, is an externally built immutable grid matching
  /// `config.grid` (ensemble members share one instead of rebuilding).
  OcnModel(const par::Comm& comm, const OcnConfig& config,
           std::shared_ptr<const grid::TripolarGrid> grid = nullptr);
  /// Explicit-cuts construction for rebalanced decompositions (src/balance):
  /// every rank passes the same cut lines.
  OcnModel(const par::Comm& comm, const OcnConfig& config,
           const grid::BlockCuts& cuts,
           std::shared_ptr<const grid::TripolarGrid> grid = nullptr);

  /// Advance over a coupling window (integer number of baroclinic steps).
  void run(double start_seconds, double duration_seconds);

  // --- coupler contract -----------------------------------------------------
  static std::vector<std::string> export_fields();  // sst, ssh, us, vs
  static std::vector<std::string> import_fields();  // taux, tauy, qnet, fresh
  const mct::GlobalSegMap& gsmap() const { return gsmap_; }
  void export_state(mct::AttrVect& o2x) const;
  void import_state(const mct::AttrVect& x2o);

  // --- geometry accessors -----------------------------------------------------
  const grid::TripolarGrid& ocean_grid() const { return *grid_; }
  const OcnConfig& config() const { return config_; }
  int nx_local() const { return halo_->nx_local(); }
  int ny_local() const { return halo_->ny_local(); }
  int x0() const { return halo_->x0(); }
  int y0() const { return halo_->y0(); }
  std::size_t field_index(int i, int j) const { return halo_->halo_index(i, j); }
  bool is_ocean_local(int i, int j, int k = 0) const;
  int kmt_local(int i, int j) const;
  /// Owned ocean-surface global ids in export order.
  const std::vector<std::int64_t>& ocean_gids() const { return ocean_gids_; }
  const grid::BlockPartition2D& partition() const { return partition_; }
  grid::BlockCuts cuts() const { return partition_.cuts(); }

  // --- balance::Rebalanceable (src/balance) ----------------------------------
  /// Field names of one column's migratable record: the prognostic 2-D
  /// slices, every level of the 3-D stacks, and the imported forcing —
  /// exactly the checkpoint payload, column-factored.
  static std::vector<std::string> migration_fields(int nz);

  std::string_view balance_name() const override { return "ocn"; }
  const grid::BlockPartition2D* block_partition() const override {
    return &partition_;
  }
  /// Per-column weight = kmt (active levels): the §5.2.2 exclusion makes a
  /// column's cost proportional to its wet depth.
  void add_measured_cell_weights(std::span<double> weight) const override;
  double migration_bytes_per_weight_unit() const override;
  std::vector<std::string> migration_field_names() const override {
    return migration_fields(config_.grid.nz);
  }
  std::vector<std::int64_t> migration_gids() const override {
    return ocean_gids_;
  }
  /// Pack owned columns (ocean_gids() order) into `av`, one point per column.
  void export_migration_fields(mct::AttrVect& av) const override;
  /// Inverse of export: writes owned interior columns and forcing. Ghosts are
  /// left to the next halo exchange (every stencil read is preceded by one).
  void import_migration_fields(const mct::AttrVect& av) override;
  /// Wrapping sum of per-column FNV digests keyed by global id — invariant
  /// under any redistribution of columns across ranks (combine with kSum).
  std::uint64_t column_state_hash() const override;
  /// Carry the (global) baroclinic step counter across a migration.
  long long steps_completed() const override { return steps_; }
  void set_steps_completed(long long steps) override { steps_ = steps; }

  // --- state accessors ---------------------------------------------------------
  double eta(int i, int j) const { return eta_[field_index(i, j)]; }
  double temp(int i, int j, int k) const {
    return temp_[static_cast<std::size_t>(k)][field_index(i, j)];
  }
  double salt(int i, int j, int k) const {
    return salt_[static_cast<std::size_t>(k)][field_index(i, j)];
  }
  double u(int i, int j, int k) const {
    return u_[static_cast<std::size_t>(k)][field_index(i, j)];
  }
  double v(int i, int j, int k) const {
    return v_[static_cast<std::size_t>(k)][field_index(i, j)];
  }
  std::vector<double>& temp_level(int k) {
    return temp_[static_cast<std::size_t>(k)];
  }

  // --- diagnostics (collective) ----------------------------------------------
  double total_volume() const;     ///< Σ (H+η)·A over ocean columns
  double total_heat_content() const;
  double mean_sst() const;
  double max_current() const;
  double max_eta() const;
  /// Surface kinetic energy per column (Fig. 1c quantity), local values.
  std::vector<double> surface_kinetic_energy() const;
  /// Surface Rossby number ζ/f per owned column (Fig. 6 quantity).
  std::vector<double> surface_rossby_number() const;

  long long baroclinic_steps() const { return steps_; }

  // --- checkpoint/restart -----------------------------------------------------
  /// This rank's full prognostic snapshot: 2-D halo slices, the 3-D stacks
  /// flattened level-major (level k occupies [k·slots, (k+1)·slots)), the
  /// imported forcing, and the step counter.
  std::vector<io::Section> checkpoint_sections() const;
  /// Inverse of checkpoint_sections(); `sections` must carry this rank's
  /// layout (same names and sizes) with restored values.
  void restore_sections(const std::vector<io::Section>& sections);
  /// Section names in checkpoint_sections() order — the driver's canonical
  /// inventory (needed on ranks where the component does not live).
  static std::vector<std::string> checkpoint_section_names();

  /// Iterations executed by column-wise kernels since construction —
  /// demonstrates the §5.2.2 exclusion (~30 % fewer with it on).
  long long column_iterations() const { return column_iterations_; }

  /// Perf-model inputs.
  static double barotropic_flops_per_point() { return 45.0; }
  static double baroclinic_flops_per_point_level() { return 60.0; }
  static double tracer_flops_per_point_level() { return 55.0; }

 private:
  void barotropic_step(double dt);
  void baroclinic_step(double dt);
  void tracer_step(double dt);
  void vertical_mixing(double dt);
  void apply_surface_forcing(double dt);
  void exchange_scalar(std::vector<double>& field) const;
  void exchange_vector(std::vector<double>& u_field,
                       std::vector<double>& v_field) const;
  void apply_mixed_precision();

  /// Column visitor: full-grid scan or compact active list (§5.2.2).
  template <typename Fn>
  void for_each_column(Fn&& fn);

  const par::Comm& comm_;
  OcnConfig config_;
  std::shared_ptr<const grid::TripolarGrid> grid_;
  grid::BlockPartition2D partition_;
  std::unique_ptr<grid::BlockHalo> halo_;
  CanutoMixing canuto_;
  LinearEos eos_;
  mct::GlobalSegMap gsmap_;

  // Geometry (local).
  std::vector<double> dx_m_;   ///< per local row
  std::vector<double> dy_m_;   ///< per local row (constant here)
  std::vector<double> coriolis_;
  std::vector<double> area_m2_;
  std::vector<int> kmt_local_;             ///< (nyl × nxl), no halo
  std::vector<double> dz_center_;          ///< distance between level centers
  std::vector<double> dz_layer_;           ///< layer thicknesses
  std::vector<std::pair<int, int>> active_columns_;  ///< compact list
  std::vector<std::int64_t> ocean_gids_;

  // Prognostic state (halo layout for 2-D slices).
  std::vector<double> eta_, ubar_, vbar_;
  std::vector<std::vector<double>> u_, v_, temp_, salt_;

  // Imported forcing (per owned ocean column, export order).
  std::vector<double> taux_, tauy_, qnet_, fresh_;

  long long steps_ = 0;
  long long column_iterations_ = 0;
  long long stall_points_ = 0;  ///< owned active points in the stall band
  double depth_m_ = 5500.0;
};

}  // namespace ap3::ocn
