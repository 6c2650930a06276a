#include "coupler/driver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string_view>

#include "base/constants.hpp"
#include "base/error.hpp"
#include "base/hash.hpp"
#include "obs/obs.hpp"

namespace ap3::cpl {

using constants::kDegToRad;
using constants::kRadToDeg;

namespace {

/// Fields the ocean forcing computation needs from the atmosphere.
const std::vector<std::string> kOcnForcingFields = {
    "taux", "tauy", "tbot", "qbot", "gsw", "glw", "precip"};

}  // namespace

void validate_coupled_config(const CoupledConfig& config, int world_size) {
  if (config.ocn_couple_ratio < 1)
    throw ConfigError("CoupledConfig: ocn_couple_ratio must be >= 1 (the "
                      "ocean couples every N atm windows), got " +
                      std::to_string(config.ocn_couple_ratio));
  if (config.regrid_neighbors < 1)
    throw ConfigError("CoupledConfig: regrid_neighbors must be >= 1, got " +
                      std::to_string(config.regrid_neighbors));
  if (config.rebalance_every < 0)
    throw ConfigError("CoupledConfig: rebalance_every must be >= 0 (0 turns "
                      "rebalancing off), got " +
                      std::to_string(config.rebalance_every));
  if (config.ice_dt_seconds < 0.0)
    throw ConfigError("CoupledConfig: ice_dt_seconds must be >= 0 (0 means "
                      "one ice step per window), got " +
                      std::to_string(config.ice_dt_seconds));
  if (config.atm_ranks < 0)
    throw ConfigError("CoupledConfig: atm_ranks must be >= 0 (0 picks half "
                      "the world), got " + std::to_string(config.atm_ranks));
  if (config.layout == Layout::kConcurrent) {
    if (world_size < 2)
      throw ConfigError("CoupledConfig: the concurrent layout needs at least "
                        "2 ranks (atm and ocn domains must both be "
                        "non-empty), got " + std::to_string(world_size));
    if (config.atm_ranks >= world_size)
      throw ConfigError("CoupledConfig: atm_ranks (" +
                        std::to_string(config.atm_ranks) +
                        ") must leave at least one rank for the ocean domain "
                        "(world size " + std::to_string(world_size) + ")");
  }
}

CoupledModel::CoupledModel(const par::Comm& global, ScenarioSpec spec)
    : global_(global),
      spec_(std::move(spec)),
      clock_(0.0, spec_.config.atm.model_dt_seconds()),
      window_seconds_(spec_.config.atm.model_dt_seconds()) {
  validate_coupled_config(config_, global.size());
  if (spec_.shared) {
    const SharedInputsSpec want{config_.atm.mesh_n, config_.ocn.grid,
                                config_.regrid_neighbors};
    if (!(spec_.shared->spec() == want))
      throw ConfigError(
          "ScenarioSpec: the shared context was built for a different "
          "mesh_n/ocean grid/regrid_neighbors than this member's config");
  }

  // --- task domains (§5.1.2) -------------------------------------------------
  if (config_.layout == Layout::kSequential) {
    atm_comm_ = global.split(0, global.rank());
    ocn_comm_ = global.split(0, global.rank());
  } else {
    int na = config_.atm_ranks > 0 ? config_.atm_ranks : global.size() / 2;
    na = std::clamp(na, 1, global.size() - 1);
    const int color = global.rank() < na ? 0 : 1;
    par::Comm sub = global.split(color, global.rank());
    if (color == 0) {
      atm_comm_ = sub;
    } else {
      ocn_comm_ = sub;
    }
  }

  // --- components --------------------------------------------------------------
  shared_ = spec_.shared;
  if (shared_) {
    mesh_ = shared_->mesh();
    ocn_grid_ = shared_->ocean_grid();
  } else {
    mesh_ = std::make_shared<const grid::IcosahedralGrid>(config_.atm.mesh_n);
    ocn_grid_ = std::make_shared<const grid::TripolarGrid>(config_.ocn.grid);
  }
  if (atm_comm_) {
    atm_ = std::make_unique<atm::AtmModel>(*atm_comm_, config_.atm, *mesh_);
    ice_ = std::make_unique<ice::IceModel>(*atm_comm_, make_ice_config(),
                                           ocn_grid_);
  }
  if (ocn_comm_)
    ocn_ = std::make_unique<ocn::OcnModel>(*ocn_comm_, config_.ocn, ocn_grid_);

  if (spec_.adopt_plans) {
    plans_ = spec_.adopt_plans;
  } else {
    build_coupling_infrastructure();
  }

  // The scenario's initial-condition perturbation (after construction, before
  // anything runs; keyed on global ids so it is decomposition-invariant).
  if (spec_.perturbation_seed != 0 && atm_)
    atm_->dycore().perturb_temperature(spec_.perturbation_seed,
                                       spec_.perturbation_kelvin);

  register_balance_participants();

  const std::size_t natm = atm_ ? atm_->dycore().mesh().num_owned() : 0;
  a2x_accum_ = mct::AttrVect(atm::AtmModel::export_fields(), natm);
  sst_on_atm_.assign(natm, 0.0);
  const std::size_t nice = ice_ ? ice_->ocean_gids().size() : 0;
  sst_on_ice_.assign(nice, 285.0);
  us_on_ice_.assign(nice, 0.0);
  vs_on_ice_.assign(nice, 0.0);

  clock_.add_alarm("ocn", config_.ocn_couple_ratio);

  // Timing excludes initialization (§6.2): only spans recorded from here on
  // feed this model's getTiming pipeline.
  obs_first_event_ = obs::local().event_count();
  for (BalanceParticipant& p : balance_) {
    p.mark = obs_first_event_;
    if (balance::Rebalanceable* m = p.model())
      p.busy_seen = obs::local().counter(m->busy_counter_key());
  }
}

void CoupledModel::register_balance_participants() {
  // Fixed atm, ocn, ice order on every rank: the collective decision loop,
  // the checkpointed busy-watermark ids, and the "bal.<name>" layout scalars
  // all index into this registry. model() chases the owning unique_ptr so the
  // entries stay valid through migrations and restore-time rebuilds.
  balance_.clear();
  {
    BalanceParticipant p;
    p.name = "atm";
    p.phase_span = "run:atm_ice_phase:atm_run";
    p.layout_root = 0;
    p.migratable = false;  // 1-D icosahedral partition: no block cuts
    p.model = [this]() -> balance::Rebalanceable* { return atm_.get(); };
    p.comm = atm_comm_ ? &*atm_comm_ : nullptr;
    balance_.push_back(std::move(p));
  }
  {
    BalanceParticipant p;
    p.name = "ocn";
    p.phase_span = "run:ocn_phase:ocn_run";
    // The last rank is always in the ocean domain in both layouts.
    p.layout_root = global_.size() - 1;
    p.migratable = true;
    p.model = [this]() -> balance::Rebalanceable* { return ocn_.get(); };
    p.comm = ocn_comm_ ? &*ocn_comm_ : nullptr;
    p.rebuild = [this](const grid::BlockCuts& cuts) {
      ocn_ = std::make_unique<ocn::OcnModel>(*ocn_comm_, config_.ocn, cuts,
                                             ocn_grid_);
    };
    balance_.push_back(std::move(p));
  }
  {
    BalanceParticipant p;
    p.name = "ice";
    p.phase_span = "run:atm_ice_phase:ice_run";
    p.layout_root = 0;  // rank 0 is always in the atm domain (ice lives there)
    p.migratable = true;
    p.model = [this]() -> balance::Rebalanceable* { return ice_.get(); };
    p.comm = atm_comm_ ? &*atm_comm_ : nullptr;
    p.rebuild = [this](const grid::BlockCuts& cuts) {
      ice_ = std::make_unique<ice::IceModel>(*atm_comm_, make_ice_config(),
                                             cuts, ocn_grid_);
    };
    balance_.push_back(std::move(p));
  }
  if (config_.rebalance_every > 0) {
    for (BalanceParticipant& p : balance_) {
      if (!p.model()) continue;
      p.balancer.emplace(p.name, config_.rebalance);
      if (p.migratable) {
        // Both block components exchange width-1 BlockHalo ghosts.
        balance::GhostModel ghosts;
        ghosts.halo_width = 1;
        p.balancer->set_ghost_model(ghosts);
      }
    }
  }
}

ice::IceConfig CoupledModel::make_ice_config() const {
  // Start from the user's ice knobs (straggler stall, rates); the grid and
  // timestep are always driver-derived.
  ice::IceConfig ice_config = config_.ice;
  ice_config.grid = config_.ocn.grid;
  ice_config.dt_seconds =
      config_.ice_dt_seconds > 0.0 ? config_.ice_dt_seconds : window_seconds_;
  return ice_config;
}

void CoupledModel::build_coupling_infrastructure() {
  // Always a fresh plans object: members adopted the previous one by pointer,
  // so a rebuild here (rebalance, restore_layout) detaches this member from
  // the fleet's common plans instead of mutating them under its peers.
  auto plans = std::make_shared<CouplingPlans>();

  // Global decomposition descriptors: ranks outside a domain own nothing.
  std::vector<std::int64_t> atm_ids, ocn_ids, ice_ids;
  if (atm_) {
    const auto& local = atm_->dycore().mesh();
    atm_ids.resize(local.num_owned());
    for (std::size_t c = 0; c < atm_ids.size(); ++c)
      atm_ids[c] = local.global_id(c);
  }
  if (ocn_) ocn_ids = ocn_->ocean_gids();
  if (ice_) ice_ids = ice_->ocean_gids();
  plans->atm_map = mct::GlobalSegMap::build(global_, atm_ids);
  plans->ocn_map = mct::GlobalSegMap::build(global_, ocn_ids);
  plans->ice_map = mct::GlobalSegMap::build(global_, ice_ids);

  // Interpolation weights between the two grids: taken from the shared
  // context when present (they depend only on the grids, not on the
  // decomposition), otherwise computed here — every rank computes the same
  // global matrices; production AP3ESM precomputes these offline, the same
  // way §5.2.4 precomputes GSMaps and routers.
  mct::SparseMatrix a2o_private, o2a_private;
  if (!shared_) {
    build_regrid_matrices(*mesh_, *ocn_grid_, config_.regrid_neighbors,
                          a2o_private, o2a_private);
  }
  const mct::SparseMatrix& a2o_matrix =
      shared_ ? shared_->a2o_matrix() : a2o_private;
  const mct::SparseMatrix& o2a_matrix =
      shared_ ? shared_->o2a_matrix() : o2a_private;

  plans->a2o = std::make_unique<mct::RegridOp>(global_, a2o_matrix,
                                               plans->atm_map, plans->ocn_map);
  plans->a2i = std::make_unique<mct::RegridOp>(global_, a2o_matrix,
                                               plans->atm_map, plans->ice_map);
  plans->o2a = std::make_unique<mct::RegridOp>(global_, o2a_matrix,
                                               plans->ocn_map, plans->atm_map);
  plans->i2a = std::make_unique<mct::RegridOp>(global_, o2a_matrix,
                                               plans->ice_map, plans->atm_map);

  // Same-grid routers between the ocean's and the ice's decompositions.
  plans->o2i = std::make_unique<mct::Rearranger>(
      global_,
      mct::Router::build(global_.rank(), plans->ocn_map, plans->ice_map));
  plans->i2o = std::make_unique<mct::Rearranger>(
      global_,
      mct::Router::build(global_.rank(), plans->ice_map, plans->ocn_map));

  plans_ = std::move(plans);
}

void CoupledModel::install_ai_physics(const AiInstallOptions& options) {
  if (!atm_) return;
  AP3_REQUIRE_MSG(options.suite != nullptr,
                  "install_ai_physics: options.suite must not be null");
  // The driver's overlap mode extends into the engine: micro-batch forwards
  // run on the engine's streams while the rank thread packs the next slot.
  ai::EngineConfig engine = options.engine;
  if (config_.overlap) engine.overlap = true;
  auto physics = std::make_unique<atm::AiPhysics>(options.suite, engine);
  if (options.online) physics->enable_online_training(*options.online);
  atm_->set_physics(std::move(physics));
}

void CoupledModel::run_windows(int atm_windows) {
  AP3_SPAN("run");
  for (int w = 0; w < atm_windows; ++w) {
    if (clock_.ringing(0)) {
      if (config_.rebalance_every > 0) {
        // Decide at ocean coupling-window boundaries, after at least one full
        // window of measured phase costs has accumulated.
        const long long done = clock_.steps_taken() / config_.ocn_couple_ratio;
        if (done > 0 && done % config_.rebalance_every == 0) {
          AP3_SPAN("run:rebalance");
          maybe_rebalance();
        }
      }
      AP3_SPAN("run:ocn_phase");
      ocn_phase();
    }
    {
      AP3_SPAN("run:atm_ice_phase");
      atm_ice_phase();
    }
    clock_.advance();
  }
}

TimingSummary CoupledModel::timing_summary() {
  return summarize_timing(obs::merge(global_, obs_first_event_),
                          static_cast<double>(clock_.steps_taken()) *
                              window_seconds_);
}

void CoupledModel::ocn_phase() {
  // --- 1. ocean forcing from the accumulated atmosphere exports -----------------
  if (accum_count_ == 0 && atm_) {
    // First coupling event: use the instantaneous initial export.
    atm_->export_state(a2x_accum_);
    accum_count_ = 1;
  }
  if (atm_ && accum_count_ > 1) {
    const double inv = 1.0 / static_cast<double>(accum_count_);
    for (std::size_t f = 0; f < a2x_accum_.num_fields(); ++f)
      for (double& v : a2x_accum_.field(f)) v *= inv;
  }

  const std::size_t nocn = ocn_ ? ocn_->ocean_gids().size() : 0;
  const std::size_t nice = ice_ ? ice_->ocean_gids().size() : 0;

  // Ice fraction export (pure local) — computed up front so the i2o exchange
  // can be posted before the forcing regrids when overlapping.
  mct::AttrVect ifrac_ice({"ifrac"}, nice);
  if (ice_) {
    mct::AttrVect i2x(ice::IceModel::export_fields(), nice);
    ice_->export_state(i2x);
    std::copy(i2x.field("ifrac").begin(), i2x.field("ifrac").end(),
              ifrac_ice.field("ifrac").begin());
  }
  mct::AttrVect ifrac_ocn({"ifrac"}, nocn);

  // Regrid forcing fields to the ocean decomposition (collective-by-plan).
  mct::AttrVect forcing_on_ocn(kOcnForcingFields, nocn);
  auto regrid_forcing = [&] {
    for (const std::string& field : kOcnForcingFields) {
      const std::vector<double> mapped = plans_->a2o->apply(a2x_accum_.field(field));
      AP3_REQUIRE(mapped.size() == nocn);
      std::copy(mapped.begin(), mapped.end(),
                forcing_on_ocn.field(field).begin());
    }
  };

  // Pre-run ocean export feeding the flux computation (pure local).
  mct::AttrVect o2x_pre(ocn::OcnModel::export_fields(), nocn);

  if (config_.overlap) {
    // Post the ice-fraction exchange, then fill its wire window with the
    // forcing regrids (rank thread) and the ocean export (async). The
    // rearranged data is bitwise independent of this reordering: rearrange
    // and halo traffic use disjoint tags, so every (comm,src,dst,tag)
    // sequence stream keeps its internal order and fault decisions replay.
    obs::counter_add("overlap:ocn_phase", 1.0);
    mct::Rearranger::Pending ifrac_exchange =
        plans_->i2o->rearrange_begin(ifrac_ice, ifrac_ocn);
    pp::Event export_done;
    if (ocn_)
      export_done = stream_.enqueue("overlap:ocn_export",
                                    [&] { ocn_->export_state(o2x_pre); });
    regrid_forcing();
    plans_->i2o->rearrange_end(ifrac_exchange);
    export_done.wait();
  } else {
    regrid_forcing();
    plans_->i2o->rearrange(ifrac_ice, ifrac_ocn);
    if (ocn_) ocn_->export_state(o2x_pre);
  }

  // Bulk fluxes on the ocean side, then import.
  if (ocn_) {
    mct::AttrVect x2o(ocn::OcnModel::import_fields(), nocn);
    FluxInputs in;
    in.taux = forcing_on_ocn.field("taux");
    in.tauy = forcing_on_ocn.field("tauy");
    in.tbot = forcing_on_ocn.field("tbot");
    in.qbot = forcing_on_ocn.field("qbot");
    in.gsw = forcing_on_ocn.field("gsw");
    in.glw = forcing_on_ocn.field("glw");
    in.precip = forcing_on_ocn.field("precip");
    in.sst = o2x_pre.field("sst");
    in.ifrac = ifrac_ocn.field("ifrac");
    FluxOutputs out{x2o.field("qnet"), x2o.field("fresh"), x2o.field("taux"),
                    x2o.field("tauy")};
    compute_air_sea_fluxes(flux_config_, in, out);
    ocn_->import_state(x2o);
  }
  if (atm_) {
    a2x_accum_.zero();
    accum_count_ = 0;
  }

  // --- 2. ocean integration over its coupling window ----------------------------
  if (ocn_) {
    AP3_SPAN("run:ocn_phase:ocn_run");
    ocn_->run(clock_.now(), ocn_window_seconds());
  }

  // --- 3. ocean exports back to atmosphere and ice --------------------------------
  mct::AttrVect o2x(ocn::OcnModel::export_fields(), nocn);
  if (ocn_) ocn_->export_state(o2x);
  mct::AttrVect o2x_for_ice(ocn::OcnModel::export_fields(), nice);
  std::vector<double> sst_atm;
  if (config_.overlap) {
    // The sst regrid to the atmosphere runs inside the o2i wire window.
    mct::Rearranger::Pending ice_exchange =
        plans_->o2i->rearrange_begin(o2x, o2x_for_ice);
    sst_atm = plans_->o2a->apply(o2x.field("sst"));
    plans_->o2i->rearrange_end(ice_exchange);
  } else {
    sst_atm = plans_->o2a->apply(o2x.field("sst"));
    plans_->o2i->rearrange(o2x, o2x_for_ice);
  }
  if (atm_) {
    AP3_REQUIRE(sst_atm.size() == sst_on_atm_.size());
    sst_on_atm_ = sst_atm;
  }
  if (ice_) {
    sst_on_ice_.assign(o2x_for_ice.field("sst").begin(),
                       o2x_for_ice.field("sst").end());
    us_on_ice_.assign(o2x_for_ice.field("us").begin(),
                      o2x_for_ice.field("us").end());
    vs_on_ice_.assign(o2x_for_ice.field("vs").begin(),
                      o2x_for_ice.field("vs").end());
  }
}

void CoupledModel::atm_ice_phase() {
  const std::size_t natm = atm_ ? atm_->dycore().mesh().num_owned() : 0;
  mct::AttrVect a2x(atm::AtmModel::export_fields(), natm);
  pp::Event accum_done;
  if (atm_) {
    AP3_SPAN("run:atm_ice_phase:atm_run");
    atm_->run(clock_.now(), window_seconds_);
    atm_->export_state(a2x);
    if (config_.overlap) {
      // Accumulate into a2x_accum_ inside the a2i regrid window. Every
      // flattened element is written exactly once, so concurrent execution
      // is order-insensitive and the sums are bitwise identical.
      obs::counter_add("overlap:atm_ice_phase", 1.0);
      accum_done = pp::parallel_for_async(
          stream_,
          pp::RangePolicy(0, a2x.num_fields() * natm)
              .named("overlap:a2x_accum"),
          [this, &a2x, natm](std::size_t i) {
            const std::size_t f = i / natm;
            const std::size_t p = i % natm;
            a2x_accum_.field(f)[p] += a2x.field(f)[p];
          });
    } else {
      for (std::size_t f = 0; f < a2x.num_fields(); ++f) {
        auto acc = a2x_accum_.field(f);
        const auto cur = a2x.field(f);
        for (std::size_t p = 0; p < acc.size(); ++p) acc[p] += cur[p];
      }
    }
    ++accum_count_;
  }

  // Ice: air temperature regridded from the fresh atmosphere export (the
  // async accumulation, when overlapping, runs inside this regrid's wire
  // time; it only touches a2x_accum_, which the regrid does not read).
  const std::vector<double> tbot_ice = plans_->a2i->apply(a2x.field("tbot"));
  accum_done.wait();
  const std::size_t nice = ice_ ? ice_->ocean_gids().size() : 0;
  mct::AttrVect i2x(ice::IceModel::export_fields(), nice);
  if (ice_) {
    mct::AttrVect x2i(ice::IceModel::import_fields(), nice);
    std::copy(sst_on_ice_.begin(), sst_on_ice_.end(),
              x2i.field("sst").begin());
    std::copy(tbot_ice.begin(), tbot_ice.end(), x2i.field("tbot").begin());
    std::copy(us_on_ice_.begin(), us_on_ice_.end(), x2i.field("us").begin());
    std::copy(vs_on_ice_.begin(), vs_on_ice_.end(), x2i.field("vs").begin());
    ice_->import_state(x2i);
    {
      AP3_SPAN("run:atm_ice_phase:ice_run");
      ice_->run(clock_.now(), window_seconds_);
    }
    ice_->export_state(i2x);
  }

  // Atmosphere surface imports: cached SST + fresh ice fraction. When
  // overlapping, the cached-SST copy runs inside the i2a regrid window.
  mct::AttrVect x2a(atm::AtmModel::import_fields(), natm);
  pp::Event sst_copy_done;
  if (config_.overlap && atm_) {
    auto sst_dst = x2a.field("sst");
    sst_copy_done = pp::parallel_for_async(
        stream_, pp::RangePolicy(0, natm).named("overlap:x2a_sst"),
        [this, sst_dst](std::size_t p) { sst_dst[p] = sst_on_atm_[p]; });
  }
  const std::vector<double> ifrac_atm = plans_->i2a->apply(i2x.field("ifrac"));
  if (atm_) {
    if (config_.overlap) {
      sst_copy_done.wait();
    } else {
      std::copy(sst_on_atm_.begin(), sst_on_atm_.end(),
                x2a.field("sst").begin());
    }
    std::copy(ifrac_atm.begin(), ifrac_atm.end(), x2a.field("ifrac").begin());
    atm_->import_state(x2a);
  }
}

// ---- runtime load rebalancing (src/balance) ---------------------------------

void CoupledModel::maybe_rebalance() {
  std::vector<double> go(balance_.size(), 0.0);
  std::vector<grid::BlockCuts> accepted(balance_.size());

  for (std::size_t idx = 0; idx < balance_.size(); ++idx) {
    BalanceParticipant& p = balance_[idx];
    balance::Rebalanceable* model = p.model();
    if (!model || !p.balancer) continue;
    // Wall-clock spans converge across ranks when halo waits couple a fast
    // rank to a straggler; the busy-time counter restores the per-rank signal.
    const double busy_total = obs::local().counter(model->busy_counter_key());
    const balance::MeasuredCost cost = balance::measured_phase_cost(
        *p.comm, p.phase_span, p.mark, busy_total - p.busy_seen);
    p.busy_seen = busy_total;
    if (const grid::BlockPartition2D* part = model->block_partition()) {
      const grid::BlockCuts& old_cuts = part->cuts();
      const auto nx = static_cast<int>(old_cuts.x.back());
      const auto ny = static_cast<int>(old_cuts.y.back());
      // Measured weights are per-owned-column contributions; the sum makes
      // the full nx×ny field identical on every domain rank (unowned cells
      // contribute exactly +0.0, so the reduction is bitwise deterministic).
      std::vector<double> weight(static_cast<std::size_t>(nx) *
                                     static_cast<std::size_t>(ny),
                                 0.0);
      model->add_measured_cell_weights(weight);
      std::vector<double> summed(weight.size());
      p.comm->allreduce(std::span<const double>(weight),
                        std::span<double>(summed), par::ReduceOp::kSum);
      const balance::Decision d =
          p.balancer->consider(summed, nx, ny, *part, cost,
                               model->migration_bytes_per_weight_unit());
      if (d.migrate) {
        go[idx] = 1.0;
        accepted[idx] = d.plan.cuts;
      }
    } else {
      // No block decomposition: run the gates and counters only.
      p.balancer->assess(cost);
    }
  }
  // Start the next measurement window from here either way.
  const std::size_t mark = obs::local().event_count();
  for (BalanceParticipant& p : balance_) p.mark = mark;

  // The per-domain decisions are deterministic functions of allgathered costs
  // and lockstep balancer state, so they agree within each domain; this
  // reduction only spreads them to the other domain's ranks.
  std::vector<double> any(balance_.size());
  global_.allreduce(std::span<const double>(go), std::span<double>(any),
                    par::ReduceOp::kMax);
  bool migrate_any = false;
  for (const double a : any) migrate_any = migrate_any || a > 0.5;
  if (!migrate_any) return;

  // Snapshot the coupler's ice-side caches before ownership changes.
  const mct::GlobalSegMap old_ice_map = plans_->ice_map;
  const std::size_t old_nice = ice_ ? ice_->ocean_gids().size() : 0;
  mct::AttrVect old_caches({"sst", "us", "vs"}, old_nice);
  if (ice_) {
    std::copy(sst_on_ice_.begin(), sst_on_ice_.end(),
              old_caches.field("sst").begin());
    std::copy(us_on_ice_.begin(), us_on_ice_.end(),
              old_caches.field("us").begin());
    std::copy(vs_on_ice_.begin(), vs_on_ice_.end(),
              old_caches.field("vs").begin());
  }

  for (std::size_t idx = 0; idx < balance_.size(); ++idx)
    if (any[idx] > 0.5 && balance_[idx].model())
      migrate_participant(balance_[idx], accepted[idx]);
  build_coupling_infrastructure();

  // Re-home the cached ice-side fields (collective on the global
  // communicator; ocean-domain ranks own no ice columns on either side).
  // When the ice layout did not change this is pure self-delivery — exact
  // and cheap — so no per-component special case is needed.
  {
    mct::Rearranger cache_move(
        global_,
        mct::Router::build(global_.rank(), old_ice_map, plans_->ice_map));
    const std::size_t nice = ice_ ? ice_->ocean_gids().size() : 0;
    mct::AttrVect new_caches({"sst", "us", "vs"}, nice);
    cache_move.rearrange(old_caches, new_caches);
    sst_on_ice_.assign(new_caches.field("sst").begin(),
                       new_caches.field("sst").end());
    us_on_ice_.assign(new_caches.field("us").begin(),
                      new_caches.field("us").end());
    vs_on_ice_.assign(new_caches.field("vs").begin(),
                      new_caches.field("vs").end());
  }

  ++rebalance_migrations_;
  obs::counter_add("balance:rebalances", 1.0);
}

void CoupledModel::migrate_participant(BalanceParticipant& p,
                                       const grid::BlockCuts& cuts) {
  AP3_SPAN("run:rebalance:migrate");
  // Export through the old decomposition before rebuild() destroys it.
  balance::Rebalanceable* old_model = p.model();
  const std::vector<std::string> fields = old_model->migration_field_names();
  const std::vector<std::int64_t> old_gids = old_model->migration_gids();
  const long long steps = old_model->steps_completed();
  mct::AttrVect src(fields, old_gids.size());
  old_model->export_migration_fields(src);

  p.rebuild(cuts);
  balance::Rebalanceable* next = p.model();
  const std::vector<std::int64_t> new_gids = next->migration_gids();
  balance::ColumnMigrator mover(*p.comm, old_gids, new_gids);
  mct::AttrVect dst(fields, new_gids.size());
  mover.migrate(src, dst);
  next->import_migration_fields(dst);
  next->set_steps_completed(steps);
  obs::counter_add("balance:" + p.name + ":columns_moved",
                   static_cast<double>(mover.columns_moved_offrank()));
}

io::FieldData CoupledModel::balance_busy_pending() const {
  // One row per registry entry, keyed rank·nparts+idx so the section forms a
  // proper distributed field with globally unique ids. Values are pending
  // busy seconds (counter minus watermark) — measurement bookkeeping, not
  // model state, so state_hash() must skip this section.
  const std::size_t nparts = balance_.size();
  io::FieldData out;
  out.ids.resize(nparts);
  out.values.assign(nparts, 0.0);
  for (std::size_t idx = 0; idx < nparts; ++idx) {
    out.ids[idx] = static_cast<std::int64_t>(global_.rank()) *
                       static_cast<std::int64_t>(nparts) +
                   static_cast<std::int64_t>(idx);
    const BalanceParticipant& p = balance_[idx];
    if (balance::Rebalanceable* m = p.model())
      out.values[idx] =
          obs::local().counter(m->busy_counter_key()) - p.busy_seen;
  }
  return out;
}

std::uint64_t CoupledModel::ice_cache_column_hash() const {
  if (!ice_) return 0;
  const std::vector<std::int64_t>& gids = ice_->ocean_gids();
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < gids.size(); ++c) {
    std::uint64_t h = kFnvBasis;
    h = fnv1a_value(h, gids[c]);
    h = fnv1a_value(h, sst_on_ice_[c]);
    h = fnv1a_value(h, us_on_ice_[c]);
    h = fnv1a_value(h, vs_on_ice_[c]);
    sum += h;  // wrapping sum: column order and ownership do not matter
  }
  return sum;
}

// ---- checkpoint/restart -----------------------------------------------------

namespace {

const std::vector<std::string> kCouplerSectionNames = {
    "cpl.a2x_accum", "cpl.sst_on_atm", "cpl.sst_on_ice",   "cpl.us_on_ice",
    "cpl.vs_on_ice", "cpl.rng",        "cpl.balance_busy"};
const std::vector<std::string> kAiSectionNames = {
    "cpl.ai.input",  "cpl.ai.tendency", "cpl.ai.rad_input", "cpl.ai.flux",
    "cpl.ai.cnn_w",  "cpl.ai.mlp_w",    "cpl.ai.train"};

/// RNG stream as a 6-double row: the four xoshiro words (bit-preserved
/// through the binary subfile path), the spare flag, and the spare value.
io::FieldData pack_rng(const RngState& s) {
  std::vector<double> v(6);
  for (int i = 0; i < 4; ++i) v[static_cast<std::size_t>(i)] =
      std::bit_cast<double>(s.words[i]);
  v[4] = s.have_spare ? 1.0 : 0.0;
  v[5] = s.spare;
  return io::local_field(v);
}

RngState unpack_rng(const std::vector<double>& v) {
  AP3_REQUIRE_MSG(v.size() == 6, "malformed cpl.rng section");
  RngState s;
  for (int i = 0; i < 4; ++i)
    s.words[i] = std::bit_cast<std::uint64_t>(v[static_cast<std::size_t>(i)]);
  s.have_spare = v[4] != 0.0;
  s.spare = v[5];
  return s;
}

/// Normalizer as [flat, nch, means..., stds...] (per-rank replicated).
io::FieldData pack_normalizer(const ai::ChannelNormalizer& n) {
  std::vector<double> v;
  v.reserve(2 + 2 * n.num_channels());
  v.push_back(n.is_flat() ? 1.0 : 0.0);
  v.push_back(static_cast<double>(n.num_channels()));
  for (float m : n.means()) v.push_back(static_cast<double>(m));
  for (float s : n.stddevs()) v.push_back(static_cast<double>(s));
  return io::local_field(v);
}

ai::ChannelNormalizer unpack_normalizer(const std::vector<double>& v) {
  AP3_REQUIRE_MSG(v.size() >= 2, "malformed AI normalizer section");
  const bool flat = v[0] != 0.0;
  const auto nch = static_cast<std::size_t>(v[1]);
  AP3_REQUIRE_MSG(v.size() == 2 + 2 * nch, "malformed AI normalizer section");
  std::vector<float> means(nch), stds(nch);
  for (std::size_t c = 0; c < nch; ++c) {
    means[c] = static_cast<float>(v[2 + c]);
    stds[c] = static_cast<float>(v[2 + nch + c]);
  }
  return ai::ChannelNormalizer::from_raw(flat, std::move(means),
                                         std::move(stds));
}

/// Network weights widened to doubles (float -> double is exact, so the
/// round trip restores bit-identical weights).
io::FieldData pack_weights(const std::vector<float>& w) {
  std::vector<double> v(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) v[i] = static_cast<double>(w[i]);
  return io::local_field(v);
}

std::vector<float> unpack_weights(const std::vector<double>& v) {
  std::vector<float> w(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) w[i] = static_cast<float>(v[i]);
  return w;
}

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Sections whose per-rank bytes legitimately change when column ownership
/// moves between ranks. state_hash() folds them in per global column instead
/// (column_state_hash), so the result is invariant under rebalancing.
bool ownership_covariant_section(const std::string& name) {
  if (name == "ocn.steps" || name == "ice.steps") return false;
  if (name.rfind("ocn.", 0) == 0 || name.rfind("ice.", 0) == 0) return true;
  return name == "cpl.sst_on_ice" || name == "cpl.us_on_ice" ||
         name == "cpl.vs_on_ice";
}

/// Measurement bookkeeping, not model state: the pending busy seconds depend
/// on wall-clock timing and on how often the balancer ran, so they are
/// checkpointed (decisions survive restarts) but must never feed the bitwise
/// state hash — rebalance on/off runs hash identically by contract.
bool timing_dependent_section(const std::string& name) {
  return name == "cpl.balance_busy";
}

}  // namespace

bool CoupledModel::ai_physics_active() {
  const bool local = atm_ && dynamic_cast<atm::AiPhysics*>(&atm_->physics());
  const double any =
      global_.allreduce_value(local ? 1.0 : 0.0, par::ReduceOp::kMax);
  if (atm_) {
    AP3_REQUIRE_MSG(local == (any > 0.5),
                    "AI physics must be installed on every atmosphere rank "
                    "before checkpoint/restore");
  }
  return any > 0.5;
}

std::vector<io::Section> CoupledModel::coupler_sections(bool ai_on) const {
  std::vector<io::Section> out;
  std::vector<double> accum_flat;
  accum_flat.reserve(a2x_accum_.num_fields() * a2x_accum_.num_points());
  for (std::size_t f = 0; f < a2x_accum_.num_fields(); ++f) {
    const auto field = a2x_accum_.field(f);
    accum_flat.insert(accum_flat.end(), field.begin(), field.end());
  }
  out.push_back({"cpl.a2x_accum", io::local_field(accum_flat)});
  out.push_back({"cpl.sst_on_atm", io::local_field(sst_on_atm_)});
  out.push_back({"cpl.sst_on_ice", io::local_field(sst_on_ice_)});
  out.push_back({"cpl.us_on_ice", io::local_field(us_on_ice_)});
  out.push_back({"cpl.vs_on_ice", io::local_field(vs_on_ice_)});
  out.push_back({"cpl.rng", pack_rng(rng_.raw_state())});
  out.push_back({"cpl.balance_busy", balance_busy_pending()});
  if (ai_on) {
    auto* ai = atm_ ? dynamic_cast<atm::AiPhysics*>(&atm_->physics()) : nullptr;
    if (ai) {
      ai::AiPhysicsSuite& suite = ai->suite();
      out.push_back({"cpl.ai.input", pack_normalizer(suite.input_norm())});
      out.push_back({"cpl.ai.tendency",
                     pack_normalizer(suite.tendency_norm())});
      out.push_back({"cpl.ai.rad_input",
                     pack_normalizer(suite.rad_input_norm())});
      out.push_back({"cpl.ai.flux", pack_normalizer(suite.flux_norm())});
      // With online training active the weights evolve with the run: they
      // (and the Adam moments) are prognostic state, not static config.
      out.push_back({"cpl.ai.cnn_w",
                     pack_weights(suite.cnn().model().save_weights())});
      out.push_back({"cpl.ai.mlp_w",
                     pack_weights(suite.mlp().model().save_weights())});
      std::vector<double> train;
      train.push_back(ai->online_training_active() ? 1.0 : 0.0);
      const std::vector<double> opt = ai->pack_training_state();
      train.insert(train.end(), opt.begin(), opt.end());
      out.push_back({"cpl.ai.train", io::local_field(train)});
    } else {
      for (const std::string& name : kAiSectionNames)
        out.push_back({name, io::FieldData{}});
    }
  }
  return out;
}

void CoupledModel::restore_coupler_sections(
    const std::vector<io::Section>& sections, bool ai_on) {
  const std::size_t natm = a2x_accum_.num_points();
  const std::vector<double>& accum_flat = io::section_values(
      sections, "cpl.a2x_accum", a2x_accum_.num_fields() * natm);
  for (std::size_t f = 0; f < a2x_accum_.num_fields(); ++f) {
    auto field = a2x_accum_.field(f);
    std::copy(accum_flat.begin() + static_cast<std::ptrdiff_t>(f * natm),
              accum_flat.begin() + static_cast<std::ptrdiff_t>((f + 1) * natm),
              field.begin());
  }
  sst_on_atm_ =
      io::section_values(sections, "cpl.sst_on_atm", sst_on_atm_.size());
  sst_on_ice_ =
      io::section_values(sections, "cpl.sst_on_ice", sst_on_ice_.size());
  us_on_ice_ = io::section_values(sections, "cpl.us_on_ice", us_on_ice_.size());
  vs_on_ice_ = io::section_values(sections, "cpl.vs_on_ice", vs_on_ice_.size());
  rng_.set_raw_state(
      unpack_rng(io::section_values(sections, "cpl.rng", 6)));
  // Re-anchor the busy watermarks so that counter-minus-watermark reproduces
  // the snapshot's pending busy seconds: the first post-restore rebalance
  // decision then folds in exactly the busy time an uninterrupted run would.
  const std::vector<double>& pending =
      io::section_values(sections, "cpl.balance_busy", balance_.size());
  for (std::size_t idx = 0; idx < balance_.size(); ++idx) {
    BalanceParticipant& p = balance_[idx];
    if (balance::Rebalanceable* m = p.model())
      p.busy_seen =
          obs::local().counter(m->busy_counter_key()) - pending[idx];
  }
  if (ai_on) {
    if (auto* ai = atm_ ? dynamic_cast<atm::AiPhysics*>(&atm_->physics())
                        : nullptr) {
      auto find = [&](const std::string& name) -> const std::vector<double>& {
        for (const io::Section& s : sections)
          if (s.name == name) return s.data.values;
        throw Error("restore is missing section '" + name + "'");
      };
      ai->suite().set_normalizers(unpack_normalizer(find("cpl.ai.input")),
                                  unpack_normalizer(find("cpl.ai.tendency")),
                                  unpack_normalizer(find("cpl.ai.rad_input")),
                                  unpack_normalizer(find("cpl.ai.flux")));
      ai->suite().cnn().model().load_weights(
          unpack_weights(find("cpl.ai.cnn_w")));
      ai->suite().mlp().model().load_weights(
          unpack_weights(find("cpl.ai.mlp_w")));
      const std::vector<double>& train = find("cpl.ai.train");
      AP3_REQUIRE_MSG(!train.empty(), "malformed cpl.ai.train section");
      const bool was_training = train[0] != 0.0;
      AP3_REQUIRE_MSG(
          was_training == ai->online_training_active(),
          "checkpoint config mismatch: AI online training was "
              << (was_training ? "on" : "off")
              << " when written; enable/disable it to match before restore");
      if (was_training)
        ai->restore_training_state(
            std::span<const double>(train).subspan(1));
    }
  }
}

std::vector<std::string> CoupledModel::section_inventory(bool ai_on) {
  std::vector<std::string> names;
  for (auto& n : atm::AtmModel::checkpoint_section_names()) names.push_back(n);
  for (auto& n : ocn::OcnModel::checkpoint_section_names()) names.push_back(n);
  for (auto& n : ice::IceModel::checkpoint_section_names()) names.push_back(n);
  for (auto& n : kCouplerSectionNames) names.push_back(n);
  if (ai_on)
    for (auto& n : kAiSectionNames) names.push_back(n);
  return names;
}

std::map<std::string, io::FieldData> CoupledModel::local_sections(bool ai_on) {
  std::map<std::string, io::FieldData> out;
  auto absorb = [&out](std::vector<io::Section> sections) {
    for (io::Section& s : sections) out.emplace(s.name, std::move(s.data));
  };
  if (atm_) absorb(atm_->checkpoint_sections());
  if (ocn_) absorb(ocn_->checkpoint_sections());
  if (ice_) absorb(ice_->checkpoint_sections());
  absorb(coupler_sections(ai_on));
  return out;
}

namespace {
/// Sections whose payloads are integers or bit-cast words in disguise —
/// xoshiro RNG words, step counters, training bookkeeping. Lossy storage
/// would corrupt them, so the group-scaled policy silently upgrades them to
/// fp64 (the codec actually used is recorded per section in the manifest).
bool lossless_required_section(const std::string& name) {
  if (name == "cpl.rng" || name == "cpl.balance_busy" ||
      name == "cpl.ai.train")
    return true;
  constexpr std::string_view kSteps = ".steps";
  return name.size() >= kSteps.size() &&
         name.compare(name.size() - kSteps.size(), kSteps.size(), kSteps) == 0;
}
}  // namespace

std::unique_ptr<io::CheckpointWriter> CoupledModel::begin_checkpoint(
    const std::string& dir, bool async) {
  const bool ai_on = ai_physics_active();
  std::map<std::string, io::FieldData> local = local_sections(ai_on);
  auto writer = std::make_unique<io::CheckpointWriter>(
      global_, dir, config_.checkpoint, async);
  for (const std::string& name : section_inventory(ai_on)) {
    io::CodecSpec spec = config_.checkpoint.codec;
    if (spec.codec != io::Codec::kFp64 && lossless_required_section(name))
      spec = io::CodecSpec{};
    auto it = local.find(name);
    writer->add_section(name,
                        it != local.end() ? it->second : io::FieldData{},
                        spec);
  }
  writer->set_scalar("clock.steps",
                     static_cast<double>(clock_.steps_taken()));
  writer->set_scalar("accum_count", static_cast<double>(accum_count_));
  writer->set_scalar("ai_physics", ai_on ? 1.0 : 0.0);
  writer->set_scalar("cfg.mesh_n", static_cast<double>(config_.atm.mesh_n));
  writer->set_scalar("cfg.nlev", static_cast<double>(config_.atm.nlev));
  writer->set_scalar("cfg.ocn_nx", static_cast<double>(config_.ocn.grid.nx));
  writer->set_scalar("cfg.ocn_ny", static_cast<double>(config_.ocn.grid.ny));
  writer->set_scalar("cfg.ocn_nz", static_cast<double>(config_.ocn.grid.nz));
  writer->set_scalar("cfg.layout",
                     config_.layout == Layout::kSequential ? 0.0 : 1.0);
  writer->set_scalar("cfg.ocn_couple_ratio",
                     static_cast<double>(config_.ocn_couple_ratio));
  write_layout_scalars(*writer);
  return writer;
}

void CoupledModel::checkpoint(const std::string& dir) {
  AP3_SPAN("checkpoint");
  finish_pending_checkpoints_for(dir);
  auto writer = begin_checkpoint(dir, /*async=*/false);
  writer->finalize();
  obs::counter_add("ckpt:writes", 1.0);
  obs::counter_add("ckpt:bytes", static_cast<double>(writer->bytes_written()));
}

void CoupledModel::checkpoint_async(const std::string& dir) {
  AP3_SPAN("checkpoint_async");
  finish_pending_checkpoints_for(dir);
  // Back-pressure: at most two snapshots in flight. The oldest one's
  // finalize becomes the completion fence instead of memory growing without
  // bound (each in-flight snapshot holds a gathered copy of the state).
  while (pending_checkpoints_.size() >= 2) finish_oldest_checkpoint();
  pending_checkpoints_.push_back(begin_checkpoint(dir, /*async=*/true));
  obs::counter_add("ckpt:async_begins", 1.0);
}

void CoupledModel::finish_oldest_checkpoint() {
  const std::unique_ptr<io::CheckpointWriter> writer =
      std::move(pending_checkpoints_.front());
  pending_checkpoints_.pop_front();
  writer->finalize();
  obs::counter_add("ckpt:writes", 1.0);
  obs::counter_add("ckpt:bytes", static_cast<double>(writer->bytes_written()));
}

void CoupledModel::finish_pending_checkpoints_for(const std::string& dir) {
  const bool pending = std::any_of(
      pending_checkpoints_.begin(), pending_checkpoints_.end(),
      [&](const auto& writer) { return writer->dir() == dir; });
  if (!pending) return;
  // FIFO up through the matching writer: commit order stays deterministic
  // and identical on every rank.
  while (!pending_checkpoints_.empty()) {
    const bool done = pending_checkpoints_.front()->dir() == dir;
    finish_oldest_checkpoint();
    if (done) break;
  }
}

void CoupledModel::checkpoint_wait() {
  AP3_SPAN("checkpoint_wait");
  while (!pending_checkpoints_.empty()) finish_oldest_checkpoint();
}

std::map<std::string, io::FieldData> CoupledModel::local_checkpoint_sections() {
  return local_sections(ai_physics_active());
}

void CoupledModel::restore(const std::string& dir) {
  AP3_SPAN("restore");
  // Drain in-flight async snapshots first: restoring from a directory mid-
  // write would read a torn snapshot, and the fence also surfaces deferred
  // write errors before we tear down live state.
  checkpoint_wait();
  io::CheckpointReader reader(global_, dir);
  auto check = [&reader](const char* name, double want) {
    const double got = reader.scalar(name);
    AP3_REQUIRE_MSG(got == want, "checkpoint config mismatch: "
                                     << name << " is " << got << ", this run "
                                     << "has " << want);
  };
  check("cfg.mesh_n", static_cast<double>(config_.atm.mesh_n));
  check("cfg.nlev", static_cast<double>(config_.atm.nlev));
  check("cfg.ocn_nx", static_cast<double>(config_.ocn.grid.nx));
  check("cfg.ocn_ny", static_cast<double>(config_.ocn.grid.ny));
  check("cfg.ocn_nz", static_cast<double>(config_.ocn.grid.nz));
  check("cfg.layout", config_.layout == Layout::kSequential ? 0.0 : 1.0);
  check("cfg.ocn_couple_ratio",
        static_cast<double>(config_.ocn_couple_ratio));
  const bool ai_on = reader.scalar("ai_physics") > 0.5;
  AP3_REQUIRE_MSG(ai_on == ai_physics_active(),
                  "checkpoint config mismatch: AI physics was "
                      << (ai_on ? "on" : "off") << " when written");

  // Adopt the checkpointed decomposition before any section reads: the
  // templates below carry per-rank id lists, which must match the layout the
  // snapshot was written on (it may have been rebalanced mid-run).
  restore_layout(reader);

  // The template sections carry this rank's layout (names + ids); the reads
  // are collective in canonical inventory order on every rank.
  std::map<std::string, io::FieldData> tmpl = local_sections(ai_on);
  std::map<std::string, io::FieldData> got;
  const std::vector<std::int64_t> no_ids;
  for (const std::string& name : section_inventory(ai_on)) {
    auto it = tmpl.find(name);
    got[name] = reader.read_section(
        name, it != tmpl.end() ? it->second.ids : no_ids);
  }
  auto collect = [&got](const std::vector<std::string>& names) {
    std::vector<io::Section> out;
    for (const std::string& n : names) out.push_back({n, got[n]});
    return out;
  };
  if (atm_)
    atm_->restore_sections(collect(atm::AtmModel::checkpoint_section_names()));
  if (ocn_)
    ocn_->restore_sections(collect(ocn::OcnModel::checkpoint_section_names()));
  if (ice_)
    ice_->restore_sections(collect(ice::IceModel::checkpoint_section_names()));
  std::vector<std::string> cpl_names = kCouplerSectionNames;
  if (ai_on)
    cpl_names.insert(cpl_names.end(), kAiSectionNames.begin(),
                     kAiSectionNames.end());
  restore_coupler_sections(collect(cpl_names), ai_on);

  clock_.restore(static_cast<long long>(reader.scalar("clock.steps")));
  accum_count_ = static_cast<int>(reader.scalar("accum_count"));
  obs::counter_add("ckpt:restores", 1.0);
}

void CoupledModel::write_layout_scalars(io::CheckpointWriter& writer) {
  // set_scalar treats rank 0's value as authoritative, so replicate the cuts
  // from a rank that owns the component before storing them. Roots are chosen
  // to lie inside the owning domain in both layouts: the last rank is always
  // in the ocean domain, rank 0 always in the atm domain.
  auto store = [&](const std::string& prefix, const grid::BlockCuts& cuts,
                   int root) {
    double header[2] = {static_cast<double>(cuts.x.size()),
                        static_cast<double>(cuts.y.size())};
    global_.bcast(std::span<double>(header, 2), root);
    std::vector<double> payload(static_cast<std::size_t>(header[0]) +
                                static_cast<std::size_t>(header[1]));
    if (global_.rank() == root) {
      std::size_t at = 0;
      for (const std::int64_t v : cuts.x)
        payload[at++] = static_cast<double>(v);
      for (const std::int64_t v : cuts.y)
        payload[at++] = static_cast<double>(v);
    }
    if (!payload.empty()) global_.bcast(std::span<double>(payload), root);
    writer.set_scalar(prefix + ".x_cuts", header[0]);
    writer.set_scalar(prefix + ".y_cuts", header[1]);
    const auto nx = static_cast<std::size_t>(header[0]);
    for (std::size_t k = 0; k < payload.size(); ++k) {
      const bool in_x = k < nx;
      writer.set_scalar(
          prefix + (in_x ? ".x" : ".y") + std::to_string(in_x ? k : k - nx),
          payload[k]);
    }
  };
  for (const BalanceParticipant& p : balance_) {
    if (!p.migratable) continue;
    const balance::Rebalanceable* m = p.model();
    const grid::BlockPartition2D* part = m ? m->block_partition() : nullptr;
    store("bal." + p.name, part ? part->cuts() : grid::BlockCuts{},
          p.layout_root);
  }
}

void CoupledModel::restore_layout(io::CheckpointReader& reader) {
  auto read_cuts =
      [&](const std::string& prefix) -> std::optional<grid::BlockCuts> {
    // Absent scalars mean a snapshot from before cut persistence existed:
    // fall back to the constructor's balanced default (no rebuild).
    if (!reader.has_scalar(prefix + ".x_cuts")) return std::nullopt;
    const auto nx = static_cast<std::size_t>(reader.scalar(prefix + ".x_cuts"));
    const auto ny = static_cast<std::size_t>(reader.scalar(prefix + ".y_cuts"));
    if (nx == 0 || ny == 0) return std::nullopt;
    grid::BlockCuts cuts;
    for (std::size_t k = 0; k < nx; ++k)
      cuts.x.push_back(static_cast<std::int64_t>(
          reader.scalar(prefix + ".x" + std::to_string(k))));
    for (std::size_t k = 0; k < ny; ++k)
      cuts.y.push_back(static_cast<std::int64_t>(
          reader.scalar(prefix + ".y" + std::to_string(k))));
    return cuts;
  };
  std::vector<std::optional<grid::BlockCuts>> stored(balance_.size());
  std::vector<char> mismatch(balance_.size(), 0);
  bool local_mismatch = false;
  for (std::size_t idx = 0; idx < balance_.size(); ++idx) {
    const BalanceParticipant& p = balance_[idx];
    if (!p.migratable) continue;
    stored[idx] = read_cuts("bal." + p.name);
    const balance::Rebalanceable* m = p.model();
    const grid::BlockPartition2D* part = m ? m->block_partition() : nullptr;
    mismatch[idx] =
        part && stored[idx] && !(*stored[idx] == part->cuts()) ? 1 : 0;
    local_mismatch = local_mismatch || mismatch[idx] != 0;
  }
  const double any = global_.allreduce_value(local_mismatch ? 1.0 : 0.0,
                                             par::ReduceOp::kMax);
  if (any < 0.5) return;
  // The snapshot was written on a rebalanced decomposition: rebuild the
  // mismatched participants on the stored cuts. Their fresh state is about
  // to be overwritten wholesale by the section reads, which address columns
  // by global id and therefore need the stored layout.
  for (std::size_t idx = 0; idx < balance_.size(); ++idx)
    if (mismatch[idx] != 0) balance_[idx].rebuild(*stored[idx]);
  build_coupling_infrastructure();
  const std::size_t nice = ice_ ? ice_->ocean_gids().size() : 0;
  sst_on_ice_.assign(nice, 0.0);  // overwritten by the cpl.* section reads
  us_on_ice_.assign(nice, 0.0);
  vs_on_ice_.assign(nice, 0.0);
  obs::counter_add("balance:restore_relayout", 1.0);
}

std::uint64_t CoupledModel::state_hash() {
  const bool ai_on = ai_physics_active();
  std::map<std::string, io::FieldData> local = local_sections(ai_on);
  std::uint64_t h = kFnvBasis;
  for (const std::string& name : section_inventory(ai_on)) {
    if (ownership_covariant_section(name) || timing_dependent_section(name))
      continue;
    auto it = local.find(name);
    if (it == local.end()) continue;
    h = fnv_bytes(h, name.data(), name.size());
    h = fnv_bytes(h, it->second.values.data(),
                  it->second.values.size() * sizeof(double));
  }
  // Decomposition-static sections combine per rank in rank order; ownership-
  // covariant state combines as an order-insensitive wrapping sum of
  // per-global-column digests, so runs that rebalanced mid-flight hash
  // identically to runs that never moved a column.
  const std::vector<std::uint64_t> all =
      global_.allgather(std::span<const std::uint64_t>(&h, 1));
  std::uint64_t combined = kFnvBasis;
  for (std::uint64_t r : all)
    combined = fnv_bytes(combined, &r, sizeof(r));
  std::uint64_t columns = 0;
  for (const BalanceParticipant& p : balance_)
    if (balance::Rebalanceable* m = p.model()) columns += m->column_state_hash();
  columns += ice_cache_column_hash();
  const std::uint64_t total =
      global_.allreduce_value(columns, par::ReduceOp::kSum);
  return fnv_bytes(combined, &total, sizeof(total));
}

double CoupledModel::mean_sst_impl() {
  double sum = 0.0, area = 0.0;
  if (ocn_) {
    const auto& g = ocn_->ocean_grid();
    for (auto gid : ocn_->ocean_gids()) {
      const int gi = static_cast<int>(gid % g.nx());
      const int gj = static_cast<int>(gid / g.nx());
      const double a = g.cell_area(gi, gj);
      sum += (ocn_->temp(gi - ocn_->x0(), gj - ocn_->y0(), 0) +
              constants::kT0) *
             a;
      area += a;
    }
  }
  return global_.allreduce_value(sum, par::ReduceOp::kSum) /
         global_.allreduce_value(area, par::ReduceOp::kSum);
}

double CoupledModel::mean_precip_impl() {
  const double local = atm_ ? atm_->global_mean_precip() : 0.0;
  // atm ranks all hold the same value after their collective; take the max.
  return global_.allreduce_value(local, par::ReduceOp::kMax);
}

double CoupledModel::ice_fraction_impl() {
  const double local = ice_ ? ice_->ice_area_fraction() : 0.0;
  return global_.allreduce_value(local, par::ReduceOp::kMax);
}

double CoupledModel::max_current_impl() {
  const double local = ocn_ ? ocn_->max_current() : 0.0;
  return global_.allreduce_value(local, par::ReduceOp::kMax);
}

CoupledDiagnostics CoupledModel::diagnostics() {
  CoupledDiagnostics d;
  d.mean_sst_k = mean_sst_impl();
  d.mean_precip = mean_precip_impl();
  d.ice_fraction = ice_fraction_impl();
  d.max_surface_current = max_current_impl();
  d.windows = clock_.steps_taken();
  // Step counters live only on the owning domain's ranks (identical there);
  // a max spreads them to the whole world in the concurrent layout.
  auto spread = [this](long long v) {
    return static_cast<long long>(global_.allreduce_value(
        static_cast<double>(v), par::ReduceOp::kMax));
  };
  d.atm_steps = spread(atm_ ? atm_->model_steps() : 0);
  d.ocn_baroclinic_steps = spread(ocn_ ? ocn_->baroclinic_steps() : 0);
  d.ice_steps = spread(ice_ ? ice_->steps() : 0);
  d.rebalance_migrations = rebalance_migrations_;
  return d;
}

atm::AtmModel& CoupledModel::atm() {
  AP3_REQUIRE_MSG(atm_ != nullptr,
                  "CoupledModel::atm(): no atmosphere on this rank "
                  "(concurrent layout) — check has_atm() first");
  return *atm_;
}
const atm::AtmModel& CoupledModel::atm() const {
  return const_cast<CoupledModel*>(this)->atm();
}
ocn::OcnModel& CoupledModel::ocn() {
  AP3_REQUIRE_MSG(ocn_ != nullptr,
                  "CoupledModel::ocn(): no ocean on this rank "
                  "(concurrent layout) — check has_ocn() first");
  return *ocn_;
}
const ocn::OcnModel& CoupledModel::ocn() const {
  return const_cast<CoupledModel*>(this)->ocn();
}
ice::IceModel& CoupledModel::ice() {
  AP3_REQUIRE_MSG(ice_ != nullptr,
                  "CoupledModel::ice(): no ice on this rank "
                  "(concurrent layout) — check has_ice() first");
  return *ice_;
}
const ice::IceModel& CoupledModel::ice() const {
  return const_cast<CoupledModel*>(this)->ice();
}

std::shared_ptr<const SharedInputs> build_shared_inputs(
    const CoupledConfig& config) {
  return SharedInputs::build(SharedInputsSpec{
      config.atm.mesh_n, config.ocn.grid, config.regrid_neighbors});
}

std::shared_ptr<const SharedInputs> build_shared_inputs(
    const CoupledConfig& config, ai::AiPhysicsSuite& suite) {
  return SharedInputs::build(
      SharedInputsSpec{config.atm.mesh_n, config.ocn.grid,
                       config.regrid_neighbors},
      suite);
}

void CoupledModel::seed_typhoon(const atm::VortexSpec& spec) {
  if (atm_) atm::seed_vortex(atm_->dycore(), spec);
}

atm::VortexFix CoupledModel::track_typhoon(double prev_lon_deg,
                                           double prev_lat_deg,
                                           double search_km) {
  double packed[5] = {0, 0, 0, 0, 0};
  if (atm_) {
    const atm::VortexFix fix = atm::track_vortex(
        atm_->dycore(), *atm_comm_, prev_lon_deg, prev_lat_deg, search_km);
    packed[0] = fix.lon_deg;
    packed[1] = fix.lat_deg;
    packed[2] = fix.min_h_m;
    packed[3] = fix.max_wind_ms;
    packed[4] = fix.found ? 1.0 : 0.0;
  }
  global_.bcast(std::span<double>(packed, 5), 0);  // rank 0 is in the atm domain
  atm::VortexFix fix;
  fix.lon_deg = packed[0];
  fix.lat_deg = packed[1];
  fix.min_h_m = packed[2];
  fix.max_wind_ms = packed[3];
  fix.found = packed[4] > 0.5;
  return fix;
}

double CoupledModel::sst_near(double lon_deg, double lat_deg,
                              double radius_km) {
  double sum = 0.0, area = 0.0;
  if (ocn_) {
    const auto& g = ocn_->ocean_grid();
    for (auto gid : ocn_->ocean_gids()) {
      const int gi = static_cast<int>(gid % g.nx());
      const int gj = static_cast<int>(gid / g.nx());
      const double d = atm::track_distance_km(lon_deg, lat_deg, g.lon_deg(gi),
                                              g.lat_deg(gj));
      if (d > radius_km) continue;
      const double a = g.cell_area(gi, gj);
      sum += (ocn_->temp(gi - ocn_->x0(), gj - ocn_->y0(), 0) +
              constants::kT0) *
             a;
      area += a;
    }
  }
  const double gsum = global_.allreduce_value(sum, par::ReduceOp::kSum);
  const double garea = global_.allreduce_value(area, par::ReduceOp::kSum);
  return garea > 0.0 ? gsum / garea : 0.0;
}

}  // namespace ap3::cpl
