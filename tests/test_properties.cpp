// Property-based test sweeps (parameterized gtest): invariants that must
// hold across resolutions, rank counts, seeds, and magnitudes — the
// repository's equivalent of the paper's bit-for-bit and non-bit-for-bit
// validation discipline.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>

#include "atm/dycore.hpp"
#include "balance/balance.hpp"
#include "base/constants.hpp"
#include "atm/vortex.hpp"
#include "base/rng.hpp"
#include "coupler/driver.hpp"
#include "fault/fault.hpp"
#include "grid/halo.hpp"
#include "harness.hpp"
#include "grid/icosahedral.hpp"
#include "grid/partition.hpp"
#include "base/hash.hpp"
#include "mct/rearranger.hpp"
#include "mct/router.hpp"
#include "ocn/model.hpp"
#include "par/comm.hpp"
#include "par/topology.hpp"
#include "pp/pack.hpp"
#include "precision/group_scaled.hpp"
#include "tensor/dispatch.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace ap3;

// --- property: atmosphere mass conservation across (mesh, ranks) -------------

struct AtmCase {
  int mesh_n;
  int ranks;
};
class AtmMassProperty : public ::testing::TestWithParam<AtmCase> {};

TEST_P(AtmMassProperty, MassInvariantUnderDecomposition) {
  const AtmCase param = GetParam();
  par::run(param.ranks, [&](par::Comm& comm) {
    atm::AtmConfig config;
    config.mesh_n = param.mesh_n;
    config.nlev = 4;
    grid::IcosahedralGrid mesh(config.mesh_n);
    atm::Dycore dycore(comm, config, mesh);
    atm::seed_vortex(dycore, atm::VortexSpec{});
    const double mass0 = dycore.total_mass();
    for (int s = 0; s < 12; ++s)
      dycore.step_dynamics(config.dycore_dt_seconds());
    EXPECT_NEAR(dycore.total_mass() / mass0, 1.0, 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, AtmMassProperty,
                         ::testing::Values(AtmCase{4, 1}, AtmCase{4, 3},
                                           AtmCase{6, 1}, AtmCase{6, 4},
                                           AtmCase{8, 2}, AtmCase{8, 5}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.mesh_n) +
                                  "_r" + std::to_string(info.param.ranks);
                         });

// --- property: partition completeness for arbitrary sizes ------------------------

class PartitionProperty
    : public ::testing::TestWithParam<std::pair<int64_t, int>> {};

TEST_P(PartitionProperty, CoversWithoutGapsOrOverlap) {
  const auto [n, parts] = GetParam();
  std::int64_t covered = 0;
  for (int r = 0; r < parts; ++r) {
    const grid::Range1D range = grid::partition_1d(n, parts, r);
    covered += range.size();
    for (std::int64_t i = range.begin; i < range.end; ++i)
      EXPECT_EQ(grid::owner_1d(n, parts, i), r);
  }
  EXPECT_EQ(covered, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionProperty,
    ::testing::Values(std::make_pair<int64_t, int>(1, 1),
                      std::make_pair<int64_t, int>(7, 7),
                      std::make_pair<int64_t, int>(100, 7),
                      std::make_pair<int64_t, int>(1009, 13),
                      std::make_pair<int64_t, int>(65536, 31),
                      std::make_pair<int64_t, int>(999983, 64)));

// --- property: router moves every shared point exactly once ---------------------

class RouterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouterProperty, RandomDecompositionsRouteCompletely) {
  // Two random decompositions of the same id space: the union of all ranks'
  // recv plans must cover every id exactly once, and per-rank send/recv
  // volumes must be consistent.
  Rng rng(GetParam());
  const int nranks = 5;
  const std::int64_t n = 400;
  std::vector<std::vector<std::int64_t>> src_ids(nranks), dst_ids(nranks);
  for (std::int64_t g = 0; g < n; ++g) {
    src_ids[rng.uniform_int(nranks)].push_back(g);
    dst_ids[rng.uniform_int(nranks)].push_back(g);
  }
  const mct::GlobalSegMap src = mct::GlobalSegMap::from_all(src_ids);
  const mct::GlobalSegMap dst = mct::GlobalSegMap::from_all(dst_ids);

  std::int64_t total_sent = 0, total_received = 0;
  for (int r = 0; r < nranks; ++r) {
    const mct::Router router = mct::Router::build(r, src, dst);
    total_sent += router.points_sent();
    total_received += router.points_received();
    // Receive positions are unique within the rank.
    std::set<std::int64_t> positions;
    for (const auto& [peer, plan] : router.recv_plan())
      for (auto pos : plan) EXPECT_TRUE(positions.insert(pos).second);
    EXPECT_EQ(static_cast<std::int64_t>(positions.size()),
              router.points_received());
  }
  EXPECT_EQ(total_sent, n);
  EXPECT_EQ(total_received, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

// --- property: rearranged data equals a gather/scatter oracle --------------------

class RearrangeProperty : public ::testing::TestWithParam<int> {};

TEST_P(RearrangeProperty, MatchesOracleForRandomDecompositions) {
  const int seed = GetParam();
  par::run(4, [&](par::Comm& comm) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const std::int64_t n = 120;
    std::vector<std::vector<std::int64_t>> src_ids(4), dst_ids(4);
    for (std::int64_t g = 0; g < n; ++g) {
      src_ids[rng.uniform_int(4)].push_back(g);
      dst_ids[rng.uniform_int(4)].push_back(g);
    }
    const mct::GlobalSegMap src_map = mct::GlobalSegMap::from_all(src_ids);
    const mct::GlobalSegMap dst_map = mct::GlobalSegMap::from_all(dst_ids);
    mct::Rearranger rearranger(
        comm, mct::Router::build(comm.rank(), src_map, dst_map));

    // Field value = deterministic function of gid.
    const auto my_src = src_map.local_ids(comm.rank());
    mct::AttrVect src({"x"}, my_src.size());
    for (std::size_t k = 0; k < my_src.size(); ++k)
      src.field("x")[k] = 7.5 * static_cast<double>(my_src[k]) + 0.25;
    const auto my_dst = dst_map.local_ids(comm.rank());
    mct::AttrVect dst({"x"}, my_dst.size());
    rearranger.rearrange(src, dst);
    for (std::size_t k = 0; k < my_dst.size(); ++k)
      EXPECT_EQ(dst.field("x")[k], 7.5 * static_cast<double>(my_dst[k]) + 0.25);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, RearrangeProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- property: mixed precision relative error bounded across magnitudes ----------

class PrecisionProperty : public ::testing::TestWithParam<double> {};

TEST_P(PrecisionProperty, RelativeErrorBoundedAtAnyMagnitude) {
  const double magnitude = GetParam();
  Rng rng(42);
  std::vector<double> values(512);
  for (double& v : values) v = magnitude * (1.0 + 0.8 * rng.normal());
  EXPECT_LT(precision::max_relative_roundtrip_error(values, 32), 5e-7)
      << "magnitude " << magnitude;
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, PrecisionProperty,
                         ::testing::Values(1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e7,
                                           1e12));

// --- property: icosahedral mesh invariants over subdivision -----------------------

class MeshProperty : public ::testing::TestWithParam<int> {};

TEST_P(MeshProperty, AreasPositiveAndBounded) {
  grid::IcosahedralGrid mesh(GetParam());
  const double mean =
      4.0 * constants::kPi / static_cast<double>(mesh.num_cells());
  for (std::size_t c = 0; c < mesh.num_cells(); ++c) {
    EXPECT_GT(mesh.cell_area(c), 0.2 * mean);
    EXPECT_LT(mesh.cell_area(c), 3.0 * mean);
  }
}

TEST_P(MeshProperty, EveryCellReachableFromCellZero) {
  // Flood fill over neighbor links must reach the whole sphere (mesh is
  // connected) — a structural property the halo construction relies on.
  grid::IcosahedralGrid mesh(GetParam());
  std::vector<bool> seen(mesh.num_cells(), false);
  std::vector<std::uint32_t> queue = {0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!queue.empty()) {
    const auto c = queue.back();
    queue.pop_back();
    for (auto nb : mesh.cell_neighbors(c)) {
      if (!seen[nb]) {
        seen[nb] = true;
        ++visited;
        queue.push_back(nb);
      }
    }
  }
  EXPECT_EQ(visited, mesh.num_cells());
}

INSTANTIATE_TEST_SUITE_P(Subdivision, MeshProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// --- property: ocean stability across grids, forcing, rank counts -----------------

struct OcnCase {
  int nx, ny, nz, ranks;
  double taux;
};
class OcnStabilityProperty : public ::testing::TestWithParam<OcnCase> {};

TEST_P(OcnStabilityProperty, BoundedAndVolumeConserving) {
  const OcnCase param = GetParam();
  par::run(param.ranks, [&](par::Comm& comm) {
    ocn::OcnConfig config;
    config.grid = grid::TripolarConfig{param.nx, param.ny, param.nz};
    ocn::OcnModel model(comm, config);
    mct::AttrVect x2o(ocn::OcnModel::import_fields(), model.ocean_gids().size());
    for (auto& t : x2o.field("taux")) t = param.taux;
    model.import_state(x2o);
    model.run(0.0, config.baroclinic_dt_seconds() * 15);
    EXPECT_TRUE(std::isfinite(model.max_current()));
    EXPECT_LT(model.max_current(), 10.0);
    EXPECT_LT(std::abs(model.total_volume()), 1e4);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OcnStabilityProperty,
    ::testing::Values(OcnCase{32, 24, 5, 1, 0.1}, OcnCase{32, 24, 5, 4, 0.1},
                      OcnCase{48, 36, 8, 2, 0.4}, OcnCase{64, 48, 6, 3, 0.2},
                      OcnCase{40, 30, 10, 2, -0.3}),
    [](const auto& info) {
      return "g" + std::to_string(info.param.nx) + "x" +
             std::to_string(info.param.ny) + "_r" +
             std::to_string(info.param.ranks) +
             (info.param.taux < 0 ? "_west" : "_east");
    });

// --- property: block halo matches a global-array oracle ---------------------------

struct HaloCase {
  int nx, ny, px, py;
};
class HaloProperty : public ::testing::TestWithParam<HaloCase> {};

TEST_P(HaloProperty, GhostsMatchGlobalOracle) {
  const HaloCase param = GetParam();
  par::run(param.px * param.py, [&](par::Comm& comm) {
    grid::BlockHalo halo(comm, param.nx, param.ny, param.px, param.py, true);
    std::vector<double> field(
        static_cast<size_t>((halo.nx_local() + 2) * (halo.ny_local() + 2)),
        0.0);
    auto value_of = [&](int gi, int gj) {
      return 1000.0 * gj + gi;
    };
    for (int j = 0; j < halo.ny_local(); ++j)
      for (int i = 0; i < halo.nx_local(); ++i)
        field[halo.halo_index(i, j)] = value_of(halo.x0() + i, halo.y0() + j);
    halo.exchange(field);

    // Oracle: periodic x; closed south (zero-gradient); north fold.
    auto oracle = [&](int gi, int gj) {
      gi = (gi % param.nx + param.nx) % param.nx;
      if (gj < 0) gj = 0;
      if (gj >= param.ny) {
        gi = param.nx - 1 - gi;
        gj = param.ny - 1;
      }
      return value_of(gi, gj);
    };
    for (int j = 0; j < halo.ny_local(); ++j) {
      EXPECT_EQ(field[halo.halo_index(-1, j)],
                oracle(halo.x0() - 1, halo.y0() + j));
      EXPECT_EQ(field[halo.halo_index(halo.nx_local(), j)],
                oracle(halo.x0() + halo.nx_local(), halo.y0() + j));
    }
    for (int i = 0; i < halo.nx_local(); ++i) {
      EXPECT_EQ(field[halo.halo_index(i, -1)],
                oracle(halo.x0() + i, halo.y0() - 1));
      EXPECT_EQ(field[halo.halo_index(i, halo.ny_local())],
                oracle(halo.x0() + i, halo.y0() + halo.ny_local()));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HaloProperty,
    ::testing::Values(HaloCase{16, 8, 1, 1}, HaloCase{16, 8, 2, 1},
                      HaloCase{16, 8, 1, 2}, HaloCase{16, 8, 2, 2},
                      HaloCase{16, 8, 4, 2}, HaloCase{24, 12, 3, 2},
                      HaloCase{18, 10, 2, 3}),
    [](const auto& info) {
      return std::to_string(info.param.nx) + "x" + std::to_string(info.param.ny) +
             "_p" + std::to_string(info.param.px) + "x" +
             std::to_string(info.param.py);
    });

// --- property: vortex tracker finds seeds anywhere --------------------------------

class VortexProperty
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(VortexProperty, TrackerLocatesSeedWithinOneCell) {
  const auto [lon, lat] = GetParam();
  par::run(2, [&, lon = lon, lat = lat](par::Comm& comm) {
    atm::AtmConfig config;
    config.mesh_n = 8;
    config.nlev = 4;
    grid::IcosahedralGrid mesh(config.mesh_n);
    atm::Dycore dycore(comm, config, mesh);
    atm::VortexSpec spec;
    spec.lon_deg = lon;
    spec.lat_deg = lat;
    atm::seed_vortex(dycore, spec);
    const atm::VortexFix fix = atm::track_vortex(dycore, comm, lon, lat, 1500.0);
    ASSERT_TRUE(fix.found);
    // The minimum must sit within about one cell spacing of the seed.
    const double spacing_km = grid::IcosaCounts::resolution_km(config.mesh_n);
    EXPECT_LT(atm::track_distance_km(lon, lat, fix.lon_deg, fix.lat_deg),
              1.6 * spacing_km);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Locations, VortexProperty,
    ::testing::Values(std::make_pair(130.0, 15.0), std::make_pair(290.0, 25.0),
                      std::make_pair(60.0, -18.0), std::make_pair(0.0, 40.0),
                      std::make_pair(200.0, -35.0)));

// --- fault-injection fuzz ----------------------------------------------------
//
// Property: the transport's recovery machinery is invisible to correct
// programs. Under a randomly drawn no-drop fault plan (duplicates, delays/
// reorderings, sender stalls — everything that perturbs delivery order
// without requiring retransmission timeouts), both rearranger strategies and
// the coupled driver must produce results identical to a fault-free run.

class FaultPlanProperty : public ::testing::TestWithParam<int> {};

TEST_P(FaultPlanProperty, RearrangeIdenticalUnderRandomFaultPlan) {
  const fault::FaultConfig plan =
      ap3::testing::random_no_drop_plan(static_cast<std::uint64_t>(GetParam()));
  for (const auto method :
       {mct::Strategy::kAlltoallv, mct::Strategy::kSplitPhase}) {
    ap3::testing::run_ranks(4, plan, [method](par::Comm& comm) {
      const std::int64_t n = 64;
      std::vector<std::vector<std::int64_t>> src_ids(4), dst_ids(4);
      for (int r = 0; r < 4; ++r) {
        src_ids[static_cast<size_t>(r)] = ap3::testing::block_ids(n, r, 4);
        dst_ids[static_cast<size_t>(r)] = ap3::testing::cyclic_ids(n, r, 4);
      }
      const mct::GlobalSegMap src_map = mct::GlobalSegMap::from_all(src_ids);
      const mct::GlobalSegMap dst_map = mct::GlobalSegMap::from_all(dst_ids);
      const mct::Router router =
          mct::Router::build(comm.rank(), src_map, dst_map);
      const mct::Rearranger rearranger(comm, router);

      mct::AttrVect src({"t", "u"}, 16);
      const auto my_src = src_map.local_ids(comm.rank());
      for (size_t k = 0; k < my_src.size(); ++k) {
        src.field("t")[k] = static_cast<double>(my_src[k]);
        src.field("u")[k] = 1000.0 + static_cast<double>(my_src[k]);
      }
      // Two passes back to back: recovery state (sequence counters, delayed
      // queues) must not leak between rearrange calls either.
      for (int pass = 0; pass < 2; ++pass) {
        mct::AttrVect dst({"t", "u"}, 16);
        rearranger.rearrange(src, dst, method);
        const auto my_dst = dst_map.local_ids(comm.rank());
        for (size_t k = 0; k < my_dst.size(); ++k) {
          ASSERT_EQ(dst.field("t")[k], static_cast<double>(my_dst[k]))
              << "pass " << pass;
          ASSERT_EQ(dst.field("u")[k], 1000.0 + static_cast<double>(my_dst[k]));
        }
      }
      comm.barrier();
      // Sanity: the plan actually perturbed something at least occasionally
      // is checked across the suite, not per seed (rates can draw low).
      const fault::FaultStats stats = comm.world().fault_stats();
      EXPECT_EQ(stats.recovered(), stats.recoverable());
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Plans, FaultPlanProperty, ::testing::Range(0, 50));

class CoupledFaultProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoupledFaultProperty, TrajectoryIdenticalUnderRandomFaultPlan) {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 4;  // 320 cells: smallest coupled setup
  config.atm.nlev = 4;
  config.ocn.grid = grid::TripolarConfig{24, 18, 4};
  config.ocn_couple_ratio = 2;

  static std::uint64_t baseline_hash = 0;  // fault-free oracle, computed once
  if (baseline_hash == 0) {
    ap3::testing::run_ranks(2, [&](par::Comm& comm) {
      cpl::CoupledModel model(comm, {config});
      model.run_windows(2);
      const std::uint64_t h = model.state_hash();  // collective
      if (comm.rank() == 0) baseline_hash = h;
    });
  }

  const fault::FaultConfig plan = ap3::testing::random_no_drop_plan(
      0x10ad5ULL + static_cast<std::uint64_t>(GetParam()));
  ap3::testing::run_ranks(2, plan, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, {config});
    model.run_windows(2);
    const std::uint64_t h = model.state_hash();  // collective
    if (comm.rank() == 0) {
      EXPECT_EQ(h, baseline_hash)
          << "coupled trajectory diverged under fault plan " << GetParam();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Plans, CoupledFaultProperty, ::testing::Range(0, 5));

// --- property: pack width never changes kernel bits ------------------------
//
// Random (M, N, K, pack width, accumulation width, space) tuples: the packed
// matmul_nt / conv1d paths must reproduce the pack=0 scalar reference
// bit-for-bit. This is the fuzz companion to tests/test_pack.cpp — shapes are
// drawn so most draws have masked tails in every dimension.

class PackFuzzProperty : public ::testing::TestWithParam<int> {};

namespace {
tensor::Tensor fuzz_tensor(std::vector<std::size_t> shape, Rng& rng) {
  tensor::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
  return t;
}

std::uint64_t bits_of(const tensor::Tensor& t) {
  return fnv1a(kFnvBasis, t.data(), t.size() * sizeof(float));
}
}  // namespace

TEST_P(PackFuzzProperty, PackedMatmulAndConvMatchScalarReferenceBitwise) {
  Rng rng(0x9acdULL + static_cast<std::uint64_t>(GetParam()) * 7919u);
  constexpr std::size_t widths[] = {1, 2, 4, 8, 16};
  constexpr pp::ExecSpace spaces[] = {pp::ExecSpace::kSerial,
                                      pp::ExecSpace::kHostThreads,
                                      pp::ExecSpace::kSunwayCPE};

  const std::size_t m = 1 + rng.uniform_int(24);
  const std::size_t n = 1 + rng.uniform_int(33);
  const std::size_t k = 1 + rng.uniform_int(40);
  const tensor::Tensor a = fuzz_tensor({m, k}, rng);
  const tensor::Tensor w = fuzz_tensor({n, k}, rng);

  const std::size_t batch = 1 + rng.uniform_int(3);
  const std::size_t cin = 1 + rng.uniform_int(3);
  const std::size_t len = 1 + rng.uniform_int(21);
  const std::size_t cout = 1 + rng.uniform_int(4);
  const std::size_t kk = 1 + 2 * rng.uniform_int(3);  // odd: 1, 3, 5
  const tensor::Tensor x = fuzz_tensor({batch, cin, len}, rng);
  const tensor::Tensor kern = fuzz_tensor({cout, cin, kk}, rng);
  const tensor::Tensor bias = fuzz_tensor({cout}, rng);

  const auto accum = rng.uniform_int(2) == 0 ? tensor::Accum::kFloat32
                                             : tensor::Accum::kFloat64;
  std::uint64_t ref_mm = 0, ref_cv = 0;
  {
    tensor::DispatchScope scope({pp::ExecSpace::kSerial, 0, accum, 0});
    ref_mm = bits_of(tensor::matmul_nt(a, w));
    ref_cv = bits_of(tensor::conv1d(x, kern, bias));
  }
  const std::size_t width = widths[rng.uniform_int(5)];
  const pp::ExecSpace space = spaces[rng.uniform_int(3)];
  tensor::DispatchScope scope({space, 0, accum, width});
  EXPECT_EQ(bits_of(tensor::matmul_nt(a, w)), ref_mm)
      << "matmul m=" << m << " n=" << n << " k=" << k << " width=" << width
      << " space=" << pp::to_string(space);
  EXPECT_EQ(bits_of(tensor::conv1d(x, kern, bias)), ref_cv)
      << "conv batch=" << batch << " cin=" << cin << " len=" << len
      << " cout=" << cout << " kk=" << kk << " width=" << width
      << " space=" << pp::to_string(space);
}

INSTANTIATE_TEST_SUITE_P(Tuples, PackFuzzProperty, ::testing::Range(0, 40));

// --- property: hierarchical collectives are bitwise-equal to flat ----------------

// Random (ranks, supernode_size, payload, op, algo-routing) tuples: the
// topology-staged allreduce and alltoallv must return bytes identical to the
// flat wire algorithms — including non-dividing supernode sizes, empty
// payload rows, and sums whose result depends on fold order unless the
// canonical supernode-blocked order is honored on both paths.
class HierFuzzProperty : public ::testing::TestWithParam<int> {};

TEST_P(HierFuzzProperty, CollectivesMatchFlatBitwise) {
  Rng rng(0x9e3779b9u ^ static_cast<std::uint64_t>(GetParam()));
  const int nranks = 2 + static_cast<int>(rng.uniform_int(7));     // 2..8
  const int supernode_size = 1 + static_cast<int>(rng.uniform_int(5));
  const std::size_t payload = rng.uniform_int(65);                 // 0..64
  const par::ReduceOp op = std::array{par::ReduceOp::kSum, par::ReduceOp::kMin,
                                      par::ReduceOp::kMax}[rng.uniform_int(3)];
  // Route either through the communicator's default algorithm or through a
  // per-call policy override — both entry points must agree. Both sides use
  // the SAME topology-attached communicator (the canonical supernode-blocked
  // fold order is a property of the topology, shared by both algorithms);
  // only the wire algorithm differs.
  const bool per_call = rng.uniform_int(2) == 1;
  const std::uint64_t value_seed = rng.uniform_int(1u << 30);

  ap3::testing::run_ranks(nranks, [&](par::Comm& base_comm) {
    auto topo = std::make_shared<par::Topology>(
        par::Topology::clustered(nranks, supernode_size));
    par::Comm flat_comm =
        base_comm.with_topology(topo, par::CollectiveAlgo::kFlat);
    par::Comm hier_comm = base_comm.with_topology(
        topo, per_call ? par::CollectiveAlgo::kFlat
                       : par::CollectiveAlgo::kHierarchical);
    const par::CollectivePolicy policy =
        per_call ? par::CollectivePolicy{par::CollectiveAlgo::kHierarchical}
                 : par::CollectivePolicy{};

    // Allreduce with exponent-spread values (fold-order witness).
    std::vector<double> in(payload), flat_out(payload), hier_out(payload);
    for (std::size_t i = 0; i < payload; ++i)
      in[i] = std::ldexp(std::sin(static_cast<double>(
                             value_seed % 997 + i * 13 +
                             static_cast<std::size_t>(flat_comm.rank()) * 71)),
                         static_cast<int>(i % 31) - 15);
    flat_comm.allreduce(std::span<const double>(in), std::span<double>(flat_out),
                        op);
    hier_comm.allreduce(std::span<const double>(in), std::span<double>(hier_out),
                        op, policy);
    for (std::size_t i = 0; i < payload; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(flat_out[i]),
                std::bit_cast<std::uint64_t>(hier_out[i]))
          << "allreduce i=" << i << " ranks=" << nranks
          << " ss=" << supernode_size;

    // Alltoallv with ragged per-peer counts (zeros included).
    std::vector<double> send;
    std::vector<std::size_t> counts(static_cast<std::size_t>(nranks));
    for (int peer = 0; peer < nranks; ++peer) {
      const std::size_t c =
          (static_cast<std::size_t>(flat_comm.rank()) * 7 +
           static_cast<std::size_t>(peer) * 3 + value_seed) %
          5;
      counts[static_cast<std::size_t>(peer)] = c;
      for (std::size_t k = 0; k < c; ++k)
        send.push_back(static_cast<double>(flat_comm.rank() * 10000 +
                                           peer * 100 + static_cast<int>(k)));
    }
    std::vector<std::size_t> flat_rc, hier_rc;
    const std::vector<double> flat_recv = flat_comm.alltoallv(
        std::span<const double>(send), std::span<const std::size_t>(counts),
        flat_rc);
    const std::vector<double> hier_recv = hier_comm.alltoallv(
        std::span<const double>(send), std::span<const std::size_t>(counts),
        hier_rc, policy);
    ASSERT_EQ(flat_rc, hier_rc);
    ASSERT_EQ(flat_recv.size(), hier_recv.size());
    for (std::size_t i = 0; i < flat_recv.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(flat_recv[i]),
                std::bit_cast<std::uint64_t>(hier_recv[i]))
          << "alltoallv i=" << i << " ranks=" << nranks
          << " ss=" << supernode_size;
  });
}

INSTANTIATE_TEST_SUITE_P(Tuples, HierFuzzProperty, ::testing::Range(0, 30));

// --- property: ghost-aware weighted cuts -------------------------------------
//
// Random (grid, rank-grid, weights, old cuts, measured cost, ghost model)
// tuples for the runtime repartitioner. Three invariants: (1) the chosen cut
// plan exactly covers the grid with nonempty blocks; (2) ghost_cell_count
// matches a brute-force per-cell walk of the halo ring under the tripolar
// exchange topology (periodic E/W, folded north, closed south, no corners) —
// no ghost charged twice, none missed; (3) the ghost-aware choice is never
// worse than the ghost-blind greedy cut when both are scored by the
// ghost-aware per-rank cost (monotonicity: greedy is always a candidate).

class BalanceCutFuzzProperty : public ::testing::TestWithParam<int> {};

TEST_P(BalanceCutFuzzProperty, GhostAwareCutsCoverCountAndDominate) {
  Rng rng(0xba1a4ceULL + static_cast<std::uint64_t>(GetParam()) * 104729u);
  const int nx = 8 + static_cast<int>(rng.uniform_int(33));  // 8..40
  const int ny = 6 + static_cast<int>(rng.uniform_int(27));  // 6..32
  const int px = 1 + static_cast<int>(rng.uniform_int(4));   // 1..4
  const int py = 1 + static_cast<int>(rng.uniform_int(4));   // 1..4
  const int nranks = px * py;

  // kmt-like integer weights with land (zero) cells and a heavy band — the
  // shape the ice/ocean compaction actually feeds the planner.
  std::vector<double> weight(static_cast<std::size_t>(nx) *
                             static_cast<std::size_t>(ny));
  const int band_begin = static_cast<int>(rng.uniform_int(ny));
  std::int64_t weight_total = 0;
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      std::int64_t w = rng.uniform_int(4) == 0 ? 0 : 1 + rng.uniform_int(8);
      if (j >= band_begin && w > 0) w += 8;  // latitude band of extra load
      weight[static_cast<std::size_t>(j) * static_cast<std::size_t>(nx) +
             static_cast<std::size_t>(i)] = static_cast<double>(w);
      weight_total += w;
    }

  // Old partition: uniform, or random nonempty cut lines.
  auto random_cuts = [&](int n, int parts) {
    std::vector<double> marginal(static_cast<std::size_t>(n));
    for (double& m : marginal) m = rng.uniform(0.1, 1.0);
    return grid::weighted_cuts(marginal, parts, /*nonempty=*/true);
  };
  const bool uniform_old = rng.uniform_int(2) == 0;
  const grid::BlockPartition2D old_partition =
      uniform_old
          ? grid::BlockPartition2D(nx, ny, px, py)
          : grid::BlockPartition2D(
                nx, ny, grid::BlockCuts{random_cuts(nx, px), random_cuts(ny, py)});

  balance::MeasuredCost cost;
  cost.per_rank_seconds.resize(static_cast<std::size_t>(nranks));
  for (double& s : cost.per_rank_seconds) s = rng.uniform(0.05, 0.5);
  // Half the tuples get one straggling rank, the trigger case.
  if (rng.uniform_int(2) == 0)
    cost.per_rank_seconds[rng.uniform_int(nranks)] *= 4.0;

  balance::GhostModel ghosts;
  ghosts.halo_width = 1 + static_cast<int>(rng.uniform_int(2));  // 1..2
  ghosts.cell_cost_factor = rng.uniform(0.05, 1.0);

  const balance::CutPlan plan =
      balance::plan_rebalance(weight, nx, ny, old_partition, cost, ghosts);

  // (1) Exact cover: strictly ascending boundaries spanning [0, n] on both
  // axes (nonempty blocks), and block areas tile the grid.
  ASSERT_EQ(plan.cuts.px(), px);
  ASSERT_EQ(plan.cuts.py(), py);
  EXPECT_EQ(plan.cuts.x.front(), 0);
  EXPECT_EQ(plan.cuts.x.back(), nx);
  EXPECT_EQ(plan.cuts.y.front(), 0);
  EXPECT_EQ(plan.cuts.y.back(), ny);
  for (std::size_t c = 1; c < plan.cuts.x.size(); ++c)
    EXPECT_LT(plan.cuts.x[c - 1], plan.cuts.x[c]);
  for (std::size_t c = 1; c < plan.cuts.y.size(); ++c)
    EXPECT_LT(plan.cuts.y[c - 1], plan.cuts.y[c]);
  const grid::BlockPartition2D next(nx, ny, plan.cuts);
  std::int64_t area = 0;
  for (int r = 0; r < nranks; ++r)
    area += next.x_range(r).size() * next.y_range(r).size();
  EXPECT_EQ(area, static_cast<std::int64_t>(nx) * ny);
  EXPECT_EQ(plan.total_weight, weight_total);
  EXPECT_GE(plan.moved_weight, 0);
  EXPECT_LE(plan.moved_weight, plan.total_weight);

  // (2) Ghost accounting vs a brute-force walk of each block's halo ring:
  // every slot is classified independently, so a double-charged or dropped
  // ghost in the closed-form count shows up as a mismatch.
  const int hw = ghosts.halo_width;
  for (int r = 0; r < nranks; ++r) {
    const grid::Range1D xr = next.x_range(r);
    const grid::Range1D yr = next.y_range(r);
    std::int64_t brute = 0;
    for (std::int64_t gj = yr.begin - hw; gj < yr.end + hw; ++gj)
      for (std::int64_t gi = xr.begin - hw; gi < xr.end + hw; ++gi) {
        const bool x_off = gi < xr.begin || gi >= xr.end;
        const bool y_off = gj < yr.begin || gj >= yr.end;
        if (!x_off && !y_off) continue;  // owned interior, not a ghost
        if (x_off && y_off) continue;    // corners are not exchanged
        if (y_off && gj < 0) continue;   // closed south: local fill, no data
        ++brute;  // E/W wrap periodically and the folded north is always open
      }
    EXPECT_EQ(brute,
              balance::ghost_cell_count(xr.size(), yr.size(), hw, yr.begin))
        << "rank " << r << " block " << xr.size() << "x" << yr.size()
        << " y0=" << yr.begin << " width=" << hw;
  }

  // (3) Monotonicity: score the ghost-blind greedy plan with the same
  // ghost-aware cost — the chosen plan's bottleneck must not exceed it
  // (greedy is candidate 0, so this holds exactly, no epsilon).
  const balance::CutPlan blind = balance::plan_rebalance(
      weight, nx, ny, old_partition, cost, balance::GhostModel{});
  auto max_of = [](const std::vector<double>& v) {
    double m = 0.0;
    for (const double s : v) m = std::max(m, s);
    return m;
  };
  const double chosen_max = max_of(balance::predicted_rank_seconds(
      weight, nx, ny, old_partition, cost, plan.cuts, ghosts));
  const double blind_max = max_of(balance::predicted_rank_seconds(
      weight, nx, ny, old_partition, cost, blind.cuts, ghosts));
  EXPECT_LE(chosen_max, blind_max);
  EXPECT_EQ(plan.predicted_max_seconds, chosen_max);
}

INSTANTIATE_TEST_SUITE_P(Tuples, BalanceCutFuzzProperty,
                         ::testing::Range(0, 20));

}  // namespace
