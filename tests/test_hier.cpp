// Topology-aware hierarchical collectives (par::Topology + CollectiveAlgo).
//
// The contract under test: with a Topology attached, every collective's
// result is a pure function of the topology's canonical supernode-blocked
// order — NOT of the algorithm — so kFlat and kHierarchical are bitwise
// identical, fault-free and under heavy fault injection, for rank counts
// that do and do not divide evenly into supernodes. The coupled model's
// state_hash must therefore be invariant to the CollectiveAlgo too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "coupler/driver.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"
#include "par/topology.hpp"

namespace ap3 {
namespace {

using testing::expect_fields_equal;
using testing::heavy_fault_plan;
using testing::run_ranks;

std::shared_ptr<const par::Topology> clustered(int nranks, int supernode) {
  return std::make_shared<par::Topology>(
      par::Topology::clustered(nranks, supernode));
}

/// Exponent-spread payload: floating-point sums over it are sensitive to
/// fold order, so bitwise agreement across algorithms is a real statement
/// about the reduction order, not an artifact of benign values.
std::vector<double> spread_payload(int rank, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, static_cast<double>((rank + i) % 9) - 4);
    v[i] = std::sin(0.7 * static_cast<double>(i + 1) * (rank + 1)) * mag;
  }
  return v;
}

// --- Topology descriptor -----------------------------------------------------

TEST(Topology, ClusteredMappingLeadersAndMembers) {
  const par::Topology topo = par::Topology::clustered(10, 4);  // 4+4+2
  EXPECT_EQ(topo.nranks(), 10);
  EXPECT_EQ(topo.num_supernodes(), 3);
  EXPECT_EQ(topo.supernode_of(0), 0);
  EXPECT_EQ(topo.supernode_of(3), 0);
  EXPECT_EQ(topo.supernode_of(4), 1);
  EXPECT_EQ(topo.supernode_of(9), 2);
  EXPECT_EQ(topo.members(2), (std::vector<int>{8, 9}));
  EXPECT_EQ(topo.leader(0), 0);
  EXPECT_EQ(topo.leader(1), 4);
  EXPECT_EQ(topo.leader(2), 8);
  EXPECT_TRUE(topo.is_leader(4));
  EXPECT_FALSE(topo.is_leader(5));
  EXPECT_EQ(topo.leader_of(6), 4);
  EXPECT_FALSE(topo.trivial());
  EXPECT_TRUE(par::Topology::clustered(4, 8).trivial());   // one supernode
  EXPECT_TRUE(par::Topology::clustered(4, 1).trivial());   // all singletons
}

TEST(Topology, InjectableIdsAreCompacted) {
  const par::Topology topo({7, 2, 7, 2, 5});  // ids in any order, any values
  EXPECT_EQ(topo.num_supernodes(), 3);
  EXPECT_EQ(topo.supernode_of(1), 0);  // id 2 -> index 0 (ascending id order)
  EXPECT_EQ(topo.supernode_of(4), 1);  // id 5 -> index 1
  EXPECT_EQ(topo.supernode_of(0), 2);  // id 7 -> index 2
  EXPECT_EQ(topo.members(2), (std::vector<int>{0, 2}));
  EXPECT_EQ(topo.leader(0), 1);
}

TEST(Topology, InducedProjectsOntoSubgroup) {
  const par::Topology topo = par::Topology::clustered(8, 4);
  // Even parent ranks survive: {0, 2, 4, 6} -> supernodes {0, 0, 1, 1}.
  const par::Topology sub = topo.induced({0, 2, 4, 6});
  EXPECT_EQ(sub.nranks(), 4);
  EXPECT_EQ(sub.num_supernodes(), 2);
  EXPECT_EQ(sub.supernode_of(1), 0);
  EXPECT_EQ(sub.supernode_of(2), 1);
  EXPECT_EQ(sub.leader(1), 2);
}

// --- bitwise equivalence: hierarchical vs flat -------------------------------

void expect_allreduce_algos_agree(par::Comm& comm, int supernode) {
  auto topo = clustered(comm.size(), supernode);
  const par::Comm flat = comm.with_topology(topo, par::CollectiveAlgo::kFlat);
  const par::Comm hier =
      comm.with_topology(topo, par::CollectiveAlgo::kHierarchical);
  const std::vector<double> in = spread_payload(comm.rank(), 33);
  for (const par::ReduceOp op :
       {par::ReduceOp::kSum, par::ReduceOp::kMin, par::ReduceOp::kMax}) {
    std::vector<double> out_flat(in.size()), out_hier(in.size());
    flat.allreduce(std::span<const double>(in), std::span<double>(out_flat),
                   op);
    hier.allreduce(std::span<const double>(in), std::span<double>(out_hier),
                   op);
    expect_fields_equal(out_hier, out_flat, 0, "allreduce");
    // The per-call policy overrides the comm default the same way.
    std::vector<double> out_policy(in.size());
    flat.allreduce(std::span<const double>(in), std::span<double>(out_policy),
                   op, {par::CollectiveAlgo::kHierarchical});
    expect_fields_equal(out_policy, out_flat, 0, "allreduce policy override");
  }
}

TEST(HierCollectives, AllreduceBitwiseAcrossRankAndSupernodeCounts) {
  // Divides evenly (8/4, 12/4) and does not (5/3, 9/2, 7/4).
  const int cases[][2] = {{8, 4}, {12, 4}, {5, 3}, {9, 2}, {7, 4}};
  for (const auto& c : cases) {
    run_ranks(c[0], [&](par::Comm& comm) {
      expect_allreduce_algos_agree(comm, c[1]);
    });
  }
}

TEST(HierCollectives, BcastAndReduceAgreeForEveryRoot) {
  run_ranks(6, [](par::Comm& comm) {
    auto topo = clustered(comm.size(), 4);  // leaders: 0 and 4
    const par::Comm flat = comm.with_topology(topo, par::CollectiveAlgo::kFlat);
    const par::Comm hier =
        comm.with_topology(topo, par::CollectiveAlgo::kHierarchical);
    for (int root = 0; root < comm.size(); ++root) {  // leader and member roots
      std::vector<double> data_flat = spread_payload(root, 17);
      std::vector<double> data_hier = data_flat;
      if (comm.rank() != root) {
        data_flat.assign(17, 0.0);
        data_hier.assign(17, -1.0);
      }
      flat.bcast(std::span<double>(data_flat), root);
      hier.bcast(std::span<double>(data_hier), root);
      expect_fields_equal(data_hier, data_flat, 0, "bcast");

      const std::vector<double> in = spread_payload(comm.rank(), 17);
      std::vector<double> red_flat(in.size()), red_hier(in.size());
      flat.reduce(std::span<const double>(in), std::span<double>(red_flat),
                  par::ReduceOp::kSum, root);
      hier.reduce(std::span<const double>(in), std::span<double>(red_hier),
                  par::ReduceOp::kSum, root);
      if (comm.rank() == root)
        expect_fields_equal(red_hier, red_flat, 0, "reduce");
    }
  });
}

/// Payload value encoding (src, dst, slot) so content errors are attributable.
double coded(int src, int dst, std::size_t slot) {
  return src * 10000.0 + dst * 100.0 + static_cast<double>(slot);
}

void expect_alltoallv_algos_agree(par::Comm& comm, int supernode) {
  auto topo = clustered(comm.size(), supernode);
  const par::Comm flat = comm.with_topology(topo, par::CollectiveAlgo::kFlat);
  const par::Comm hier =
      comm.with_topology(topo, par::CollectiveAlgo::kHierarchical);
  // Uneven counts with zeros sprinkled in (including zero to self).
  std::vector<std::size_t> send_counts(static_cast<std::size_t>(comm.size()));
  std::vector<double> send_data;
  for (int r = 0; r < comm.size(); ++r) {
    const std::size_t cnt =
        static_cast<std::size_t>((comm.rank() * 7 + r * 3) % 5);
    send_counts[static_cast<std::size_t>(r)] = cnt;
    for (std::size_t k = 0; k < cnt; ++k)
      send_data.push_back(coded(comm.rank(), r, k));
  }
  std::vector<std::size_t> counts_flat, counts_hier;
  const std::vector<double> out_flat =
      flat.alltoallv(std::span<const double>(send_data),
                     std::span<const std::size_t>(send_counts), counts_flat);
  const std::vector<double> out_hier =
      hier.alltoallv(std::span<const double>(send_data),
                     std::span<const std::size_t>(send_counts), counts_hier);
  EXPECT_EQ(counts_hier, counts_flat);
  expect_fields_equal(out_hier, out_flat, 0, "alltoallv");
  // Independent content check against the closed-form expectation.
  std::size_t pos = 0;
  for (int src = 0; src < comm.size(); ++src) {
    const std::size_t cnt =
        static_cast<std::size_t>((src * 7 + comm.rank() * 3) % 5);
    ASSERT_EQ(counts_hier[static_cast<std::size_t>(src)], cnt);
    for (std::size_t k = 0; k < cnt; ++k)
      EXPECT_EQ(out_hier[pos++], coded(src, comm.rank(), k));
  }
  EXPECT_EQ(pos, out_hier.size());
}

TEST(HierCollectives, AlltoallvBitwiseAcrossRankAndSupernodeCounts) {
  const int cases[][2] = {{8, 4}, {12, 3}, {7, 3}, {9, 4}, {6, 2}};
  for (const auto& c : cases) {
    run_ranks(c[0], [&](par::Comm& comm) {
      expect_alltoallv_algos_agree(comm, c[1]);
    });
  }
}

TEST(HierCollectives, AllgatherAndAllgathervAgree) {
  run_ranks(7, [](par::Comm& comm) {
    auto topo = clustered(comm.size(), 3);
    const par::Comm flat = comm.with_topology(topo, par::CollectiveAlgo::kFlat);
    const par::Comm hier =
        comm.with_topology(topo, par::CollectiveAlgo::kHierarchical);
    const std::vector<double> local = spread_payload(comm.rank(), 5);
    expect_fields_equal(hier.allgather(std::span<const double>(local)),
                        flat.allgather(std::span<const double>(local)), 0,
                        "allgather");
    const std::vector<double> var =
        spread_payload(comm.rank(), 1 + static_cast<std::size_t>(comm.rank()));
    std::vector<std::size_t> cf, ch;
    expect_fields_equal(
        hier.allgatherv(std::span<const double>(var), &ch),
        flat.allgatherv(std::span<const double>(var), &cf), 0, "allgatherv");
    EXPECT_EQ(ch, cf);
  });
}

// --- fault injection ---------------------------------------------------------

TEST(HierCollectives, AllreduceBitwiseUnderHeavyFaults) {
  run_ranks(6, heavy_fault_plan(0x41c3), [](par::Comm& comm) {
    expect_allreduce_algos_agree(comm, 4);
  });
}

TEST(HierCollectives, AlltoallvBitwiseUnderHeavyFaults) {
  run_ranks(7, heavy_fault_plan(0x77aa), [](par::Comm& comm) {
    expect_alltoallv_algos_agree(comm, 3);
  });
}

// --- split propagation -------------------------------------------------------

TEST(HierCollectives, SplitProjectsTopologyOntoSubgroups) {
  run_ranks(8, [](par::Comm& comm) {
    const par::Comm wrapped = comm.with_topology(clustered(8, 4));
    EXPECT_EQ(wrapped.default_algo(), par::CollectiveAlgo::kHierarchical);
    const par::Comm sub = wrapped.split(comm.rank() % 2, comm.rank());
    ASSERT_NE(sub.topology(), nullptr);
    EXPECT_EQ(sub.topology()->nranks(), 4);
    EXPECT_EQ(sub.topology()->num_supernodes(), 2);
    // Subgroup ranks {0,2,4,6} (or odd): first two descend from supernode 0.
    EXPECT_EQ(sub.topology()->supernode_of(0), 0);
    EXPECT_EQ(sub.topology()->supernode_of(1), 0);
    EXPECT_EQ(sub.topology()->supernode_of(3), 1);
    EXPECT_EQ(sub.default_algo(), par::CollectiveAlgo::kHierarchical);
    // Collectives on the subgroup agree across algorithms too.
    const std::vector<double> in = spread_payload(comm.rank(), 9);
    std::vector<double> out_hier(in.size()), out_flat(in.size());
    sub.allreduce(std::span<const double>(in), std::span<double>(out_hier),
                  par::ReduceOp::kSum);
    sub.allreduce(std::span<const double>(in), std::span<double>(out_flat),
                  par::ReduceOp::kSum, {par::CollectiveAlgo::kFlat});
    expect_fields_equal(out_hier, out_flat, 0, "split allreduce");
    // A bare comm's split stays bare.
    const par::Comm bare_sub = comm.split(0, comm.rank());
    EXPECT_EQ(bare_sub.topology(), nullptr);
  });
}

// --- per-level traffic counters ----------------------------------------------

TEST(HierCollectives, LevelCountersSeparateIntraFromInter) {
  obs::reset_all();
  run_ranks(8, [](par::Comm& comm) {
    const par::Comm hier = comm.with_topology(clustered(8, 4));
    std::vector<std::size_t> counts(8, 16);
    std::vector<double> data(8 * 16, static_cast<double>(comm.rank()));
    std::vector<std::size_t> rc;
    hier.alltoallv(std::span<const double>(data),
                   std::span<const std::size_t>(counts), rc);
    hier.alltoallv(std::span<const double>(data),
                   std::span<const std::size_t>(counts), rc,
                   {par::CollectiveAlgo::kFlat});
  });
  const double hier_inter =
      obs::total_counter("par:coll:messages[alltoallv/hier/inter]");
  const double hier_intra =
      obs::total_counter("par:coll:messages[alltoallv/hier/intra]");
  // Flat alltoallv exchanges counts through an inner alltoall scope, so its
  // payload messages land under alltoallv/flat and counts under alltoall/flat.
  const double flat_inter =
      obs::total_counter("par:coll:messages[alltoallv/flat/inter]") +
      obs::total_counter("par:coll:messages[alltoall/flat/inter]");
  EXPECT_GT(hier_intra, 0.0);
  EXPECT_GT(hier_inter, 0.0);
  EXPECT_GT(flat_inter, 0.0);
  // The whole point: hierarchical staging moves far fewer inter-supernode
  // messages (one combined message per ordered supernode pair).
  EXPECT_LT(hier_inter, flat_inter);
  EXPECT_GT(obs::total_counter("par:coll:calls[alltoallv/hier]"), 0.0);
  EXPECT_GT(obs::total_counter("par:coll:calls[alltoallv/flat]"), 0.0);
  obs::reset_all();
}

// --- coupled model invariance ------------------------------------------------

cpl::CoupledConfig hier_test_config() {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 5;
  config.atm.nlev = 4;
  config.ocn.grid = grid::TripolarConfig{32, 16, 3};
  config.layout = cpl::Layout::kSequential;
  config.ocn_couple_ratio = 2;
  return config;
}

std::uint64_t run_coupled_hash(par::Comm& comm, par::CollectiveAlgo algo,
                               int supernode) {
  const par::Comm wrapped =
      comm.with_topology(clustered(comm.size(), supernode), algo);
  cpl::CoupledModel model(wrapped, {hier_test_config()});
  model.run_windows(4);
  return model.state_hash();
}

TEST(HierCoupled, StateHashInvariantToCollectiveAlgo) {
  run_ranks(4, [](par::Comm& comm) {
    const std::uint64_t flat =
        run_coupled_hash(comm, par::CollectiveAlgo::kFlat, 2);
    const std::uint64_t hier =
        run_coupled_hash(comm, par::CollectiveAlgo::kHierarchical, 2);
    EXPECT_EQ(hier, flat);
  });
}

TEST(HierCoupled, StateHashInvariantToCollectiveAlgoUnderFaults) {
  run_ranks(4, heavy_fault_plan(0x9e97), [](par::Comm& comm) {
    const std::uint64_t flat =
        run_coupled_hash(comm, par::CollectiveAlgo::kFlat, 3);
    const std::uint64_t hier =
        run_coupled_hash(comm, par::CollectiveAlgo::kHierarchical, 3);
    EXPECT_EQ(hier, flat);
  });
}

}  // namespace
}  // namespace ap3
