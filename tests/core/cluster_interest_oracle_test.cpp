#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster_interest_reference.hpp"
#include "core/interest.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

/// Exact oracle: ClusterInterest against the brute-force implementation in
/// cluster_interest_reference.hpp, each built on its own copy of the same
/// network.  Heads (in order), every node's head, expected_count for every
/// origin and wants() on sampled pairs must agree.

namespace spms::core {
namespace {

/// Two identical networks: one for ClusterInterest, one for the reference.
struct Twin {
  Twin(const std::vector<net::Point>& pts, double radius)
      : sim_a(1), sim_b(1),
        a(sim_a, net::RadioTable::mica2(), {}, {}, pts, radius),
        b(sim_b, net::RadioTable::mica2(), {}, {}, pts, radius) {}
  void set_position(net::NodeId id, net::Point p) {
    a.set_position(id, p);
    b.set_position(id, p);
  }
  void set_up(net::NodeId id, bool up) {
    a.set_up(id, up);
    b.set_up(id, up);
  }
  sim::Simulation sim_a, sim_b;
  net::Network a, b;
};

/// Compares expected_count for every `origin_stride`-th origin over item
/// sequence numbers [0, seqs), and wants() of each such origin's items at
/// every `wants_stride`-th node plus the origin's head.
void expect_counts_eq(const ClusterInterest& got, const testing::ClusterInterestReference& want,
                      std::size_t n, std::uint32_t origin_stride = 1, std::uint32_t seqs = 3,
                      std::uint32_t wants_stride = 7) {
  for (std::uint32_t o = 0; o < n; o += origin_stride) {
    for (std::uint32_t seq = 0; seq < seqs; ++seq) {
      const net::DataId item{net::NodeId{o}, seq};
      ASSERT_EQ(got.expected_count(item), want.expected_count(item))
          << "origin " << o << " seq " << seq;
      for (std::uint32_t v = (o + seq) % wants_stride; v < n; v += wants_stride) {
        ASSERT_EQ(got.wants(net::NodeId{v}, item), want.wants(net::NodeId{v}, item))
            << "node " << v << " origin " << o << " seq " << seq;
      }
      const net::NodeId head = want.head_of(net::NodeId{o});
      ASSERT_EQ(got.wants(head, item), want.wants(head, item)) << "head of origin " << o;
    }
  }
}

/// Builds both on the twin and compares heads, every node's head and counts.
void expect_matches_reference(Twin& t, double spacing, double p_other, std::uint64_t seed,
                              std::uint32_t origin_stride = 1) {
  const ClusterInterest got(t.a, spacing, p_other, seed);
  const testing::ClusterInterestReference want(t.b, spacing, p_other, seed);
  ASSERT_EQ(got.heads(), want.heads());
  for (std::uint32_t i = 0; i < t.a.size(); ++i) {
    ASSERT_EQ(got.head_of(net::NodeId{i}), want.head_of(net::NodeId{i})) << "node " << i;
  }
  expect_counts_eq(got, want, t.a.size(), origin_stride);
}

constexpr std::uint64_t kSeed = 2004 ^ 0xC1057E8ull;

TEST(ClusterInterestOracleTest, Fig13Grids) {
  // fig13: 169 nodes on a 5 m pitch, head spacing = zone radius 10..30 m.
  for (const double r : {10.0, 15.0, 20.0, 25.0, 30.0}) {
    SCOPED_TRACE("radius " + std::to_string(r));
    Twin t(net::grid_deployment(13, 5.0), r);
    expect_matches_reference(t, r, 0.05, kSeed);
  }
}

class ClusterInterestRandomOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterInterestRandomOracle, MatchesReference) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(40, 400));
  const double side = rng.uniform(30.0, 120.0);
  const double radius = rng.uniform(6.0, 25.0);
  const double spacing = seed % 2 == 0 ? radius : rng.uniform(4.0, 30.0);
  Twin t(net::random_deployment(n, side, rng), radius);
  expect_matches_reference(t, spacing, 0.2, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterInterestRandomOracle,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(ClusterInterestOracleTest, GridBelowTheScanCutover) {
  // 49 nodes: the network answers disc queries by a linear scan.
  Twin t(net::grid_deployment(7, 5.0), 15.0);
  expect_matches_reference(t, 15.0, 0.3, kSeed);
}

TEST(ClusterInterestOracleTest, TwentyThousandNodeGrid) {
  Twin t(net::grid_deployment(net::grid_side_for(20'000), 5.0), 10.0);
  expect_matches_reference(t, 10.0, 0.05, kSeed, /*origin_stride=*/97);
}

TEST(ClusterInterestOracleTest, HeadSpacingUnequalToZoneRadius) {
  Twin t(net::grid_deployment(20, 5.0), 10.0);
  expect_matches_reference(t, 7.5, 0.05, kSeed);
}

TEST(ClusterInterestOracleTest, CellCentresEquidistantFromFourNodes) {
  // On a 5 m pitch, 5 m and 15 m cells put every centre at the same
  // distance from 4 nodes: the first in id order must become the head.
  for (const double spacing : {5.0, 15.0}) {
    SCOPED_TRACE("spacing " + std::to_string(spacing));
    Twin t(net::grid_deployment(16, 5.0), 10.0);
    expect_matches_reference(t, spacing, 0.05, kSeed);
  }
}

TEST(ClusterInterestOracleTest, NodesExactlyOnTheZoneBoundary) {
  // p_other = 1: every zone member wants, so a missed boundary node shows.
  {
    SCOPED_TRACE("5 m pitch, 10 m zone");
    Twin t(net::grid_deployment(12, 5.0), 10.0);
    expect_matches_reference(t, 10.0, 1.0, kSeed);
  }
  {
    // sqrt(13)^2 rounds below 13: the node at offset (2, 3) is in the zone
    // by wants()'s sqrt test but outside a d^2 <= r^2 disc of the same r.
    SCOPED_TRACE("1 m pitch, sqrt(13) m zone");
    const double r = std::sqrt(13.0);
    ASSERT_LT(r * r, 13.0);
    Twin t(net::grid_deployment(12, 1.0), r);
    expect_matches_reference(t, r, 1.0, kSeed);
  }
}

TEST(ClusterInterestOracleTest, NodeOnTheFarEdge) {
  // max_x = max_y = 40 on 10 m cells: the corner node lies on the edge of a
  // cell one past the head grid and is the nearest node to the last centre.
  sim::Rng rng(77);
  auto pts = net::random_deployment(80, 30.0, rng);
  pts.push_back({40.0, 40.0});
  pts.push_back({40.0, 3.0});
  pts.push_back({12.0, 40.0});
  Twin t(pts, 10.0);
  const ClusterInterest got(t.a, 10.0, 0.05, kSeed);
  EXPECT_EQ(got.head_of(net::NodeId{80}), net::NodeId{80});
  expect_matches_reference(t, 10.0, 0.05, kSeed);
}

TEST(ClusterInterestOracleTest, NodesOutsideTheHeadGrid) {
  // Head cells start at the origin; nodes at negative coordinates are
  // candidates all the same.
  sim::Rng rng(5);
  auto pts = net::random_deployment(150, 80.0, rng);
  for (auto& p : pts) p = {p.x - 25.0, p.y - 10.0};
  Twin t(pts, 12.0);
  expect_matches_reference(t, 12.0, 0.2, kSeed);
}

TEST(ClusterInterestOracleTest, ExpectedCountFollowsTeleports) {
  // expected_count and wants read live positions; heads stay the
  // construction-time snapshot.  Down nodes keep their interest.
  const double side = 60.0;
  sim::Rng rng(11);
  Twin t(net::random_deployment(200, side, rng), 10.0);
  const ClusterInterest got(t.a, 10.0, 0.3, kSeed);
  const testing::ClusterInterestReference want(t.b, 10.0, 0.3, kSeed);
  for (int epoch = 0; epoch < 5; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    for (int m = 0; m < 20; ++m) {
      const net::NodeId id{static_cast<std::uint32_t>(rng.uniform_int(0, 199))};
      t.set_position(id, {rng.uniform(0.0, side), rng.uniform(0.0, side)});
      t.set_up(id, m % 3 != 0);
    }
    // A head teleported far from its cluster still wants its members' data.
    const net::NodeId head = want.heads().front();
    t.set_position(head, {side, side});
    expect_counts_eq(got, want, t.a.size());
  }
}

}  // namespace
}  // namespace spms::core
