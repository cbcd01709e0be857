#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "net/topology.hpp"
#include "routing/bellman_ford.hpp"
#include "dbf_rounds_reference.hpp"
#include "sim/simulation.hpp"

/// Bit-exact oracle: RoutingService against the literal synchronous-round
/// DBF (dbf_rounds_reference.hpp), each rebuilding its own copy of the same
/// network.  Tables, round/message/byte counts, route churn and every bit of
/// the routing energy must agree.

namespace spms::routing {
namespace {

net::MacParams quiet_mac() {
  net::MacParams mac;
  mac.num_slots = 1;
  return mac;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Two identical networks: one for the service, one for the reference.
struct Twin {
  Twin(const std::vector<net::Point>& pts, double radius)
      : sim_a(1), sim_b(1),
        a(sim_a, net::RadioTable::mica2(), quiet_mac(), {}, pts, radius),
        b(sim_b, net::RadioTable::mica2(), quiet_mac(), {}, pts, radius) {}
  void set_position(net::NodeId id, net::Point p) {
    a.set_position(id, p);
    b.set_position(id, p);
  }
  sim::Simulation sim_a, sim_b;
  net::Network a, b;
};

void expect_route_eq(const Route& got, const Route& want, const std::string& where) {
  EXPECT_EQ(got.next_hop, want.next_hop) << where;
  EXPECT_EQ(got.hops, want.hops) << where;
  EXPECT_EQ(bits(got.cost), bits(want.cost)) << where;
}

void expect_stats_eq(const DbfStats& got, const DbfStats& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.message_bytes, want.message_bytes);
  EXPECT_EQ(bits(got.energy_uj), bits(want.energy_uj));
  EXPECT_EQ(got.converged, want.converged);
}

void expect_energy_eq(const net::Network& got, const net::Network& want) {
  EXPECT_EQ(bits(got.energy().routing_tx_uj), bits(want.energy().routing_tx_uj));
  EXPECT_EQ(bits(got.energy().routing_rx_uj), bits(want.energy().routing_rx_uj));
  for (std::uint32_t u = 0; u < got.size(); ++u) {
    ASSERT_EQ(bits(got.node_energy_uj(net::NodeId{u})), bits(want.node_energy_uj(net::NodeId{u})))
        << "node " << u;
  }
}

void expect_tables_eq(const RoutingService& got, const testing::RoundsReference& want,
                      std::size_t n) {
  for (std::uint32_t u = 0; u < n; ++u) {
    const auto& g = got.table(net::NodeId{u}).entries();
    const auto& w = want.table(net::NodeId{u}).entries();
    ASSERT_EQ(g.size(), w.size()) << "node " << u;
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_EQ(g[i].first, w[i].first) << "node " << u;
      const std::string where = std::to_string(u) + "->" + std::to_string(g[i].first.v);
      expect_route_eq(g[i].second.best, w[i].second.best, where + " best");
      expect_route_eq(g[i].second.second, w[i].second.second, where + " second");
    }
  }
}

/// Builds both, then rebuilds both after teleporting every seventh node by
/// `shift`; checks everything after each build.
void check_twin(const std::vector<net::Point>& pts, double radius, net::Point shift = {7.5, 3.0}) {
  Twin twin(pts, radius);
  RoutingService service(twin.a);
  testing::RoundsReference reference(twin.b);
  expect_stats_eq(service.last_stats(), reference.last_stats());
  expect_energy_eq(twin.a, twin.b);
  expect_tables_eq(service, reference, pts.size());

  for (std::uint32_t u = 0; u < pts.size(); u += 7) {
    twin.set_position(net::NodeId{u}, {pts[u].x + shift.x, pts[u].y + shift.y});
  }
  expect_stats_eq(service.rebuild(), reference.rebuild());
  expect_stats_eq(service.total_stats(), reference.total_stats());
  EXPECT_EQ(service.route_changes(), reference.route_changes());
  expect_energy_eq(twin.a, twin.b);
  expect_tables_eq(service, reference, pts.size());
}

using GridParam = std::tuple<std::size_t /*side*/, double /*pitch*/, double /*radius*/>;

class DbfOracleGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(DbfOracleGrid, BitIdenticalToRounds) {
  const auto [side, pitch, radius] = GetParam();
  check_twin(net::grid_deployment(side, pitch), radius);
}

// The DbfAgreesWithDijkstra grid sweep, plus the paper's 13x13 grid.
INSTANTIATE_TEST_SUITE_P(GridSweep, DbfOracleGrid,
                         ::testing::Values(GridParam{3, 5.0, 12.0}, GridParam{4, 5.0, 20.0},
                                           GridParam{5, 5.0, 11.0}, GridParam{4, 7.0, 22.0},
                                           GridParam{6, 4.0, 15.0}, GridParam{5, 10.0, 45.0},
                                           GridParam{13, 5.0, 20.0}));

class DbfOracleRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbfOracleRandom, BitIdenticalToRounds) {
  sim::Simulation rng_source{GetParam()};
  const auto pts = net::random_deployment(60, 50.0, rng_source.rng());
  check_twin(pts, 20.0, {-6.0, 9.0});
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbfOracleRandom, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DbfOracle, RoundingNearTiesFollowTheRounds) {
  // Found by search: paths whose costs differ by a rounding step, so one
  // more link's cost rounds them together and the hop count decides.  The
  // labels then depend on the round in which each path was found; a
  // shortest-path search over the final labels gets some table entries
  // wrong here, the per-destination rounds do not.
  check_twin({{12.0, 3.5}, {19.0, 1.5}, {4.0, 9.0}, {17.0, 1.0}, {4.0, 19.0},
              {10.5, 4.0}, {11.0, 16.5}, {17.0, 19.0}, {16.0, 1.0}, {9.0, 10.0},
              {17.5, 18.5}, {10.0, 3.0}, {11.0, 19.0}, {5.5, 5.5}, {15.0, 17.0}},
             20.0);
  check_twin({{9.5, 17.0}, {3.5, 18.5}, {1.0, 6.0}, {13.0, 17.0}, {14.5, 14.5},
              {17.5, 14.5}, {17.0, 3.0}, {2.0, 9.5}, {5.5, 3.0}, {18.0, 13.0},
              {6.0, 16.0}, {19.0, 18.0}, {4.5, 13.5}, {6.5, 8.5}, {17.5, 1.5}},
             20.0);
}

TEST(DbfOracle, LargeDeploymentBitIdentical) {
  // Above the reference's dense-index cutover (4096 nodes), so its
  // binary-search lookup path is the one compared.
  check_twin(net::grid_deployment(65, 5.0), 11.0);
}

TEST(DbfOracle, UnchargedStatsMatch) {
  const auto pts = net::grid_deployment(6, 5.0);
  Twin twin(pts, 20.0);
  DbfParams params;
  params.charge_energy = false;
  RoutingService service(twin.a, params);
  testing::RoundsReference reference(twin.b, params);
  expect_stats_eq(service.last_stats(), reference.last_stats());
  EXPECT_EQ(bits(twin.a.energy().routing_uj()), bits(0.0));
  expect_tables_eq(service, reference, pts.size());
}

TEST(DbfOracle, TruncatedBuildStopsWhereTheRoundsStop) {
  // Capped below the convergence depth: the same rounds charged, and the
  // same half-relaxed tables.
  for (const std::size_t cap : {1u, 2u, 3u}) {
    const auto pts = net::grid_deployment(8, 5.0);
    Twin twin(pts, 20.0);
    DbfParams params;
    params.max_rounds = cap;
    RoutingService service(twin.a, params);
    testing::RoundsReference reference(twin.b, params);
    expect_stats_eq(service.last_stats(), reference.last_stats());
    EXPECT_FALSE(service.last_stats().converged);
    expect_energy_eq(twin.a, twin.b);
    expect_tables_eq(service, reference, pts.size());
  }
}

}  // namespace
}  // namespace spms::routing
