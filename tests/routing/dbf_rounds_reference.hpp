#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "routing/bellman_ford.hpp"
#include "routing/routing_table.hpp"
#include "routing/zone.hpp"

/// \file dbf_rounds_reference.hpp
/// Test-only oracle: distributed Bellman-Ford run literally, one synchronous
/// round at a time, until the first round in which no vector changed.
///
/// This is the round engine RoutingService used before it switched to
/// running the rounds one destination at a time.  It charges the same DV
/// traffic per round, so a RoutingService and a RoundsReference rebuilding
/// identical networks must agree bit for bit: every table entry, the round
/// and message counts, the bytes and the routing energy.

namespace spms::routing::testing {

class RoundsReference {
 public:
  RoundsReference(net::Network& net, DbfParams params = {}) : net_(net), params_(params) {
    rebuild();
  }

  DbfStats rebuild();

  [[nodiscard]] const DbfStats& last_stats() const { return last_stats_; }
  [[nodiscard]] const DbfStats& total_stats() const { return total_stats_; }
  [[nodiscard]] std::uint64_t route_changes() const { return route_changes_; }
  [[nodiscard]] const RoutingTable& table(net::NodeId id) const { return tables_.at(id.v); }

 private:
  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);
  static constexpr std::size_t kDenseIndexMaxNodes = 4096;

  /// One node's advertised vector: sorted destinations (itself included)
  /// with a parallel (cost, hops) array; `slot_of` is a dense index for
  /// small deployments, binary search otherwise.
  struct NodeVec {
    std::vector<net::NodeId> dests;
    std::vector<std::size_t> slot_of;
    std::vector<std::pair<double, int>> val;

    [[nodiscard]] std::size_t find(net::NodeId dest) const {
      if (!slot_of.empty()) return slot_of[dest.v];
      const auto it = std::lower_bound(dests.begin(), dests.end(), dest);
      if (it == dests.end() || *it != dest) return kNoEntry;
      return static_cast<std::size_t>(it - dests.begin());
    }
  };

  net::Network& net_;
  DbfParams params_;
  std::unique_ptr<ZoneMap> zones_;
  std::vector<RoutingTable> tables_;
  DbfStats last_stats_;
  DbfStats total_stats_;
  std::uint64_t route_changes_ = 0;
};

inline DbfStats RoundsReference::rebuild() {
  zones_ = std::make_unique<ZoneMap>(net_);
  const std::size_t n = net_.size();
  std::vector<RoutingTable> old_tables = std::move(tables_);
  tables_.assign(n, RoutingTable{});

  std::vector<std::vector<double>> weight(n);
  for (std::size_t u = 0; u < n; ++u) {
    const net::NodeId uid{static_cast<std::uint32_t>(u)};
    const auto& zone = zones_->zone(uid);
    weight[u].reserve(zone.size());
    for (const net::NodeId v : zone) {
      const auto w = net_.radio().min_power_for(net_.distance_between(uid, v));
      assert(w.has_value());
      weight[u].push_back(*w);
    }
  }

  std::vector<NodeVec> vec(n);
  for (std::size_t u = 0; u < n; ++u) {
    const net::NodeId uid{static_cast<std::uint32_t>(u)};
    const auto& zone = zones_->zone(uid);
    NodeVec& nv = vec[u];
    nv.dests.reserve(zone.size() + 1);
    nv.val.reserve(zone.size() + 1);
    bool self_placed = false;
    for (std::size_t j = 0; j < zone.size(); ++j) {
      if (!self_placed && uid < zone[j]) {
        nv.dests.push_back(uid);
        nv.val.emplace_back(0.0, 0);
        self_placed = true;
      }
      nv.dests.push_back(zone[j]);
      nv.val.emplace_back(weight[u][j], 1);
    }
    if (!self_placed) {
      nv.dests.push_back(uid);
      nv.val.emplace_back(0.0, 0);
    }
    if (n <= kDenseIndexMaxNodes) {
      nv.slot_of.assign(n, kNoEntry);
      for (std::size_t i = 0; i < nv.dests.size(); ++i) nv.slot_of[nv.dests[i].v] = i;
    }
  }

  DbfStats stats;
  const double energy_before = net_.energy().routing_uj();

  bool changed = true;
  std::vector<std::vector<std::pair<double, int>>> next_val(n);
  while (changed && stats.rounds < params_.max_rounds) {
    ++stats.rounds;
    changed = false;

    if (params_.charge_energy) {
      for (std::size_t u = 0; u < n; ++u) {
        const net::NodeId uid{static_cast<std::uint32_t>(u)};
        const std::size_t bytes =
            params_.header_bytes + params_.bytes_per_entry * (vec[u].dests.size() - 1);
        net_.charge_tx(uid, bytes, net_.zone_radius(), net::EnergyUse::kRouting);
        for (const net::NodeId v : zones_->zone(uid)) {
          net_.charge_rx(v, bytes, net::EnergyUse::kRouting);
        }
        ++stats.messages;
        stats.message_bytes += bytes;
      }
    } else {
      stats.messages += n;
    }

    for (std::size_t u = 0; u < n; ++u) {
      const net::NodeId uid{static_cast<std::uint32_t>(u)};
      const auto& zone = zones_->zone(uid);
      const NodeVec& cu = vec[u];
      next_val[u] = cu.val;
      for (std::size_t di = 0; di < cu.dests.size(); ++di) {
        const net::NodeId dest = cu.dests[di];
        if (dest == uid) continue;
        auto& entry = next_val[u][di];
        double best = entry.first;
        int best_hops = entry.second;
        for (std::size_t j = 0; j < zone.size(); ++j) {
          const net::NodeId v = zone[j];
          const std::size_t vi = vec[v.v].find(dest);
          if (vi == kNoEntry) continue;
          const double cand = weight[u][j] + vec[v.v].val[vi].first;
          const int cand_hops = vec[v.v].val[vi].second + 1;
          if (cand < best || (cand == best && cand_hops < best_hops)) {
            best = cand;
            best_hops = cand_hops;
          }
        }
        if (best < entry.first || (best == entry.first && best_hops < entry.second)) {
          entry = {best, best_hops};
          changed = true;
        }
      }
    }
    for (std::size_t u = 0; u < n; ++u) std::swap(vec[u].val, next_val[u]);
  }
  stats.converged = !changed;

  for (std::size_t u = 0; u < n; ++u) {
    const net::NodeId uid{static_cast<std::uint32_t>(u)};
    const auto& zone = zones_->zone(uid);
    tables_[u].reserve(zone.size());
    for (const net::NodeId dest : zone) {
      Route best, second;
      for (std::size_t j = 0; j < zone.size(); ++j) {
        const net::NodeId v = zone[j];
        const std::size_t vi = vec[v.v].find(dest);
        if (vi == kNoEntry) continue;
        Route cand{v, weight[u][j] + vec[v.v].val[vi].first, vec[v.v].val[vi].second + 1};
        const bool better_than_best =
            cand.cost < best.cost ||
            (cand.cost == best.cost && (cand.hops < best.hops ||
                                        (cand.hops == best.hops && cand.next_hop < best.next_hop)));
        if (better_than_best) {
          second = best;
          best = cand;
        } else {
          const bool better_than_second =
              cand.cost < second.cost ||
              (cand.cost == second.cost && (cand.hops < second.hops ||
                                            (cand.hops == second.hops && cand.next_hop < second.next_hop)));
          if (better_than_second) second = cand;
        }
      }
      tables_[u].set(dest, RouteEntry{best, second});
    }
  }

  stats.energy_uj = net_.energy().routing_uj() - energy_before;
  last_stats_ = stats;
  total_stats_.rounds += stats.rounds;
  total_stats_.messages += stats.messages;
  total_stats_.message_bytes += stats.message_bytes;
  total_stats_.energy_uj += stats.energy_uj;
  total_stats_.converged = stats.converged;

  // Route churn, counted exactly as RoutingService counts it.
  if (!old_tables.empty()) {
    for (std::size_t u = 0; u < n; ++u) {
      for (const auto& [dest, entry] : tables_[u].entries()) {
        const RouteEntry* old = old_tables[u].find(dest);
        if (old == nullptr ? entry.best.next_hop.valid()
                           : old->best.next_hop != entry.best.next_hop) {
          ++route_changes_;
        }
      }
      for (const auto& [dest, entry] : old_tables[u].entries()) {
        if (tables_[u].find(dest) == nullptr && entry.best.next_hop.valid()) ++route_changes_;
      }
    }
  }
  return stats;
}

}  // namespace spms::routing::testing
