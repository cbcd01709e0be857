#include "routing/bellman_ford.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/event_trace.hpp"

namespace spms::routing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A node's distance-vector entry for one destination: path cost, then hop
/// count, compared lexicographically exactly as the DBF relaxation does.
struct Label {
  double cost;
  int hops;
  [[nodiscard]] bool operator<(const Label& o) const {
    return cost < o.cost || (cost == o.cost && hops < o.hops);
  }
};

}  // namespace

RoutingService::RoutingService(net::Network& net, DbfParams params)
    : net_(net), params_(params) {
  rebuild();
}

DbfStats RoutingService::rebuild() {
  zones_ = std::make_unique<ZoneMap>(net_);
  const std::size_t n = net_.size();
  // Keep the previous tables aside so the churn diff below can compare; on
  // the initial build (constructor) this is empty and the diff is skipped.
  std::vector<RoutingTable> old_tables = std::move(tables_);
  tables_.assign(n, RoutingTable{});

  // Cache link weights w(u,v) for v in zone(u), parallel to the zone list;
  // zone membership guarantees the link exists (zone radius <= max radio
  // range).  Distances are symmetric to the bit, so w(u,v) == w(v,u).
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

  // Each destination's entries relax independently of every other's: the
  // vectors that carry d are those of S_d = {d} + zone(d), and a node hears
  // only its own zone.  So the synchronous rounds run one destination at a
  // time, over S_d's links in a local CSR, and a round re-sends only the
  // labels that changed in the previous round: an unchanged neighbor offers
  // the candidate it offered before, which the receiver already holds or
  // beat.  Each round's labels, and so the tables, the round count and the
  // energy, are those of all destinations' rounds run together, to the bit
  // (w(u,v) == w(v,u), and w + c == c + w in IEEE arithmetic).
  struct Arc {
    std::uint32_t to;  ///< local index in S_d
    double w;
  };
  constexpr auto kNone = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> member(n, kNone);  // member[v] == d: v is in S_d
  std::vector<std::uint32_t> local(n);          // v's index in S_d
  std::vector<std::uint32_t> nodes;             // S_d: d first, then zone(d)
  std::vector<std::uint32_t> arcs_begin;
  std::vector<Arc> arcs;
  std::vector<Label> label;
  std::vector<std::uint32_t> sent_in;  // last round each label was queued to send
  std::vector<std::uint32_t> changed;
  std::vector<std::pair<std::uint32_t, Label>> sent;
  std::size_t rounds_to_quiet = 1;  // first round in which no label changes
  bool cut_short = false;           // max_rounds stopped some destination
  for (std::uint32_t u = 0; u < n; ++u) tables_[u].reserve(zones_->zone(net::NodeId{u}).size());
  for (std::uint32_t d = 0; d < n; ++d) {
    const auto& zone_d = zones_->zone(net::NodeId{d});
    nodes.assign(1, d);
    member[d] = d;
    local[d] = 0;
    for (const net::NodeId v : zone_d) {
      member[v.v] = d;
      local[v.v] = static_cast<std::uint32_t>(nodes.size());
      nodes.push_back(v.v);
    }
    const std::size_t k = nodes.size();
    arcs_begin.clear();
    arcs.clear();
    for (const std::uint32_t v : nodes) {
      arcs_begin.push_back(static_cast<std::uint32_t>(arcs.size()));
      const auto& zone_v = zones_->zone(net::NodeId{v});
      for (std::size_t j = 0; j < zone_v.size(); ++j) {
        if (member[zone_v[j].v] == d) arcs.push_back({local[zone_v[j].v], weight[v][j]});
      }
    }
    arcs_begin.push_back(static_cast<std::uint32_t>(arcs.size()));

    // Initial vectors: d at cost 0 (never improved: every candidate has a
    // hop), every zone neighbor via the direct link.
    label.assign(k, Label{0.0, 0});
    sent_in.assign(k, 0);
    changed.clear();
    for (std::uint32_t i = 1; i < k; ++i) {
      label[i] = {weight[d][i - 1], 1};
      changed.push_back(i);
    }
    std::uint32_t round = 0;
    while (!changed.empty() && round < params_.max_rounds) {
      ++round;
      sent.clear();
      for (const std::uint32_t v : changed) sent.emplace_back(v, label[v]);
      changed.clear();
      for (const auto& [v, lv] : sent) {
        for (std::uint32_t a = arcs_begin[v]; a < arcs_begin[v + 1]; ++a) {
          const std::uint32_t u = arcs[a].to;
          const Label cand{arcs[a].w + lv.cost, lv.hops + 1};
          if (cand < label[u]) {
            label[u] = cand;
            if (sent_in[u] != round) {
              sent_in[u] = round;
              changed.push_back(u);
            }
          }
        }
      }
    }
    rounds_to_quiet = std::max<std::size_t>(rounds_to_quiet, round);
    cut_short = cut_short || !changed.empty();

    // Table entries for d: best and second-best (distinct first hop) over
    // the neighbors' final labels -- exactly the "cost of going to the
    // destination through each of its neighbors" the paper stores.  The
    // arcs keep zone order, and ascending d makes every insertion an append.
    for (std::uint32_t i = 1; i < k; ++i) {
      Route best, second;
      for (std::uint32_t a = arcs_begin[i]; a < arcs_begin[i + 1]; ++a) {
        const std::uint32_t t = arcs[a].to;
        Route cand{net::NodeId{nodes[t]}, arcs[a].w + label[t].cost, label[t].hops + 1};
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
      tables_[nodes[i]].set(net::NodeId{d}, RouteEntry{best, second});
    }
  }

  DbfStats stats;
  stats.converged = !cut_short && rounds_to_quiet <= params_.max_rounds;
  stats.rounds = stats.converged ? rounds_to_quiet : params_.max_rounds;

  // Every node broadcasts its vector (itself plus its zone) once per round.
  const double energy_before = net_.energy().routing_uj();
  for (std::size_t round = 0; round < stats.rounds; ++round) {
    if (!params_.charge_energy) {
      stats.messages += n;
      continue;
    }
    for (std::size_t u = 0; u < n; ++u) {
      const net::NodeId uid{static_cast<std::uint32_t>(u)};
      const auto& zone = zones_->zone(uid);
      const std::size_t bytes = params_.header_bytes + params_.bytes_per_entry * zone.size();
      net_.charge_tx(uid, bytes, net_.zone_radius(), net::EnergyUse::kRouting);
      for (const net::NodeId v : zone) net_.charge_rx(v, bytes, net::EnergyUse::kRouting);
      ++stats.messages;
      stats.message_bytes += bytes;
    }
  }

  stats.energy_uj = net_.energy().routing_uj() - energy_before;
  last_stats_ = stats;
  total_stats_.rounds += stats.rounds;
  total_stats_.messages += stats.messages;
  total_stats_.message_bytes += stats.message_bytes;
  total_stats_.energy_uj += stats.energy_uj;
  total_stats_.converged = stats.converged;

  // Route churn: best-first-hop changes vs. the previous tables.  Emits one
  // typed record per node with churn when the trace is enabled; the counters
  // are maintained regardless (rebuilds are rare — mobility epochs — so the
  // diff never shows up on the event hot path).
  ++rebuilds_;
  if (!old_tables.empty()) {
    auto& events = net_.simulation().events();
    for (std::size_t u = 0; u < n; ++u) {
      std::uint64_t changed = 0;
      for (const auto& [dest, entry] : tables_[u].entries()) {
        const RouteEntry* old = old_tables[u].find(dest);
        if (old == nullptr ? entry.best.next_hop.valid()
                           : old->best.next_hop != entry.best.next_hop) {
          ++changed;
        }
      }
      for (const auto& [dest, entry] : old_tables[u].entries()) {
        if (tables_[u].find(dest) == nullptr && entry.best.next_hop.valid()) ++changed;
      }
      route_changes_ += changed;
      if (changed > 0 && events.enabled()) {
        events.emit({.at = net_.simulation().now(), .kind = obs::TraceKind::kRouteChange,
                     .node = net::NodeId{static_cast<std::uint32_t>(u)},
                     .value = static_cast<double>(changed)});
      }
    }
  }
  return stats;
}

std::optional<Route> dijkstra_reference(const net::Network& net, const ZoneMap& zones,
                                        net::NodeId from, net::NodeId dest) {
  if (!zones.in_zone(from, dest)) return std::nullopt;

  // Vertex set: `from`, `dest`, and every node that has `dest` in its zone
  // (the only nodes that can relay toward `dest` under zone-local routing).
  const std::size_t n = net.size();
  std::vector<bool> allowed(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    allowed[i] = (id == from) || (id == dest) || zones.in_zone(id, dest);
  }

  std::vector<double> dist(n, kInf);
  std::vector<int> hops(n, 0);
  std::vector<net::NodeId> first_hop(n);
  std::vector<bool> done(n, false);
  dist[from.v] = 0.0;

  for (;;) {
    // Extract-min (linear scan: reference code favours clarity).
    std::size_t u = n;
    double best = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (!done[i] && allowed[i] && dist[i] < best) {
        best = dist[i];
        u = i;
      }
    }
    if (u == n) break;
    done[u] = true;
    const net::NodeId uid{static_cast<std::uint32_t>(u)};
    if (uid == dest) break;
    for (const net::NodeId v : zones.zone(uid)) {
      if (!allowed[v.v] || done[v.v]) continue;
      const auto w = net.radio().min_power_for(net.distance_between(uid, v));
      if (!w) continue;
      const double cand = dist[u] + *w;
      const int cand_hops = hops[u] + 1;
      const net::NodeId cand_first = (uid == from) ? v : first_hop[u];
      const bool improves =
          cand < dist[v.v] ||
          (cand == dist[v.v] && (cand_hops < hops[v.v] ||
                                 (cand_hops == hops[v.v] && cand_first < first_hop[v.v])));
      if (improves) {
        dist[v.v] = cand;
        hops[v.v] = cand_hops;
        first_hop[v.v] = cand_first;
      }
    }
  }

  if (dist[dest.v] == kInf) return std::nullopt;
  return Route{first_hop[dest.v], dist[dest.v], hops[dest.v]};
}

}  // namespace spms::routing
