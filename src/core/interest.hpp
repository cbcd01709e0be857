#pragma once

#include <cstdint>
#include <vector>

#include "net/ids.hpp"
#include "net/network.hpp"

/// \file interest.hpp
/// Which nodes want which data items.
///
/// The paper evaluates two communication patterns:
///  * all-to-all (Section 5.1): "each node generates 10 new packets and
///    every other node in the network is interested in receiving each
///    packet";
///  * cluster-based hierarchical (Section 5.2): "the cluster heads are
///    responsible for collecting the data … The other nodes in the zone of
///    the source node can also be interested in data with a probability of
///    5%."
///
/// wants() must be a pure function of (node, item) so that protocols,
/// collectors and tests all agree on the interested set; randomized interest
/// therefore hashes (seed, node, item) instead of consuming RNG state.

namespace spms::core {

/// Interest predicate interface.
class Interest {
 public:
  virtual ~Interest() = default;

  /// True when `node` wants `item`.  Must be deterministic.
  [[nodiscard]] virtual bool wants(net::NodeId node, net::DataId item) const = 0;

  /// Number of nodes that want `item` (the collector's expected-delivery
  /// count).
  [[nodiscard]] virtual std::size_t expected_count(net::DataId item) const = 0;
};

/// Everyone except the origin wants every item.
class AllToAllInterest final : public Interest {
 public:
  explicit AllToAllInterest(std::size_t node_count) : n_(node_count) {}

  [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const override {
    return node != item.origin;
  }
  [[nodiscard]] std::size_t expected_count(net::DataId) const override { return n_ - 1; }

 private:
  std::size_t n_;
};

/// Sink-based interest: one designated sink wants every item (the paper's
/// §5.1 "source to sink" special case of all-to-all).
class SinkInterest final : public Interest {
 public:
  explicit SinkInterest(net::NodeId sink) : sink_(sink) {}

  [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const override {
    return node == sink_ && node != item.origin;
  }
  [[nodiscard]] std::size_t expected_count(net::DataId item) const override {
    return item.origin == sink_ ? 0 : 1;
  }
  [[nodiscard]] net::NodeId sink() const { return sink_; }

 private:
  net::NodeId sink_;
};

/// Cluster-based hierarchical interest: the head of the origin's cluster
/// always wants the item; other nodes inside the origin's zone want it with
/// probability `p_other` (hash-derived, deterministic).
///
/// Heads sit on a grid of `head_spacing_m` cells, cy outer and cx inner: a
/// cell's head is the node nearest its centre, and on equal distance the
/// first node in id order wins.  Each node belongs to its nearest head, and
/// on equal distance to the first head in heads() order.  Both are chosen
/// once, at construction, by ring searches over cell buckets of the
/// deployment, O(n) for a deployment without large empty regions.
/// expected_count() visits a superset of the origin's zone through the
/// network's spatial grid and applies wants() to each candidate, so it costs
/// O(zone) per item.  wants() and expected_count() read live positions;
/// heads() and head_of() stay the construction-time snapshot.
class ClusterInterest final : public Interest {
 public:
  /// \throws std::invalid_argument unless `head_spacing_m` is positive and
  ///         finite.
  ClusterInterest(const net::Network& net, double head_spacing_m, double p_other,
                  std::uint64_t seed);

  [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const override;
  [[nodiscard]] std::size_t expected_count(net::DataId item) const override;

  [[nodiscard]] const std::vector<net::NodeId>& heads() const { return heads_; }
  [[nodiscard]] net::NodeId head_of(net::NodeId node) const { return head_of_.at(node.v); }

 private:
  [[nodiscard]] bool hash_wants(net::NodeId node, net::DataId item) const;

  const net::Network& net_;
  double p_other_;
  std::uint64_t seed_;
  std::vector<net::NodeId> heads_;
  std::vector<net::NodeId> head_of_;  ///< per node: its cluster head
};

}  // namespace spms::core
