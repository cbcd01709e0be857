#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/network.hpp"

/// \file cluster_interest_reference.hpp
/// Test-only oracle: ClusterInterest's head selection, head assignment and
/// expected_count computed by brute force, O(n) per head cell, per node and
/// per item.
///
/// This is the implementation ClusterInterest used before it switched to
/// ring searches over cell buckets and a zone-disc expected_count.  Its tie
/// rules are the literal ones: on equal distance the first node in id order
/// becomes a cell's head, and the first head in heads() order a node's
/// head.  wants() and its hash are copied verbatim, so the oracle depends on
/// nothing in ClusterInterest.

namespace spms::core::testing {

class ClusterInterestReference {
 public:
  ClusterInterestReference(const net::Network& net, double head_spacing_m, double p_other,
                           std::uint64_t seed)
      : net_(net), p_other_(p_other), seed_(seed) {
    const std::size_t n = net.size();
    // Bounding box of the deployment.
    double max_x = 0.0, max_y = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = net.position(net::NodeId{static_cast<std::uint32_t>(i)});
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
    const auto cells_x =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(max_x / head_spacing_m)));
    const auto cells_y =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(max_y / head_spacing_m)));

    std::vector<bool> is_head(n, false);
    for (std::size_t cy = 0; cy < cells_y; ++cy) {
      for (std::size_t cx = 0; cx < cells_x; ++cx) {
        const net::Point centre{(static_cast<double>(cx) + 0.5) * head_spacing_m,
                                (static_cast<double>(cy) + 0.5) * head_spacing_m};
        net::NodeId best;
        double best_d = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < n; ++i) {
          const net::NodeId id{static_cast<std::uint32_t>(i)};
          const double d = distance(net.position(id), centre);
          if (d < best_d) {
            best_d = d;
            best = id;
          }
        }
        if (best.valid() && !is_head[best.v]) {
          is_head[best.v] = true;
          heads_.push_back(best);
        }
      }
    }

    // Assign each node to its nearest head.
    head_of_.assign(n, net::kNoNode);
    for (std::size_t i = 0; i < n; ++i) {
      const net::NodeId id{static_cast<std::uint32_t>(i)};
      double best_d = std::numeric_limits<double>::infinity();
      for (const net::NodeId h : heads_) {
        const double d = distance(net_.position(id), net_.position(h));
        if (d < best_d) {
          best_d = d;
          head_of_[i] = h;
        }
      }
    }
  }

  [[nodiscard]] const std::vector<net::NodeId>& heads() const { return heads_; }
  [[nodiscard]] net::NodeId head_of(net::NodeId node) const { return head_of_.at(node.v); }

  [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const {
    if (node == item.origin) return false;
    if (node == head_of_.at(item.origin.v)) return true;
    if (distance(net_.position(node), net_.position(item.origin)) <= net_.zone_radius()) {
      return hash_wants(node, item);
    }
    return false;
  }

  [[nodiscard]] std::size_t expected_count(net::DataId item) const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < net_.size(); ++i) {
      if (wants(net::NodeId{static_cast<std::uint32_t>(i)}, item)) ++count;
    }
    return count;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  [[nodiscard]] bool hash_wants(net::NodeId node, net::DataId item) const {
    const std::uint64_t h = mix(seed_ ^ (static_cast<std::uint64_t>(node.v) << 40) ^
                                (static_cast<std::uint64_t>(item.origin.v) << 20) ^ item.seq);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < p_other_;
  }

  const net::Network& net_;
  double p_other_;
  std::uint64_t seed_;
  std::vector<net::NodeId> heads_;
  std::vector<net::NodeId> head_of_;
};

}  // namespace spms::core::testing
