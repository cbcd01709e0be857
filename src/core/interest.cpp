#include "core/interest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace spms::core {

namespace {

/// SplitMix64-style avalanche over the (seed, node, item) triple; gives a
/// stable pseudo-random draw without consuming RNG state.
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Nearest-point search over dense CSR buckets (one offsets array, one index
/// array) of square `s`-metre cells covering [0, w*s) x [0, h*s); cell
/// (cx, cy) is row cy * w + cx, and indices keep ascending order within a
/// cell.  A point outside the box is clamped into the nearest border cell,
/// which never increases its cell's Chebyshev distance to another cell, so
/// the ring bound of nearest() stays a lower bound.
class CellBuckets {
 public:
  /// Buckets the indices of `points`, which must outlive this object.
  CellBuckets(std::size_t w, std::size_t h, double s, const std::vector<net::Point>& points)
      : w_(w), h_(h), s_(s), points_(points), start_(w * h + 1, 0), entries_(points.size()) {
    std::vector<std::size_t> cell(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      cell[i] = cell_of(points[i]);
      ++start_[cell[i] + 1];
    }
    std::partial_sum(start_.begin(), start_.end(), start_.begin());
    std::vector<std::uint32_t> fill(start_.begin(), start_.end() - 1);
    for (std::size_t i = 0; i < points.size(); ++i) {
      entries_[fill[cell[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  /// The index minimising (distance to q, index), or kNone when no point is
  /// at a finite distance.  Rings of cells are searched outward from q's
  /// cell; every point in ring k lies at least (k - 1) * s from q, so the
  /// search stops once that bound exceeds the best distance by more than
  /// `slack`, a margin for the rounding of distances and cell indices.  Every
  /// point left unvisited is then strictly farther than the one returned.
  [[nodiscard]] std::uint32_t nearest(net::Point q, double slack) const {
    const std::size_t c = cell_of(q);
    const auto cx = static_cast<std::ptrdiff_t>(c % w_), cy = static_cast<std::ptrdiff_t>(c / w_);
    const auto w = static_cast<std::ptrdiff_t>(w_), h = static_cast<std::ptrdiff_t>(h_);
    const std::ptrdiff_t last = std::max({cx, w - 1 - cx, cy, h - 1 - cy});
    std::uint32_t best = kNone;
    double best_d = std::numeric_limits<double>::infinity();
    const auto visit = [&](std::ptrdiff_t x, std::ptrdiff_t y) {
      const std::size_t b = static_cast<std::size_t>(y * w + x);
      for (std::uint32_t i = start_[b]; i < start_[b + 1]; ++i) {
        const std::uint32_t e = entries_[i];
        const double d = distance(points_[e], q);
        if (d < best_d || (d == best_d && best != kNone && e < best)) {
          best_d = d;
          best = e;
        }
      }
    };
    for (std::ptrdiff_t k = 0; k <= last; ++k) {
      if (static_cast<double>(k - 1) * s_ > best_d + slack) break;
      // Ring k: its top and bottom rows in full, then the side columns.
      const std::ptrdiff_t x0 = cx - k, x1 = cx + k, y0 = cy - k, y1 = cy + k;
      for (const std::ptrdiff_t y : {y0, y1}) {
        if (y < 0 || y >= h) continue;
        for (std::ptrdiff_t x = std::max<std::ptrdiff_t>(x0, 0); x <= std::min(x1, w - 1); ++x) {
          visit(x, y);
        }
        if (k == 0) break;  // ring 0 is the one cell
      }
      for (std::ptrdiff_t y = std::max<std::ptrdiff_t>(y0 + 1, 0); y <= std::min(y1 - 1, h - 1);
           ++y) {
        if (x0 >= 0) visit(x0, y);
        if (x1 < w) visit(x1, y);
      }
    }
    return best;
  }

 private:
  [[nodiscard]] std::size_t cell_of(net::Point p) const {
    return clamp(p.y, h_) * w_ + clamp(p.x, w_);
  }
  [[nodiscard]] std::size_t clamp(double v, std::size_t cells) const {
    const double c = std::floor(v / s_);
    if (!(c > 0.0)) return 0;  // also NaN
    return c >= static_cast<double>(cells - 1) ? cells - 1 : static_cast<std::size_t>(c);
  }

  std::size_t w_, h_;
  double s_;
  const std::vector<net::Point>& points_;
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> entries_;
};

}  // namespace

ClusterInterest::ClusterInterest(const net::Network& net, double head_spacing_m, double p_other,
                                 std::uint64_t seed)
    : net_(net), p_other_(p_other), seed_(seed) {
  if (!(head_spacing_m > 0.0) || !std::isfinite(head_spacing_m)) {
    throw std::invalid_argument{"ClusterInterest: head spacing must be positive and finite"};
  }
  const std::size_t n = net.size();
  std::vector<net::Point> pos(n);
  // Bounding box of the deployment; the head grid starts at the origin.
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = net.position(net::NodeId{static_cast<std::uint32_t>(i)});
    min_x = std::min(min_x, pos[i].x);
    min_y = std::min(min_y, pos[i].y);
    max_x = std::max(max_x, pos[i].x);
    max_y = std::max(max_y, pos[i].y);
  }
  const auto cells_x = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(max_x / head_spacing_m)));
  const auto cells_y = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(max_y / head_spacing_m)));
  const double extent = std::max({-min_x, -min_y, max_x, max_y});
  const double slack = 1e-9 * (head_spacing_m + extent);

  // Each cell's head: the node nearest its centre, first in id order on ties.
  const CellBuckets node_cells{cells_x, cells_y, head_spacing_m, pos};
  std::vector<bool> is_head(n, false);
  for (std::size_t cy = 0; cy < cells_y; ++cy) {
    for (std::size_t cx = 0; cx < cells_x; ++cx) {
      const net::Point centre{(static_cast<double>(cx) + 0.5) * head_spacing_m,
                              (static_cast<double>(cy) + 0.5) * head_spacing_m};
      const std::uint32_t best = node_cells.nearest(centre, slack);
      if (best != kNone && !is_head[best]) {
        is_head[best] = true;
        heads_.push_back(net::NodeId{best});
      }
    }
  }

  // Assign each node to its nearest head, first in heads_ order on ties.
  std::vector<net::Point> head_pos(heads_.size());
  for (std::size_t j = 0; j < heads_.size(); ++j) head_pos[j] = pos[heads_[j].v];
  const CellBuckets head_cells{cells_x, cells_y, head_spacing_m, head_pos};
  head_of_.assign(n, net::kNoNode);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t j = head_cells.nearest(pos[i], slack);
    if (j != kNone) head_of_[i] = heads_[j];
  }
}

bool ClusterInterest::hash_wants(net::NodeId node, net::DataId item) const {
  const std::uint64_t h = mix(seed_ ^ (static_cast<std::uint64_t>(node.v) << 40) ^
                              (static_cast<std::uint64_t>(item.origin.v) << 20) ^ item.seq);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p_other_;
}

bool ClusterInterest::wants(net::NodeId node, net::DataId item) const {
  if (node == item.origin) return false;
  if (node == head_of_.at(item.origin.v)) return true;
  // Non-heads inside the origin's zone are interested with probability p.
  if (distance(net_.position(node), net_.position(item.origin)) <= net_.zone_radius()) {
    return hash_wants(node, item);
  }
  return false;
}

std::size_t ClusterInterest::expected_count(net::DataId item) const {
  // Only the origin's zone and its head can want the item.  wants() tests
  // sqrt(d^2) <= r and the disc query d^2 <= r^2: the relative margin keeps
  // the candidates a superset of the zone, and wants() still makes the exact
  // decision.  Down nodes stay candidates, as they do for wants().
  const auto zone = net_.neighbors_within(item.origin, net_.zone_radius() * (1.0 + 1e-9),
                                          /*include_down=*/true);
  const net::NodeId head = head_of_.at(item.origin.v);
  std::size_t count = 0;
  bool head_seen = false;
  for (const net::NodeId node : zone) {
    head_seen = head_seen || node == head;
    if (wants(node, item)) ++count;
  }
  // The head wants the item wherever it is, unless it is the origin.
  if (!head_seen && head.valid() && head != item.origin) ++count;
  return count;
}

}  // namespace spms::core
