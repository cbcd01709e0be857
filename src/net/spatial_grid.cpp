#include "net/spatial_grid.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace spms::net {

void SpatialGrid::reset(double cell_size_m, std::size_t expected_nodes) {
  if (cell_size_m <= 0.0) throw std::invalid_argument{"SpatialGrid: cell size must be positive"};
  inv_cell_ = 1.0 / cell_size_m;
  queries_ = 0;
  cells_.clear();
  // A zone-radius cell holds O(zone population) nodes; sizing the map for
  // one node per bucket is a safe overestimate that avoids rehash churn.
  cells_.reserve(expected_nodes);
}

void SpatialGrid::insert(std::uint32_t id, Point p) {
  cells_[key_of(p)].push_back(id);
}

void SpatialGrid::move(std::uint32_t id, Point from, Point to) {
  const std::uint64_t k_from = key_of(from);
  const std::uint64_t k_to = key_of(to);
  if (k_from == k_to) return;
  auto it = cells_.find(k_from);
  assert(it != cells_.end());
  auto& bucket = it->second;
  const auto pos = std::find(bucket.begin(), bucket.end(), id);
  assert(pos != bucket.end());
  // Swap-erase: within-cell order is unspecified by contract, and callers
  // sort, so the O(1) removal never shows through.
  *pos = bucket.back();
  bucket.pop_back();
  // The emptied vector stays in the map keeping its capacity: a node moving
  // back pays no allocation.
  cells_[k_to].push_back(id);
}

}  // namespace spms::net
