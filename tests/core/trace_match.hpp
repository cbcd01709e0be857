#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "obs/event_trace.hpp"

/// \file trace_match.hpp
/// Pattern matching over typed trace records for the protocol tests: a
/// pattern is itself an obs::TraceRecord whose kind must match and whose
/// node, peer, via and item act as wildcards while left invalid.

namespace spms::core::test {

/// True when `r` has `want`'s kind and agrees on every id `want` sets.
inline bool trace_matches(const obs::TraceRecord& r, const obs::TraceRecord& want) {
  if (r.kind != want.kind) return false;
  if (want.node.valid() && r.node != want.node) return false;
  if (want.peer.valid() && r.peer != want.peer) return false;
  if (want.via.valid() && r.via != want.via) return false;
  if (want.item.origin.valid() && r.item != want.item) return false;
  return true;
}

/// Number of records in `trace` matching `want`.
inline std::size_t trace_count(const std::vector<obs::TraceRecord>& trace,
                               const obs::TraceRecord& want) {
  return static_cast<std::size_t>(
      std::count_if(trace.begin(), trace.end(),
                    [&](const obs::TraceRecord& r) { return trace_matches(r, want); }));
}

}  // namespace spms::core::test
