#pragma once

#include <cstdint>
#include <functional>

#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

/// \file mobility.hpp
/// Epoch mobility model (paper Section 5.1.3).
///
/// "At some discrete times in the simulator clock, a predefined fraction of
/// nodes move. The nodes which are to move and their destination are chosen
/// randomly. Once the routing tables converge, the data transmission starts
/// all over again."  After each epoch the process invokes a callback; the
/// scenario layer uses it to re-run the distributed Bellman-Ford (charging
/// its energy, which Fig. 12 includes in the measurement).

namespace spms::net {

/// Parameters of the epoch-teleport mobility model.
struct MobilityParams {
  /// Time between movement epochs.
  sim::Duration epoch_interval = sim::Duration::ms(20.0);
  /// Fraction of nodes that relocate each epoch (chosen uniformly).
  double move_fraction = 0.10;
  /// Moved nodes land uniformly in [0, field_side]^2.
  double field_side_m = 100.0;
};

/// Teleports random node subsets on a fixed cadence.
class MobilityProcess {
 public:
  MobilityProcess(sim::Simulation& sim, Network& net, MobilityParams params,
                  std::uint64_t stream = 0x30B1);

  /// Invoked after every epoch's moves; wire the routing rebuild here.
  void set_on_moved(std::function<void()> cb) { on_moved_ = std::move(cb); }

  /// Schedules epochs at interval boundaries up to `horizon`.
  void start(sim::TimePoint horizon);

  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t moves() const { return moves_; }

 private:
  void epoch();

  sim::Simulation& sim_;
  Network& net_;
  MobilityParams params_;
  sim::Rng rng_;
  sim::TimePoint horizon_;
  std::function<void()> on_moved_;
  std::uint64_t epochs_ = 0;
  std::uint64_t moves_ = 0;
};

}  // namespace spms::net
