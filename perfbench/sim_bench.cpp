/// \file sim_bench.cpp
/// Measuring half of the repository benchmark.  perfbench/run.py builds this
/// binary, runs it once per workload, checks its digests and prints the
/// metrics; this file only runs simulations and times them.
///
///   perfbench_sim --workload NAME --seed N --seconds S [--trace]
///
/// Load model: closed loop, one thread, one simulation at a time.  Every
/// repetition drives exp::Scenario the way exp::run_experiment does
/// (constructor, start, run) and times those calls from outside.  Nothing is
/// instrumented inside src/: the traced repetitions observe the layers only
/// through their public functions (the scheduler's dispatch hook, the
/// mobility callback, the layers' constructors and queries).
///
/// Output: one JSON object on stdout holding the raw samples of every
/// repetition (run.py takes the medians).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/interest.hpp"
#include "core/spms.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "net/topology.hpp"

namespace {

using namespace spms;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- workloads ---------------------------------------------------------------

/// One named workload.  Each sets every config field it depends on, so no
/// SPMS_BENCH_* environment override can change what it measures.
struct Workload {
  std::string_view name;
  double delivery_floor;           ///< a run delivering less fails its check
  std::uint64_t in_run_rebuilds;   ///< DBF rebuilds the event loop must perform
  /// Seeds one untraced run cycles through; its simulated outputs are their
  /// mean.  Sized so seed-to-seed variation of the outputs stays small and
  /// one batch fits in the benchmark's 25 s measuring time.
  std::size_t seeds_per_run;
  exp::ExperimentConfig (*make)();
};

exp::ExperimentConfig reference_grid(const char* label, std::size_t nodes, double zone_m,
                                     int packets_per_node) {
  exp::ExperimentConfig c;
  c.label = label;
  c.protocol = exp::ProtocolKind::kSpms;
  c.pattern = exp::TrafficPattern::kAllToAll;
  c.deployment = exp::Deployment::kGrid;
  c.node_count = nodes;
  c.grid_pitch_m = 5.0;
  c.zone_radius_m = zone_m;
  c.traffic.packets_per_node = packets_per_node;
  return c;
}

/// Paper fig10/11 regime: all-to-all with crash/repair churn.
exp::ExperimentConfig a2a_fail_169() {
  auto c = reference_grid("a2a-fail-169", 169, 20.0, 2);
  exp::scaled_failures(c);
  return c;
}

/// Fig12's teleport model at a fast cadence: 50 full-zone DBF rebuilds.
exp::ExperimentConfig reconverge_169() {
  auto c = reference_grid("reconverge-169", 169, 20.0, 1);
  c.mobility = true;
  c.mobility_params.epoch_interval = sim::Duration::ms(2.0);
  c.mobility_params.move_fraction = 0.05;
  c.activity_horizon = sim::Duration::ms(100.0);
  return c;
}

/// Paper §5.2 cluster pattern at scale: zone-local interest that delivers.
exp::ExperimentConfig cluster_20k() {
  auto c = reference_grid("cluster-20k", 20'000, 10.0, 1);
  c.pattern = exp::TrafficPattern::kCluster;
  c.percentiles.sketch = false;
  return c;
}

/// The registry's scale-100k config, a sink-reach stress (delivery ~0.01%
/// by construction).  The env-overridable fields are pinned again here.
exp::ExperimentConfig sink_100k() {
  const exp::ScenarioInfo* info = exp::find_scenario("scale-100k");
  if (info == nullptr) throw std::runtime_error{"registry has no scale-100k scenario"};
  auto c = info->make().base;
  c.label = "sink-100k";
  c.traffic.packets_per_node = 1;
  return c;
}

constexpr std::uint64_t kReconvergeEpochs = 50;  // 100 ms horizon / 2 ms epochs

const Workload kWorkloads[] = {
    {"a2a-fail-169", 0.97, 0, 5, a2a_fail_169},
    {"reconverge-169", 0.99, kReconvergeEpochs, 7, reconverge_169},
    {"cluster-20k", 0.99, 0, 1, cluster_20k},
    {"sink-100k", 1e-5, 0, 9, sink_100k},
};

/// The i-th seed of a run's batch: the run's own seed first, then a stride
/// large enough that runs with nearby seeds share none.
std::uint64_t batch_seed(std::uint64_t seed, std::size_t i) { return seed + i * 1'000'003ull; }

// --- outcome and correctness checks --------------------------------------------

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// The simulated digest: event count, deliveries, and the exact bits of the
/// total energy and of the mean and p95 delay.
std::string make_digest(std::size_t events, std::size_t deliveries, double energy_uj,
                        double mean_delay_ms, double p95_delay_ms) {
  std::ostringstream os;
  os << "e" << events << "-d" << deliveries << std::hex << std::setfill('0') << "-"
     << std::setw(16) << bits(energy_uj) << "-" << std::setw(16) << bits(mean_delay_ms) << "-"
     << std::setw(16) << bits(p95_delay_ms);
  return os.str();
}

struct Outcome {
  std::size_t events = 0;
  double delivery_ratio = 0.0;
  double energy_uj_per_item = 0.0;
  double mean_delay_ms = 0.0;
  double p95_delay_ms = 0.0;
  std::string digest;
  std::string failure;  ///< empty when every check passed
};

/// Condenses a finished run into its simulated outputs (as exp::run_experiment
/// computes them) and applies the workload's invariants.
Outcome summarize(exp::Scenario& s, std::size_t events, const Workload& w) {
  auto& col = s.collector();
  const double energy_uj = s.network().energy().total_uj();
  Outcome o;
  o.events = events;
  o.delivery_ratio = col.delivery_ratio();
  if (col.published() > 0) o.energy_uj_per_item = energy_uj / static_cast<double>(col.published());
  o.mean_delay_ms = col.delay_ms().mean();
  o.p95_delay_ms = col.delay_percentiles().count() > 0 ? col.delay_percentiles().p95() : 0.0;
  o.digest = make_digest(events, col.deliveries(), energy_uj, o.mean_delay_ms, o.p95_delay_ms);

  const std::uint64_t rebuilds = s.routing() != nullptr ? s.routing()->rebuild_count() - 1 : 0;
  if (s.simulation().scheduler().event_limit_hit()) {
    o.failure = "event limit hit";
  } else if (col.unknown_item_deliveries() > 0) {
    o.failure = "unknown-item deliveries";
  } else if (o.delivery_ratio < w.delivery_floor) {
    o.failure = "delivery below the workload floor";
  } else if (rebuilds != w.in_run_rebuilds) {
    o.failure = "unexpected number of DBF rebuilds";
  }
  return o;
}

// --- plain (untraced) repetition ---------------------------------------------------

/// Resets the kernel's peak-RSS mark (VmHWM), so the next reading covers one
/// repetition only.  Without /proc the reading stays the process peak.
void reset_peak_rss() { std::ofstream{"/proc/self/clear_refs"} << "5"; }

/// VmHWM of this process in MiB (0 when /proc is unavailable).  Unlike
/// getrusage's ru_maxrss it never includes the forking parent's footprint.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

struct Rep {
  std::uint64_t seed = 0;
  double setup_s = 0.0;  ///< Scenario constructor
  double loop_s = 0.0;   ///< start() + run()
  double wall_s = 0.0;   ///< constructor to torn-down scenario, results extracted
  double peak_rss_mb = 0.0;
  Outcome out;
};

Rep plain_run(const Workload& w, const exp::ExperimentConfig& cfg) {
  Rep r;
  r.seed = cfg.seed;
  reset_peak_rss();
  const auto t0 = Clock::now();
  auto s = std::make_unique<exp::Scenario>(cfg);
  const auto t1 = Clock::now();
  s->start();
  const std::size_t events = s->run();
  const auto t2 = Clock::now();
  r.out = summarize(*s, events, w);
  s.reset();
  r.setup_s = secs(t0, t1);
  r.loop_s = secs(t1, t2);
  r.wall_s = secs(t0, Clock::now());
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// --- traced repetition -----------------------------------------------------------

using Layers = std::map<std::string, double>;

/// q-quantile of the samples (reorders them).
std::uint32_t quantile(std::vector<std::uint32_t>& xs, double q) {
  if (xs.empty()) return 0;
  const auto k = std::min(static_cast<std::size_t>(q * static_cast<double>(xs.size())),
                          xs.size() - 1);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k), xs.end());
  return xs[k];
}

/// Mean time of one neighbors_within query at zone radius, probing every
/// node; median over passes so small deployments time enough queries.
double neighbor_query_ns(const net::Network& net) {
  std::vector<net::NodeId> scratch;
  std::vector<double> per_pass;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < net.size(); ++i) {
      net.neighbors_within(net::NodeId{i}, net.zone_radius(), true, scratch);
    }
    per_pass.push_back(secs(t0, Clock::now()) * 1e9 / static_cast<double>(net.size()));
  } while (secs(start, Clock::now()) < 0.05 || per_pass.size() < 3);
  const auto mid = per_pass.begin() + static_cast<std::ptrdiff_t>(per_pass.size() / 2);
  std::nth_element(per_pass.begin(), mid, per_pass.end());
  return *mid;
}

struct TracedRep {
  Rep rep;
  Layers layers;
};

TracedRep traced_run(const Workload& w, const exp::ExperimentConfig& cfg) {
  TracedRep tr;
  tr.rep.seed = cfg.seed;
  const auto t0 = Clock::now();
  exp::Scenario s{cfg};
  const auto t1 = Clock::now();
  auto& sched = s.simulation().scheduler();
  auto& net = s.network();

  // Routing spans: Scenario's own two mobility calls, re-installed with a
  // timer around rebuild().
  double rebuild_s = 0.0;
  std::uint64_t rebuilds = 0;
  if (auto* mobility = s.mobility()) {
    mobility->set_on_moved([&s, &rebuild_s, &rebuilds] {
      if (auto* routing = s.routing()) {
        const auto r0 = Clock::now();
        routing->rebuild();
        rebuild_s += secs(r0, Clock::now());
        ++rebuilds;
      }
      s.protocol().on_topology_changed();
    });
  }

  // Scheduler spans: the gap between consecutive dispatch-hook calls is one
  // event's dispatch.  The hook's own sampling runs after the gap is taken
  // and before the next one starts, so it is not charged to any event.
  std::vector<std::uint32_t> dispatch_ns;
  double pending_sum = 0.0;
  std::size_t pending_max = 0;
  std::size_t mac_queue_max = 0;
  Clock::time_point last;
  sched.set_dispatch_hook([&](sim::TimePoint) {
    const auto now = Clock::now();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now - last).count();
    dispatch_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(ns, std::numeric_limits<std::uint32_t>::max())));
    const std::size_t pending = sched.pending();
    pending_sum += static_cast<double>(pending);
    pending_max = std::max(pending_max, pending);
    if ((dispatch_ns.size() & 1023u) == 0) {
      mac_queue_max = std::max(mac_queue_max, net.max_mac_queue_depth());
    }
    last = Clock::now();
  });

  s.start();
  last = Clock::now();
  const std::size_t events = s.run();
  const auto t2 = Clock::now();
  sched.set_dispatch_hook(nullptr);
  tr.rep.setup_s = secs(t0, t1);
  tr.rep.loop_s = secs(t1, t2);
  tr.rep.out = summarize(s, events, w);

  auto& col = s.collector();
  const auto& counters = net.counters();
  const routing::DbfStats dbf = s.routing() != nullptr ? s.routing()->total_stats()
                                                        : routing::DbfStats{};
  std::uint64_t node_downs = 0;
  if (auto* faults = s.faults()) {
    faults->finalize();
    node_downs = faults->stats().node_downs;
  }
  Layers& l = tr.layers;
  l["sim.events"] = static_cast<double>(events);
  l["sim.dispatch_samples"] = static_cast<double>(dispatch_ns.size());
  l["sim.pending_mean"] = events > 0 ? pending_sum / static_cast<double>(events) : 0.0;
  l["sim.pending_max"] = static_cast<double>(pending_max);
  l["sim.dispatch_ns.p50"] = static_cast<double>(quantile(dispatch_ns, 0.5));
  l["sim.dispatch_ns.p999"] = static_cast<double>(quantile(dispatch_ns, 0.999));
  l["sim.loop_self_s"] = tr.rep.loop_s - rebuild_s;
  l["routing.dbf_rounds"] = static_cast<double>(dbf.rounds);
  l["routing.dbf_messages"] = static_cast<double>(dbf.messages);
  l["net.grid_queries"] = static_cast<double>(net.grid_queries());
  l["net.tx_frames"] = static_cast<double>(counters.tx_total());
  l["net.max_mac_queue_depth"] = static_cast<double>(mac_queue_max);
  l["core.given_up"] = static_cast<double>(s.protocol().given_up());
  l["core.useful_rx_ratio"] =
      counters.deliveries > 0
          ? static_cast<double>(col.deliveries()) / static_cast<double>(counters.deliveries)
          : 0.0;
  l["stats.delay_samples"] = static_cast<double>(col.delay_percentiles().sample_count());
  l["stats.percentile_bytes"] = static_cast<double>(col.delay_percentiles().memory_bytes());
  l["faults.node_downs"] = static_cast<double>(node_downs);

  // Probes after the run, so they cannot perturb it.  One more rebuild()
  // on the final topology prices a rebuild on every workload, including
  // those whose loop never rebuilds.
  l["net.neighbor_query_ns"] = neighbor_query_ns(net);
  if (auto* routing = s.routing()) {
    const auto r0 = Clock::now();
    routing->rebuild();
    rebuild_s += secs(r0, Clock::now());
    ++rebuilds;
  }
  l["routing.rebuilds"] = static_cast<double>(rebuilds);
  l["routing.rebuild_s"] = rebuild_s;

  // Interest replay: the expected_count() call every publish makes, over the
  // run's items.  Its sum must reproduce the collector's expected count.
  const int per_node = cfg.traffic.packets_per_node;
  std::size_t expected = 0;
  const auto c0 = Clock::now();
  for (std::uint32_t v = 0; v < net.size(); ++v) {
    for (int k = 0; k < per_node; ++k) {
      const net::DataId item{net::NodeId{v}, static_cast<std::uint32_t>(k)};
      expected += s.interest().expected_count(item);
    }
  }
  l["core.expected_count_s"] = secs(c0, Clock::now());
  if (expected != col.expected_deliveries() && tr.rep.out.failure.empty()) {
    tr.rep.out.failure = "expected_count replay disagrees with the collector";
  }
  return tr;
}

// --- construction replay -----------------------------------------------------------

/// Replays Scenario's constructor as its public constructor calls, timing each
/// layer.  Mirrors exp::Scenario::Scenario for the SPMS protocol.
Layers replay_construction(const exp::ExperimentConfig& cfg) {
  if (cfg.protocol != exp::ProtocolKind::kSpms) {
    throw std::invalid_argument{"construction replay covers SPMS only"};
  }
  const auto t0 = Clock::now();
  sim::Simulation sim{cfg.seed};
  const std::size_t side = net::grid_side_for(cfg.node_count);
  const double field_side_m = static_cast<double>(side - 1) * cfg.grid_pitch_m;
  std::vector<net::Point> positions;
  if (cfg.deployment == exp::Deployment::kGrid) {
    positions = net::grid_deployment(side, cfg.grid_pitch_m);
    positions.resize(cfg.node_count);
  } else {
    auto rng = sim.rng().fork(0xDE9107);
    positions = net::random_deployment(cfg.node_count, field_side_m, rng);
  }
  const auto t1 = Clock::now();

  net::Network net{sim, net::RadioTable::mica2(), cfg.mac, cfg.energy, std::move(positions),
                   cfg.zone_radius_m, cfg.battery};
  const net::Point centre{field_side_m / 2.0, field_side_m / 2.0};
  net::NodeId central{0};
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    const double d = distance(net.position(net::NodeId{i}), centre);
    if (d < best) {
      best = d;
      central = net::NodeId{i};
    }
  }
  const auto t2 = Clock::now();

  std::unique_ptr<core::Interest> interest;
  switch (cfg.pattern) {
    case exp::TrafficPattern::kAllToAll:
      interest = std::make_unique<core::AllToAllInterest>(net.size());
      break;
    case exp::TrafficPattern::kCluster:
      interest = std::make_unique<core::ClusterInterest>(net, cfg.zone_radius_m,
                                                         cfg.cluster_p_other,
                                                         cfg.seed ^ 0xC1057E8ull);
      break;
    case exp::TrafficPattern::kSink:
      interest = std::make_unique<core::SinkInterest>(central);
      break;
  }
  const auto t3 = Clock::now();

  routing::RoutingService routing{net, cfg.dbf};
  const auto t4 = Clock::now();

  // The protocol agents plus the remaining wiring (collector, fault and
  // mobility processes, traffic generator).
  core::SpmsProtocol protocol{sim, net, routing, *interest, cfg.proto, cfg.spms_ext};
  core::Collector collector{cfg.percentiles};
  std::unique_ptr<faults::FaultController> faults;
  if (cfg.faults.any()) {
    faults = std::make_unique<faults::FaultController>(sim, net, cfg.faults, central);
  }
  core::TrafficGenerator traffic{sim, net, protocol, *interest, collector, cfg.traffic,
                                 cfg.seed ^ 0x7AFF1Cu};
  std::unique_ptr<net::MobilityProcess> mobility;
  if (cfg.mobility) {
    auto params = cfg.mobility_params;
    params.field_side_m = field_side_m;
    mobility = std::make_unique<net::MobilityProcess>(sim, net, params);
  }
  const auto t5 = Clock::now();

  return {{"net.deploy_s", secs(t0, t1)},
          {"net.build_s", secs(t1, t2)},
          {"core.interest_build_s", secs(t2, t3)},
          {"routing.build_s", secs(t3, t4)},
          {"core.protocol_build_s", secs(t4, t5)}};
}

// --- output ------------------------------------------------------------------------

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void print_rep(std::ostream& os, const Rep& r) {
  os << "{\"seed\":" << r.seed << ",\"setup_s\":" << r.setup_s << ",\"loop_s\":" << r.loop_s
     << ",\"wall_s\":" << r.wall_s << ",\"peak_rss_mb\":" << r.peak_rss_mb
     << ",\"events\":" << r.out.events << ",\"delivery_ratio\":" << r.out.delivery_ratio
     << ",\"energy_uj_per_item\":" << r.out.energy_uj_per_item
     << ",\"mean_delay_ms\":" << r.out.mean_delay_ms << ",\"p95_delay_ms\":" << r.out.p95_delay_ms
     << ",\"digest\":" << quoted(r.out.digest) << ",\"failure\":" << quoted(r.out.failure);
}

void print_layers(std::ostream& os, const Layers& layers) {
  os << "{";
  const char* sep = "";
  for (const auto& [name, value] : layers) {
    os << sep << quoted(name) << ":" << value;
    sep = ",";
  }
  os << "}";
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int usage() {
  std::cerr << "usage: perfbench_sim --workload NAME --seed N --seconds S [--trace]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 2004;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = true;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (candidate.name == workload_name) w = &candidate;
  }
  if (w == nullptr || !(seconds > 0.0)) return usage();

  // The load model is fixed by the workload table alone.
  unsetenv("SPMS_BENCH_PACKETS");
  unsetenv("SPMS_BENCH_SEED");
  unsetenv("SPMS_SIM_THREADS");

  exp::ExperimentConfig cfg = w->make();
  cfg.seed = seed;

  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"workload\":" << quoted(w->name) << ",\"seed\":" << seed
     << ",\"trace\":" << (trace ? 1 : 0) << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << quoted(compiler())
     << ",\"hardware_threads\":" << std::thread::hardware_concurrency();

  const auto start = Clock::now();
  const auto elapsed = [&start] { return secs(start, Clock::now()); };
  if (!trace) {
    // Set-up is short next to the loop, so it gets extra constructor-only
    // samples.  They are spread over the whole run, a tenth of the elapsed
    // time before each repetition, so they see the same host as the loop.
    // Repetitions cycle through the run's seed batch: each seed at least
    // once, then as many more as the measuring time allows.
    std::vector<double> setup_only;
    double setup_only_s = 0.0;
    std::vector<Rep> reps;
    double longest = 0.0;
    do {
      const double iteration_start = elapsed();
      while (setup_only_s < 0.1 * elapsed() || setup_only.size() < 2) {
        const auto t0 = Clock::now();
        const exp::Scenario s{cfg};
        setup_only.push_back(secs(t0, Clock::now()));
        setup_only_s += setup_only.back();
      }
      exp::ExperimentConfig rep_cfg = cfg;
      rep_cfg.seed = batch_seed(seed, reps.size() % w->seeds_per_run);
      reps.push_back(plain_run(*w, rep_cfg));
      longest = std::max(longest, elapsed() - iteration_start);
    } while (reps.size() < std::max<std::size_t>(3, w->seeds_per_run) ||
             elapsed() + longest <= seconds);

    os << ",\"setup_only_s\":[";
    for (std::size_t i = 0; i < setup_only.size(); ++i) os << (i ? "," : "") << setup_only[i];
    os << "],\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      os << (i ? "," : "");
      print_rep(os, reps[i]);
      os << "}";
    }
    os << "]";
  } else {
    // Untraced and traced repetitions alternate, so drift hits both alike.
    std::vector<Rep> reps;
    std::vector<TracedRep> traced;
    double longest_pair = 0.0;
    do {
      const double pair_start = elapsed();
      reps.push_back(plain_run(*w, cfg));
      traced.push_back(traced_run(*w, cfg));
      longest_pair = std::max(longest_pair, elapsed() - pair_start);
    } while (elapsed() + longest_pair <= 0.8 * seconds);

    // Non-perturbation reference: the library's own entry point.
    const exp::RunResult r = exp::run_experiment(cfg);
    const std::string reference = make_digest(r.events_executed, r.deliveries, r.energy.total_uj(),
                                              r.mean_delay_ms, r.p95_delay_ms);

    std::vector<Layers> construction;
    do {
      construction.push_back(replay_construction(cfg));
    } while (construction.size() < 3 || elapsed() < seconds);

    os << ",\"run_experiment_digest\":" << quoted(reference) << ",\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      os << (i ? "," : "");
      print_rep(os, reps[i]);
      os << "}";
    }
    os << "],\"traced\":[";
    for (std::size_t i = 0; i < traced.size(); ++i) {
      os << (i ? "," : "");
      print_rep(os, traced[i].rep);
      os << ",\"layers\":";
      print_layers(os, traced[i].layers);
      os << "}";
    }
    os << "],\"construction\":[";
    for (std::size_t i = 0; i < construction.size(); ++i) {
      os << (i ? "," : "");
      print_layers(os, construction[i]);
    }
    os << "]";
  }
  os << "}";
  std::cout << os.str() << std::endl;
  return 0;
}
