// Simulation-substrate throughput: the paper-scale network scenario
// (600 nodes x 12 cores, Figs 14-15) driven directly on net::Network,
// comparing the incremental component recompute against the reference
// full recompute.
//
// Each of the 7200 core slots cycles through fetch -> compute -> fetch,
// with compute gaps between transfers so the instantaneous flow
// population matches a compute-dominated HEP campaign. Two scenarios:
//
//  - peer: a cold-start import from the shared filesystem first, then
//    peer fetches from pseudo-random uplinks. Link<->flow components stay
//    small, so the incremental path wins by touching few flows.
//  - shared-bottleneck: every transfer crosses a shared link — shared-FS
//    reads and manager pushes fan out to the worker downlinks, and result
//    uploads fan in on the manager NIC. Connected components span most
//    in-flight flows, and a recompute still re-fills ~250 of them. But the
//    worker links around a shared link mostly have spare capacity, so they
//    stay out of the fill as boundary links: it works over ~4 links
//    instead of the whole component's ~130. The incremental path wins by
//    that and by its candidate-driven water-filling passes.
//
// Per scenario and path the bench reports passes, flow visits and re-rated
// flows (settled and re-keyed, Network::recompute_rearms) per recompute,
// the wall time per flow visit, and how often a recompute was widened
// because a link it had left out came out saturated
// (Network::recompute_expansions).
//
// Both modes replay the exact same scenario (peer choices and gaps are
// hashed from stable slot coordinates, not drawn from shared mutable
// state), so completions, bytes, and the final simulated tick must agree
// exactly; the bench fails if they diverge, or if the incremental path is
// not at least 3x faster in wall-clock, in either scenario.
//
// Emits BENCH_sim_throughput.json in the working directory.
// HEPVINE_FAST=1 shrinks the campaign (60 nodes, fewer rounds) for smoke
// runs; the identity and speedup gates still apply.
//
// vine-lint: allow(ambient-entropy) — steady_clock here measures the
// simulator's own wall-clock throughput (the bench's whole point); it
// never feeds simulated state, which runs entirely on virtual ticks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/engine.h"
#include "util/env.h"
#include "util/units.h"

namespace {

using hepvine::net::FlowId;
using hepvine::net::LinkId;
using hepvine::net::Network;
using hepvine::net::NetworkOptions;
using hepvine::util::Tick;

[[nodiscard]] bool fast_mode() {
  return hepvine::util::env_flag("HEPVINE_FAST");
}

/// Order-independent determinism: every random choice is a pure function
/// of stable slot coordinates, so both recompute modes see the identical
/// scenario no matter how callback order is implemented internally.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

enum class Scenario { kPeer, kSharedBottleneck };

struct Params {
  std::uint32_t nodes = 600;
  std::uint32_t slots_per_node = 12;
  std::uint32_t rounds = 12;  // transfers per slot, incl. the FS import
  Scenario scenario = Scenario::kPeer;
  Tick compute_gap = 80'000;  // minimum; up to 1.5x with jitter
};

struct Result {
  double wall_seconds = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t bytes_completed = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t flow_visits = 0;
  std::uint64_t rearms = 0;
  std::uint64_t passes = 0;
  std::uint64_t expansions = 0;
  std::uint64_t engine_events = 0;
  Tick end_tick = 0;
  [[nodiscard]] double flow_events_per_sec() const {
    const double events =
        static_cast<double>(flows_completed + recomputes);
    return wall_seconds > 0 ? events / wall_seconds : 0;
  }
  [[nodiscard]] double per_recompute(std::uint64_t total) const {
    return recomputes > 0 ? static_cast<double>(total) /
                                static_cast<double>(recomputes)
                          : 0;
  }
  [[nodiscard]] double ns_per_visit() const {
    return flow_visits > 0
               ? wall_seconds * 1e9 / static_cast<double>(flow_visits)
               : 0;
  }
};

class Campaign {
 public:
  Campaign(const Params& params, bool incremental)
      : params_(params), net_(engine_, NetworkOptions{incremental}) {
    fs_ = net_.add_link("shared-fs", 25e9);
    manager_up_ = net_.add_link("manager-up", 1.25e9);
    manager_down_ = net_.add_link("manager-down", 1.25e9);
    for (std::uint32_t n = 0; n < params_.nodes; ++n) {
      up_.push_back(net_.add_link("up" + std::to_string(n), 1.25e9));
      down_.push_back(net_.add_link("down" + std::to_string(n), 1.25e9));
    }
  }

  Result run() {
    for (std::uint32_t n = 0; n < params_.nodes; ++n) {
      for (std::uint32_t s = 0; s < params_.slots_per_node; ++s) {
        // Stagger slot starts across the first ~10 s, the way a batch
        // system matches workers over time: a synchronized cold start
        // would put every slot's FS import in one connected component
        // and (correctly, but uninterestingly) degenerate the
        // incremental recompute to the full one.
        const Tick start = static_cast<Tick>(mix(n * 131 + s) % 10'000'000);
        engine_.schedule_at(start, [this, n, s] {
          begin_cycle(n, s, params_.rounds);
        });
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    engine_.run();
    const auto t1 = std::chrono::steady_clock::now();

    Result r;
    r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    r.flows_completed = net_.flows_completed();
    r.bytes_completed = net_.total_bytes_completed();
    r.recomputes = net_.recomputes();
    r.flow_visits = net_.recompute_flow_visits();
    r.rearms = net_.recompute_rearms();
    r.passes = net_.recompute_passes();
    r.expansions = net_.recompute_expansions();
    r.engine_events = engine_.executed();
    r.end_tick = engine_.now();
    return r;
  }

 private:
  void begin_cycle(std::uint32_t node, std::uint32_t slot,
                   std::uint32_t remaining) {
    if (remaining == 0) return;
    const std::uint64_t h =
        mix((static_cast<std::uint64_t>(node) << 32) |
            (static_cast<std::uint64_t>(slot) << 8) | remaining);
    std::vector<LinkId> path;
    std::uint64_t bytes = (6 + (h >> 32) % 5) * hepvine::util::kMB;
    if (remaining == params_.rounds) {
      // Cold start: every slot's first fetch reads from the shared FS.
      path = {fs_, down_[node]};
    } else if (params_.scenario == Scenario::kSharedBottleneck) {
      // Rotate through the shared links: an FS read, a manager push of
      // task inputs, and a result upload converging on the manager NIC.
      switch (remaining % 3) {
        case 0:
          path = {fs_, down_[node]};
          break;
        case 1:
          path = {manager_up_, down_[node]};
          bytes /= 4;
          break;
        default:
          path = {up_[node], manager_down_};
          bytes /= 8;
          break;
      }
    } else {
      std::uint32_t peer =
          static_cast<std::uint32_t>(h % params_.nodes);
      if (peer == node) peer = (peer + 1) % params_.nodes;
      path = {up_[peer], down_[node]};
    }
    const Tick compute_gap =
        params_.compute_gap +
        static_cast<Tick>((h >> 16) % static_cast<std::uint64_t>(
                                           params_.compute_gap / 2));
    net_.start_flow(std::move(path), bytes, 200,
                    [this, node, slot, remaining, compute_gap](FlowId) {
                      engine_.schedule_after(compute_gap,
                                             [this, node, slot, remaining] {
                                               begin_cycle(node, slot,
                                                           remaining - 1);
                                             });
                    });
  }

  Params params_;
  hepvine::sim::Engine engine_;
  Network net_;
  LinkId fs_ = 0;
  LinkId manager_up_ = 0;
  LinkId manager_down_ = 0;
  std::vector<LinkId> up_;
  std::vector<LinkId> down_;
};

void print_result(const char* label, const Result& r) {
  std::printf(
      "  %-12s wall %8.3f s   flows %8llu   recomputes %9llu   "
      "flow-visits %12llu   flow-events/s %12.0f\n"
      "  %-12s per recompute: %.2f passes, %.1f flow visits, %.1f re-rated"
      "   %.1f ns/visit   expansions %llu\n",
      label, r.wall_seconds,
      static_cast<unsigned long long>(r.flows_completed),
      static_cast<unsigned long long>(r.recomputes),
      static_cast<unsigned long long>(r.flow_visits),
      r.flow_events_per_sec(), "", r.per_recompute(r.passes),
      r.per_recompute(r.flow_visits), r.per_recompute(r.rearms),
      r.ns_per_visit(), static_cast<unsigned long long>(r.expansions));
}

void json_result(std::FILE* f, const char* indent, const char* key,
                 const Result& r) {
  std::fprintf(f,
               "%s\"%s\": {\n"
               "%s  \"wall_seconds\": %.6f,\n"
               "%s  \"flows_completed\": %llu,\n"
               "%s  \"bytes_completed\": %llu,\n"
               "%s  \"recomputes\": %llu,\n"
               "%s  \"flow_visits\": %llu,\n"
               "%s  \"visits_per_recompute\": %.3f,\n"
               "%s  \"rearms\": %llu,\n"
               "%s  \"rearms_per_recompute\": %.3f,\n"
               "%s  \"ns_per_visit\": %.2f,\n"
               "%s  \"expansions\": %llu,\n"
               "%s  \"passes\": %llu,\n"
               "%s  \"engine_events\": %llu,\n"
               "%s  \"end_tick_us\": %lld,\n"
               "%s  \"flow_events_per_sec\": %.1f\n"
               "%s}",
               indent, key, indent, r.wall_seconds, indent,
               static_cast<unsigned long long>(r.flows_completed), indent,
               static_cast<unsigned long long>(r.bytes_completed), indent,
               static_cast<unsigned long long>(r.recomputes), indent,
               static_cast<unsigned long long>(r.flow_visits), indent,
               r.per_recompute(r.flow_visits), indent,
               static_cast<unsigned long long>(r.rearms), indent,
               r.per_recompute(r.rearms), indent, r.ns_per_visit(), indent,
               static_cast<unsigned long long>(r.expansions), indent,
               static_cast<unsigned long long>(r.passes), indent,
               static_cast<unsigned long long>(r.engine_events), indent,
               static_cast<long long>(r.end_tick), indent,
               r.flow_events_per_sec(), indent);
}

/// Both recompute arms of one scenario, and the verdicts on them.
struct Comparison {
  Result inc;
  Result ref;
  bool identical = false;
  double speedup = 0;
};

Comparison compare(const Params& params) {
  Comparison c;
  c.inc = Campaign(params, true).run();
  print_result("incremental", c.inc);
  c.ref = Campaign(params, false).run();
  print_result("reference", c.ref);
  c.identical = c.inc.flows_completed == c.ref.flows_completed &&
                c.inc.bytes_completed == c.ref.bytes_completed &&
                c.inc.end_tick == c.ref.end_tick &&
                c.inc.engine_events == c.ref.engine_events;
  c.speedup =
      c.inc.wall_seconds > 0 ? c.ref.wall_seconds / c.inc.wall_seconds : 0;
  std::printf("  speedup %.2fx   identical %s\n", c.speedup,
              c.identical ? "yes" : "NO");
  return c;
}

}  // namespace

int main() {
  Params params;
  if (fast_mode()) {
    params.nodes = 60;
    params.rounds = 6;
  }
  std::printf(
      "bench_sim_throughput: %u nodes x %u slots, %u transfers/slot "
      "(%u flows)\n",
      params.nodes, params.slots_per_node, params.rounds,
      params.nodes * params.slots_per_node * params.rounds);

  std::printf(" peer scenario\n");
  const Comparison peer = compare(params);
  Params shared_params = params;
  shared_params.scenario = Scenario::kSharedBottleneck;
  // Longer compute keeps the shared links at a few hundred concurrent
  // flows — the 600-worker manager-saturation regime — instead of
  // queueing every slot behind them; half the rounds keep the reference
  // arm's run time in check.
  shared_params.compute_gap = 3'000'000;
  shared_params.rounds = std::max(2u, params.rounds / 2);
  std::printf(" shared-bottleneck scenario: %u transfers/slot (%u flows)\n",
              shared_params.rounds,
              params.nodes * params.slots_per_node * shared_params.rounds);
  const Comparison shared = compare(shared_params);

  std::FILE* f = std::fopen("BENCH_sim_throughput.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"sim_throughput\",\n"
                 "  \"nodes\": %u,\n"
                 "  \"slots_per_node\": %u,\n"
                 "  \"rounds\": %u,\n",
                 params.nodes, params.slots_per_node, params.rounds);
    json_result(f, "  ", "incremental", peer.inc);
    std::fputs(",\n", f);
    json_result(f, "  ", "reference", peer.ref);
    std::fprintf(f,
                 ",\n  \"speedup\": %.3f,\n"
                 "  \"identical\": %s,\n"
                 "  \"shared_bottleneck\": {\n"
                 "    \"rounds\": %u,\n",
                 peer.speedup, peer.identical ? "true" : "false",
                 shared_params.rounds);
    json_result(f, "    ", "incremental", shared.inc);
    std::fputs(",\n", f);
    json_result(f, "    ", "reference", shared.ref);
    std::fprintf(f,
                 ",\n    \"speedup\": %.3f,\n"
                 "    \"identical\": %s\n"
                 "  }\n"
                 "}\n",
                 shared.speedup, shared.identical ? "true" : "false");
    std::fclose(f);
  }

  int status = 0;
  for (const Comparison* c : {&peer, &shared}) {
    const char* name = c == &peer ? "peer" : "shared-bottleneck";
    if (!c->identical) {
      std::fprintf(stderr,
                   "FAIL: %s: incremental and reference paths diverged\n",
                   name);
      status = 1;
    }
    // The 3x floor is an acceptance criterion for the paper-scale
    // scenarios; the shrunken fast-mode campaign has too few concurrent
    // flows for the reference path's linear scan to hurt as much, so it
    // only gates identity.
    if (!fast_mode() && c->speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL: %s: speedup %.2fx below the 3x acceptance floor\n",
                   name, c->speedup);
      status = 1;
    }
  }
  return status;
}
