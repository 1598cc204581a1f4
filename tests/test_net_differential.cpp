// Differential harness for the incremental max-min recompute: every
// scheduler backend, run end-to-end over fault schedules from the
// adversarial matrix, must produce bit-identical results whether the
// network uses the incremental component recompute or the reference full
// recompute — same makespan, same counters, same physics histogram
// digest, and the exact same transactions log text.
//
// This is the acceptance gate for NetworkOptions::incremental_recompute:
// the optimization must be observationally invisible.
//
// The WaterFillDifferential cases below drive net::Network directly with
// hand-built float corner cases of the exact-comparison water-filling
// pass, with links at the boundary of a recompute (the spare-capacity
// links the incremental walk does not cross), and with randomized
// scenarios. They require the candidate-driven pass (incremental path)
// and the reference progressive-filling loop to produce the same rate
// bits after every fired event and the same fired-event sequence.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "dd/dask_distributed.h"
#include "net/network.h"
#include "scheduler_test_util.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "vine/vine_scheduler.h"
#include "wq/work_queue.h"

namespace hepvine {
namespace {

using namespace hepvine::testutil;
using util::Tick;

std::unique_ptr<exec::SchedulerBackend> make_scheduler(
    const std::string& name) {
  if (name == "taskvine") return std::make_unique<vine::VineScheduler>();
  if (name == "work-queue") return std::make_unique<wq::WorkQueueScheduler>();
  return std::make_unique<dd::DaskDistScheduler>();
}

class NetDifferential : public ::testing::TestWithParam<const char*> {
 protected:
  dag::TaskGraph graph_ = apps::build_workload(tiny_dv3(24), 31);

  exec::RunOptions base_options() const {
    exec::RunOptions options = fast_options();
    options.seed = 31;
    options.max_task_retries = 30;
    // Txn logging on, so the bit-identity check covers every logged
    // transition, not just the end-of-run aggregates.
    options.observability.enabled = true;
    options.observability.txn_log = true;
    return options;
  }

  exec::RunReport run(const exec::RunOptions& options, bool incremental,
                      std::uint32_t workers = 4,
                      double preempt_per_hour = 0.0) const {
    auto spec = tiny_cluster(workers, preempt_per_hour);
    spec.net.incremental_recompute = incremental;
    cluster::Cluster cluster(spec);
    return make_scheduler(GetParam())->run(graph_, cluster, options);
  }

  /// Run the same schedule under both recompute paths and require the
  /// outcomes to be indistinguishable.
  void expect_paths_identical(const exec::RunOptions& options,
                              std::uint32_t workers = 4,
                              double preempt_per_hour = 0.0) const {
    const auto inc = run(options, true, workers, preempt_per_hour);
    const auto ref = run(options, false, workers, preempt_per_hour);
    ASSERT_TRUE(inc.success) << inc.failure_reason;
    ASSERT_TRUE(ref.success) << ref.failure_reason;
    EXPECT_EQ(sink_digest(inc), reference_digest(graph_));
    EXPECT_EQ(sink_digest(inc), sink_digest(ref));
    EXPECT_EQ(inc.makespan, ref.makespan);
    EXPECT_EQ(inc.task_attempts, ref.task_attempts);
    EXPECT_EQ(inc.lineage_resets, ref.lineage_resets);
    EXPECT_EQ(inc.worker_crashes, ref.worker_crashes);
    EXPECT_EQ(inc.faults.faults_injected, ref.faults.faults_injected);
    EXPECT_EQ(inc.faults.worker_crashes, ref.faults.worker_crashes);
    EXPECT_EQ(inc.faults.cache_losses, ref.faults.cache_losses);
    EXPECT_EQ(inc.faults.transfers_killed, ref.faults.transfers_killed);
    EXPECT_EQ(inc.faults.transfer_retries, ref.faults.transfer_retries);
    EXPECT_EQ(inc.faults.backoff_wait, ref.faults.backoff_wait);
    ASSERT_NE(inc.observation, nullptr);
    ASSERT_NE(ref.observation, nullptr);
    EXPECT_EQ(inc.observation->txn().text(), ref.observation->txn().text());
  }

  /// Fault-free probe (incremental path) to time faults relative to; both
  /// paths see the same schedule, so which path probes is immaterial.
  Tick probe_makespan() const {
    const auto report = run(base_options(), true);
    EXPECT_TRUE(report.success) << report.failure_reason;
    return report.makespan;
  }
};

TEST_P(NetDifferential, CleanRun) {
  expect_paths_identical(base_options());
}

TEST_P(NetDifferential, MidTransferKillStorm) {
  const Tick makespan = probe_makespan();
  exec::RunOptions options = base_options();
  for (int i = 1; i <= 8; ++i) {
    options.faults.kill_transfers(makespan * i / 12, 2);
  }
  expect_paths_identical(options);
}

TEST_P(NetDifferential, OutageBrownoutAndCrashCombo) {
  const Tick makespan = probe_makespan();
  exec::RunOptions options = base_options();
  options.faults.fs_outage(util::seconds(2), util::seconds(20))
      .fs_brownout(makespan / 2, makespan / 4, 0.25)
      .kill_transfers(makespan * 2 / 3, 3)
      .crash_worker(makespan / 3, 2);
  expect_paths_identical(options);
}

TEST_P(NetDifferential, StochasticChaosWithBatchPreemption) {
  exec::RunOptions options = base_options();
  options.faults.stochastic.transfer_kill_prob = 0.05;
  options.faults.stochastic.worker_crash_rate_per_hour = 30.0;
  options.faults.seed = 13;
  expect_paths_identical(options, 4, 20.0);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, NetDifferential,
                         ::testing::Values("taskvine", "work-queue",
                                           "dask.distributed"));

// ---------------------------------------------------------------------
// Water-filling corner cases, network level.
// ---------------------------------------------------------------------

/// Everything one run of a scenario exposes: per fired event, the tick
/// and the rate bits of every active flow; every flow teardown; warnings.
struct WfTrace {
  std::vector<Tick> ticks;
  std::vector<std::vector<std::uint64_t>> rate_bits;
  std::vector<std::tuple<Tick, net::FlowId, char, std::uint64_t>> spans;
  std::vector<std::tuple<Tick, net::FlowId>> warns;
  std::uint64_t executed = 0;
  std::uint64_t rescues = 0;
  // Work counters; they differ between the paths by design.
  std::vector<std::uint64_t> visits;  // cumulative, per fired event
  std::uint64_t expansions = 0;
};

/// A scenario adds links and flows (returning the flow ids it started)
/// and may schedule capacity changes on the engine.
using WfScenario =
    std::function<std::vector<net::FlowId>(sim::Engine&, net::Network&)>;

WfTrace replay(bool incremental, const WfScenario& scenario) {
  sim::Engine engine;
  net::NetworkOptions options;
  options.incremental_recompute = incremental;
  net::Network network(engine, options);
  WfTrace trace;
  network.set_span_listener([&](Tick, Tick ended, net::FlowId id,
                                std::uint64_t, std::uint64_t carried,
                                char outcome) {
    trace.spans.emplace_back(ended, id, outcome, carried);
  });
  network.set_warn_listener([&](Tick at, net::FlowId id, const char*) {
    trace.warns.emplace_back(at, id);
  });
  const std::vector<net::FlowId> ids = scenario(engine, network);
  while (engine.step()) {
    trace.ticks.push_back(engine.now());
    std::vector<std::uint64_t> bits;
    for (const net::FlowId id : ids) {
      if (network.flow_active(id)) {
        bits.push_back(std::bit_cast<std::uint64_t>(network.flow_rate(id)));
      }
    }
    trace.rate_bits.push_back(std::move(bits));
    trace.visits.push_back(network.recompute_flow_visits());
  }
  trace.executed = engine.executed();
  trace.rescues = network.starvation_rescues();
  trace.expansions = network.recompute_expansions();
  return trace;
}

/// Require two traces of one scenario to be identical.
void expect_same_traces(const WfTrace& inc, const WfTrace& ref) {
  EXPECT_EQ(inc.ticks, ref.ticks);
  EXPECT_EQ(inc.rate_bits, ref.rate_bits);
  EXPECT_EQ(inc.spans, ref.spans);
  EXPECT_EQ(inc.warns, ref.warns);
  EXPECT_EQ(inc.executed, ref.executed);
  EXPECT_EQ(inc.rescues, ref.rescues);
  EXPECT_FALSE(inc.spans.empty());
}

/// Run both paths and require identical traces; returns the incremental
/// one for scenario-specific checks.
WfTrace expect_same_water_fill(const WfScenario& scenario) {
  const WfTrace inc = replay(true, scenario);
  expect_same_traces(inc, replay(false, scenario));
  return inc;
}

/// Flows filled by the recomputes that ran at `tick`.
std::uint64_t visits_at(const WfTrace& trace, Tick tick) {
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  for (std::size_t i = 0; i < trace.ticks.size(); ++i) {
    if (trace.ticks[i] < tick) before = trace.visits[i];
    if (trace.ticks[i] <= tick) after = trace.visits[i];
  }
  return after - before;
}

/// Distinct rate bit patterns in the first fired event's snapshot that
/// has any flow rated.
std::set<std::uint64_t> first_rates(const WfTrace& trace) {
  for (const auto& bits : trace.rate_bits) {
    std::set<std::uint64_t> rated;
    for (const std::uint64_t b : bits) {
      if (b != 0) rated.insert(b);
    }
    if (!rated.empty()) return rated;
  }
  return {};
}

std::vector<net::FlowId> shared_link_flows(net::Network& network,
                                           double capacity, int flows) {
  const net::LinkId shared = network.add_link("shared", capacity);
  std::vector<net::FlowId> ids;
  for (int i = 0; i < flows; ++i) {
    const net::LinkId own = network.add_link("own", 1e12);
    ids.push_back(network.start_flow(
        {shared, own}, 40'000'000 + 3'000'000 * static_cast<std::uint64_t>(i),
        0, [](net::FlowId) {}));
  }
  return ids;
}

TEST(WaterFillDifferential, BottleneckShareDriftsAbovePartwayThroughPass) {
  // 1e9 / 13: after two sequential `capacity -= share` steps the link's
  // remaining share rounds above the pass's bottleneck share, so it leaves
  // the freeze set mid-pass and the rest of its flows freeze in later
  // passes at a share some ulps higher.
  const WfTrace drifted = expect_same_water_fill(
      [](sim::Engine&, net::Network& network) {
        return shared_link_flows(network, 1e9, 13);
      });
  EXPECT_GT(first_rates(drifted).size(), 1u);
  // 1e9 / 7 drifts the other way and stays in the freeze set throughout.
  const WfTrace level = expect_same_water_fill(
      [](sim::Engine&, net::Network& network) {
        return shared_link_flows(network, 1e9, 7);
      });
  EXPECT_EQ(first_rates(level).size(), 1u);
}

TEST(WaterFillDifferential, NonBottleneckShareDriftsDownMidPass) {
  // `wide` starts with a fair share a few ulps above the bottleneck share
  // b = 1e9 / 9 of `narrow`. Freezing the flows the two links share rounds
  // wide's share down to <= b after the third one, so wide joins the
  // freeze set mid-pass and all its flows freeze at b in the first pass.
  // (Exact arithmetic would keep wide's share above b; a pass that only
  // froze links found at its start would take five passes and four
  // distinct rates here.)
  constexpr double kNarrow = 1e9;
  constexpr double kWide = 1333333333.3333335;
  ASSERT_GT(kWide / 12, kNarrow / 9);
  const WfTrace trace = expect_same_water_fill(
      [&](sim::Engine&, net::Network& network) {
        const net::LinkId narrow = network.add_link("narrow", kNarrow);
        const net::LinkId wide = network.add_link("wide", kWide);
        std::vector<net::FlowId> ids;
        auto start = [&](net::LinkId link, net::LinkId other, int i) {
          const auto bytes =
              50'000'000 + 4'000'000 * static_cast<std::uint64_t>(i);
          ids.push_back(
              network.start_flow({link, other}, bytes, 0, [](net::FlowId) {}));
        };
        for (int i = 0; i < 5; ++i) start(narrow, wide, i);
        for (int i = 0; i < 7; ++i) {
          start(wide, network.add_link("in", 1e12), i);
        }
        for (int i = 0; i < 4; ++i) {
          start(narrow, network.add_link("out", 1e12), i);
        }
        return ids;
      });
  const std::set<std::uint64_t> rates = first_rates(trace);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_EQ(*rates.begin(), std::bit_cast<std::uint64_t>(kNarrow / 9));
}

TEST(WaterFillDifferential, NearTieDoesNotFreezeEarly) {
  // `near` has a fair share one ulp above the bottleneck share b of
  // `narrow`. The exact comparison keeps it out of the first pass, so its
  // flows freeze one pass later at their own share, not at b.
  constexpr double kNarrow = 1e9;
  constexpr double kNear = 444444444.4444445;
  ASSERT_GT(kNear / 4, kNarrow / 9);
  const WfTrace trace = expect_same_water_fill(
      [&](sim::Engine&, net::Network& network) {
        const net::LinkId narrow = network.add_link("narrow", kNarrow);
        const net::LinkId near = network.add_link("near", kNear);
        std::vector<net::FlowId> ids;
        for (int i = 0; i < 13; ++i) {
          ids.push_back(network.start_flow(
              {i % 3 == 0 && i < 12 ? near : narrow,
               network.add_link("own", 1e12)},
              30'000'000 + 2'000'000 * static_cast<std::uint64_t>(i), 0,
              [](net::FlowId) {}));
        }
        return ids;
      });
  EXPECT_EQ(first_rates(trace).count(std::bit_cast<std::uint64_t>(kNear / 4)),
            1u);
}

TEST(WaterFillDifferential, LaterBottleneckSkipsFlowsFrozenEarlier) {
  // Flows 3 and 6 of `shared` freeze in the first pass on their narrow
  // private links; `shared` becomes the bottleneck one pass later with
  // those two frozen flows in the middle of its id-ordered flow list.
  const WfTrace trace = expect_same_water_fill(
      [](sim::Engine&, net::Network& network) {
        const net::LinkId shared = network.add_link("shared", 1e9);
        std::vector<net::FlowId> ids;
        for (int i = 1; i <= 10; ++i) {
          const double own = (i == 3 || i == 6) ? 1e7 : 1e12;
          ids.push_back(network.start_flow(
              {shared, network.add_link("own", own)},
              20'000'000 + 1'000'000 * static_cast<std::uint64_t>(i), 0,
              [](net::FlowId) {}));
        }
        return ids;
      });
  const std::set<std::uint64_t> rates = first_rates(trace);
  EXPECT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates.count(std::bit_cast<std::uint64_t>(1e7)), 1u);
}

TEST(WaterFillDifferential, HundredsOfDownlinksTiedAtTheBottleneckShare) {
  // 300 worker downlinks, each alone on its flow, tie bit-exactly with the
  // source link's share (3.75e11 / 300 = 1.25e9): the freeze set starts
  // with 301 links. A few doubled-up downlinks freeze first, one pass
  // earlier, at half the share.
  const WfTrace trace = expect_same_water_fill(
      [](sim::Engine&, net::Network& network) {
        const net::LinkId source = network.add_link("source", 3.75e11);
        std::vector<net::FlowId> ids;
        for (int i = 0; i < 300; ++i) {
          const net::LinkId down = network.add_link("down", 1.25e9);
          const auto bytes =
              100'000'000 + 1'000'000 * static_cast<std::uint64_t>(i % 17);
          ids.push_back(
              network.start_flow({source, down}, bytes, 0, [](net::FlowId) {}));
          if (i % 50 == 0) {
            ids.push_back(network.start_flow(
                {down, network.add_link("peer", 1e12)}, bytes / 2, 0,
                [](net::FlowId) {}));
          }
        }
        return ids;
      });
  EXPECT_EQ(first_rates(trace).size(), 2u);
}

TEST(WaterFillDifferential, ScaleZeroOutageStallsAndResumesIdentically) {
  expect_same_water_fill([](sim::Engine& engine, net::Network& network) {
    const net::LinkId fs = network.add_link("fs", 2.5e9);
    std::vector<net::FlowId> ids;
    for (int i = 0; i < 40; ++i) {
      const net::LinkId down = network.add_link("down", 1.25e9);
      ids.push_back(network.start_flow(
          {fs, down}, 20'000'000 + 2'500'000 * static_cast<std::uint64_t>(i),
          util::seconds(0.01) * (i % 7), [](net::FlowId) {}));
    }
    engine.schedule_at(util::seconds(0.2),
                       [&network, fs] { network.set_link_scale(fs, 0.0); });
    engine.schedule_at(util::seconds(1),
                       [&network, fs] { network.set_link_scale(fs, 0.25); });
    engine.schedule_at(util::seconds(2),
                       [&network, fs] { network.set_link_scale(fs, 1.0); });
    return ids;
  });
}

TEST(WaterFillDifferential, StarvationRescueSeamReplaysIdentically) {
  const WfTrace trace =
      expect_same_water_fill([](sim::Engine& engine, net::Network& network) {
        std::vector<net::FlowId> ids = shared_link_flows(network, 1e9, 13);
        engine.schedule_at(util::seconds(0.005), [&network] {
          network.debug_starve_next_water_fill();
          network.cancel_flow(1);
        });
        return ids;
      });
  EXPECT_EQ(trace.rescues, 12u);
  EXPECT_EQ(trace.warns.size(), 12u);
}

// ---------------------------------------------------------------------
// Boundary links: the incremental walk crosses only dirtied links and
// links saturated at the current rates; a link it reaches with spare
// capacity is left out of the fill, and crossed after all if the new
// rates saturate it.
// ---------------------------------------------------------------------

/// Flow 1 leaves `a` at `leave_at`; flows 2, 3, ... alternate between
/// `a` and `b`, each pair on one worker downlink of capacity `down`.
WfScenario paired_sides(double cap_a, double cap_b, int pairs, double down,
                        Tick leave_at) {
  return [=](sim::Engine& engine, net::Network& network) {
    const net::LinkId a = network.add_link("a", cap_a);
    const net::LinkId b = network.add_link("b", cap_b);
    std::vector<net::FlowId> ids;
    ids.push_back(network.start_flow({a, network.add_link("own", 1e12)},
                                     90'000'000, 0, [](net::FlowId) {}));
    for (int i = 0; i < pairs; ++i) {
      const net::LinkId d = network.add_link("down", down);
      const auto bytes = 40'000'000 + 3'000'000 * static_cast<std::uint64_t>(i);
      ids.push_back(network.start_flow({a, d}, bytes, 0, [](net::FlowId) {}));
      ids.push_back(
          network.start_flow({b, d}, bytes + 1'000'000, 0, [](net::FlowId) {}));
    }
    engine.schedule_at(leave_at, [&network] { network.cancel_flow(1); });
    return ids;
  };
}

TEST(WaterFillDifferential, SlackDownlinksDecoupleSharedBottlenecks) {
  // The downlinks carry 1e9/9 + 2e9/8 of 1.25e9: spare capacity before
  // and after flow 1 leaves, so the departure re-fills a's eight flows
  // and never visits b's, which the reference re-fills as well.
  const Tick leave_at = util::seconds(0.01);
  const WfScenario scenario = paired_sides(1e9, 2e9, 8, 1.25e9, leave_at);
  const WfTrace inc = replay(true, scenario);
  const WfTrace ref = replay(false, scenario);
  expect_same_traces(inc, ref);
  EXPECT_EQ(visits_at(inc, leave_at), 8u);
  EXPECT_EQ(visits_at(ref, leave_at), 16u);
}

TEST(WaterFillDifferential, BitEqualSharesOnBothSides) {
  // Once flow 1 leaves, a and b both split 1e9 among 13 interleaved
  // flows: bit-equal bottleneck shares that drift in the same passes.
  // The reference freezes both sides' flows interleaved in one pass
  // sequence; the incremental path fills a's side alone.
  const Tick leave_at = util::seconds(0.01);
  const WfTrace trace = expect_same_water_fill(
      paired_sides(1e9, 1e9, 13, 1.25e9, leave_at));
  EXPECT_EQ(visits_at(trace, leave_at), 13u);
  EXPECT_GT(first_rates(trace).size(), 1u);
}

TEST(WaterFillDifferential, BoundaryLinkSaturatedByNewRatesWidens) {
  // `l` (2.8e8) carries y, held to 1e8 by `y`, and one of a's six flows
  // at 1e9/6: spare capacity. When flow 1 leaves, a's side alone would
  // rise to 2e8 each and overload `l`, so the check after the fill
  // crosses `l`, pulls in y and its link, and fills again: `l` then
  // holds its a-flow to 1.8e8 and a's other four get 2.05e8.
  const Tick leave_at = util::seconds(0.01);
  const WfTrace trace =
      expect_same_water_fill([&](sim::Engine& engine, net::Network& network) {
        const net::LinkId a = network.add_link("a", 1e9);
        const net::LinkId l = network.add_link("l", 2.8e8);
        std::vector<net::FlowId> ids;
        ids.push_back(network.start_flow({a, network.add_link("own", 1e12)},
                                         90'000'000, 0, [](net::FlowId) {}));
        for (int i = 0; i < 4; ++i) {
          ids.push_back(network.start_flow(
              {a, network.add_link("own", 1e12)},
              60'000'000 + 2'000'000 * static_cast<std::uint64_t>(i), 0,
              [](net::FlowId) {}));
        }
        ids.push_back(
            network.start_flow({a, l}, 70'000'000, 0, [](net::FlowId) {}));
        ids.push_back(network.start_flow({network.add_link("y", 1e8), l},
                                         50'000'000, 0, [](net::FlowId) {}));
        engine.schedule_at(leave_at, [&network] { network.cancel_flow(1); });
        return ids;
      });
  EXPECT_GT(trace.expansions, 0u);
  // a's five flows, then again with y.
  EXPECT_EQ(visits_at(trace, leave_at), 5u + 6u);
}

TEST(WaterFillDifferential, LinkWithinMarginOfCapacityIsCrossed) {
  // `l` (1e9) holds 13 flows at its share and one flow m at 3e8/5, set
  // by `a`. The rounded rates sum to one ulp below 1e9: saturated within
  // the 2^-20 margin, but not at face value. A flow joining `a` lowers m,
  // which must hand the freed capacity to l's other 13 flows; leaving `l`
  // out as slack would keep them at their old rates.
  const Tick join_at = util::seconds(0.2);
  double load = 0;
  const WfTrace trace =
      expect_same_water_fill([&](sim::Engine& engine, net::Network& network) {
        const net::LinkId l = network.add_link("l", 1e9);
        const net::LinkId a = network.add_link("a", 3e8);
        std::vector<net::FlowId> ids;
        for (int i = 0; i < 13; ++i) {
          ids.push_back(network.start_flow(
              {l, network.add_link("own", 1e12)},
              1'000'000'000 + 10'000'000 * static_cast<std::uint64_t>(i), 0,
              [](net::FlowId) {}));
        }
        ids.push_back(
            network.start_flow({l, a}, 900'000'000, 0, [](net::FlowId) {}));
        for (int i = 0; i < 4; ++i) {
          ids.push_back(network.start_flow({a, network.add_link("own", 1e12)},
                                           800'000'000, 0, [](net::FlowId) {}));
        }
        // The load in l's flow-list order, which is start order here.
        engine.schedule_at(1, [&network, &load, ids] {
          load = 0;
          for (std::size_t i = 0; i < 14; ++i) {
            load += network.flow_rate(ids[i]);
          }
        });
        ids.push_back(static_cast<net::FlowId>(ids.size()) + 1);
        engine.schedule_at(join_at, [&network, a] {
          network.start_flow({a, network.add_link("own", 1e12)}, 800'000'000,
                             0, [](net::FlowId) {});
        });
        return ids;
      });
  EXPECT_LT(load, 1e9);
  EXPECT_GE(load, 1e9 * (1 - 0x1p-20));
  EXPECT_EQ(visits_at(trace, join_at), 19u);
}

TEST(WaterFillDifferential, OutageAndInfiniteLinksOnTheBoundary) {
  // An infinite-capacity backbone joins a's and b's flows: it never
  // saturates, so it stays a boundary link. `d` carries one flow from
  // each side; at scale 0 it is saturated at any load and couples them.
  // The backbone at scale 0 has capacity inf * 0 = NaN, which neither
  // path ever lets bottleneck a flow.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const WfTrace trace =
      expect_same_water_fill([&](sim::Engine& engine, net::Network& network) {
        const net::LinkId a = network.add_link("a", 1e9);
        const net::LinkId b = network.add_link("b", 1.5e9);
        const net::LinkId backbone = network.add_link("backbone", kInf);
        const net::LinkId d = network.add_link("d", 1.25e9);
        std::vector<net::FlowId> ids;
        ids.push_back(network.start_flow({a, network.add_link("own", 1e12)},
                                         90'000'000, 0, [](net::FlowId) {}));
        for (int i = 0; i < 6; ++i) {
          const auto bytes =
              60'000'000 + 5'000'000 * static_cast<std::uint64_t>(i);
          ids.push_back(
              network.start_flow({a, backbone}, bytes, 0, [](net::FlowId) {}));
          ids.push_back(network.start_flow({b, backbone}, bytes + 1'000'000,
                                           0, [](net::FlowId) {}));
        }
        ids.push_back(
            network.start_flow({a, d}, 80'000'000, 0, [](net::FlowId) {}));
        ids.push_back(
            network.start_flow({b, d}, 85'000'000, 0, [](net::FlowId) {}));
        engine.schedule_at(util::seconds(0.01),
                           [&network] { network.cancel_flow(1); });
        engine.schedule_at(util::seconds(0.02),
                           [&network, d] { network.set_link_scale(d, 0.0); });
        // Ids are issued in start order, so the late flow's is known now.
        ids.push_back(static_cast<net::FlowId>(ids.size()) + 1);
        engine.schedule_at(util::seconds(0.03), [&network, a] {
          network.start_flow({a, network.add_link("own", 1e12)}, 30'000'000,
                             0, [](net::FlowId) {});
        });
        engine.schedule_at(util::seconds(0.04), [&network, backbone] {
          network.set_link_scale(backbone, 0.0);
        });
        engine.schedule_at(util::seconds(0.05),
                           [&network, d] { network.set_link_scale(d, 1.0); });
        engine.schedule_at(util::seconds(0.06), [&network, backbone] {
          network.set_link_scale(backbone, 1.0);
        });
        return ids;
      });
  // a's six backbone flows and its flow on d, whose spare capacity
  // (1e9/8 + 1.5e9/7 of 1.25e9) keeps b's side out.
  EXPECT_EQ(visits_at(trace, util::seconds(0.01)), 7u);
  // At scale 0, d is crossed: a flow joining a re-fills both sides.
  EXPECT_EQ(visits_at(trace, util::seconds(0.03)), 15u);
}

/// A randomized scenario: shared and per-node links with capacities that
/// include near-ties (and infinite uplinks), flows starting together and
/// later, and cancellations, kills, armed faults and capacity changes in
/// between. Every draw is taken while building, so both paths replay the
/// same plan.
WfScenario random_scenario(std::uint64_t seed) {
  return [seed](sim::Engine& engine, net::Network& network) {
    sim::Rng rng(seed, "water-fill-differential");
    const double kCaps[] = {1e9,    std::nextafter(1e9, 2e9),
                            std::nextafter(1e9, 0.0), 1.25e9,
                            3e8,    2.5e9,
                            1e12};
    const double kScales[] = {0.0, 0.25, 0.5, 1.0, 2.0};
    const auto pick = [&rng](const auto& options) {
      return options[rng.uniform_below(std::size(options))];
    };
    const net::LinkId fs = network.add_link("fs", pick(kCaps));
    const net::LinkId mgr_up = network.add_link("mgr-up", pick(kCaps));
    const net::LinkId mgr_down = network.add_link("mgr-down", pick(kCaps));
    const std::uint64_t nodes = 2 + rng.uniform_below(7);
    std::vector<net::LinkId> up;
    std::vector<net::LinkId> down;
    for (std::uint64_t n = 0; n < nodes; ++n) {
      const double up_cap = rng.bernoulli(0.15)
                                ? std::numeric_limits<double>::infinity()
                                : pick(kCaps);
      up.push_back(network.add_link("up", up_cap));
      down.push_back(network.add_link("down", pick(kCaps)));
    }
    // Every path has a finite link: only uplinks may be infinite.
    const auto pick_path = [&]() -> std::vector<net::LinkId> {
      const std::uint64_t n = rng.uniform_below(nodes);
      const std::uint64_t peer = (n + 1 + rng.uniform_below(nodes - 1)) % nodes;
      switch (rng.uniform_below(6)) {
        case 0: return {fs, down[n]};
        case 1: return {mgr_up, down[n]};
        case 2: return {up[n], mgr_down};
        case 3: return {up[peer], down[n]};
        case 4: return {down[n]};
        default: return {fs, up[peer], down[n]};
      }
    };
    // Few distinct sizes and start ticks, so completions and arrivals
    // share ticks.
    struct Start {
      std::vector<net::LinkId> path;
      std::uint64_t bytes = 0;
      Tick latency = 0;
    };
    const auto pick_start = [&] {
      Start start;
      start.path = pick_path();
      start.bytes = 2'000'000 * (1 + rng.uniform_below(6));
      start.latency = 500 * static_cast<Tick>(rng.uniform_below(3));
      return start;
    };
    const auto begin = [&network](const Start& start) {
      network.start_flow(start.path, start.bytes, start.latency,
                         [](net::FlowId) {});
    };
    net::FlowId flows = 0;
    const std::uint64_t initial = 4 + rng.uniform_below(28);
    for (std::uint64_t i = 0; i < initial; ++i) {
      begin(pick_start());
      ++flows;
    }
    const std::uint64_t events = rng.uniform_below(32);
    for (std::uint64_t e = 0; e < events; ++e) {
      const auto at = static_cast<Tick>(rng.uniform_below(200'000));
      const std::uint64_t kind = rng.uniform_below(7);
      if (kind < 2) {
        engine.schedule_at(at, [begin, start = pick_start()] { begin(start); });
        ++flows;
        continue;
      }
      // Ids of flows not started yet, or gone, are ignored by the network.
      const auto id = static_cast<net::FlowId>(1 + rng.uniform_below(48));
      if (kind == 2) {
        engine.schedule_at(at, [&network, id] { network.cancel_flow(id); });
      } else if (kind == 3) {
        engine.schedule_at(at, [&network, id] { network.fail_flow(id); });
      } else if (kind == 4) {
        const std::uint64_t offset = 1 + rng.uniform_below(12'000'000);
        engine.schedule_at(at, [&network, id, offset] {
          network.arm_flow_fault(id, offset);
        });
      } else {
        const auto link =
            static_cast<net::LinkId>(rng.uniform_below(network.link_count()));
        const double scale = pick(kScales);
        engine.schedule_at(at, [&network, link, scale] {
          network.set_link_scale(link, scale);
        });
      }
    }
    // Lift every outage so stalled flows finish.
    engine.schedule_at(250'000, [&network] {
      for (std::size_t l = 0; l < network.link_count(); ++l) {
        network.set_link_scale(static_cast<net::LinkId>(l), 1.0);
      }
    });
    std::vector<net::FlowId> ids;
    for (net::FlowId id = 1; id <= flows; ++id) ids.push_back(id);
    return ids;
  };
}

TEST(WaterFillDifferential, RandomScenarios) {
  std::uint64_t inc_visits = 0;
  std::uint64_t ref_visits = 0;
  std::uint64_t expansions = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE(seed);
    const WfScenario scenario = random_scenario(seed);
    const WfTrace inc = replay(true, scenario);
    const WfTrace ref = replay(false, scenario);
    expect_same_traces(inc, ref);
    if (HasFailure()) return;  // the first diverging seed is enough
    inc_visits += inc.visits.back();
    ref_visits += ref.visits.back();
    expansions += inc.expansions;
  }
  // The scenarios leave links out as boundary links and widen recomputes.
  EXPECT_LT(inc_visits, ref_visits);
  EXPECT_GT(expansions, 0u);
}

}  // namespace
}  // namespace hepvine
