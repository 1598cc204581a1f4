// Network invariant suite, run against BOTH recompute paths (incremental
// component recompute and the reference full recompute):
//   - bytes conservation: a link's carried bytes are exactly the completed
//     bytes plus the abandoned bytes of the flows that crossed it, under
//     churn, cancels, injected kills, brownouts, and outages;
//   - max-min optimality: at any instant, every flow is bottlenecked at
//     some saturated link on its path (the defining property of the
//     max-min fair allocation);
//   - differential bit-identity: an adversarial scenario produces the
//     exact same event sequence, tick for tick, under both paths.
#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "util/text.h"

namespace hepvine::net {
namespace {

using util::Tick;

class RecomputePath : public ::testing::TestWithParam<bool> {
 protected:
  [[nodiscard]] NetworkOptions options() const {
    return NetworkOptions{GetParam()};
  }
};

TEST_P(RecomputePath, HubAccountingConservesBytesUnderChaos) {
  // Every flow crosses the hub, so the hub's carried bytes must equal the
  // bytes of completed flows plus the attributed bytes of abandoned ones —
  // exactly, despite cancels, injected kills, armed faults, a leaf
  // outage, and a hub brownout forcing settles at awkward instants.
  sim::Engine engine;
  Network net(engine, options());
  const LinkId hub = net.add_link("hub", 2e9);
  std::vector<LinkId> leaf;
  for (int i = 0; i < 6; ++i) {
    leaf.push_back(net.add_link("leaf" + std::to_string(i), 1e9));
  }

  int completed = 0;
  std::vector<FlowId> ids;
  for (int i = 0; i < 30; ++i) {
    engine.schedule_at(6'007 * i, [&, i] {
      const std::vector<LinkId> path =
          (i % 2 == 0) ? std::vector<LinkId>{leaf[i % 6], hub}
                       : std::vector<LinkId>{hub, leaf[(i + 3) % 6]};
      const std::uint64_t bytes =
          (i % 7 == 6) ? 0 : 20'000'000ULL + 7'000'003ULL * i;
      ids.push_back(net.start_flow(path, bytes, (i % 3) * 900,
                                   [&](FlowId) { ++completed; }));
    });
  }
  engine.schedule_at(70'001, [&] { net.cancel_flow(ids.at(9)); });
  engine.schedule_at(95'009, [&] { net.cancel_flow(ids.at(8)); });
  engine.schedule_at(120'013, [&] { net.cancel_flow(ids.at(12)); });
  engine.schedule_at(88'019, [&] { net.fail_flow(ids.at(5)); });
  engine.schedule_at(140'023, [&] { net.fail_flow(ids.at(17)); });
  engine.schedule_at(100'003, [&] { net.arm_flow_fault(ids.at(10), 9'000'000); });
  engine.schedule_at(150'007, [&] { net.arm_flow_fault(ids.at(15), 1); });
  engine.schedule_at(80'000, [&] { net.set_link_scale(hub, 0.35); });
  engine.schedule_at(170'000, [&] { net.set_link_scale(hub, 1.0); });
  engine.schedule_at(110'000, [&] { net.set_link_scale(leaf[2], 0.0); });
  engine.schedule_at(210'000, [&] { net.set_link_scale(leaf[2], 1.0); });
  engine.run();

  // Every flow ends in exactly one bucket.
  EXPECT_EQ(net.flows_completed() + net.flows_cancelled() + net.flows_failed(),
            30u);
  EXPECT_EQ(static_cast<std::uint64_t>(completed), net.flows_completed());
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_EQ(net.starvation_rescues(), 0u);
  // Exact, not NEAR: conservation is an identity, not an approximation.
  EXPECT_EQ(net.link_stats(hub).bytes_carried,
            net.total_bytes_completed() + net.bytes_abandoned());
}

TEST_P(RecomputePath, EveryFlowIsBottleneckedAtASaturatedLink) {
  // Max-min optimality probe: freeze time at several checkpoints and check
  // (a) feasibility — no link carries more than its effective capacity —
  // and (b) the bottleneck property — every flow crosses some saturated
  // link on which its rate is maximal. (A flow failing (b) could be given
  // more bandwidth without hurting a smaller flow, i.e. the allocation
  // would not be max-min fair.)
  sim::Engine engine;
  Network net(engine, options());
  const LinkId hub = net.add_link("hub", 8e9);
  std::vector<LinkId> up;
  std::vector<LinkId> down;
  for (int i = 0; i < 5; ++i) {
    up.push_back(net.add_link(util::numbered("u", i), 1e9 + 4e8 * i));
    down.push_back(net.add_link(util::numbered("d", i), 1.2e9 + 3e8 * i));
  }

  struct Probe {
    FlowId id;
    std::vector<LinkId> path;
  };
  std::vector<Probe> flows;
  const std::uint64_t huge = 1'000'000'000'000ULL;  // outlives the test
  const auto add = [&](std::vector<LinkId> path) {
    const FlowId id = net.start_flow(path, huge, 0, [](FlowId) {});
    flows.push_back({id, std::move(path)});
  };
  for (int i = 0; i < 18; ++i) {
    switch (i % 3) {
      case 0: add({up[i % 5], hub, down[(i + 2) % 5]}); break;
      case 1: add({up[(i + 1) % 5], hub}); break;
      default: add({hub, down[(i + 4) % 5]}); break;
    }
  }
  engine.schedule_at(900'000, [&] { net.set_link_scale(up[0], 0.4); });
  engine.schedule_at(1'400'000, [&] {
    for (int i = 0; i < 4; ++i) add({up[(i * 2) % 5], hub, down[i % 5]});
  });

  for (const Tick checkpoint : {500'003, 1'200'007, 2'000'011}) {
    engine.run_until(checkpoint);
    const auto nlinks = static_cast<LinkId>(net.link_count());
    std::vector<double> load(static_cast<std::size_t>(nlinks), 0.0);
    std::vector<double> peak(static_cast<std::size_t>(nlinks), 0.0);
    for (const auto& f : flows) {
      const double r = net.flow_rate(f.id);
      EXPECT_GT(r, 0.0) << "flow " << f.id << " at t=" << checkpoint;
      for (LinkId l : f.path) {
        load[static_cast<std::size_t>(l)] += r;
        peak[static_cast<std::size_t>(l)] =
            std::max(peak[static_cast<std::size_t>(l)], r);
      }
    }
    for (LinkId l = 0; l < nlinks; ++l) {
      const double cap = net.link(l).capacity * net.link_scale(l);
      EXPECT_LE(load[static_cast<std::size_t>(l)], cap * (1 + 1e-9))
          << net.link(l).name << " overcommitted at t=" << checkpoint;
    }
    for (const auto& f : flows) {
      const double r = net.flow_rate(f.id);
      bool bottlenecked = false;
      for (LinkId l : f.path) {
        const double cap = net.link(l).capacity * net.link_scale(l);
        if (load[static_cast<std::size_t>(l)] >= cap * (1 - 1e-9) &&
            r >= peak[static_cast<std::size_t>(l)] * (1 - 1e-9)) {
          bottlenecked = true;
          break;
        }
      }
      EXPECT_TRUE(bottlenecked)
          << "flow " << f.id << " at t=" << checkpoint
          << " has no saturated bottleneck on its path";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, RecomputePath, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "Incremental" : "Reference";
                         });

// --- low-level differential: both paths, same event stream ---------------

struct Outcome {
  std::vector<std::string> events;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes_completed = 0;
  std::uint64_t bytes_abandoned = 0;
  std::vector<std::uint64_t> link_bytes;
  Tick end = 0;
};

Outcome run_scenario(bool incremental) {
  sim::Engine engine;
  Network net(engine, NetworkOptions{incremental});
  const LinkId hub = net.add_link("hub", 2.5e9);
  std::vector<LinkId> up;
  std::vector<LinkId> down;
  for (int i = 0; i < 6; ++i) {
    up.push_back(net.add_link(util::numbered("u", i), 1e9 + 2e8 * i));
    down.push_back(net.add_link(util::numbered("d", i), 1e9 + 1.5e8 * i));
  }

  Outcome out;
  const auto record = [&](const char* what, FlowId id) {
    out.events.push_back(std::to_string(engine.now()) + " " + what + " " +
                         std::to_string(id));
  };
  net.set_fail_listener([&](FlowId id) { record("fail", id); });
  std::vector<FlowId> ids;
  for (int i = 0; i < 36; ++i) {
    engine.schedule_at(7'001 * i, [&, i] {
      std::vector<LinkId> path;
      switch (i % 4) {
        case 0: path = {up[i % 6], hub, down[(i * 2 + 1) % 6]}; break;
        case 1: path = {up[(i + 2) % 6], hub}; break;
        case 2: path = {hub, down[(i + 3) % 6]}; break;
        default: path = {up[i % 6], down[(i + 1) % 6]}; break;  // no hub
      }
      const std::uint64_t bytes =
          (i % 5 == 4) ? 0 : 40'000'000ULL + 9'000'001ULL * i;
      ids.push_back(net.start_flow(std::move(path), bytes, (i % 3) * 1'500,
                                   [&](FlowId id) { record("done", id); }));
    });
  }
  engine.schedule_at(60'000, [&] { net.arm_flow_fault(ids.at(3), 20'000'000); });
  engine.schedule_at(90'000, [&] { net.arm_flow_fault(ids.at(8), 1); });
  engine.schedule_at(130'000,
                     [&] { net.arm_flow_fault(ids.at(11), 1ULL << 62); });
  engine.schedule_at(110'003, [&] { net.cancel_flow(ids.at(12)); });
  engine.schedule_at(150'007, [&] { net.cancel_flow(ids.at(16)); });
  engine.schedule_at(170'011, [&] { net.fail_flow(ids.at(6)); });
  engine.schedule_at(80'000, [&] { net.set_link_scale(hub, 0.3); });
  engine.schedule_at(160'000, [&] { net.set_link_scale(hub, 1.0); });
  engine.schedule_at(100'000, [&] { net.set_link_scale(down[1], 0.0); });
  engine.schedule_at(200'000, [&] { net.set_link_scale(down[1], 1.0); });
  engine.run();

  out.completed = net.flows_completed();
  out.cancelled = net.flows_cancelled();
  out.failed = net.flows_failed();
  out.bytes_completed = net.total_bytes_completed();
  out.bytes_abandoned = net.bytes_abandoned();
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l) {
    out.link_bytes.push_back(net.link_stats(l).bytes_carried);
  }
  out.end = engine.now();
  return out;
}

TEST(NetworkDifferential, IncrementalMatchesReferenceBitExact) {
  const Outcome inc = run_scenario(true);
  const Outcome ref = run_scenario(false);
  EXPECT_EQ(inc.events, ref.events);
  EXPECT_EQ(inc.completed, ref.completed);
  EXPECT_EQ(inc.cancelled, ref.cancelled);
  EXPECT_EQ(inc.failed, ref.failed);
  EXPECT_EQ(inc.bytes_completed, ref.bytes_completed);
  EXPECT_EQ(inc.bytes_abandoned, ref.bytes_abandoned);
  EXPECT_EQ(inc.link_bytes, ref.link_bytes);
  EXPECT_EQ(inc.end, ref.end);
  // The scenario exercised every terminal path in both modes.
  EXPECT_GT(inc.completed, 0u);
  EXPECT_GT(inc.cancelled, 0u);
  EXPECT_GT(inc.failed, 2u);
}

}  // namespace
}  // namespace hepvine::net
