// Elastic worker-factory tests: the demand model, growth to demand, the
// disabled default, and the factory under opportunistic preemption.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "ha/factory.h"
#include "scheduler_test_util.h"
#include "sim/engine.h"
#include "vine/vine_scheduler.h"

namespace hepvine {
namespace {

using namespace hepvine::testutil;

TEST(Factory, TargetClampsDemandToBounds) {
  sim::Engine engine;
  ha::FactorySpec spec;
  spec.min_workers = 2;
  spec.max_workers = 8;
  spec.tasks_per_worker = 4;
  ha::Factory factory(engine, spec, {});
  EXPECT_EQ(factory.target(0), 2u);    // floor
  EXPECT_EQ(factory.target(8), 2u);    // ceil(8/4) = 2
  EXPECT_EQ(factory.target(9), 3u);    // ceil(9/4) = 3
  EXPECT_EQ(factory.target(32), 8u);
  EXPECT_EQ(factory.target(1000), 8u);  // ceiling
}

exec::RunReport run_vine(const dag::TaskGraph& graph,
                         const exec::RunOptions& options,
                         double preempt_per_hour = 0.0) {
  cluster::Cluster cluster(tiny_cluster(4, preempt_per_hour));
  vine::VineScheduler s;
  return s.run(graph, cluster, options);
}

TEST(Factory, ElasticPoolGrowsToDemandAndCompletes) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 5);
  exec::RunOptions options = fast_options();
  options.factory.min_workers = 1;
  options.factory.max_workers = 4;
  options.factory.tasks_per_worker = 2;
  options.factory.evaluation_interval = util::seconds(2);

  const auto report = run_vine(graph, options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  // A 24-task campaign over tasks_per_worker=2 demands more than the
  // single seed worker: the factory must have grown the pool.
  EXPECT_GT(report.factory.grow_events, 0u);
  EXPECT_GT(report.factory.workers_started, 0u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST(Factory, GrowsUnderPreemptionAndCompletes) {
  // Opportunistic workers vanish at 60/h; the factory keeps at least two
  // connected and grows the pool back to demand as the batch system
  // replaces them.
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(96, 24), 5);
  exec::RunOptions options = fast_options();
  options.mode = exec::ExecMode::kFunctionCalls;
  options.max_task_retries = 40;
  options.factory.min_workers = 2;
  options.factory.max_workers = 4;
  options.factory.tasks_per_worker = 2;
  options.factory.evaluation_interval = util::seconds(2);

  const auto report = run_vine(graph, options, 60.0);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_GT(report.worker_preemptions, 0u);
  EXPECT_GT(report.factory.grow_events, 0u);
  EXPECT_GT(report.factory.workers_started, 0u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST(Factory, ReturnedSlotIsPreemptedNotReleased) {
  // A slot the factory released and later started again is an ordinary
  // worker once it reconnects: when preemption takes it, its disconnection
  // says PREEMPTED, not RELEASED. The reasons count the factory's releases
  // and the batch system's preemptions exactly.
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(96, 24), 5);
  exec::RunOptions options = fast_options();
  options.mode = exec::ExecMode::kFunctionCalls;
  options.max_task_retries = 40;
  options.factory.min_workers = 2;
  options.factory.max_workers = 4;
  options.factory.tasks_per_worker = 2;
  options.factory.evaluation_interval = util::seconds(2);
  options.observability.enabled = true;

  const auto report = run_vine(graph, options, 60.0);
  ASSERT_TRUE(report.success) << report.failure_reason;
  ASSERT_NE(report.observation, nullptr);
  std::size_t released = 0;
  std::size_t preempted = 0;
  std::size_t preempted_after_return = 0;
  std::map<std::string, std::string> last_down;  // worker -> last reason
  std::istringstream in(report.observation->txn().text());
  for (std::string line; std::getline(in, line);) {
    std::istringstream f(line);
    std::string tick, subject, worker, verb, reason;
    f >> tick >> subject >> worker >> verb >> reason;
    if (subject != "WORKER" || verb != "DISCONNECTION") continue;
    released += reason == "RELEASED" ? 1 : 0;
    preempted += reason == "PREEMPTED" ? 1 : 0;
    if (reason == "PREEMPTED" && last_down[worker] == "RELEASED") {
      ++preempted_after_return;
    }
    last_down[worker] = reason;
  }
  EXPECT_GT(preempted_after_return, 0u);
  EXPECT_EQ(released, report.factory.workers_released);
  EXPECT_EQ(preempted, report.worker_preemptions);
}

TEST(Factory, DisabledByDefaultAndLeavesNoTrace) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(12), 5);
  const exec::RunOptions options = fast_options();
  ASSERT_FALSE(options.factory.enabled());
  const auto report = run_vine(graph, options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.factory.grow_events, 0u);
  EXPECT_EQ(report.factory.shrink_events, 0u);
  EXPECT_EQ(report.factory.workers_started, 0u);
  EXPECT_EQ(report.factory.workers_released, 0u);
}

}  // namespace
}  // namespace hepvine
