#include "exec/task_state.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace hepvine::exec {
namespace {

using dag::TaskGraph;
using dag::TaskId;
using dag::TaskSpec;

dag::ValuePtr scalar(double v) {
  return std::make_shared<dag::ScalarValue>(v);
}

/// Diamond: a -> {b, c} -> d.
TaskGraph diamond() {
  TaskGraph graph;
  TaskSpec a;
  // Move-assigned: assigning the literal trips a false GCC 12 -Wrestrict.
  a.category = std::string("a");
  graph.add_task(std::move(a));
  TaskSpec b;
  b.deps = {0};
  graph.add_task(std::move(b));
  TaskSpec c;
  c.deps = {0};
  graph.add_task(std::move(c));
  TaskSpec d;
  d.deps = {1, 2};
  graph.add_task(std::move(d));
  return graph;
}

TEST(TaskState, RootsStartReady) {
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  EXPECT_EQ(table.ready_count(), 1u);
  EXPECT_EQ(table.pop_ready(), 0);
  EXPECT_EQ(table.pop_ready(), dag::kInvalidTask);
}

TEST(TaskState, DoneUnblocksDependents) {
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  table.mark_dispatched(0, 1);
  table.mark_running(0);
  table.mark_done(0, scalar(1), 2);
  EXPECT_EQ(table.pop_ready(), 1);
  EXPECT_EQ(table.pop_ready(), 2);
  EXPECT_EQ(table.pop_ready(), dag::kInvalidTask);
}

TEST(TaskState, JoinWaitsForAllDeps) {
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  table.mark_dispatched(0, 0);
  table.mark_done(0, scalar(1), 1);
  table.mark_dispatched(1, 0);
  table.mark_done(1, scalar(2), 2);
  EXPECT_EQ(table.at(3).state, TaskState::kWaiting);
  table.mark_dispatched(2, 0);
  table.mark_done(2, scalar(3), 3);
  EXPECT_EQ(table.at(3).state, TaskState::kReady);
  EXPECT_EQ(table.at(3).ready_at, 3);
}

TEST(TaskState, AllDoneAfterFullExecution) {
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  for (TaskId t : {0, 1, 2, 3}) {
    const TaskId popped = table.pop_ready();
    ASSERT_EQ(popped, t);
    table.mark_dispatched(t, 0);
    table.mark_running(t);
    table.mark_done(t, scalar(1), 0);
  }
  EXPECT_TRUE(table.all_done());
  EXPECT_EQ(table.done_count(), 4u);
}

TEST(TaskState, GatherInputsInDeclarationOrder) {
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  table.mark_dispatched(0, 0);
  table.mark_done(0, scalar(10), 0);
  table.mark_dispatched(1, 0);
  table.mark_done(1, scalar(20), 0);
  table.mark_dispatched(2, 0);
  table.mark_done(2, scalar(30), 0);
  const auto inputs = table.gather_inputs(3);
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_DOUBLE_EQ(dynamic_cast<const dag::ScalarValue&>(*inputs[0]).get(),
                   20.0);
  EXPECT_DOUBLE_EQ(dynamic_cast<const dag::ScalarValue&>(*inputs[1]).get(),
                   30.0);
}

TEST(TaskState, RequeueReturnsTaskToReadyAndAttemptsCount) {
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  table.pop_ready();
  table.mark_dispatched(0, 5);
  EXPECT_EQ(table.at(0).attempts, 1u);
  table.requeue(0, 20);
  EXPECT_EQ(table.at(0).state, TaskState::kReady);
  EXPECT_EQ(table.pop_ready(), 0);
  table.mark_dispatched(0, 6);
  EXPECT_EQ(table.at(0).attempts, 2u);
}

TEST(TaskState, StaleReadyQueueEntriesSkipped) {
  // A task can appear in the ready deque more than once (requeue paths);
  // pop must return it exactly once per time it is actually ready.
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  ASSERT_EQ(table.pop_ready(), 0);
  table.mark_dispatched(0, 0);
  table.requeue(0, 1);
  ASSERT_EQ(table.pop_ready(), 0);
  table.mark_dispatched(0, 0);
  // The deque is now empty of valid entries.
  EXPECT_EQ(table.pop_ready(), dag::kInvalidTask);
  EXPECT_EQ(table.peek_ready(), dag::kInvalidTask);
}

TEST(TaskState, ResetLostSingleProducer) {
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  table.mark_dispatched(0, 0);
  table.mark_done(0, scalar(1), 0);
  // b and c are now ready. Simulate loss of a's output.
  const std::size_t reset =
      table.reset_lost(0, 5, [](TaskId) { return false; });
  EXPECT_EQ(reset, 1u);
  EXPECT_EQ(table.at(0).state, TaskState::kReady) << "a re-runs";
  EXPECT_EQ(table.at(1).state, TaskState::kWaiting) << "b demoted";
  EXPECT_EQ(table.at(2).state, TaskState::kWaiting) << "c demoted";
  EXPECT_EQ(table.at(1).deps_remaining, 1u);
  // Re-run a: b and c become ready again.
  EXPECT_EQ(table.pop_ready(), 0);
  table.mark_dispatched(0, 0);
  table.mark_done(0, scalar(1), 7);
  EXPECT_EQ(table.at(1).state, TaskState::kReady);
  EXPECT_EQ(table.at(2).state, TaskState::kReady);
}

TEST(TaskState, ResetLostOnNonDoneTaskIsNoop) {
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  EXPECT_EQ(table.reset_lost(0, 0, [](TaskId) { return false; }), 0u);
}

TEST(TaskState, ResetLostCascadesThroughLostAncestors) {
  // Chain a -> b -> c; complete a and b; lose both outputs; reset b must
  // cascade to a.
  TaskGraph graph;
  TaskSpec a;
  graph.add_task(std::move(a));
  TaskSpec b;
  b.deps = {0};
  graph.add_task(std::move(b));
  TaskSpec c;
  c.deps = {1};
  graph.add_task(std::move(c));

  TaskStateTable table(graph);
  table.mark_dispatched(0, 0);
  table.mark_done(0, scalar(1), 0);
  table.mark_dispatched(1, 0);
  table.mark_done(1, scalar(2), 0);

  const std::size_t reset =
      table.reset_lost(1, 1, [](TaskId) { return false; });
  EXPECT_EQ(reset, 2u);
  EXPECT_EQ(table.at(0).state, TaskState::kReady);
  EXPECT_EQ(table.at(1).state, TaskState::kWaiting);
  EXPECT_EQ(table.at(1).deps_remaining, 1u);
  EXPECT_EQ(table.at(2).state, TaskState::kWaiting);
}

TEST(TaskState, ResetLostStopsAtAvailableAncestors) {
  TaskGraph graph;
  TaskSpec a;
  graph.add_task(std::move(a));
  TaskSpec b;
  b.deps = {0};
  graph.add_task(std::move(b));

  TaskStateTable table(graph);
  table.mark_dispatched(0, 0);
  table.mark_done(0, scalar(1), 0);
  table.mark_dispatched(1, 0);
  table.mark_done(1, scalar(2), 0);

  // Only b's output lost; a's replica survives.
  const std::size_t reset =
      table.reset_lost(1, 1, [](TaskId t) { return t == 0; });
  EXPECT_EQ(reset, 1u);
  EXPECT_EQ(table.at(0).state, TaskState::kDone);
  EXPECT_EQ(table.at(1).state, TaskState::kReady) << "deps satisfied";
}

TEST(TaskState, ResetLostLeavesRunningDependentsAlone) {
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  table.mark_dispatched(0, 0);
  table.mark_done(0, scalar(1), 0);
  table.pop_ready();
  table.mark_dispatched(1, 2);
  table.mark_running(1);  // b is running with its staged copy

  table.reset_lost(0, 1, [](TaskId) { return false; });
  EXPECT_EQ(table.at(1).state, TaskState::kRunning)
      << "running consumers keep their staged inputs";
  EXPECT_EQ(table.at(2).state, TaskState::kWaiting);

  // b finishes normally even though a is re-running.
  table.mark_done(1, scalar(5), 2);
  EXPECT_EQ(table.at(3).state, TaskState::kWaiting);
  EXPECT_EQ(table.at(3).deps_remaining, 1u) << "d still waits on c only";
}

TEST(TaskState, DoubleResetDoesNotDoubleCountDeps) {
  const TaskGraph graph = diamond();
  TaskStateTable table(graph);
  table.mark_dispatched(0, 0);
  table.mark_done(0, scalar(1), 0);
  table.reset_lost(0, 1, [](TaskId) { return false; });
  // Second reset attempt: producer is no longer done -> noop.
  EXPECT_EQ(table.reset_lost(0, 1, [](TaskId) { return false; }), 0u);
  EXPECT_EQ(table.at(1).deps_remaining, 1u);
}

}  // namespace
}  // namespace hepvine::exec
