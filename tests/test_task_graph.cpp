#include "dag/task_graph.h"

#include <gtest/gtest.h>

#include "dag/evaluate.h"

namespace hepvine::dag {
namespace {

ValuePtr make_scalar(double v) { return std::make_shared<ScalarValue>(v); }

TaskSpec constant(double v) {
  TaskSpec spec;
  spec.category = "const";
  spec.cpu_seconds = 1.0;
  spec.fn = [v](const std::vector<ValuePtr>&) { return make_scalar(v); };
  return spec;
}

TaskSpec adder(std::vector<TaskId> deps) {
  TaskSpec spec;
  spec.category = "add";
  spec.cpu_seconds = 1.0;
  spec.deps = std::move(deps);
  spec.fn = [](const std::vector<ValuePtr>& in) {
    double sum = 0;
    for (const auto& v : in) {
      sum += dynamic_cast<const ScalarValue&>(*v).get();
    }
    return make_scalar(sum);
  };
  return spec;
}

TEST(TaskGraph, AddTaskAssignsIdsAndOutputs) {
  TaskGraph graph;
  const TaskId a = graph.add_task(constant(1));
  const TaskId b = graph.add_task(constant(2));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(graph.size(), 2u);
  EXPECT_NE(graph.task(a).output_file, graph.task(b).output_file);
  EXPECT_EQ(graph.catalog().size(), 2u);
}

TEST(TaskGraph, ForwardDependencyRejected) {
  TaskGraph graph;
  TaskSpec bad = constant(1);
  bad.deps = {0};  // self/forward reference
  EXPECT_THROW(graph.add_task(std::move(bad)), std::invalid_argument);
}

TEST(TaskGraph, UnknownInputFileRejected) {
  TaskGraph graph;
  TaskSpec bad = constant(1);
  bad.input_files = {99};
  EXPECT_THROW(graph.add_task(std::move(bad)), std::invalid_argument);
}

TEST(TaskGraph, DependentsAreReverseEdges) {
  TaskGraph graph;
  const TaskId a = graph.add_task(constant(1));
  const TaskId b = graph.add_task(constant(2));
  const TaskId c = graph.add_task(adder({a, b}));
  EXPECT_EQ(graph.task(a).dependents, std::vector<TaskId>{c});
  EXPECT_EQ(graph.task(b).dependents, std::vector<TaskId>{c});
  EXPECT_TRUE(graph.task(c).dependents.empty());
}

TEST(TaskGraph, RootsAndSinks) {
  TaskGraph graph;
  const TaskId a = graph.add_task(constant(1));
  const TaskId b = graph.add_task(constant(2));
  const TaskId c = graph.add_task(adder({a, b}));
  EXPECT_EQ(graph.roots(), (std::vector<TaskId>{a, b}));
  EXPECT_EQ(graph.sinks(), (std::vector<TaskId>{c}));
}

TEST(TaskGraph, TopoOrderIsAscendingIds) {
  TaskGraph graph;
  graph.add_task(constant(1));
  graph.add_task(constant(2));
  graph.add_task(adder({0, 1}));
  EXPECT_EQ(graph.topo_order(), (std::vector<TaskId>{0, 1, 2}));
}

TEST(TaskGraph, CriticalPathIsLongestChain) {
  TaskGraph graph;
  TaskSpec a = constant(1);
  a.cpu_seconds = 2.0;
  const TaskId ta = graph.add_task(std::move(a));
  TaskSpec b = constant(2);
  b.cpu_seconds = 10.0;
  graph.add_task(std::move(b));  // independent long task
  TaskSpec c = adder({ta});
  c.cpu_seconds = 3.0;
  graph.add_task(std::move(c));
  EXPECT_DOUBLE_EQ(graph.critical_path_seconds(), 10.0);
}

TEST(TaskGraph, CategoryCounts) {
  TaskGraph graph;
  graph.add_task(constant(1));
  graph.add_task(constant(2));
  graph.add_task(adder({0, 1}));
  const auto counts = graph.category_counts();
  EXPECT_EQ(counts.at("const"), 2u);
  EXPECT_EQ(counts.at("add"), 1u);
}

TEST(TaskGraph, InputAndIntermediateBytes) {
  TaskGraph graph;
  graph.add_input_file("d.root", 500);
  TaskSpec spec = constant(1);
  spec.input_files = {0};
  spec.output_bytes = 123;
  graph.add_task(std::move(spec));
  EXPECT_EQ(graph.input_bytes(), 500u);
  EXPECT_EQ(graph.catalog().total_bytes(data::FileKind::kIntermediate), 123u);
}

TEST(Evaluate, SerialEvaluationComputesDiamond) {
  TaskGraph graph;
  const TaskId a = graph.add_task(constant(3));
  const TaskId b = graph.add_task(adder({a}));
  const TaskId c = graph.add_task(adder({a}));
  const TaskId d = graph.add_task(adder({b, c}));
  const auto results = evaluate_serially(graph);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(dynamic_cast<const ScalarValue&>(*results.at(d)).get(),
                   6.0);
}

TEST(Evaluate, MultipleSinks) {
  TaskGraph graph;
  const TaskId a = graph.add_task(constant(1));
  const TaskId b = graph.add_task(adder({a}));
  const TaskId c = graph.add_task(adder({a}));
  const auto results = evaluate_serially(graph);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_TRUE(results.contains(b));
  EXPECT_TRUE(results.contains(c));
}

TEST(Value, ScalarDigestReflectsValue) {
  ScalarValue a(1.5);
  ScalarValue b(1.5);
  ScalarValue c(2.5);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_EQ(a.byte_size(), 8u);
}

}  // namespace
}  // namespace hepvine::dag
