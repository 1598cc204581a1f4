#include "coffea/analysis.h"

#include <gtest/gtest.h>

#include "dag/evaluate.h"
#include "hep/processors.h"
#include "scheduler_test_util.h"
#include "wq/work_queue.h"

namespace hepvine::coffea {
namespace {

using namespace hepvine::testutil;

Analysis small_analysis() {
  Analysis a("SingleMu");
  a.files(4, 100 * util::kMB)
      .chunks_per_file(5)
      .events_per_chunk(300)
      .processor(Processor::kDv3)
      .processor_costs(1.0, 10 * util::kMB, util::kGB)
      .tree_accumulate(4)
      .seed(9);
  return a;
}

TEST(Analysis, BuildsExpectedGraphShape) {
  const dag::TaskGraph graph = small_analysis().build();
  const auto counts = graph.category_counts();
  EXPECT_EQ(counts.at("process"), 20u);  // 4 files x 5 chunks
  EXPECT_EQ(graph.sinks().size(), 1u);
  EXPECT_EQ(graph.catalog().size(), 20u + (graph.size()));
  for (const auto& task : graph.tasks()) {
    if (task.spec.category == "accumulate") {
      EXPECT_LE(task.spec.deps.size(), 4u);
    }
  }
}

TEST(Analysis, SingleAccumulateCollapsesToOneReducer) {
  Analysis a = small_analysis();
  a.single_accumulate();
  const dag::TaskGraph graph = a.build();
  EXPECT_EQ(graph.category_counts().at("accumulate"), 1u);
  EXPECT_EQ(graph.task(graph.sinks().front()).spec.deps.size(), 20u);
}

TEST(Analysis, RequiresProcessor) {
  Analysis a("empty");
  EXPECT_THROW((void)a.build(), std::logic_error);
}

TEST(Analysis, RejectsArityBelowTwo) {
  Analysis a = small_analysis();
  EXPECT_THROW(a.tree_accumulate(1), std::invalid_argument);
}

TEST(Analysis, ComputeMatchesSerialEvaluation) {
  const Analysis a = small_analysis();
  exec::RunOptions options = fast_options();
  options.mode = exec::ExecMode::kFunctionCalls;
  const ComputeResult result = a.compute(tiny_cluster(3), options);
  ASSERT_TRUE(result.histograms);
  const auto reference = dag::evaluate_serially(a.build());
  EXPECT_EQ(result.histograms->digest(),
            reference.begin()->second->digest());
  EXPECT_TRUE(result.report.success);
}

TEST(Analysis, ComputeWithExplicitBackend) {
  const Analysis a = small_analysis();
  wq::WorkQueueScheduler wq;
  const ComputeResult result =
      a.compute(wq, tiny_cluster(3), fast_options());
  EXPECT_EQ(result.report.scheduler, "work-queue");
  const auto reference = dag::evaluate_serially(a.build());
  EXPECT_EQ(result.histograms->digest(),
            reference.begin()->second->digest());
}

TEST(Analysis, CustomProcessorFlowsThrough) {
  Analysis a("custom");
  a.files(2, 10 * util::kMB)
      .chunks_per_file(2)
      .events_per_chunk(100)
      .processor("count_events",
                 [](const hep::EventChunk& chunk) {
                   hep::HistogramSet out;
                   out.get("n", 1, 0, 1).fill(0.5,
                                              static_cast<double>(
                                                  chunk.events));
                   return out;
                 })
      .tree_accumulate(2)
      .seed(3);
  exec::RunOptions options = fast_options();
  const ComputeResult result = a.compute(tiny_cluster(2), options);
  // 2 files x 2 chunks x 100 events, weight-summed into one bin.
  EXPECT_DOUBLE_EQ(result.histograms->find("n")->bin_content(0), 400.0);
}

TEST(Analysis, BuiltinStreamsMatchMaterializedProcessors) {
  // Built-in processors stream events through hep::run_analysis; the same
  // graph with the materialized processors plugged in as custom functions
  // must reduce to the same digest.
  const std::pair<Processor, hep::HistogramSet (*)(const hep::EventChunk&)>
      cases[] = {{Processor::kDv3, hep::dv3_process},
                 {Processor::kTriPhoton, hep::triphoton_process}};
  for (const auto& [which, materialized] : cases) {
    Analysis streamed = small_analysis();
    streamed.events_per_chunk(5'000).processor(which);
    Analysis reference = small_analysis();
    reference.events_per_chunk(5'000).processor(hep::processor_name(which),
                                                materialized);
    const auto a = dag::evaluate_serially(streamed.build());
    const auto b = dag::evaluate_serially(reference.build());
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a.begin()->second->digest(), b.begin()->second->digest())
        << hep::processor_name(which);
  }
}

TEST(Analysis, ThrowsOnRunFailure) {
  Analysis a = small_analysis();
  a.processor_costs(1.0, 400 * util::kGB, util::kGB);  // can't fit any disk
  exec::RunOptions options = fast_options();
  options.max_task_retries = 2;
  options.max_sim_time = util::kHour;
  EXPECT_THROW((void)a.compute(tiny_cluster(2), options),
               std::runtime_error);
}

TEST(Analysis, CutflowIsMonotonic) {
  const Analysis a = small_analysis();
  const ComputeResult result =
      a.compute(tiny_cluster(3), fast_options());
  const hep::Histogram1D* cutflow = result.histograms->find("cutflow");
  ASSERT_NE(cutflow, nullptr);
  EXPECT_GT(cutflow->bin_content(hep::dv3_cuts::kAll), 0.0);
  EXPECT_GE(cutflow->bin_content(hep::dv3_cuts::kAll),
            cutflow->bin_content(hep::dv3_cuts::kMet25));
  EXPECT_GE(cutflow->bin_content(hep::dv3_cuts::kTwoBJets),
            cutflow->bin_content(hep::dv3_cuts::kHiggsWindow));
}

}  // namespace
}  // namespace hepvine::coffea
