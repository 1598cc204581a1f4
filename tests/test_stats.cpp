// Tests for the statistics helpers added on top of the core metrics/hep
// modules: chi-squared histogram compatibility and manager-utilization
// reporting.
#include <gtest/gtest.h>

#include "hep/events.h"
#include "hep/histogram.h"
#include "hep/processors.h"
#include "scheduler_test_util.h"
#include "vine/vine_scheduler.h"

namespace hepvine {
namespace {

using namespace hepvine::testutil;

TEST(Chi2, IdenticalHistogramsAreZero) {
  hep::Histogram1D a(20, 0, 10);
  for (int i = 0; i < 100; ++i) a.fill(i % 10 + 0.5);
  EXPECT_DOUBLE_EQ(hep::chi2_per_dof(a, a), 0.0);
}

TEST(Chi2, RequiresMatchingBinning) {
  hep::Histogram1D a(10, 0, 10);
  hep::Histogram1D b(20, 0, 10);
  EXPECT_THROW((void)hep::chi2_per_dof(a, b), std::invalid_argument);
}

TEST(Chi2, IndependentSeedsAreStatisticallyCompatible) {
  // Two disjoint synthetic datasets of the same physics must agree within
  // Poisson fluctuations: chi2/dof ~ 1.
  const hep::HistogramSet a =
      hep::dv3_process(hep::generate_chunk(101, 60'000));
  const hep::HistogramSet b =
      hep::dv3_process(hep::generate_chunk(202, 60'000));
  const double chi2 = hep::chi2_per_dof(*a.find("met"), *b.find("met"));
  EXPECT_GT(chi2, 0.2);
  EXPECT_LT(chi2, 2.0);
}

TEST(Chi2, DetectsDifferentPhysics) {
  hep::Histogram1D met_like(50, 0, 200);
  hep::Histogram1D flat(50, 0, 200);
  sim::Rng rng(9);
  for (int i = 0; i < 20'000; ++i) {
    met_like.fill(rng.exponential(35.0));
    flat.fill(rng.uniform(0.0, 200.0));
  }
  EXPECT_GT(hep::chi2_per_dof(met_like, flat), 10.0);
}

TEST(ManagerUtilization, StandardTasksBusierThanFunctionCalls) {
  const apps::WorkloadSpec workload = tiny_dv3(96);
  auto run_mode = [&](exec::ExecMode mode) {
    const dag::TaskGraph graph = apps::build_workload(workload, 7);
    cluster::Cluster cluster(tiny_cluster(8));
    exec::RunOptions options = fast_options();
    options.seed = 7;
    options.mode = mode;
    vine::VineScheduler scheduler;
    return scheduler.run(graph, cluster, options);
  };
  const auto standard = run_mode(exec::ExecMode::kStandardTasks);
  const auto serverless = run_mode(exec::ExecMode::kFunctionCalls);
  ASSERT_TRUE(standard.success);
  ASSERT_TRUE(serverless.success);
  EXPECT_GT(standard.manager_busy_fraction,
            serverless.manager_busy_fraction)
      << "standard tasks cost the manager far more per task";
  EXPECT_GT(standard.manager_busy_fraction, 0.0);
  EXPECT_LE(standard.manager_busy_fraction, 1.0);
}

}  // namespace
}  // namespace hepvine
