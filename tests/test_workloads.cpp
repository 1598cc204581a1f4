#include "apps/workloads.h"

#include <gtest/gtest.h>

#include "dag/evaluate.h"
#include "hep/events.h"
#include "hep/histogram.h"

namespace hepvine::apps {
namespace {

TEST(Workloads, TableTwoPresetsMatchPaper) {
  EXPECT_EQ(dv3_small().input_bytes, 25 * util::kGB);
  EXPECT_EQ(dv3_medium().input_bytes, 200 * util::kGB);
  EXPECT_EQ(dv3_large().input_bytes, 1'200 * util::kGB);
  EXPECT_EQ(dv3_huge().input_bytes, 1'200 * util::kGB);
  EXPECT_EQ(rs_triphoton().input_bytes, 500 * util::kGB);
  EXPECT_EQ(rs_triphoton().datasets, 20u);
  EXPECT_EQ(dv3_huge().variations, 16u);
}

TEST(Workloads, Dv3LargeBuildsSeventeenThousandTasks) {
  WorkloadSpec spec = with_events(dv3_large(), 10);
  const dag::TaskGraph graph = build_workload(spec, 1);
  // Paper: "17,000 tasks consuming 1.2 TB".
  EXPECT_NEAR(static_cast<double>(graph.size()), 17'000.0, 400.0);
  EXPECT_NEAR(static_cast<double>(graph.input_bytes()),
              1.2e12, 0.05e12);
  EXPECT_EQ(graph.sinks().size(), 1u);
}

TEST(Workloads, Dv3HugeBuildsRoughly185kTasksWith10kRoots) {
  WorkloadSpec spec = with_events(dv3_huge(), 10);
  const dag::TaskGraph graph = build_workload(spec, 1);
  // Paper: "185,000 tasks with 10,000 initial executable tasks".
  EXPECT_NEAR(static_cast<double>(graph.size()), 185'000.0, 6'000.0);
  EXPECT_EQ(graph.roots().size(), 10'000u);
  const auto counts = graph.category_counts();
  EXPECT_EQ(counts.at("preprocess"), 10'000u);
  EXPECT_EQ(counts.at("variation"), 160'000u);
}

TEST(Workloads, TriphotonBuildsFourThousandProcessTasksOver20Datasets) {
  WorkloadSpec spec = with_events(rs_triphoton(), 10);
  const dag::TaskGraph graph = build_workload(spec, 1);
  const auto counts = graph.category_counts();
  EXPECT_EQ(counts.at("process"), 4'000u);
  EXPECT_TRUE(counts.contains("final-merge"));
  EXPECT_EQ(graph.sinks().size(), 1u);
}

TEST(Workloads, SingleNodeReductionShrinksGraphAndWidensFanIn) {
  WorkloadSpec tree = with_events(rs_triphoton(), 10);
  tree.process_tasks = 400;
  WorkloadSpec flat = tree;
  flat.reduction = ReductionShape::kSingleNode;

  const dag::TaskGraph tg = build_workload(tree, 1);
  const dag::TaskGraph fg = build_workload(flat, 1);
  EXPECT_GT(tg.size(), fg.size());

  std::size_t max_fan_tree = 0;
  for (const auto& t : tg.tasks()) {
    max_fan_tree = std::max(max_fan_tree, t.spec.deps.size());
  }
  std::size_t max_fan_flat = 0;
  for (const auto& t : fg.tasks()) {
    max_fan_flat = std::max(max_fan_flat, t.spec.deps.size());
  }
  EXPECT_LE(max_fan_tree, tree.reduce_arity);
  EXPECT_EQ(max_fan_flat, 400u / 20u) << "one reduction per dataset";
}

TEST(Workloads, GraphDeterministicInSeed) {
  WorkloadSpec spec = with_events(dv3_small(), 20);
  spec.process_tasks = 60;
  const dag::TaskGraph a = build_workload(spec, 5);
  const dag::TaskGraph b = build_workload(spec, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.task(static_cast<dag::TaskId>(i)).spec.cpu_seconds,
                     b.task(static_cast<dag::TaskId>(i)).spec.cpu_seconds);
  }
  const auto ra = dag::evaluate_serially(a);
  const auto rb = dag::evaluate_serially(b);
  EXPECT_EQ(ra.begin()->second->digest(), rb.begin()->second->digest());
}

TEST(Workloads, DifferentSeedsChangeCostsAndData) {
  WorkloadSpec spec = with_events(dv3_small(), 20);
  spec.process_tasks = 30;
  const dag::TaskGraph a = build_workload(spec, 1);
  const dag::TaskGraph b = build_workload(spec, 2);
  const auto ra = dag::evaluate_serially(a);
  const auto rb = dag::evaluate_serially(b);
  EXPECT_NE(ra.begin()->second->digest(), rb.begin()->second->digest());
}

TEST(Workloads, ProcessCpuTimesFollowPaperDistribution) {
  // Fig 8: the majority of tasks run 1-10 s.
  WorkloadSpec spec = with_events(dv3_large(), 10);
  const dag::TaskGraph graph = build_workload(spec, 1);
  std::size_t in_band = 0;
  std::size_t process = 0;
  for (const auto& t : graph.tasks()) {
    if (t.spec.category != "process") continue;
    ++process;
    if (t.spec.cpu_seconds >= 1.0 && t.spec.cpu_seconds <= 10.0) ++in_band;
  }
  EXPECT_GT(static_cast<double>(in_band) / static_cast<double>(process),
            0.75);
}

TEST(Workloads, HugeVariationsProduceVariationTaggedHistograms) {
  WorkloadSpec spec = with_events(dv3_huge(), 50);
  spec.process_tasks = 10;
  spec.variations = 4;
  const dag::TaskGraph graph = build_workload(spec, 3);
  const auto results = dag::evaluate_serially(graph);
  const auto& set =
      dynamic_cast<const hep::HistogramSet&>(*results.begin()->second);
  for (std::uint32_t v = 0; v < 4; ++v) {
    EXPECT_NE(set.find("dijet_mass_v" + std::to_string(v)), nullptr);
  }
}

TEST(Workloads, SkimKeepsExactlyTheSelectedMaterializedEvents) {
  // skim_events asks for MET and b-tag quality before it keeps an event.
  // What it keeps must equal the cut applied to the materialized chunk,
  // every column of every kept event included.
  const auto same_particles = [](const hep::ParticleColumns& a,
                                 std::size_t ea,
                                 const hep::ParticleColumns& b,
                                 std::size_t eb) {
    ASSERT_EQ(a.end_of(ea) - a.begin_of(ea), b.end_of(eb) - b.begin_of(eb));
    for (std::uint32_t i = a.begin_of(ea), j = b.begin_of(eb);
         i < a.end_of(ea); ++i, ++j) {
      EXPECT_EQ(a.pt[i], b.pt[j]);
      EXPECT_EQ(a.eta[i], b.eta[j]);
      EXPECT_EQ(a.phi[i], b.phi[j]);
      EXPECT_EQ(a.mass[i], b.mass[j]);
      EXPECT_EQ(a.quality[i], b.quality[j]);
    }
  };
  const hep::EventChunk all = hep::generate_chunk(77, 20'000);
  const hep::EventChunk skim = skim_events(77, 20'000);
  EXPECT_EQ(skim.seed, 77u);
  std::size_t kept = 0;
  for (std::size_t e = 0; e < all.events; ++e) {
    std::uint32_t btags = 0;
    for (std::uint32_t j = all.jets.begin_of(e); j < all.jets.end_of(e); ++j) {
      btags += all.jets.quality[j] > 0.85f ? 1 : 0;
    }
    if (btags < 2 && all.met_pt[e] < 60.0f) continue;
    ASSERT_LT(kept, skim.events);
    EXPECT_EQ(skim.met_pt[kept], all.met_pt[e]);
    same_particles(all.jets, e, skim.jets, kept);
    same_particles(all.photons, e, skim.photons, kept);
    ++kept;
  }
  EXPECT_EQ(skim.events, kept);
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, all.events);
}

TEST(Workloads, TriphotonFinalHistogramSeesResonance) {
  WorkloadSpec spec = with_events(rs_triphoton(), 2'000);
  spec.process_tasks = 100;
  spec.datasets = 5;
  const dag::TaskGraph graph = build_workload(spec, 4);
  const auto results = dag::evaluate_serially(graph);
  const auto& set =
      dynamic_cast<const hep::HistogramSet&>(*results.begin()->second);
  const hep::Histogram1D* mass = set.find("triphoton_mass");
  ASSERT_NE(mass, nullptr);
  EXPECT_GT(mass->integral(), 0.0);
}

TEST(Workloads, InvalidSpecRejected) {
  WorkloadSpec spec = dv3_small();
  spec.process_tasks = 0;
  EXPECT_THROW(build_workload(spec, 1), std::invalid_argument);
}

}  // namespace
}  // namespace hepvine::apps
