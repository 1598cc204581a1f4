#include "batch/batch_system.h"

#include <gtest/gtest.h>

#include <vector>

namespace hepvine::batch {
namespace {

using util::Tick;

TEST(Batch, AllWorkersMatchWithinWindow) {
  sim::Engine engine;
  BatchSpec spec;
  spec.first_match_delay = util::seconds(2);
  spec.match_window = util::seconds(30);
  spec.preemption_rate_per_hour = 0;
  BatchSystem batch(engine, spec, 1);

  std::vector<Tick> starts;
  batch.submit(
      50, [&](std::uint32_t, std::uint32_t) { starts.push_back(engine.now()); },
      nullptr);
  engine.run();
  ASSERT_EQ(starts.size(), 50u);
  for (Tick t : starts) {
    EXPECT_GE(t, util::seconds(2));
    EXPECT_LE(t, util::seconds(32));
  }
  EXPECT_EQ(batch.active_workers(), 50u);
  EXPECT_EQ(batch.preemptions(), 0u);
}

TEST(Batch, IncarnationZeroOnFirstStart) {
  sim::Engine engine;
  BatchSpec spec;
  spec.preemption_rate_per_hour = 0;
  BatchSystem batch(engine, spec, 1);
  std::vector<std::uint32_t> incs;
  batch.submit(
      3, [&](std::uint32_t, std::uint32_t inc) { incs.push_back(inc); },
      nullptr);
  engine.run();
  EXPECT_EQ(incs, (std::vector<std::uint32_t>{0, 0, 0}));
}

TEST(Batch, PreemptionsOccurAtConfiguredRate) {
  sim::Engine engine;
  BatchSpec spec;
  spec.first_match_delay = 0;
  spec.match_window = 0;
  spec.preemption_rate_per_hour = 1.0;  // mean lifetime 1 h
  spec.resubmit_on_preempt = false;
  BatchSystem batch(engine, spec, 42);

  int preempted = 0;
  batch.submit(1000, nullptr,
               [&](std::uint32_t, std::uint32_t) { ++preempted; });
  engine.run_until(util::seconds(3600));
  batch.drain();
  engine.run();
  // Exponential lifetimes: ~63% preempted within one mean lifetime.
  EXPECT_GT(preempted, 550);
  EXPECT_LT(preempted, 720);
  EXPECT_EQ(batch.preemptions(), static_cast<std::uint32_t>(preempted));
}

TEST(Batch, ResubmittedWorkerReturnsWithNewIncarnation) {
  sim::Engine engine;
  BatchSpec spec;
  spec.first_match_delay = 0;
  spec.match_window = 0;
  spec.preemption_rate_per_hour = 0;
  spec.resubmit_on_preempt = true;
  spec.replacement_delay_mean = util::seconds(10);
  BatchSystem batch(engine, spec, 7);

  std::vector<std::uint32_t> start_incs;
  batch.submit(
      1,
      [&](std::uint32_t, std::uint32_t inc) { start_incs.push_back(inc); },
      nullptr);
  engine.run_until(util::seconds(1));
  batch.force_preempt(0);
  engine.run_until(util::seconds(500));
  batch.drain();
  engine.run();
  ASSERT_EQ(start_incs.size(), 2u);
  EXPECT_EQ(start_incs[0], 0u);
  EXPECT_EQ(start_incs[1], 1u);
}

TEST(Batch, ForcePreemptOnIdleSlotIsNoop) {
  sim::Engine engine;
  BatchSpec spec;
  spec.first_match_delay = util::seconds(100);
  BatchSystem batch(engine, spec, 1);
  batch.submit(1, nullptr, nullptr);
  batch.force_preempt(0);  // not yet running
  EXPECT_EQ(batch.preemptions(), 0u);
}

TEST(Batch, ForcedPreemptionAndReleaseRemoveTheirTimers) {
  // Each running slot arms one preemption timer. A forced preemption and a
  // factory release each cancel theirs: it leaves the event queue at once
  // and never fires.
  sim::Engine engine;
  BatchSpec spec;
  spec.first_match_delay = 0;
  spec.match_window = 0;
  spec.preemption_rate_per_hour = 1.0;
  spec.resubmit_on_preempt = false;
  BatchSystem batch(engine, spec, 11);
  std::vector<std::uint32_t> ended;
  batch.submit(3, nullptr, [&](std::uint32_t slot, std::uint32_t) {
    ended.push_back(slot);
  });
  engine.run_until(0);  // all three start and arm their timers
  ASSERT_EQ(batch.active_workers(), 3u);
  ASSERT_EQ(engine.executed(), 3u);
  ASSERT_EQ(engine.pending(), 3u);
  batch.force_preempt(0);
  EXPECT_EQ(engine.pending(), 2u);
  ASSERT_TRUE(batch.release_slot(1));
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  // Only slot 2's timer fired.
  EXPECT_EQ(engine.executed(), 4u);
  EXPECT_EQ(ended, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(batch.preemptions(), 2u);
  EXPECT_EQ(batch.releases(), 1u);
}

TEST(Batch, DrainStopsFuturePreemptions) {
  sim::Engine engine;
  BatchSpec spec;
  spec.first_match_delay = 0;
  spec.match_window = 0;
  spec.preemption_rate_per_hour = 1000.0;  // aggressive
  BatchSystem batch(engine, spec, 3);
  int preempted = 0;
  batch.submit(10, nullptr,
               [&](std::uint32_t, std::uint32_t) { ++preempted; });
  engine.run_until(1);  // workers start
  batch.drain();
  engine.run();
  EXPECT_EQ(preempted, 0);
}

TEST(Batch, DeterministicAcrossRunsWithSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Engine engine;
    BatchSpec spec;
    spec.preemption_rate_per_hour = 2.0;
    spec.resubmit_on_preempt = false;
    BatchSystem batch(engine, spec, seed);
    std::vector<Tick> events;
    batch.submit(
        100,
        [&](std::uint32_t, std::uint32_t) { events.push_back(engine.now()); },
        [&](std::uint32_t, std::uint32_t) { events.push_back(engine.now()); });
    engine.run_until(util::seconds(1800));
    batch.drain();
    engine.run();
    return events;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

}  // namespace
}  // namespace hepvine::batch
