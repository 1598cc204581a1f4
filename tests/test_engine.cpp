#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace hepvine::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_FALSE(engine.step());
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine engine;
  util::Tick fired_at = -1;
  engine.schedule_at(100, [&] {
    engine.schedule_after(50, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Engine, PastEventsClampToNow) {
  Engine engine;
  util::Tick fired_at = -1;
  engine.schedule_at(100, [&] {
    engine.schedule_at(10, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Engine, NegativeDelayClampsToZero) {
  Engine engine;
  bool fired = false;
  engine.schedule_after(-5, [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.now(), 0);
}

TEST(Engine, CancelledEventsDoNotFire) {
  Engine engine;
  bool fired = false;
  auto handle = engine.schedule_at(10, [&] { fired = true; });
  handle.cancel();
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.executed(), 0u);
}

TEST(Engine, CancelIsIdempotentAndSafeAfterFire) {
  Engine engine;
  auto handle = engine.schedule_at(1, [] {});
  engine.run();
  handle.cancel();  // already fired: harmless
  handle.cancel();
}

TEST(Engine, PendingReflectsLifecycle) {
  Engine engine;
  auto handle = engine.schedule_at(10, [] {});
  EXPECT_TRUE(handle.pending());
  engine.run();
  EXPECT_FALSE(handle.pending());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  std::vector<util::Tick> fired;
  for (util::Tick t = 10; t <= 100; t += 10) {
    engine.schedule_at(t, [&fired, &engine] { fired.push_back(engine.now()); });
  }
  const std::size_t count = engine.run_until(50);
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(engine.now(), 50);
  engine.run();
  EXPECT_EQ(fired.size(), 10u);
}

TEST(Engine, RunUntilAdvancesTimeWhenIdle) {
  Engine engine;
  engine.run_until(1000);
  EXPECT_EQ(engine.now(), 1000);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) engine.schedule_after(1, recurse);
  };
  engine.schedule_at(0, recurse);
  engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(engine.now(), 4);
}

TEST(Engine, MassCancellationDoesNotAccumulateTombstones) {
  // The flow network cancels and reschedules completion events constantly;
  // the queue must compact cancelled entries instead of hoarding them.
  Engine engine;
  for (int round = 0; round < 50; ++round) {
    std::vector<Engine::EventHandle> handles;
    handles.reserve(2000);
    for (int i = 0; i < 2000; ++i) {
      handles.push_back(engine.schedule_at(1'000'000'000, [] {}));
    }
    for (auto& h : handles) h.cancel();
  }
  // 100k cancelled entries were scheduled; compaction keeps the queue far
  // smaller than that.
  EXPECT_LT(engine.pending(), 20'000u);
  int fired = 0;
  engine.schedule_at(5, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, CancelledThenPurgedEventsNeverFire) {
  Engine engine;
  bool bad = false;
  std::vector<Engine::EventHandle> handles;
  for (int i = 0; i < 10'000; ++i) {
    handles.push_back(engine.schedule_at(100, [&] { bad = true; }));
  }
  for (auto& h : handles) h.cancel();
  for (int i = 0; i < 10'000; ++i) {
    engine.schedule_at(50, [] {});  // trigger compaction
  }
  engine.run();
  EXPECT_FALSE(bad);
}

TEST(Engine, ExecutedCountsOnlyFiredEvents) {
  Engine engine;
  engine.schedule_at(1, [] {});
  auto cancelled = engine.schedule_at(2, [] {});
  cancelled.cancel();
  engine.run();
  EXPECT_EQ(engine.executed(), 1u);
}

// ---------------------------------------------------------------------
// Property test: random operation sequences against a naive model.
// ---------------------------------------------------------------------

/// The engine's contract in its plainest form: every live event has the
/// key (tick, seq), each schedule or reschedule consumes the next seq, and
/// events fire in ascending key order.
class NaiveQueue {
 public:
  void add(int id, util::Tick at) {
    at = std::max(at, now_);
    const std::uint64_t seq = next_seq_++;
    queue_.emplace(at, seq, id);
    live_[id] = {at, seq};
  }
  void remove(int id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return;
    queue_.erase({it->second.first, it->second.second, id});
    live_.erase(it);
  }
  void move(int id, util::Tick at) {
    remove(id);
    add(id, at);
  }
  [[nodiscard]] bool live(int id) const { return live_.count(id) != 0; }
  [[nodiscard]] util::Tick at(int id) const { return live_.at(id).first; }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] util::Tick next_at() const {
    return std::get<0>(*queue_.begin());
  }
  [[nodiscard]] util::Tick now() const { return now_; }
  void advance_to(util::Tick t) { now_ = std::max(now_, t); }
  int pop() {
    const auto [at, seq, id] = *queue_.begin();
    queue_.erase(queue_.begin());
    live_.erase(id);
    now_ = at;
    return id;
  }

 private:
  util::Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::set<std::tuple<util::Tick, std::uint64_t, int>> queue_;
  std::map<int, std::pair<util::Tick, std::uint64_t>> live_;
};

/// How a property run splits its operations: an op draws r in [0, 100)
/// and takes the first kind whose bound exceeds r (the rest are steps).
struct OpMix {
  std::uint64_t schedule;
  std::uint64_t batch;
  std::uint64_t rekey;
  std::uint64_t cancel;
  std::uint64_t run_until;
  /// Re-keys and schedules land within this many ticks of now() (plus
  /// the mix's far ticks), so small values make same-tick ties common.
  std::int64_t near;
  /// Half the re-keys and cancels go through bare EventRefs
  /// (Engine::rearm_at / cancel / is_pending), as the flow network's do.
  bool refs;
};

/// The default mix, and one of mostly re-keys over a handful of ticks:
/// the flow network's load, which re-keys a hundred completions per
/// recompute, many onto the same tick.
constexpr OpMix kMixes[] = {{22, 26, 50, 60, 63, 8, false},
                            {8, 10, 62, 70, 72, 2, true}};

TEST(EngineProperty, RandomSequencesFireInNaiveModelOrder) {
  for (std::uint64_t run = 0; run < 16; ++run) {
    const std::uint64_t seed = 1 + run % 8;
    const OpMix& mix = kMixes[run / 8];
    SCOPED_TRACE(seed);
    SCOPED_TRACE(run / 8);
    Rng rng(seed);
    NaiveQueue model;
    std::vector<int> fired;
    std::vector<Engine::EventHandle> handles;
    std::vector<int> handle_event;  // the event each handle refers to
    std::vector<Engine::EventRef> refs;
    std::vector<int> ref_event;  // the event each ref last named
    int next_event = 0;
    auto fire = [&fired](int event) {
      return [&fired, event] { fired.push_back(event); };
    };
    {
      Engine engine;
      // Ticks cluster near now() so same-tick ties, now-bucket entries and
      // past ticks (clamped to now) are all common.
      auto pick_tick = [&]() -> util::Tick {
        const std::uint64_t r = rng.uniform_below(10);
        if (r < 3) return engine.now();
        if (r < 4) return engine.now() - 5;
        if (r < 9) return engine.now() + rng.uniform_int(1, mix.near);
        return engine.now() + rng.uniform_int(100, 1000);
      };
      auto schedule = [&](util::Tick at) {
        const int event = next_event++;
        handles.push_back(engine.schedule_at(at, fire(event)));
        handle_event.push_back(event);
        model.add(event, at);
      };
      auto step_both = [&] {
        const bool stepped = engine.step();
        ASSERT_EQ(stepped, !model.empty());
        if (!stepped) return;
        const int expected = model.pop();
        ASSERT_FALSE(fired.empty());
        ASSERT_EQ(fired.back(), expected);
        ASSERT_EQ(engine.now(), model.now());
      };
      for (int op = 0; op < 6000; ++op) {
        const std::uint64_t r = rng.uniform_below(100);
        if (op == 3000) {
          // Mass cancellation: enough handle-side tombstones to trigger
          // purge_cancelled_now on the next schedule.
          const std::size_t first = handles.size();
          for (int i = 0; i < 6000; ++i) {
            schedule(i % 50 == 0 ? engine.now()
                                 : engine.now() + rng.uniform_int(1, 400));
          }
          for (std::size_t i = first; i < handles.size(); ++i) {
            if (i % 10 != 0) {
              handles[i].cancel();
              model.remove(handle_event[i]);
            }
          }
          const std::size_t before = engine.pending();
          schedule(engine.now() + 1);
          EXPECT_LT(engine.pending(), before / 2) << "no purge";
        } else if (r < mix.schedule) {
          schedule(pick_tick());
        } else if (r < mix.batch) {
          // schedule_many: a bulk future batch (>= 64, one re-heapify), or
          // a small batch that may land in the now-bucket.
          const bool bulk = rng.uniform_below(3) == 0;
          const auto count =
              bulk ? 64 + rng.uniform_below(40) : 1 + rng.uniform_below(6);
          const util::Tick at =
              bulk ? engine.now() + rng.uniform_int(1, 20) : pick_tick();
          std::vector<Engine::Callback> fns;
          for (std::uint64_t i = 0; i < count; ++i) {
            const int event = next_event++;
            fns.emplace_back(fire(event));
            handle_event.push_back(event);
            model.add(event, at);
          }
          for (auto& h : engine.schedule_many(at, std::move(fns))) {
            handles.push_back(std::move(h));
          }
        } else if (r < mix.rekey && mix.refs && rng.uniform_below(2) == 0) {
          // Re-key a bare ref: a live one moves, a dead (or new, empty)
          // one schedules afresh, exactly as schedule_at would.
          if (refs.empty() || rng.uniform_below(8) == 0) {
            refs.emplace_back();
            ref_event.push_back(-1);
          }
          const auto i = rng.uniform_below(refs.size());
          const util::Tick at = pick_tick();
          const int fresh = next_event++;
          engine.rearm_at(refs[i], at, fire(fresh));
          if (ref_event[i] >= 0 && model.live(ref_event[i])) {
            model.move(ref_event[i], at);
          } else {
            ref_event[i] = fresh;
            model.add(fresh, at);
          }
        } else if (r < mix.rekey && !handles.empty()) {
          // Reschedule any handle: live ones move (later, earlier, to now,
          // or out of the now-bucket); dead ones schedule afresh.
          const auto i = rng.uniform_below(handles.size());
          const int event = handle_event[i];
          util::Tick at = pick_tick();
          if (model.live(event)) {
            const std::uint64_t how = rng.uniform_below(4);
            if (how == 0) at = model.at(event) + rng.uniform_int(1, 30);
            if (how == 1) at = model.at(event) - rng.uniform_int(1, 30);
          }
          const int fresh = next_event++;
          handles[i] = engine.reschedule_at(handles[i], at, fire(fresh));
          if (model.live(event)) {
            model.move(event, at);
          } else {
            handle_event[i] = fresh;
            model.add(fresh, at);
          }
        } else if (r < mix.cancel && mix.refs && !refs.empty() &&
                   rng.uniform_below(2) == 0) {
          const auto i = rng.uniform_below(refs.size());
          engine.cancel(refs[i]);
          if (ref_event[i] >= 0) model.remove(ref_event[i]);
        } else if (r < mix.cancel && !handles.empty()) {
          const auto i = rng.uniform_below(handles.size());
          if (rng.uniform_below(2) == 0) {
            handles[i].cancel();
          } else {
            engine.cancel(handles[i]);
          }
          model.remove(handle_event[i]);
        } else if (r < mix.run_until) {
          const util::Tick deadline = engine.now() + rng.uniform_int(0, 10);
          const std::size_t base = fired.size();
          engine.run_until(deadline);
          std::vector<int> expected;
          while (!model.empty() && model.next_at() <= deadline) {
            expected.push_back(model.pop());
          }
          model.advance_to(deadline);
          ASSERT_EQ(std::vector<int>(fired.begin() +
                                         static_cast<std::ptrdiff_t>(base),
                                     fired.end()),
                    expected);
          ASSERT_EQ(engine.now(), model.now());
        } else {
          step_both();
        }
        if (!handles.empty()) {
          // Liveness agrees three ways; fired, cancelled and purged
          // handles are inert.
          const auto i = rng.uniform_below(handles.size());
          const bool live = model.live(handle_event[i]);
          ASSERT_EQ(handles[i].pending(), live);
          ASSERT_EQ(engine.is_pending(handles[i]), live);
        }
        if (!refs.empty()) {
          const auto i = rng.uniform_below(refs.size());
          ASSERT_EQ(engine.is_pending(refs[i]),
                    ref_event[i] >= 0 && model.live(ref_event[i]));
        }
      }
      while (!model.empty()) step_both();
      EXPECT_FALSE(engine.step());
      EXPECT_EQ(engine.executed(), fired.size());
      for (const auto& h : handles) {
        EXPECT_FALSE(h.pending());
        EXPECT_FALSE(engine.is_pending(h));
      }
      for (const Engine::EventRef ref : refs) {
        EXPECT_FALSE(engine.is_pending(ref));
      }
      // Leave live events behind for the destruction check below.
      for (int i = 0; i < 100; ++i) schedule(engine.now() + 1 + i % 7);
    }
    // The engine is gone: every handle is inert and cancel is harmless.
    for (const auto& h : handles) {
      EXPECT_FALSE(h.pending());
      h.cancel();
    }
  }
}

TEST(EngineProperty, InPlaceMovesLeaveNoTombstones) {
  // A heap event moved any number of times stays one queue entry; only
  // moves of now-bucket events leave a superseded entry behind.
  Engine engine;
  auto h = engine.schedule_at(100, [] {});
  for (int i = 0; i < 1000; ++i) {
    h = engine.reschedule_at(h, 100 + (i * 37) % 500, [] {});
  }
  EXPECT_EQ(engine.pending(), 1u);
  engine.cancel(h);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.executed(), 0u);

  // Now-bucket moves do leave tombstones, and those count toward the
  // purge trigger like cancellations.
  int fired = 0;
  auto b = engine.schedule_at(engine.now(), [&] { ++fired; });
  for (int i = 0; i < 20'000; ++i) {
    b = engine.reschedule_at(b, engine.now(), [] {});
  }
  EXPECT_LT(engine.pending(), 10'000u);
  engine.run();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace hepvine::sim
