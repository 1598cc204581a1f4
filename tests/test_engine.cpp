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
  const auto ref = engine.schedule_at(10, [&] { fired = true; });
  engine.cancel(ref);
  EXPECT_EQ(engine.pending(), 0u);
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.executed(), 0u);
}

TEST(Engine, CancelIsIdempotentAndSafeAfterFire) {
  Engine engine;
  const auto ref = engine.schedule_at(1, [] {});
  engine.run();
  engine.cancel(ref);  // already fired: harmless
  engine.cancel(ref);
  const auto bucket = engine.schedule_at(engine.now(), [] {});
  engine.cancel(bucket);
  engine.cancel(bucket);  // now a bucket tombstone: harmless too
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.executed(), 1u);
}

TEST(Engine, PendingReflectsLifecycle) {
  Engine engine;
  const auto ref = engine.schedule_at(10, [] {});
  EXPECT_TRUE(engine.is_pending(ref));
  EXPECT_FALSE(engine.is_pending(Engine::EventRef{}));
  engine.run();
  EXPECT_FALSE(engine.is_pending(ref));
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

TEST(Engine, RunUntilStopsAtDeadlineBehindBucketTombstones) {
  // A now-bucket event moved to a later tick leaves a tombstone at the
  // bucket's front; discarding it must not carry run_until past the
  // deadline into the moved event.
  Engine engine;
  int fired = 0;
  Engine::EventRef ref;
  engine.rearm_at(ref, 0, [&] { ++fired; });
  engine.rearm_at(ref, 50, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(10), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.now(), 10);
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(engine.run_until(50), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, MassCancellationDoesNotAccumulateTombstones) {
  // The flow network cancels and re-keys completion events constantly; a
  // cancelled future event leaves the queue at once instead of lingering.
  Engine engine;
  std::vector<Engine::EventRef> refs;
  refs.reserve(20'000);
  for (int i = 0; i < 20'000; ++i) {
    refs.push_back(engine.schedule_at(1'000 + i % 977, [] {}));
  }
  EXPECT_EQ(engine.pending(), 20'000u);
  for (const Engine::EventRef ref : refs) engine.cancel(ref);
  EXPECT_EQ(engine.pending(), 0u);
  int fired = 0;
  engine.schedule_at(5, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.executed(), 1u);
}

TEST(Engine, CancelledThenPurgedEventsNeverFire) {
  // Cancelled events whose slots are recycled by later schedules never
  // fire, whether they sat in the heap or in the now-bucket.
  Engine engine;
  bool bad = false;
  std::vector<Engine::EventRef> refs;
  for (int i = 0; i < 10'000; ++i) {
    refs.push_back(engine.schedule_at(i % 2 == 0 ? 0 : 100,
                                      [&] { bad = true; }));
  }
  for (const Engine::EventRef ref : refs) engine.cancel(ref);
  int fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    engine.schedule_at(i % 2 == 0 ? 0 : 50, [&] { ++fired; });
  }
  engine.run();
  EXPECT_FALSE(bad);
  EXPECT_EQ(fired, 10'000);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, ExecutedCountsOnlyFiredEvents) {
  Engine engine;
  engine.schedule_at(1, [] {});
  engine.cancel(engine.schedule_at(2, [] {}));
  engine.run();
  EXPECT_EQ(engine.executed(), 1u);
}

// ---------------------------------------------------------------------
// Keyed entries: an issued seq, queued later under its own key.
// ---------------------------------------------------------------------

TEST(EngineKeyed, DueLaterFiresWhereItsIssuedSeqSorts) {
  Engine engine;
  std::vector<char> order;
  engine.schedule_at(10, [&] { order.push_back('a'); });
  const std::uint64_t seq = engine.issue_seq();
  engine.schedule_at(10, [&] { order.push_back('c'); });
  Engine::EventRef keyed;
  engine.rearm_keyed(keyed, 10, seq, [&] { order.push_back('b'); });
  EXPECT_TRUE(engine.is_pending(keyed));
  EXPECT_EQ(engine.pending(), 3u);
  engine.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
  EXPECT_EQ(engine.executed(), 3u);
}

TEST(EngineKeyed, DueNowAndOlderThanTheBucketGoesToTheHeap) {
  // Heap entries due now pop before the bucket, so a key older than every
  // live bucket entry fires first.
  Engine engine;
  std::vector<char> order;
  engine.schedule_at(5, [&] {
    const std::uint64_t seq = engine.issue_seq();
    engine.schedule_after(0, [&] { order.push_back('b'); });
    static Engine::EventRef keyed;
    engine.rearm_keyed(keyed, engine.now(), seq,
                       [&] { order.push_back('a'); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
}

TEST(EngineKeyed, DueNowAndNewerThanTheBucketGoesToItsBack) {
  Engine engine;
  std::vector<char> order;
  Engine::EventRef keyed;
  engine.schedule_at(5, [&] {
    engine.schedule_after(0, [&] { order.push_back('a'); });
    const std::uint64_t seq = engine.issue_seq();
    engine.rearm_keyed(keyed, engine.now(), seq,
                       [&] { order.push_back('b'); });
    engine.schedule_after(0, [&] { order.push_back('c'); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(EngineKeyed, DueNowBetweenBucketEntriesTakesItsSeqPlace) {
  // The flow network reaches this when a key due now is re-armed after the
  // sibling key it was queued under is dropped: same-tick events older
  // than the key and newer than it are both still queued.
  Engine engine;
  std::vector<char> order;
  Engine::EventRef keyed;
  engine.schedule_at(5, [&] {
    engine.schedule_after(0, [&] { order.push_back('a'); });
    const std::uint64_t first = engine.issue_seq();
    const std::uint64_t second = engine.issue_seq();
    engine.rearm_keyed(keyed, engine.now(), first, [&] {
      order.push_back('x');  // dropped below: must never fire
    });
    engine.schedule_after(0, [&] { order.push_back('c'); });
    // `first` is dropped; the entry moves to `second`, which sorts after
    // 'a' and before 'c'.
    engine.rearm_keyed(keyed, engine.now(), second, [] {});
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'x', 'c'}));
  EXPECT_EQ(engine.executed(), 4u);
}

TEST(EngineKeyed, RekeyOutOfTheBucketLeavesATombstone) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(0, [] {});
  Engine::EventRef keyed;
  // Back of the bucket, behind the plain event.
  engine.rearm_keyed(keyed, 0, engine.issue_seq(), [&] { ++fired; });
  EXPECT_EQ(engine.pending(), 2u);
  engine.rearm_keyed(keyed, 7, engine.issue_seq(), [] {});
  EXPECT_EQ(engine.pending(), 3u) << "the bucket entry stays as a tombstone";
  EXPECT_EQ(engine.run_until(0), 1u);  // the plain event only
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.pending(), 1u) << "tombstones do not outlive the tick";
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 7);
  EXPECT_EQ(engine.executed(), 2u);
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
    add_keyed(id, std::max(at, now_), issue());
  }
  /// A key whose seq was issued earlier; consumes none.
  void add_keyed(int id, util::Tick at, std::uint64_t seq) {
    queue_.emplace(at, seq, id);
    live_[id] = {at, seq};
  }
  std::uint64_t issue() { return next_seq_++; }
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
  [[nodiscard]] std::size_t size() const { return queue_.size(); }
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
  std::uint64_t rekey;
  std::uint64_t cancel;
  std::uint64_t run_until;
  /// Re-keys and schedules land within this many ticks of now() (plus
  /// the mix's far ticks), so small values make same-tick ties common.
  std::int64_t near;
};

/// The default mix, and one of mostly re-keys over a handful of ticks:
/// the flow network's load, which re-keys a hundred completions per
/// recompute, many onto the same tick.
constexpr OpMix kMixes[] = {{26, 50, 60, 63, 8}, {10, 62, 70, 72, 2}};

TEST(EngineProperty, RandomSequencesFireInNaiveModelOrder) {
  for (std::uint64_t run = 0; run < 16; ++run) {
    const std::uint64_t seed = 1 + run % 8;
    const OpMix& mix = kMixes[run / 8];
    SCOPED_TRACE(seed);
    SCOPED_TRACE(run / 8);
    Rng rng(seed);
    NaiveQueue model;
    Engine engine;
    std::vector<int> fired;
    std::vector<Engine::EventRef> refs;
    std::vector<int> ref_event;  // the event each ref last named, or -1
    int next_event = 0;
    auto fire = [&fired](int event) {
      return [&fired, event] { fired.push_back(event); };
    };
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
      refs.push_back(engine.schedule_at(at, fire(event)));
      ref_event.push_back(event);
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
        // Mass cancellation of future events: each one leaves the heap at
        // once, so pending() falls by exactly the number cancelled.
        const std::size_t first = refs.size();
        for (int i = 0; i < 6000; ++i) {
          schedule(i % 50 == 0 ? engine.now()
                               : engine.now() + rng.uniform_int(1, 400));
        }
        const std::size_t before = engine.pending();
        std::size_t cancelled = 0;
        for (std::size_t i = first; i < refs.size(); ++i) {
          if ((i - first) % 10 != 0) {
            engine.cancel(refs[i]);
            model.remove(ref_event[i]);
            ++cancelled;
          }
        }
        ASSERT_EQ(engine.pending(), before - cancelled) << "heap tombstone";
      } else if (r < mix.schedule) {
        schedule(pick_tick());
      } else if (r < mix.rekey) {
        // Re-key a ref: a live one moves (later, earlier, to now, or out
        // of the now-bucket); a dead (or new, empty) one schedules afresh,
        // exactly as schedule_at would.
        if (refs.empty() || rng.uniform_below(8) == 0) {
          refs.emplace_back();
          ref_event.push_back(-1);
        }
        const auto i = rng.uniform_below(refs.size());
        const int event = ref_event[i];
        const bool live = event >= 0 && model.live(event);
        util::Tick at = pick_tick();
        if (live) {
          const std::uint64_t how = rng.uniform_below(4);
          if (how == 0) at = model.at(event) + rng.uniform_int(1, 30);
          if (how == 1) at = model.at(event) - rng.uniform_int(1, 30);
        }
        const int fresh = next_event++;
        engine.rearm_at(refs[i], at, fire(fresh));
        if (live) {
          model.move(event, at);
        } else {
          ref_event[i] = fresh;
          model.add(fresh, at);
        }
      } else if (r < mix.cancel && !refs.empty()) {
        // Heap entries leave in place; bucket entries become tombstones.
        const auto i = rng.uniform_below(refs.size());
        engine.cancel(refs[i]);
        if (ref_event[i] >= 0) model.remove(ref_event[i]);
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
        // The bucket has drained, so no tombstone is left to count.
        ASSERT_EQ(engine.pending(), model.size());
      } else {
        step_both();
      }
      if (!refs.empty()) {
        // Fired and cancelled refs are inert, also once their slot has
        // been recycled to a newer event.
        const auto i = rng.uniform_below(refs.size());
        ASSERT_EQ(engine.is_pending(refs[i]),
                  ref_event[i] >= 0 && model.live(ref_event[i]));
      }
    }
    while (!model.empty()) step_both();
    EXPECT_FALSE(engine.step());
    EXPECT_EQ(engine.pending(), 0u);
    EXPECT_EQ(engine.executed(), fired.size());
    for (const Engine::EventRef ref : refs) {
      EXPECT_FALSE(engine.is_pending(ref));
    }
  }
}

TEST(EngineProperty, InPlaceMovesLeaveNoTombstones) {
  // A heap event moved any number of times stays one queue entry; only
  // moves of now-bucket events leave a superseded entry behind.
  Engine engine;
  Engine::EventRef ref = engine.schedule_at(100, [] {});
  for (int i = 0; i < 1000; ++i) {
    engine.rearm_at(ref, 100 + (i * 37) % 500, [] {});
  }
  EXPECT_EQ(engine.pending(), 1u);
  engine.cancel(ref);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.executed(), 0u);

  // Now-bucket moves do leave tombstones, and the bucket discards them as
  // it drains: none outlives the tick.
  int fired = 0;
  Engine::EventRef bucket = engine.schedule_at(engine.now(), [&] { ++fired; });
  for (int i = 0; i < 20'000; ++i) {
    engine.rearm_at(bucket, engine.now(), [] {});
  }
  EXPECT_EQ(engine.pending(), 20'001u);
  EXPECT_EQ(engine.run_until(engine.now()), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EngineProperty, KeyedOwnerFiresEveryKeyInModelOrder) {
  // An owner in the flow network's pattern: it keeps many keys, issues
  // fresh seqs for a batch of them at a time (some due now), drops some
  // without taking a seq, and queues one engine entry under its minimum.
  // Plain events are scheduled, moved and cancelled around it.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    NaiveQueue model;
    Engine engine;
    std::vector<int> fired;
    std::set<std::tuple<util::Tick, std::uint64_t, int>> keys;  // the owner's
    Engine::EventRef entry;
    int next_event = 0;
    auto sync = [&](auto& self) -> void {
      if (keys.empty()) {
        engine.cancel(entry);
        return;
      }
      const auto [at, seq, id] = *keys.begin();
      engine.rearm_keyed(entry, at, seq, [&fired, &keys, &self] {
        fired.push_back(std::get<2>(*keys.begin()));
        keys.erase(keys.begin());
        self(self);
      });
    };
    std::vector<Engine::EventRef> refs;
    std::vector<int> ref_event;
    auto near = [&]() -> util::Tick {
      return rng.uniform_below(3) == 0
                 ? engine.now()
                 : engine.now() + rng.uniform_int(1, 6);
    };
    auto step_both = [&] {
      const bool stepped = engine.step();
      ASSERT_EQ(stepped, !model.empty());
      if (!stepped) return;
      ASSERT_EQ(fired.back(), model.pop());
      ASSERT_EQ(engine.now(), model.now());
    };
    for (int op = 0; op < 4000 && !HasFatalFailure(); ++op) {
      const std::uint64_t r = rng.uniform_below(100);
      if (r < 20) {
        const int event = next_event++;
        const util::Tick at = near();
        refs.push_back(engine.schedule_at(
            at, [&fired, event] { fired.push_back(event); }));
        ref_event.push_back(event);
        model.add(event, at);
      } else if (r < 35 && !refs.empty()) {
        const auto i = rng.uniform_below(refs.size());
        if (model.live(ref_event[i])) {
          const util::Tick at = near();
          engine.rearm_at(refs[i], at, [] {});
          model.move(ref_event[i], at);
        }
      } else if (r < 40 && !refs.empty()) {
        const auto i = rng.uniform_below(refs.size());
        engine.cancel(refs[i]);
        model.remove(ref_event[i]);
      } else if (r < 60) {
        // A re-rate: re-key up to three of the owner's keys and add one,
        // each under a fresh seq, then one entry move.
        for (std::uint64_t k = rng.uniform_below(4); k > 0 && !keys.empty();
             --k) {
          auto it = keys.begin();
          std::advance(it, static_cast<std::ptrdiff_t>(
                               rng.uniform_below(keys.size())));
          const int id = std::get<2>(*it);
          keys.erase(it);
          model.remove(id);
          const util::Tick at = near();
          const std::uint64_t seq = engine.issue_seq();
          ASSERT_EQ(seq, model.issue());
          keys.emplace(at, seq, id);
          model.add_keyed(id, at, seq);
        }
        const int id = next_event++;
        const util::Tick at = near();
        const std::uint64_t seq = engine.issue_seq();
        ASSERT_EQ(seq, model.issue());
        keys.emplace(at, seq, id);
        model.add_keyed(id, at, seq);
        sync(sync);
      } else if (r < 70 && !keys.empty()) {
        // Drop a key, the minimum more often than not; no seq is taken.
        auto it = keys.begin();
        if (rng.uniform_below(2) == 0) {
          std::advance(it, static_cast<std::ptrdiff_t>(
                               rng.uniform_below(keys.size())));
        }
        model.remove(std::get<2>(*it));
        keys.erase(it);
        sync(sync);
      } else if (r < 75) {
        const util::Tick deadline = engine.now() + rng.uniform_int(0, 3);
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
      } else {
        step_both();
      }
    }
    while (!model.empty() && !HasFatalFailure()) step_both();
    EXPECT_FALSE(engine.step());
    EXPECT_TRUE(keys.empty());
    EXPECT_EQ(engine.executed(), fired.size());
  }
}

}  // namespace
}  // namespace hepvine::sim
