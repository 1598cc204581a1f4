// Fixture: VL008 is quiet on engine-checked and hand-off patterns.
#include <vector>

struct Timers {
  sim::Engine::EventRef completion_;
  std::vector<sim::Engine::EventRef> retries_;
};

void tick();

void safe(Timers& tm, sim::Engine& eng, std::size_t i) {
  // First arm in this file: nothing to supersede.
  tm.completion_ = eng.schedule_at(10, tick);
  // engine.cancel() checks the generation, so the re-arm after it is safe.
  eng.cancel(tm.completion_);
  tm.completion_ = eng.schedule_at(20, tick);
  // is_pending() is the other generation-checked question.
  if (!eng.is_pending(tm.completion_)) {
    tm.completion_ = eng.schedule_at(25, tick);
  }
  // rearm_at re-keys the live event in place: the hand-off keeps one event.
  eng.rearm_at(tm.completion_, 30, tick);
  // A re-arm right after the hand-off is sanctioned by it.
  tm.completion_ = eng.schedule_at(40, tick);
  // Container first-arm is fine too, and so is a re-arm after a cancel.
  tm.retries_[i] = eng.schedule_after(5, tick);
  eng.cancel(tm.retries_[i]);
  tm.retries_[i] = eng.schedule_after(6, tick);
}
