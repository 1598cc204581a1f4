// Fixture: VL008 — stored EventRef re-armed or read past the engine's
// generation check.
#include <vector>

struct Timers {
  sim::Engine::EventRef completion_;            // tracked scalar ref
  std::vector<sim::Engine::EventRef> retries_;  // tracked ref container
};

void observe(sim::Engine::EventRef ref);
void use(sim::Engine::EventRef ref);
void tick();

void misuse(Timers& tm, sim::Engine& eng, std::size_t i) {
  observe(tm.completion_);  // plain use: the ref is live
  // flagged: re-arm after a plain use — the superseded event still fires
  tm.completion_ = eng.schedule_at(10, tick);
  // flagged: .slot may name a slot recycled to another event
  const auto slot = tm.completion_.slot;
  use(tm.retries_[i]);  // plain use of a container entry
  // flagged: container slot re-armed after a plain use
  tm.retries_[i] = eng.schedule_after(5, tick);
}
