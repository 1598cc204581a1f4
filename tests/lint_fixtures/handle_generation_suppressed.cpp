// Fixture: line suppression silences VL008 on the re-arm below it.
struct Timers {
  sim::Engine::EventRef completion_;
};

void observe(sim::Engine::EventRef ref);
void tick();

void misuse(Timers& tm, sim::Engine& eng) {
  observe(tm.completion_);
  // vine-lint: suppress(handle-generation) — teardown path, the old event is drained
  tm.completion_ = eng.schedule_at(10, tick);
  // vine-lint: suppress(handle-generation) — debug probe behind an assert
  const auto slot = tm.completion_.slot;
}
