#include "batch/batch_system.h"

#include <utility>

namespace hepvine::batch {

BatchSystem::BatchSystem(sim::Engine& engine, BatchSpec spec,
                         std::uint64_t seed)
    : engine_(engine), spec_(spec), rng_(seed, "batch") {}

void BatchSystem::submit(std::uint32_t count, SlotCallback on_start,
                         SlotCallback on_preempt, std::uint32_t initial) {
  on_start_ = std::move(on_start);
  on_preempt_ = std::move(on_preempt);
  slot_states_.assign(count, SlotState{});
  if (initial > count) initial = count;
  for (std::uint32_t slot = 0; slot < count; ++slot) {
    // Draw the match window for every slot — parked ones included — so the
    // rng stream does not depend on how many slots start now; an elastic
    // run and a fixed-pool run stay comparable draw-for-draw.
    const Tick window =
        spec_.match_window > 0
            ? static_cast<Tick>(rng_.uniform() *
                                static_cast<double>(spec_.match_window))
            : 0;
    if (slot < initial) {
      engine_.schedule_after(spec_.first_match_delay + window,
                             [this, slot] { start_slot(slot); });
    } else {
      parked_.push_back(slot);
    }
  }
}

std::uint32_t BatchSystem::start_slots(std::uint32_t n) {
  if (draining_) return 0;
  std::uint32_t started = 0;
  while (started < n && !parked_.empty()) {
    const std::uint32_t slot = parked_.front();
    parked_.erase(parked_.begin());
    const Tick window =
        spec_.match_window > 0
            ? static_cast<Tick>(rng_.uniform() *
                                static_cast<double>(spec_.match_window))
            : 0;
    engine_.schedule_after(spec_.first_match_delay + window,
                           [this, slot] { start_slot(slot); });
    ++started;
  }
  return started;
}

bool BatchSystem::release_slot(std::uint32_t slot) {
  if (draining_ || slot >= slot_states_.size()) return false;
  SlotState& state = slot_states_[slot];
  if (!state.running) return false;
  state.preemption_event.cancel();
  state.running = false;
  --active_;
  ++releases_;
  const std::uint32_t ended_incarnation = state.incarnation;
  state.incarnation += 1;
  if (on_preempt_) on_preempt_(slot, ended_incarnation);
  parked_.push_back(slot);
  return true;
}

void BatchSystem::drain() {
  draining_ = true;
  for (auto& state : slot_states_) {
    state.preemption_event.cancel();
  }
}

void BatchSystem::start_slot(std::uint32_t slot) {
  if (draining_) return;
  SlotState& state = slot_states_[slot];
  state.running = true;
  ++active_;
  arm_preemption(slot);
  if (on_start_) on_start_(slot, state.incarnation);
}

void BatchSystem::arm_preemption(std::uint32_t slot) {
  if (spec_.preemption_rate_per_hour <= 0) return;
  const double mean_lifetime_sec = 3600.0 / spec_.preemption_rate_per_hour;
  const Tick lifetime = util::seconds(rng_.exponential(mean_lifetime_sec));
  slot_states_[slot].preemption_event =
      engine_.schedule_after(lifetime, [this, slot] { preempt_slot(slot); });
}

void BatchSystem::register_stats(obs::StatsRegistry& registry,
                                 const std::string& prefix) const {
  registry.gauge(prefix + ".active_workers",
                 [this] { return static_cast<double>(active_); });
  registry.gauge(prefix + ".preemptions",
                 [this] { return static_cast<double>(preemptions_); });
  registry.gauge(prefix + ".slots",
                 [this] { return static_cast<double>(slot_states_.size()); });
}

void BatchSystem::force_preempt(std::uint32_t slot) {
  if (draining_ || slot >= slot_states_.size()) return;
  if (!slot_states_[slot].running) return;
  preempt_slot(slot);
}

void BatchSystem::preempt_slot(std::uint32_t slot) {
  if (draining_) return;
  SlotState& state = slot_states_[slot];
  if (!state.running) return;
  state.preemption_event.cancel();  // forced evictions race the armed timer
  state.running = false;
  --active_;
  ++preemptions_;
  const std::uint32_t ended_incarnation = state.incarnation;
  state.incarnation += 1;
  if (on_preempt_) on_preempt_(slot, ended_incarnation);
  if (spec_.resubmit_on_preempt) {
    const Tick delay = util::seconds(rng_.exponential(
        util::to_seconds(spec_.replacement_delay_mean)));
    engine_.schedule_after(delay, [this, slot] { start_slot(slot); });
  }
}

}  // namespace hepvine::batch
