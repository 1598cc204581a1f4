#include "ha/factory.h"

#include <algorithm>
#include <utility>

namespace hepvine::ha {

Factory::Factory(sim::Engine& engine, const FactorySpec& spec, Hooks hooks)
    : engine_(engine), spec_(spec), hooks_(std::move(hooks)) {}

void Factory::start() {
  engine_.schedule_after(spec_.evaluation_interval, [this] { evaluate(); });
}

std::uint32_t Factory::target(std::size_t depth) const {
  const std::uint32_t per =
      spec_.tasks_per_worker > 0 ? spec_.tasks_per_worker : 1;
  const std::size_t want = (depth + per - 1) / per;
  const auto clamped = static_cast<std::uint32_t>(
      std::min<std::size_t>(want, spec_.max_workers));
  return std::max(clamped, spec_.min_workers);
}

void Factory::evaluate() {
  if (stopped_) return;
  const std::size_t depth = hooks_.queue_depth ? hooks_.queue_depth() : 0;
  const std::uint32_t want = target(depth);
  const std::uint32_t have =
      hooks_.connected_workers ? hooks_.connected_workers() : 0;
  if (want > have && hooks_.grow) {
    const std::uint32_t started = hooks_.grow(want - have);
    if (started > 0) {
      stats_.grow_events += 1;
      stats_.workers_started += started;
    }
  } else if (want < have && hooks_.shrink) {
    const std::uint32_t released = hooks_.shrink(have - want);
    if (released > 0) {
      stats_.shrink_events += 1;
      stats_.workers_released += released;
    }
  }
  engine_.schedule_after(spec_.evaluation_interval, [this] { evaluate(); });
}

}  // namespace hepvine::ha
