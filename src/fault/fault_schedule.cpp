#include "fault/fault_schedule.h"

#include <algorithm>
#include <cmath>

namespace hepvine::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kWorkerCrash:
      return "WORKER_CRASH";
    case FaultKind::kCacheLoss:
      return "CACHE_LOSS";
    case FaultKind::kTransferKill:
      return "TRANSFER_KILL";
    case FaultKind::kFsDegrade:
      return "FS_DEGRADE";
    case FaultKind::kStraggler:
      return "STRAGGLER";
  }
  return "UNKNOWN";
}

Tick RetryPolicy::backoff(std::uint32_t retry) const {
  if (retry <= 1) return std::min(backoff_base, backoff_cap);
  // Work in doubles so deep retry counts can't overflow Tick arithmetic.
  const double raw = static_cast<double>(backoff_base) *
                     std::pow(backoff_multiplier, retry - 1);
  const double capped = std::min(raw, static_cast<double>(backoff_cap));
  return static_cast<Tick>(capped);
}

FaultSchedule& FaultSchedule::crash_worker(Tick at, std::int32_t worker) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kWorkerCrash;
  ev.worker = worker;
  events.push_back(ev);
  return *this;
}

FaultSchedule& FaultSchedule::lose_cached_file(Tick at, std::int32_t worker,
                                               std::int64_t file) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kCacheLoss;
  ev.worker = worker;
  ev.file = file;
  events.push_back(ev);
  return *this;
}

FaultSchedule& FaultSchedule::kill_transfers(Tick at, std::uint32_t count) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kTransferKill;
  ev.count = count;
  events.push_back(ev);
  return *this;
}

FaultSchedule& FaultSchedule::fs_brownout(Tick at, Tick duration,
                                          double fraction) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kFsDegrade;
  ev.factor = fraction;
  ev.duration = duration;
  events.push_back(ev);
  return *this;
}

FaultSchedule& FaultSchedule::fs_outage(Tick at, Tick duration) {
  return fs_brownout(at, duration, 0.0);
}

FaultSchedule& FaultSchedule::straggler(Tick at, std::int32_t worker,
                                        double slowdown, Tick duration) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kStraggler;
  ev.worker = worker;
  ev.factor = slowdown;
  ev.duration = duration;
  events.push_back(ev);
  return *this;
}

}  // namespace hepvine::fault
