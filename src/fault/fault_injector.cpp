#include "fault/fault_injector.h"

#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

namespace hepvine::fault {

FaultInjector::FaultInjector(cluster::Cluster& cluster,
                             const FaultSchedule& schedule,
                             const RetryPolicy& retry,
                             obs::RunObservation* observation)
    : cluster_(cluster),
      schedule_(schedule),
      retry_(retry),
      obs_(observation),
      rng_(schedule.seed, "fault") {}

void FaultInjector::txn(const char* kind, const std::string& detail) {
  const std::uint64_t seq = seq_++;
  if (obs_ != nullptr && obs_->txn_enabled()) {
    obs_->txn().fault_injected(cluster_.engine().now(), seq, kind, detail);
  }
}

void FaultInjector::arm(Hooks hooks) {
  hooks_ = std::move(hooks);
  cluster_.network().set_fail_listener(
      [this](net::FlowId id) { on_flow_failed(id); });
  auto& engine = cluster_.engine();
  for (const FaultEvent& ev : schedule_.events) {
    engine.schedule_at(ev.at, [this, ev] { fire(ev); });
  }
  if (schedule_.stochastic.worker_crash_rate_per_hour > 0) {
    const auto n = static_cast<std::int32_t>(cluster_.worker_count());
    for (std::int32_t w = 0; w < n; ++w) arm_crash_generator(w);
  }
}

void FaultInjector::fire(const FaultEvent& ev) {
  if (stopped_) return;
  char buf[160];
  switch (ev.kind) {
    case FaultKind::kWorkerCrash: {
      if (hooks_.crash_worker && hooks_.crash_worker(ev.worker)) {
        stats_.worker_crashes += 1;
        stats_.faults_injected += 1;
        std::snprintf(buf, sizeof(buf), "worker=%d", ev.worker);
        txn(to_string(ev.kind), buf);
      }
      break;
    }
    case FaultKind::kCacheLoss: {
      const std::size_t lost =
          hooks_.lose_cached_file
              ? hooks_.lose_cached_file(ev.worker, ev.file)
              : 0;
      if (lost > 0) {
        stats_.cache_losses += lost;
        stats_.faults_injected += 1;
        std::snprintf(buf, sizeof(buf),
                      "worker=%d file=%" PRId64 " replicas=%zu", ev.worker,
                      ev.file, lost);
        txn(to_string(ev.kind), buf);
      } else if (hooks_.lose_cached_file) {
        // The scheduler's own lifecycle (GC/eviction) beat the fault to
        // every replica; record the blank so schedules stay auditable.
        stats_.cache_loss_noops += 1;
      }
      break;
    }
    case FaultKind::kTransferKill:
      kill_registered_transfers(ev.count);
      break;
    case FaultKind::kFsDegrade:
      begin_fs_window(ev.factor, ev.duration);
      break;
    case FaultKind::kStraggler:
      begin_straggle_window(ev.worker, ev.factor, ev.duration);
      break;
  }
}

void FaultInjector::kill_registered_transfers(std::uint32_t count) {
  // Snapshot the victims first: fail_flow re-enters on_flow_failed, which
  // erases from killable_ while we would be iterating it.
  std::vector<net::FlowId> victims;
  victims.reserve(count);
  for (const auto& [id, cb] : killable_) {
    if (victims.size() >= count) break;
    // Skip ids whose flow already finished or was cancelled: killing a
    // dead flow is a no-op in the network, and the fault must land on a
    // live transfer to count.
    if (cluster_.network().flow_active(id)) victims.push_back(id);
  }
  for (net::FlowId id : victims) cluster_.network().fail_flow(id);
}

void FaultInjector::on_flow_failed(net::FlowId id) {
  auto it = killable_.find(id);
  if (it == killable_.end()) return;
  auto on_killed = std::move(it->second);
  killable_.erase(it);
  stats_.transfers_killed += 1;
  stats_.faults_injected += 1;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "flow=%" PRId64, id);
  txn("TRANSFER_KILL", buf);
  if (on_killed) on_killed();
}

void FaultInjector::begin_fs_window(double factor, Tick duration) {
  cluster_.fs().set_bandwidth_scale(factor);
  stats_.fs_degradations += 1;
  stats_.faults_injected += 1;
  stats_.fs_degraded_time += duration;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "factor=%g duration_us=%" PRId64, factor,
                duration);
  txn("FS_DEGRADE", buf);
  cluster_.engine().schedule_after(duration, [this] {
    cluster_.fs().set_bandwidth_scale(1.0);
    txn("FS_RESTORE", "factor=1");
  });
}

void FaultInjector::begin_straggle_window(std::int32_t worker, double factor,
                                          Tick duration) {
  auto& node = cluster_.worker(worker);
  node.speed_scale = factor > 0 ? 1.0 / factor : 1.0;
  stats_.stragglers += 1;
  stats_.faults_injected += 1;
  char buf[112];
  std::snprintf(buf, sizeof(buf),
                "worker=%d slowdown=%g duration_us=%" PRId64, worker, factor,
                duration);
  txn("STRAGGLER", buf);
  cluster_.engine().schedule_after(duration, [this, worker] {
    cluster_.worker(worker).speed_scale = 1.0;
    char end[48];
    std::snprintf(end, sizeof(end), "worker=%d", worker);
    txn("STRAGGLER_END", end);
  });
}

void FaultInjector::arm_crash_generator(std::int32_t worker) {
  const double rate = schedule_.stochastic.worker_crash_rate_per_hour;
  const Tick wait = util::seconds(rng_.exponential(3600.0 / rate));
  cluster_.engine().schedule_after(wait, [this, worker] {
    if (stopped_) return;
    if (hooks_.crash_worker && hooks_.crash_worker(worker)) {
      stats_.worker_crashes += 1;
      stats_.faults_injected += 1;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "worker=%d", worker);
      txn("WORKER_CRASH", buf);
    }
    arm_crash_generator(worker);
  });
}

void FaultInjector::offer_transfer(net::FlowId id, std::uint64_t bytes,
                                   std::function<void()> on_killed) {
  if (stopped_) return;
  killable_[id] = std::move(on_killed);
  const double p = schedule_.stochastic.transfer_kill_prob;
  if (p > 0 && rng_.bernoulli(p) && bytes > 0) {
    const std::uint64_t offset = 1 + rng_.uniform_below(bytes);
    cluster_.network().arm_flow_fault(id, offset);
  }
}

void FaultInjector::forget_transfer(net::FlowId id) { killable_.erase(id); }

Tick FaultInjector::backoff_delay(std::uint32_t attempt) {
  const Tick delay = retry_.backoff(attempt);
  stats_.transfer_retries += 1;
  stats_.backoff_wait += delay;
  return delay;
}

void FaultInjector::record_giveup(const std::string& detail) {
  stats_.transfer_giveups += 1;
  txn("TRANSFER_GIVEUP", detail);
}

}  // namespace hepvine::fault
