// FaultSchedule: a deterministic, scriptable description of the failures a
// run must survive — the adversarial counterpart of ClusterSpec.
//
// The paper's results hinge on recovery: ~1% of opportunistic workers are
// preempted per run, transfers break, caches are lost, and the shared
// filesystem has bad days. The batch system already models *stochastic*
// preemption; this module makes failure a first-class input so tests and
// benches can place a specific fault at a specific simulated tick (or draw
// faults from seeded generators) and assert exact recovery behaviour.
//
// A schedule is data only — no engine or cluster dependencies — so it can
// ride inside exec::RunOptions without dependency cycles. FaultInjector
// (fault_injector.h) turns it into scheduled events against a live run.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace hepvine::fault {

using util::Tick;

enum class FaultKind : std::uint8_t {
  kWorkerCrash,   // kill a worker outright (distinct from batch preemption)
  kCacheLoss,     // drop one cached file from a worker (or all holders)
  kTransferKill,  // kill up to `count` registered in-flight transfers
  kFsDegrade,     // scale shared-FS bandwidth to `factor` for `duration`
  kStraggler,     // slow a worker's compute by `factor` for `duration`
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scheduled fault. Which fields matter depends on `kind`; builder
/// helpers on FaultSchedule fill them consistently.
struct FaultEvent {
  Tick at = 0;
  FaultKind kind = FaultKind::kWorkerCrash;
  std::int32_t worker = -1;  // crash/straggler target; kCacheLoss: -1 = all
                             // holders of `file`
  std::int64_t file = -1;    // kCacheLoss target file
  std::uint32_t count = 1;   // kTransferKill: transfers to kill
  double factor = 1.0;       // kFsDegrade bandwidth fraction (0 = outage);
                             // kStraggler slowdown multiplier (> 1 = slower)
  Tick duration = 0;         // kFsDegrade / kStraggler window length
};

/// Seeded stochastic generators, expanded deterministically at run time
/// from the schedule seed (never from wall clock).
struct StochasticFaults {
  /// Probability that each registered transfer is armed to die mid-stream,
  /// at a uniformly drawn byte offset.
  double transfer_kill_prob = 0.0;
  /// Per-worker crash rate (events/hour, Poisson) on top of — and distinct
  /// from — the batch system's preemption rate.
  double worker_crash_rate_per_hour = 0.0;

  [[nodiscard]] bool empty() const {
    return transfer_kill_prob <= 0.0 && worker_crash_rate_per_hour <= 0.0;
  }
};

/// How a scheduler recovers from injected transfer kills and repeated
/// lineage loss. Always consulted (defaults apply even with no faults), so
/// organic failure loops hit the same poisoned-task detector.
struct RetryPolicy {
  /// Kill budget for one logical transfer: the Nth kill (N = this value)
  /// exhausts it, so N-1 backoff re-fetches are attempted before the
  /// consumer gives up (TRANSFER_GIVEUP in the txn log) and the normal
  /// lost-input path (attempt abort + lineage reset) takes over. 0 means
  /// give up on the first kill with no re-fetch.
  std::uint32_t max_transfer_retries = 6;
  /// Capped exponential backoff before each re-fetch.
  Tick backoff_base = 100 * util::kMsec;
  double backoff_multiplier = 2.0;
  Tick backoff_cap = 5 * util::kSec;
  /// Lineage resets of a single task before the run fails with a precise
  /// "poisoned task" reason instead of looping forever.
  std::uint32_t poisoned_reset_threshold = 64;

  /// Backoff before retry number `retry` (1-based): base * mult^(retry-1),
  /// capped.
  [[nodiscard]] Tick backoff(std::uint32_t retry) const;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;
  StochasticFaults stochastic;
  /// Seed for the stochastic generators, mixed with a "fault" component tag
  /// so enabling faults never perturbs any other component's randomness.
  std::uint64_t seed = 7;

  [[nodiscard]] bool empty() const {
    return events.empty() && stochastic.empty();
  }

  // --- builder helpers (chainable) ---------------------------------------
  FaultSchedule& crash_worker(Tick at, std::int32_t worker);
  FaultSchedule& lose_cached_file(Tick at, std::int32_t worker,
                                  std::int64_t file);
  FaultSchedule& kill_transfers(Tick at, std::uint32_t count = 1);
  FaultSchedule& fs_brownout(Tick at, Tick duration, double fraction);
  FaultSchedule& fs_outage(Tick at, Tick duration);
  FaultSchedule& straggler(Tick at, std::int32_t worker, double slowdown,
                           Tick duration);
};

/// What the injector actually did, copied into RunReport at the end of the
/// run. "Landed" means the fault had a live target (a crash of an already
/// dead worker, or a cache loss of an absent file, does not count).
struct InjectionStats {
  std::uint64_t faults_injected = 0;  // events that landed, total
  std::uint64_t worker_crashes = 0;
  std::uint64_t cache_losses = 0;     // replicas dropped
  /// Cache-loss events that found nothing to destroy: every replica of the
  /// target file was already evicted or garbage-collected by the
  /// scheduler's own disk lifecycle. Not counted as injected faults —
  /// evicting a file is a scheduler decision, losing one is a fault.
  std::uint64_t cache_loss_noops = 0;
  std::uint64_t transfers_killed = 0;
  std::uint64_t fs_degradations = 0;
  std::uint64_t stragglers = 0;
  // Recovery-time breakdown:
  std::uint64_t transfer_retries = 0;  // backoff re-fetches taken
  /// Transfers whose kill budget was exhausted: the consumer stopped
  /// re-fetching and fell through to the lost-input path.
  std::uint64_t transfer_giveups = 0;
  Tick backoff_wait = 0;               // total delay injected by backoff
  Tick fs_degraded_time = 0;           // cumulative degraded-window span
};

}  // namespace hepvine::fault
