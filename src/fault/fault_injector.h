// FaultInjector: executes a FaultSchedule against a live run.
//
// Built once per run (only when the schedule is non-empty — an empty
// schedule must cost nothing and leave the transactions log byte-identical,
// matching the observability convention). The injector schedules every
// explicit event on the simulation engine, expands the stochastic
// generators from its own component-tagged Rng, and reaches the run through
// three channels:
//
//  * scheduler hooks — worker crashes and cache loss go through the
//    scheduler so it can run its normal recovery (incarnation bump, replica
//    drop, lineage reset) and attribute the death as a crash rather than a
//    batch preemption;
//  * the transfer registry — schedulers register retryable in-flight
//    transfers (`offer_transfer`); only registered flows are eligible for
//    injected kills, because killing an unregistered fire-and-forget flow
//    (library push, import read) would strand its waiters with no retry
//    path. On a kill the run shell's retry record (exec::RunShell) decides
//    between the capped-exponential-backoff retry and giving up;
//  * direct physics — shared-FS brownouts/outages scale the filesystem's
//    aggregate link, stragglers scale a worker's effective compute speed.
//
// Every fault that lands is recorded in InjectionStats (copied into
// RunReport) and, when observability is on, as a `FAULT` line in the
// transactions log.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "cluster/cluster.h"
#include "fault/fault_schedule.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/rng.h"

namespace hepvine::fault {

class FaultInjector {
 public:
  struct Hooks {
    /// Kill a worker outright. Returns true if the worker was alive and the
    /// crash landed (dead targets don't count as injected faults).
    std::function<bool(std::int32_t worker)> crash_worker;
    /// Drop `file` from `worker`'s cache (worker -1 = every holder).
    /// Returns the number of replicas actually lost.
    std::function<std::size_t(std::int32_t worker, std::int64_t file)>
        lose_cached_file;
  };

  /// `observation` may be null (or disabled); the injector then records
  /// stats only. The schedule is copied; the cluster must outlive the
  /// injector.
  FaultInjector(cluster::Cluster& cluster, const FaultSchedule& schedule,
                const RetryPolicy& retry, obs::RunObservation* observation);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule every event and start the stochastic generators. Call once,
  /// after the hooks' targets exist. Installs the network fail listener.
  void arm(Hooks hooks);

  /// The run finished: later events become no-ops (the engine may still
  /// hold their callbacks, but they check this flag).
  void stop() { stopped_ = true; }

  // --- transfer registry --------------------------------------------------
  /// Declare a retryable in-flight transfer. May arm a stochastic
  /// mid-stream failure on it. `on_killed` runs after the flow has been
  /// removed from the network and must arrange the retry.
  void offer_transfer(net::FlowId id, std::uint64_t bytes,
                      std::function<void()> on_killed);

  /// The transfer ended by normal means — no longer a kill target.
  void forget_transfer(net::FlowId id);

  /// Backoff before retry number `attempt` (1-based); records the retry and
  /// the waited time in the recovery breakdown. Called only by the run
  /// shell's retry record, like record_giveup.
  [[nodiscard]] Tick backoff_delay(std::uint32_t attempt);

  /// A transfer's kill budget (RetryPolicy::max_transfer_retries) is
  /// exhausted: the consumer stops re-fetching and takes the lost-input
  /// path. Emits a `FAULT <seq> TRANSFER_GIVEUP <detail>` txn line so the
  /// budget semantics are auditable from the journal.
  void record_giveup(const std::string& detail);

  [[nodiscard]] const InjectionStats& stats() const noexcept {
    return stats_;
  }

 private:
  void fire(const FaultEvent& ev);
  void kill_registered_transfers(std::uint32_t count);
  void begin_fs_window(double factor, Tick duration);
  void begin_straggle_window(std::int32_t worker, double factor,
                             Tick duration);
  void arm_crash_generator(std::int32_t worker);
  void on_flow_failed(net::FlowId id);
  void txn(const char* kind, const std::string& detail);

  cluster::Cluster& cluster_;
  FaultSchedule schedule_;
  RetryPolicy retry_;
  obs::RunObservation* obs_;
  sim::Rng rng_;
  Hooks hooks_;
  // Ordered by FlowId so timed kills pick victims deterministically.
  std::map<net::FlowId, std::function<void()>> killable_;
  InjectionStats stats_;
  std::uint64_t seq_ = 0;  // txn-line sequence number
  bool stopped_ = false;
};

}  // namespace hepvine::fault
