// Elastic worker-pool autoscaler, modeled on CCTools' `vine_factory`.
//
// The real factory is a sidecar process that polls the manager's queue
// status and submits or removes batch workers to keep the pool sized to
// demand between --min-workers and --max-workers. Here it is an engine
// component: a recurring evaluation event reads the scheduler's queue
// depth through hooks, computes the demand target, and asks the scheduler
// to start parked batch slots (grow) or release idle connected workers
// (shrink). All decisions are deterministic functions of simulated state,
// so factory-driven elasticity replays bit-identically like everything
// else.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/engine.h"
#include "util/units.h"

namespace hepvine::ha {

using util::Tick;

/// The factory's knobs (RunOptions::factory). Disabled (max_workers == 0)
/// the run starts every provisioned worker up front.
struct FactorySpec {
  std::uint32_t min_workers = 1;
  /// 0 disables the factory entirely.
  std::uint32_t max_workers = 0;
  /// Demand model: one worker per this many queued-or-running tasks.
  std::uint32_t tasks_per_worker = 4;
  /// Cadence of the factory's evaluation loop.
  Tick evaluation_interval = 5 * util::kSec;

  [[nodiscard]] bool enabled() const { return max_workers > 0; }
};

/// What the factory did in one run (RunReport::factory); all zero when it
/// is disabled.
struct FactoryStats {
  std::uint32_t grow_events = 0;
  std::uint32_t shrink_events = 0;
  std::uint32_t workers_started = 0;
  std::uint32_t workers_released = 0;
};

class Factory {
 public:
  struct Hooks {
    /// Tasks queued or in flight — the demand signal.
    std::function<std::size_t()> queue_depth;
    /// Workers currently connected to the manager.
    std::function<std::uint32_t()> connected_workers;
    /// Start up to n parked workers; returns how many were started.
    std::function<std::uint32_t(std::uint32_t n)> grow;
    /// Release up to n idle workers; returns how many were released.
    std::function<std::uint32_t(std::uint32_t n)> shrink;
  };

  Factory(sim::Engine& engine, const FactorySpec& spec, Hooks hooks);

  Factory(const Factory&) = delete;
  Factory& operator=(const Factory&) = delete;

  /// Begin the evaluation loop (first evaluation after one interval).
  void start();
  /// The run ended: pending evaluation events become no-ops.
  void stop() { stopped_ = true; }

  /// Demand target for a queue depth: ceil(depth / tasks_per_worker),
  /// clamped to [min_workers, max_workers]. Exposed for unit tests.
  [[nodiscard]] std::uint32_t target(std::size_t depth) const;

  [[nodiscard]] const FactoryStats& stats() const { return stats_; }

 private:
  void evaluate();

  sim::Engine& engine_;
  FactorySpec spec_;
  Hooks hooks_;
  bool stopped_ = false;
  FactoryStats stats_;
};

}  // namespace hepvine::ha
