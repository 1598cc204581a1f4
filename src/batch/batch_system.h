// Opportunistic batch system (HTCondor-like).
//
// Worker jobs submitted to the campus cluster in the paper (a) do not all
// start at once — they trickle in as the negotiator matches them — and
// (b) run on opportunistic slots that can be preempted at any time ("up to
// 1% of workers in each run", Section IV). Preemptions surface to the
// scheduler as worker failures; optionally a replacement job is matched
// after a delay, producing a new incarnation of the same slot.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/stats_registry.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "util/units.h"

namespace hepvine::batch {

using util::Tick;

struct BatchSpec {
  /// Worker jobs begin matching after this delay...
  Tick first_match_delay = 2 * util::kSec;
  /// ...and the full request is matched within this additional window
  /// (arrivals are spread uniformly across it).
  Tick match_window = 30 * util::kSec;
  /// Per-worker preemption rate (events per hour of wall time). The paper's
  /// "up to 1% per run" with ~1 h runs corresponds to ~0.01/h.
  double preemption_rate_per_hour = 0.01;
  /// Whether a preempted job is resubmitted and eventually re-matched.
  bool resubmit_on_preempt = true;
  /// Mean delay before a resubmitted job is matched again.
  Tick replacement_delay_mean = 60 * util::kSec;
};

class BatchSystem {
 public:
  /// `on_start(slot, incarnation)` fires when a worker job begins executing;
  /// `on_preempt(slot, incarnation)` fires when it is evicted.
  using SlotCallback = std::function<void(std::uint32_t slot,
                                          std::uint32_t incarnation)>;

  BatchSystem(sim::Engine& engine, BatchSpec spec, std::uint64_t seed);

  /// Submit `count` worker jobs. May be called once per run. When
  /// `initial` < count, only the first `initial` slots begin matching;
  /// the rest are parked for an elastic factory to start later
  /// (`start_slots`). The per-slot match-window draw happens for every
  /// slot regardless, so the rng stream — and every downstream component —
  /// is independent of the initial pool size.
  void submit(std::uint32_t count, SlotCallback on_start,
              SlotCallback on_preempt,
              std::uint32_t initial = 0xffffffffU);

  /// Start up to `n` parked slots (factory grow). Each draws a fresh match
  /// window. Returns how many actually started matching.
  std::uint32_t start_slots(std::uint32_t n);

  /// Voluntarily release a running slot (factory shrink). Cancels its
  /// preemption timer, fires `on_preempt` so the scheduler runs its normal
  /// disconnect path, and parks the slot for a later `start_slots` —
  /// counted in `releases()`, not `preemptions()`, and never resubmitted
  /// on its own. Returns false if the slot was not running.
  bool release_slot(std::uint32_t slot);

  /// Stop scheduling further preemptions/replacements (workflow finished).
  void drain();

  /// Evict a running slot immediately (the node's scratch disk overflowed,
  /// or a fault schedule crashed the worker). Follows the normal preemption
  /// path, including resubmission if configured, but is counted separately
  /// so crash-kills stay distinguishable from stochastic preemption.
  void force_preempt(std::uint32_t slot);

  [[nodiscard]] std::uint32_t slots() const {
    return static_cast<std::uint32_t>(slot_states_.size());
  }
  [[nodiscard]] std::uint32_t preemptions() const { return preemptions_; }
  [[nodiscard]] std::uint32_t active_workers() const { return active_; }
  /// Slots voluntarily released by the factory (not preemptions).
  [[nodiscard]] std::uint32_t releases() const { return releases_; }
  /// Slots currently parked and available to `start_slots`.
  [[nodiscard]] std::uint32_t parked() const {
    return static_cast<std::uint32_t>(parked_.size());
  }

  /// Register gauges (`<prefix>.active_workers`, `<prefix>.preemptions`,
  /// `<prefix>.slots`) into a per-run stats registry. The gauges read live
  /// state; the registry detaches them when the run finalizes.
  void register_stats(obs::StatsRegistry& registry,
                      const std::string& prefix = "batch") const;

 private:
  struct SlotState {
    std::uint32_t incarnation = 0;
    bool running = false;
    sim::Engine::EventHandle preemption_event;
  };

  void start_slot(std::uint32_t slot);
  void arm_preemption(std::uint32_t slot);
  void preempt_slot(std::uint32_t slot);

  sim::Engine& engine_;
  BatchSpec spec_;
  sim::Rng rng_;
  SlotCallback on_start_;
  SlotCallback on_preempt_;
  std::vector<SlotState> slot_states_;
  // Slots not yet (or no longer) submitted for matching, in release order.
  std::vector<std::uint32_t> parked_;
  std::uint32_t preemptions_ = 0;
  std::uint32_t releases_ = 0;
  std::uint32_t active_ = 0;
  bool draining_ = false;
};

}  // namespace hepvine::batch
