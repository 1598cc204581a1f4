// Flow-level network model with max-min fair bandwidth sharing.
//
// The cluster is modeled as a set of capacity-limited links (typically one
// uplink and one downlink per node NIC, plus an aggregate link for the
// shared filesystem). A transfer is a "flow" over a path of links. Whenever
// the set of active flows changes, per-flow rates are recomputed by
// progressive water-filling (the classic max-min fair allocation), progress
// is settled at the old rates, and each flow's completion event is
// re-keyed. Rate recomputation is batched per tick: any number of flow
// arrivals/departures at the same instant trigger a single recompute.
//
// Scaling: each recompute is restricted to the links touched since the
// last recompute (flows join, leave, get armed, or a link's capacity
// scales) and the part of their connected component of the link<->flow
// graph that is joined to them through saturated links: a link with spare
// capacity both before and after the recompute never bottlenecks a flow,
// so it cannot couple the flows on its two sides. Only flows whose rate
// changes are settled and rescheduled. Within that set, water-filling is
// candidate-driven: each pass replays the reference pass's id-ordered
// freeze sequence from per-link id-ordered flow lists, so its cost follows
// the flows it freezes rather than pending flows times passes. The
// full-network recompute with the original pass loop survives behind
// NetworkOptions::incremental_recompute = false as the reference
// implementation; both paths produce bit-identical rates and event times
// (see DESIGN.md "Incremental max-min recompute"), which the differential
// tests enforce.
//
// Flow events: a flow's completion and armed failure are keys (tick, seq)
// in an index by flow slot (EventIndex), not engine events. Each re-rate
// takes the moved keys' seqs from the engine in the order one event move
// per key would have, and the network queues one engine entry under the
// index minimum (Engine::rearm_keyed). Every flow event therefore fires
// where its own engine event would have, and counts as one engine event.
//
// Fault injection hooks: a flow can be killed mid-stream (`fail_flow`) or
// armed to fail once a byte offset has been carried (`arm_flow_fault`), and
// a link's effective capacity can be scaled by a factor (`set_link_scale`,
// used for shared-FS brownouts/outages). Killed flows never invoke `done`;
// the fail listener fires instead so the scheduler can retry.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/event_index.h"
#include "obs/stats_registry.h"
#include "sim/engine.h"
#include "util/units.h"

namespace hepvine::net {

using util::Bandwidth;
using util::Tick;

using LinkId = std::int32_t;
using FlowId = std::int64_t;

inline constexpr FlowId kInvalidFlow = -1;

/// Static description of one link.
struct LinkSpec {
  std::string name;
  Bandwidth capacity = 0;  // bytes/second
};

/// Cumulative per-link statistics.
struct LinkStats {
  std::uint64_t bytes_carried = 0;
  std::uint64_t flows_carried = 0;
};

struct NetworkOptions {
  /// Restrict each water-filling recompute to the connected component of
  /// links/flows touched since the last one. false = reference full
  /// recompute over every link and flow; same arithmetic, linear cost.
  /// Both settings produce bit-identical rates, events, and statistics.
  // vine-fastpath: opt-in
  bool incremental_recompute = true;
};

class Network {
 public:
  explicit Network(sim::Engine& engine, NetworkOptions options = {})
      : engine_(engine), options_(options) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network() { engine_.cancel(event_); }

  [[nodiscard]] const NetworkOptions& options() const noexcept {
    return options_;
  }

  /// Register a link; returns its id.
  LinkId add_link(std::string name, Bandwidth capacity);

  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const LinkSpec& link(LinkId id) const {
    return link_specs_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const LinkStats& link_stats(LinkId id) const {
    return link_stats_[static_cast<std::size_t>(id)];
  }

  /// Links a flow's path may cross. Paths are stored inline: a cluster
  /// path is a source uplink and a sink downlink.
  static constexpr std::size_t kMaxPathLinks = 3;

  /// Start a flow of `bytes` across `path` after `latency` ticks of setup.
  /// `done` fires exactly once when the last byte arrives, unless the flow
  /// is cancelled or killed first. Zero-byte flows complete after `latency`.
  /// Throws std::invalid_argument, issuing no id, for a path of more than
  /// kMaxPathLinks links. The path is only read: it is copied inline.
  FlowId start_flow(std::span<const LinkId> path, std::uint64_t bytes,
                    Tick latency, std::function<void(FlowId)> done);
  /// start_flow over a braced path such as {uplink, downlink}, which a
  /// span cannot bind to; nothing is allocated for it.
  FlowId start_flow(std::initializer_list<LinkId> path, std::uint64_t bytes,
                    Tick latency, std::function<void(FlowId)> done) {
    return start_flow(std::span<const LinkId>(path.begin(), path.size()),
                      bytes, latency, std::move(done));
  }

  /// Cancel an in-flight flow (e.g. its endpoint was preempted). The done
  /// callback is not invoked. Unknown/finished ids are ignored.
  void cancel_flow(FlowId id);

  /// Kill an in-flight flow as an injected fault. Like cancel_flow the done
  /// callback is not invoked, but the flow counts toward `flows_failed` and
  /// the fail listener fires so the owner can schedule a retry.
  void fail_flow(FlowId id);

  /// Arm the flow to fail once `fail_after_bytes` have been carried
  /// (clamped to [1, total_bytes]; no-op for unknown or zero-byte flows).
  /// The failure lands exactly when the armed byte crosses the wire, under
  /// whatever rates water-filling assigns in the meantime.
  void arm_flow_fault(FlowId id, std::uint64_t fail_after_bytes);

  /// Observer invoked after a flow is removed by fail_flow (injected kill).
  void set_fail_listener(std::function<void(FlowId)> cb) {
    on_fail_ = std::move(cb);
  }

  /// Observer for anomalies the network self-heals from (currently: a
  /// transferring flow left unrated by water-filling). Arguments: time,
  /// flow id, human-readable detail.
  void set_warn_listener(
      std::function<void(Tick, FlowId, const char*)> cb) {
    on_warn_ = std::move(cb);
  }

  /// Observer invoked once per flow when it leaves the network, with its
  /// full wire-level span: (started_at, ended_at, id, total_bytes,
  /// carried_bytes, outcome) where outcome is 'D' done, 'C' cancelled,
  /// 'F' failed. Fires for every teardown path; null = no cost.
  void set_span_listener(std::function<void(Tick, Tick, FlowId,
                                            std::uint64_t, std::uint64_t,
                                            char)>
                             cb) {
    on_span_ = std::move(cb);
  }

  /// Scale a link's effective capacity by `factor` (1 = nominal, 0 = full
  /// outage: flows stall at rate zero and resume when the factor recovers).
  void set_link_scale(LinkId id, double factor);
  [[nodiscard]] double link_scale(LinkId id) const {
    return link_scales_[static_cast<std::size_t>(id)];
  }

  /// True if the flow is still pending or transferring.
  [[nodiscard]] bool flow_active(FlowId id) const { return find_slot(id) >= 0; }

  /// Current rate of an active flow in bytes/second (0 while in setup).
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const;

  [[nodiscard]] std::size_t active_flows() const { return live_flows_; }
  /// Flow completions and armed failures still to fire, counted by a
  /// scan of every flow slot. The engine holds one entry for all of them
  /// while there are any.
  [[nodiscard]] std::size_t pending_flow_events() const;
  [[nodiscard]] std::uint64_t total_bytes_completed() const {
    return bytes_completed_;
  }
  [[nodiscard]] std::uint64_t flows_completed() const {
    return flows_completed_;
  }
  [[nodiscard]] std::uint64_t flows_cancelled() const {
    return flows_cancelled_;
  }
  [[nodiscard]] std::uint64_t flows_failed() const { return flows_failed_; }
  /// Bytes carried by flows that were cancelled or killed before finishing.
  /// Invariant: per-link bytes_carried sums completed-flow bytes plus
  /// abandoned bytes plus in-flight progress — nothing is double-counted.
  [[nodiscard]] std::uint64_t bytes_abandoned() const {
    return bytes_abandoned_;
  }

  // --- recompute cost accounting -----------------------------------------
  /// Water-filling passes executed so far.
  [[nodiscard]] std::uint64_t recomputes() const { return recomputes_; }
  /// Total flows filled (re-rated and settle-checked) across all
  /// recomputes, re-fills after a widening included; the incremental
  /// path's work metric. The reference path visits every transferring flow
  /// every time.
  [[nodiscard]] std::uint64_t recompute_flow_visits() const {
    return recompute_flow_visits_;
  }
  /// Flows whose rate a recompute changed (or whose events had lapsed):
  /// each was settled and had its completion or failure key re-keyed.
  /// The rest of the visits kept their keys untouched.
  [[nodiscard]] std::uint64_t recompute_rearms() const {
    return recompute_rearms_;
  }
  /// Re-fills the incremental path ran because a boundary link (one it had
  /// left out for its spare capacity) came out saturated at the new rates.
  [[nodiscard]] std::uint64_t recompute_expansions() const {
    return recompute_expansions_;
  }
  /// Water-filling passes (bottleneck levels) across all recomputes. The
  /// reference path's passes span every component at once, so the two
  /// paths' counts differ; each is deterministic.
  [[nodiscard]] std::uint64_t recompute_passes() const {
    return recompute_passes_;
  }
  /// Transferring flows water-filling failed to rate and the network had
  /// to rescue with a rescheduled recompute (should stay 0).
  [[nodiscard]] std::uint64_t starvation_rescues() const {
    return starvation_rescues_;
  }

  /// Test seam: make the next recompute skip its water-filling loop, as if
  /// the defensive break fired with every flow still pending, to exercise
  /// the starved-flow rescue path.
  void debug_starve_next_water_fill() { debug_starve_once_ = true; }

  /// Register gauges (`<prefix>.active_flows`, `<prefix>.flows_completed`,
  /// `<prefix>.bytes_completed`, ...) into a per-run stats registry.
  void register_stats(obs::StatsRegistry& registry,
                      const std::string& prefix = "net") const;

 private:
  /// A flow's links, inline (see kMaxPathLinks).
  struct Path {
    std::array<LinkId, kMaxPathLinks> links{};
    std::int32_t size = 0;
    [[nodiscard]] const LinkId* begin() const { return links.data(); }
    [[nodiscard]] const LinkId* end() const { return links.data() + size; }
  };

  /// A flow's state off the recompute's path; the rest is in hot_.
  struct Flow {
    FlowId id = kInvalidFlow;
    std::uint64_t total_bytes = 0;
    sim::Engine::EventRef setup;
    Tick created_at = 0;   // when start_flow admitted it (span listener)
    bool transferring = false;
    std::function<void(FlowId)> done;
  };

  /// A flow's state on the recompute's path, one cache line per slot: the
  /// walk, the gather and the settle each find all they read of a flow in
  /// it.
  struct alignas(64) FlowHot {
    Bandwidth rate = 0;    // current allocation; 0 during setup
    double remaining = 0;  // bytes yet to move
    double carry = 0;      // sub-byte settle residue not yet attributed
    Tick last_update = 0;  // when `remaining` was last settled
    std::uint64_t attributed = 0;  // whole bytes charged to links so far
    std::uint64_t fail_at = 0;     // injected failure offset; 0 = none
    Path path;

    /// Apply `moved` bytes of progress; returns the whole bytes to charge
    /// to the flow's links. The sub-byte remainder carries over to the
    /// next settle, so long-lived slow flows never under-report
    /// bytes_carried.
    std::uint64_t advance(double moved) {
      const double applied = std::min(moved, remaining);
      remaining -= applied;
      carry += applied;
      const auto whole = static_cast<std::uint64_t>(carry);
      carry -= static_cast<double>(whole);
      return whole;
    }
  };

  /// A link's recompute state; its spec, scale and statistics live apart
  /// (link_specs_, link_scales_, link_stats_).
  struct Link {
    double capacity = 0;      // spec capacity x fault-injected scale
    std::int32_t active = 0;  // flows currently allocated on this link
    bool dirty = false;       // touched since the last recompute
    /// Slot indices of the transferring flows allocated here (unordered),
    /// so a recompute can walk the touched component instead of every flow.
    std::vector<std::int32_t> flows;
  };

  // A link's part in the running recompute (link_state_): >= 0 = crossed
  // (its flows are in the recompute), the link's index in comp_links_ and
  // wf_links_; or one of these.
  static constexpr std::int32_t kUnreached = -1;
  static constexpr std::int32_t kBoundary = -2;  // left out: spare capacity
  static constexpr std::int32_t kQueued = -3;    // crossed, on bfs_stack_

  /// Dense per-link state of a fill. The run [head, end) of wf_members_
  /// holds the component positions (ascending) of the link's flows;
  /// everything before `head` is frozen. The fair share capacity /
  /// unfrozen lives apart, in wf_share_, so the candidate pass's per-pass
  /// bottleneck scan reads one packed array.
  struct WfLink {
    double capacity = 0;  // unallocated capacity
    std::int32_t unfrozen = 0;
    std::int32_t head = 0;
    std::int32_t end = 0;
    std::int32_t cursor = 0;  // next freeze candidate while in H
    /// The pass in which the link is in H (share <= that pass's
    /// bottleneck share); 0 once it leaves.
    std::uint32_t h_pass = 0;
  };

  /// A component flow's crossed links, as wf_links_ indices.
  struct WfPath {
    std::array<std::int32_t, kMaxPathLinks> links{};
    std::int32_t size = 0;
    [[nodiscard]] const std::int32_t* begin() const { return links.data(); }
    [[nodiscard]] const std::int32_t* end() const {
      return links.data() + size;
    }
  };

  using Key = EventIndex::Key;

  /// The event keys of a flow with an armed fault; Key{} = no such event.
  /// The index holds the earlier of the two. A flow never armed has only
  /// a completion, and the index holds its key alone.
  struct ArmedKeys {
    Key finish;
    Key fail;
  };

  // --- flow table --------------------------------------------------------
  // Dense slot-map: flows live in `flows_` and `hot_`, both indexed by
  // slot (recycled via `free_slots_`), and `window_[id - window_base_]`
  // maps a FlowId to its slot (-1 once the flow is gone). FlowIds are
  // assigned strictly monotonically, so the window is a deque trimmed from
  // the front as old flows retire; walking it yields live flows in
  // ascending-id order.
  [[nodiscard]] std::int32_t find_slot(FlowId id) const;
  std::int32_t create_flow(FlowId id);
  void destroy_flow(FlowId id);
  [[nodiscard]] Flow& flow_at(std::int32_t slot) {
    return flows_[static_cast<std::size_t>(slot)];
  }

  void begin_transfer(FlowId id);
  void finish_flow(FlowId id);
  /// cancel_flow and fail_flow: tear down with outcome 'C' or 'F'.
  void abandon_flow(FlowId id, char outcome);
  /// Drop a flow's keys (no seq is taken) and re-key the engine entry if
  /// the minimum moved.
  void drop_keys(std::int32_t slot);
  /// Queue the engine entry under the index minimum, or cancel it when no
  /// flow has an event. At most one engine move.
  void sync_event();
  /// The engine entry fired: finish or fail the flow holding the minimum.
  void fire_event();
  /// Whether the engine entry is queued under the index minimum.
  [[nodiscard]] bool event_synced() const;
  void request_recompute();
  void recompute_now();
  /// Fill comp_links_/comp_slots_ (id order); false = nothing to do.
  bool collect_component();
  /// Cross the links on bfs_stack_ and every saturated link reached from
  /// them; the unsaturated ones reached go to boundary_links_.
  void walk_component();
  /// Put the component in id order (after a walk).
  void order_component();
  /// Read each component flow's hot line once into the fill's dense
  /// arrays (old rate, crossed links), and each crossed link's capacity
  /// into wf_links_.
  void gather_component();
  /// Cross the boundary links saturated at the new rates; false = none,
  /// the fill stands. Rates are only written back after the last fill, so
  /// the walk on from them sees the old ones.
  bool widen_component();
  /// Whether the link's flows, at the current rates (or with the
  /// component's at its new ones), sum to about its capacity.
  [[nodiscard]] bool saturated(const Link& link, bool filled) const;
  void water_fill_reference(bool starve);
  void water_fill_candidates(bool starve);
  /// Freeze the pass's flows while `link` alone is in H; returns how many.
  std::size_t freeze_solo(std::int32_t link, double b, std::uint32_t pass);
  void enter_h(std::int32_t link, std::int32_t after, std::uint32_t pass);
  void push_candidate(std::int32_t link, std::int32_t after);
  /// Settle the component's changed flows and write their new keys into
  /// the event index; sync_event() then repairs it and moves the entry.
  void rerate_component();
  /// Debug: the current rates pass check_max_min (see max_min.h).
  [[nodiscard]] bool rates_max_min_fair() const;
  void settle_flow(std::int32_t slot);
  void attribute_bytes(FlowHot& hot, std::uint64_t bytes);
  void release_links(std::int32_t slot);
  void mark_dirty(LinkId id);
  void warn(FlowId id, const char* detail);

  sim::Engine& engine_;
  NetworkOptions options_;
  std::vector<Link> links_;
  std::vector<LinkSpec> link_specs_;
  std::vector<double> link_scales_;
  std::vector<LinkStats> link_stats_;

  std::vector<Flow> flows_;
  std::vector<FlowHot> hot_;
  std::vector<std::int32_t> free_slots_;
  std::deque<std::int32_t> window_;
  FlowId window_base_ = 1;
  std::size_t live_flows_ = 0;
  /// (id, slot) of the transferring flows in id order; slot -1 marks a
  /// tombstone left by a departure.
  std::vector<std::pair<FlowId, std::int32_t>> transferring_;
  std::size_t transferring_dead_ = 0;  // tombstones in transferring_
  EventIndex events_;  // each slot's earliest key
  std::vector<ArmedKeys> armed_keys_;  // by slot; flows with fail_at set
  sim::Engine::EventRef event_;  // queued under event_key_
  Key event_key_;

  FlowId next_flow_id_ = 1;
  bool recompute_scheduled_ = false;
  bool debug_starve_once_ = false;
  std::vector<LinkId> dirty_links_;

  // Scratch buffers reused across recomputes to avoid per-event allocation;
  // all dead between events, hence derived. Per-position arrays are
  // indexed by a flow's rank in the id-ordered component.
  std::vector<LinkId> bfs_stack_;
  std::vector<std::int32_t> link_state_;  // by link id
  std::vector<LinkId> comp_links_;
  std::vector<LinkId> boundary_links_;
  std::vector<std::int32_t> comp_slots_;  // by position
  std::vector<std::int32_t> comp_pos_;  // by slot; -1 = not in it
  std::vector<double> old_rates_;  // by position
  std::vector<double> new_rates_;  // by position
  std::vector<std::int32_t> pending_;  // unrated positions
  std::vector<std::int32_t> still_pending_;
  std::vector<WfLink> wf_links_;
  std::vector<double> wf_share_;
  std::vector<std::int32_t> wf_live_;
  std::vector<std::int32_t> wf_bottlenecks_;
  std::vector<std::int32_t> wf_members_;
  std::vector<WfPath> wf_paths_;  // by position
  std::vector<std::uint8_t> wf_frozen_;
  std::vector<std::uint64_t> wf_candidates_;

  // Statistics: recomputed verbatim by replay, exported via RunReport.
  std::uint64_t bytes_completed_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_cancelled_ = 0;
  std::uint64_t flows_failed_ = 0;
  std::uint64_t bytes_abandoned_ = 0;
  std::uint64_t recomputes_ = 0;
  std::uint64_t recompute_flow_visits_ = 0;
  std::uint64_t recompute_rearms_ = 0;
  std::uint64_t recompute_passes_ = 0;
  std::uint64_t recompute_expansions_ = 0;
  std::uint64_t starvation_rescues_ = 0;
  std::function<void(FlowId)> on_fail_;
  std::function<void(Tick, FlowId, const char*)> on_warn_;
  std::function<void(Tick, Tick, FlowId, std::uint64_t, std::uint64_t, char)>
      on_span_;
};

}  // namespace hepvine::net
