// Flow-level network model with max-min fair bandwidth sharing.
//
// The cluster is modeled as a set of capacity-limited links (typically one
// uplink and one downlink per node NIC, plus an aggregate link for the
// shared filesystem). A transfer is a "flow" over a path of links. Whenever
// the set of active flows changes, per-flow rates are recomputed by
// progressive water-filling (the classic max-min fair allocation), progress
// is settled at the old rates, and each flow's completion event is
// rescheduled. Rate recomputation is batched per tick: any number of flow
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
// Fault injection hooks: a flow can be killed mid-stream (`fail_flow`) or
// armed to fail once a byte offset has been carried (`arm_flow_fault`), and
// a link's effective capacity can be scaled by a factor (`set_link_scale`,
// used for shared-FS brownouts/outages). Killed flows never invoke `done`;
// the fail listener fires instead so the scheduler can retry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

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

// vine-snapshot: state
class Network {
 public:
  explicit Network(sim::Engine& engine, NetworkOptions options = {})
      : engine_(engine), options_(options) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const NetworkOptions& options() const noexcept {
    return options_;
  }

  /// Register a link; returns its id.
  LinkId add_link(std::string name, Bandwidth capacity);

  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const LinkSpec& link(LinkId id) const {
    return links_[static_cast<std::size_t>(id)].spec;
  }
  [[nodiscard]] const LinkStats& link_stats(LinkId id) const {
    return links_[static_cast<std::size_t>(id)].stats;
  }

  /// Start a flow of `bytes` across `path` after `latency` ticks of setup.
  /// `done` fires exactly once when the last byte arrives, unless the flow
  /// is cancelled or killed first. Zero-byte flows complete after `latency`.
  FlowId start_flow(std::vector<LinkId> path, std::uint64_t bytes,
                    Tick latency, std::function<void(FlowId)> done);

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
    return links_[static_cast<std::size_t>(id)].scale;
  }

  /// True if the flow is still pending or transferring.
  [[nodiscard]] bool flow_active(FlowId id) const {
    return find_flow(id) != nullptr;
  }

  /// Current rate of an active flow in bytes/second (0 while in setup).
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const;

  [[nodiscard]] std::size_t active_flows() const { return live_flows_; }
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
  struct Flow {
    FlowId id = kInvalidFlow;
    std::vector<LinkId> path;
    std::uint64_t total_bytes = 0;
    double remaining = 0;  // bytes yet to move
    double carry = 0;      // sub-byte settle residue not yet attributed
    std::uint64_t attributed = 0;  // whole bytes charged to links so far
    std::uint64_t fail_at = 0;     // injected failure offset; 0 = none
    Bandwidth rate = 0;    // current allocation; 0 during setup
    Tick created_at = 0;   // when start_flow admitted it (span listener)
    Tick last_update = 0;  // when `remaining` was last settled
    bool transferring = false;
    std::function<void(FlowId)> done;
    sim::Engine::EventHandle completion;
    sim::Engine::EventHandle setup;
    sim::Engine::EventHandle failure;
  };

  struct Link {
    LinkSpec spec;
    LinkStats stats;
    std::int32_t active = 0;  // flows currently allocated on this link
    double scale = 1.0;       // fault-injected capacity factor
    /// Slot indices of the transferring flows allocated here (unordered),
    /// so a recompute can walk the touched component instead of every flow.
    std::vector<std::int32_t> flows;
    bool dirty = false;    // touched since the last recompute
    // Scratch flags owned by recompute_now: `visited` = in comp_links_
    // (crossed: its flows are in the recompute); `boundary` = reached by
    // the incremental walk but left out for its spare capacity.
    bool visited = false;
    bool boundary = false;
    // Water-filling state, valid only inside recompute_now: the reference
    // pass works on these; the candidate pass on wf_links_[wf_index].
    double wf_capacity = 0;
    std::int32_t wf_unfrozen = 0;
    std::int32_t wf_index = 0;
  };

  /// Dense per-link state of the candidate-driven pass. The run
  /// [head, end) of wf_members_ holds the component positions (ascending)
  /// of the link's flows; everything before `head` is frozen. The fair
  /// share capacity / unfrozen lives apart, in wf_share_, so the per-pass
  /// bottleneck scan reads one packed array.
  struct WfLink {
    double capacity = 0;  // unallocated capacity, as Link::wf_capacity
    std::int32_t unfrozen = 0;
    std::int32_t head = 0;
    std::int32_t end = 0;
    std::int32_t cursor = 0;  // next freeze candidate while in H
    /// The pass in which the link is in H (share <= that pass's
    /// bottleneck share); 0 once it leaves.
    std::uint32_t h_pass = 0;
  };

  // --- flow table --------------------------------------------------------
  // Dense slot-map: flows live in `slots_` (recycled via `free_slots_`),
  // and `window_[id - window_base_]` maps a FlowId to its slot (-1 once
  // the flow is gone). FlowIds are assigned strictly monotonically, so the
  // window is a deque trimmed from the front as old flows retire; walking
  // it yields live flows in ascending-id order — the same deterministic
  // iteration order the previous std::map gave, without the rebalancing.
  [[nodiscard]] Flow* find_flow(FlowId id);
  [[nodiscard]] const Flow* find_flow(FlowId id) const;
  Flow& create_flow(FlowId id);
  void destroy_flow(FlowId id);

  [[nodiscard]] std::int32_t slot_of(const Flow& flow) const {
    return static_cast<std::int32_t>(&flow - slots_.data());
  }

  void begin_transfer(FlowId id);
  void finish_flow(FlowId id);
  void request_recompute();
  void recompute_now();
  /// Fill comp_links_/comp_flows_ (id order); false = nothing to do.
  bool collect_component();
  /// Cross the links on bfs_stack_ and every saturated link reached from
  /// them; the unsaturated ones reached go to boundary_links_.
  void walk_component();
  /// Cross the boundary links saturated at the new rates and put the
  /// component back at its old rates; false = none, the fill stands.
  bool widen_component();
  [[nodiscard]] bool saturated(const Link& link) const;
  void water_fill_reference(bool starve);
  void water_fill_candidates(bool starve);
  void enter_h(std::int32_t link, std::int32_t after, std::uint32_t pass);
  void push_candidate(std::int32_t link, std::int32_t after);
  void settle_flow(Flow& flow);
  void attribute_bytes(Flow& flow, std::uint64_t bytes);
  void release_links(Flow& flow);
  void mark_dirty(LinkId id);
  void warn(FlowId id, const char* detail);

  // The network is below the snapshot line: the managers serialize the
  // logical flow set they own (the `flows` snapshot sections in vine/dd),
  // and deterministic replay regenerates every link rate, completion
  // callback and statistic from the same event stream. Nothing here is
  // restored directly, so each member is an explicit derived() exemption.
  sim::Engine& engine_;
  NetworkOptions options_;
  // vine-snapshot: derived(rates are a pure function of the live flow set)
  std::vector<Link> links_;

  // vine-snapshot: derived(the managers snapshot the flows they own)
  std::vector<Flow> slots_;
  // vine-snapshot: derived(slot recycling replays with the flow stream)
  std::vector<std::int32_t> free_slots_;
  // vine-snapshot: derived(id-recency window over slots_, itself derived)
  std::deque<std::int32_t> window_;
  // vine-snapshot: derived(id-recency window base; replays with the stream)
  FlowId window_base_ = 1;
  // vine-snapshot: derived(count over slots_, itself derived)
  std::size_t live_flows_ = 0;
  // vine-snapshot: derived(index over slots_, itself derived)
  std::vector<std::pair<FlowId, std::int32_t>> transferring_;  // (id, slot)

  // vine-snapshot: derived(monotone id allocator; replays with the stream)
  FlowId next_flow_id_ = 1;
  // vine-snapshot: derived(event-queue latch; the queue is not restored)
  bool recompute_scheduled_ = false;
  // vine-snapshot: derived(test-only starvation trigger, never set in prod)
  bool debug_starve_once_ = false;
  // vine-snapshot: derived(recompute work list, drained within the event)
  std::vector<LinkId> dirty_links_;

  // Scratch buffers reused across recomputes to avoid per-event allocation;
  // all dead between events, hence derived.
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<LinkId> bfs_stack_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<LinkId> comp_links_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<LinkId> boundary_links_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<Flow*> comp_flows_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<Flow*> pending_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<Flow*> still_pending_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<double> old_rates_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<std::uint8_t> in_component_;  // by slot
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<WfLink> wf_links_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<double> wf_share_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<std::int32_t> wf_live_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<std::int32_t> wf_bottlenecks_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<std::int32_t> wf_members_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<std::int32_t> wf_paths_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<std::int32_t> wf_path_begin_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<std::uint8_t> wf_frozen_;
  // vine-snapshot: derived(scratch, dead between events)
  std::vector<std::uint64_t> wf_candidates_;

  // Statistics: recomputed verbatim by replay, exported via RunReport.
  // vine-snapshot: derived(statistic, reproduced by replay)
  std::uint64_t bytes_completed_ = 0;
  // vine-snapshot: derived(statistic, reproduced by replay)
  std::uint64_t flows_completed_ = 0;
  // vine-snapshot: derived(statistic, reproduced by replay)
  std::uint64_t flows_cancelled_ = 0;
  // vine-snapshot: derived(statistic, reproduced by replay)
  std::uint64_t flows_failed_ = 0;
  // vine-snapshot: derived(statistic, reproduced by replay)
  std::uint64_t bytes_abandoned_ = 0;
  // vine-snapshot: derived(statistic, reproduced by replay)
  std::uint64_t recomputes_ = 0;
  // vine-snapshot: derived(statistic, reproduced by replay)
  std::uint64_t recompute_flow_visits_ = 0;
  // vine-snapshot: derived(statistic, reproduced by replay)
  std::uint64_t recompute_passes_ = 0;
  // vine-snapshot: derived(statistic, reproduced by replay)
  std::uint64_t recompute_expansions_ = 0;
  // vine-snapshot: derived(statistic, reproduced by replay)
  std::uint64_t starvation_rescues_ = 0;
  // vine-snapshot: derived(closure; rewired by the owning run at startup)
  std::function<void(FlowId)> on_fail_;
  // vine-snapshot: derived(closure; rewired by the owning run at startup)
  std::function<void(Tick, FlowId, const char*)> on_warn_;
  // vine-snapshot: derived(closure; rewired by the owning run at startup)
  std::function<void(Tick, Tick, FlowId, std::uint64_t, std::uint64_t, char)>
      on_span_;
};

}  // namespace hepvine::net
