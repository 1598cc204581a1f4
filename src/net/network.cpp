#include "net/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace hepvine::net {

LinkId Network::add_link(std::string name, Bandwidth capacity) {
  const auto id = static_cast<LinkId>(links_.size());
  Link link;
  link.spec = LinkSpec{std::move(name), capacity};
  links_.push_back(std::move(link));
  return id;
}

Network::Flow* Network::find_flow(FlowId id) {
  if (id < window_base_) return nullptr;
  const auto idx = static_cast<std::size_t>(id - window_base_);
  if (idx >= window_.size()) return nullptr;
  const std::int32_t slot = window_[idx];
  return slot < 0 ? nullptr : &slots_[static_cast<std::size_t>(slot)];
}

const Network::Flow* Network::find_flow(FlowId id) const {
  return const_cast<Network*>(this)->find_flow(id);
}

Network::Flow& Network::create_flow(FlowId id) {
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::int32_t>(slots_.size());
    slots_.emplace_back();
    in_component_.push_back(0);
  }
  assert(window_base_ + static_cast<FlowId>(window_.size()) == id);
  window_.push_back(slot);
  live_flows_ += 1;
  Flow& flow = slots_[static_cast<std::size_t>(slot)];
  flow.id = id;
  return flow;
}

void Network::destroy_flow(FlowId id) {
  const auto idx = static_cast<std::size_t>(id - window_base_);
  const std::int32_t slot = window_[idx];
  assert(slot >= 0);
  // Reset in place so the recycled slot starts clean and the done callback
  // and event handles release their captures now, not at slot reuse.
  slots_[static_cast<std::size_t>(slot)] = Flow{};
  free_slots_.push_back(slot);
  window_[idx] = -1;
  live_flows_ -= 1;
  while (!window_.empty() && window_.front() < 0) {
    window_.pop_front();
    window_base_ += 1;
  }
}

void Network::mark_dirty(LinkId id) {
  Link& link = links_[static_cast<std::size_t>(id)];
  if (!link.dirty) {
    link.dirty = true;
    dirty_links_.push_back(id);
  }
}

void Network::warn(FlowId id, const char* detail) {
  if (on_warn_) on_warn_(engine_.now(), id, detail);
}

FlowId Network::start_flow(std::vector<LinkId> path, std::uint64_t bytes,
                           Tick latency, std::function<void(FlowId)> done) {
  const FlowId id = next_flow_id_++;
  Flow& flow = create_flow(id);
  flow.path = std::move(path);
  flow.total_bytes = bytes;
  flow.remaining = static_cast<double>(bytes);
  flow.done = std::move(done);
  flow.created_at = engine_.now();
  flow.last_update = engine_.now();
  for (LinkId link : flow.path) {
    assert(link >= 0 && static_cast<std::size_t>(link) < links_.size());
    links_[static_cast<std::size_t>(link)].stats.flows_carried += 1;
  }
  flow.setup = engine_.schedule_after(
      latency, [this, id] { begin_transfer(id); });
  return id;
}

void Network::begin_transfer(FlowId id) {
  Flow* flow = find_flow(id);
  if (flow == nullptr) return;
  if (flow->remaining <= 0.0) {
    finish_flow(id);
    return;
  }
  flow->transferring = true;
  flow->last_update = engine_.now();
  const std::int32_t slot = slot_of(*flow);
  // Ids are issued monotonically, so a starting transfer usually sorts at
  // or near the back.
  const auto pos = std::lower_bound(
      transferring_.begin(), transferring_.end(), id,
      [](const std::pair<FlowId, std::int32_t>& e, FlowId v) {
        return e.first < v;
      });
  transferring_.insert(pos, {id, slot});
  for (LinkId link : flow->path) {
    Link& l = links_[static_cast<std::size_t>(link)];
    l.active += 1;
    l.flows.push_back(slot);
    mark_dirty(link);
  }
  request_recompute();
}

void Network::release_links(Flow& flow) {
  if (!flow.transferring) return;
  const auto pos = std::lower_bound(
      transferring_.begin(), transferring_.end(), flow.id,
      [](const std::pair<FlowId, std::int32_t>& e, FlowId v) {
        return e.first < v;
      });
  assert(pos != transferring_.end() && pos->first == flow.id);
  transferring_.erase(pos);
  const std::int32_t slot = slot_of(flow);
  for (LinkId link : flow.path) {
    Link& l = links_[static_cast<std::size_t>(link)];
    l.active -= 1;
    auto it = std::find(l.flows.begin(), l.flows.end(), slot);
    assert(it != l.flows.end());
    *it = l.flows.back();
    l.flows.pop_back();
    mark_dirty(link);
  }
  flow.transferring = false;
  request_recompute();
}

void Network::cancel_flow(FlowId id) {
  Flow* flow = find_flow(id);
  if (flow == nullptr) return;
  engine_.cancel(flow->setup);
  engine_.cancel(flow->completion);
  engine_.cancel(flow->failure);
  if (flow->transferring) settle_flow(*flow);
  release_links(*flow);
  flows_cancelled_ += 1;
  bytes_abandoned_ += flow->attributed;
  const Tick created = flow->created_at;
  const std::uint64_t total = flow->total_bytes;
  const std::uint64_t carried = flow->attributed;
  destroy_flow(id);
  if (on_span_) on_span_(created, engine_.now(), id, total, carried, 'C');
}

void Network::fail_flow(FlowId id) {
  Flow* flow = find_flow(id);
  if (flow == nullptr) return;
  engine_.cancel(flow->setup);
  engine_.cancel(flow->completion);
  engine_.cancel(flow->failure);
  if (flow->transferring) settle_flow(*flow);
  release_links(*flow);
  flows_failed_ += 1;
  bytes_abandoned_ += flow->attributed;
  const Tick created = flow->created_at;
  const std::uint64_t total = flow->total_bytes;
  const std::uint64_t carried = flow->attributed;
  destroy_flow(id);
  if (on_span_) on_span_(created, engine_.now(), id, total, carried, 'F');
  if (on_fail_) on_fail_(id);
}

void Network::arm_flow_fault(FlowId id, std::uint64_t fail_after_bytes) {
  Flow* flow = find_flow(id);
  if (flow == nullptr) return;
  if (flow->total_bytes == 0) return;  // no mid-stream byte to fail on
  flow->fail_at =
      std::clamp<std::uint64_t>(fail_after_bytes, 1, flow->total_bytes);
  // If the flow is live, rates are already assigned and no recompute may be
  // coming; dirty its path and (re)schedule the failure from here. Flows
  // still in setup pick up their failure event in the next recompute.
  if (flow->transferring) {
    for (LinkId link : flow->path) mark_dirty(link);
    request_recompute();
  }
}

Bandwidth Network::flow_rate(FlowId id) const {
  const Flow* flow = find_flow(id);
  return flow == nullptr ? 0.0 : flow->rate;
}

void Network::set_link_scale(LinkId id, double factor) {
  Link& l = links_[static_cast<std::size_t>(id)];
  if (l.scale == factor) return;
  l.scale = factor;
  mark_dirty(id);
  request_recompute();
}

void Network::attribute_bytes(Flow& flow, std::uint64_t bytes) {
  if (bytes == 0) return;
  flow.attributed += bytes;
  for (LinkId link : flow.path) {
    links_[static_cast<std::size_t>(link)].stats.bytes_carried += bytes;
  }
}

void Network::finish_flow(FlowId id) {
  Flow* flow = find_flow(id);
  if (flow == nullptr) return;
  // Charge this flow's progress up to now so link statistics include the
  // final stretch (settling is per-flow: each flow has its own last_update).
  settle_flow(*flow);
  engine_.cancel(flow->setup);
  engine_.cancel(flow->completion);
  engine_.cancel(flow->failure);
  if (flow->transferring) {
    // Attribute whatever rounding left behind so a completed flow charges
    // its links exactly total_bytes, no more and no less.
    assert(flow->attributed <= flow->total_bytes);
    attribute_bytes(*flow, flow->total_bytes - flow->attributed);
    release_links(*flow);
  }
  bytes_completed_ += flow->total_bytes;
  auto done = std::move(flow->done);
  const Tick created = flow->created_at;
  const std::uint64_t total = flow->total_bytes;
  destroy_flow(id);
  flows_completed_ += 1;
  if (on_span_) on_span_(created, engine_.now(), id, total, total, 'D');
  if (done) done(id);
  request_recompute();
}

void Network::request_recompute() {
  if (recompute_scheduled_) return;
  recompute_scheduled_ = true;
  // Batch all same-tick arrivals/departures into one recompute.
  engine_.schedule_after(0, [this] {
    recompute_scheduled_ = false;
    recompute_now();
  });
}

void Network::settle_flow(Flow& flow) {
  const Tick now = engine_.now();
  if (!flow.transferring) {
    flow.last_update = now;
    return;
  }
  const Tick elapsed = now - flow.last_update;
  if (elapsed > 0 && flow.rate > 0) {
    const double moved = flow.rate * util::to_seconds(elapsed);
    const double applied = std::min(moved, flow.remaining);
    flow.remaining -= applied;
    // Attribute whole bytes only; the sub-byte remainder carries over to the
    // next settle so long-lived slow flows never under-report bytes_carried.
    flow.carry += applied;
    const auto whole = static_cast<std::uint64_t>(flow.carry);
    flow.carry -= static_cast<double>(whole);
    attribute_bytes(flow, whole);
  }
  flow.last_update = now;
}

namespace {

// A link is saturated when its flows' rates sum to at least this fraction
// of its capacity. A link that enters the freeze set ends a fill summing
// to its capacity within n * 2^-52 relative rounding, so the margin
// covers any link with fewer than 2^30 flows. It only decides which links
// the walk crosses; computed rates get no tolerance.
constexpr double kSaturatedFraction = 1.0 - 0x1p-20;

}  // namespace

bool Network::saturated(const Link& link) const {
  double load = 0;
  for (const std::int32_t slot : link.flows) {
    load += slots_[static_cast<std::size_t>(slot)].rate;
  }
  return load >= link.spec.capacity * link.scale * kSaturatedFraction;
}

bool Network::collect_component() {
  // Collect the recompute set: the links and transferring flows whose rates
  // this pass may change. The reference path takes everything; the
  // incremental path walks the link<->flow graph from the links dirtied
  // since the last pass, which reaches exactly the flows whose max-min
  // allocation can have moved: a flow's rate depends only on the part of
  // its connected component joined through saturated links, and every
  // mutation dirties the links it touches.
  comp_links_.clear();
  comp_flows_.clear();
  if (options_.incremental_recompute) {
    if (dirty_links_.empty()) return false;
    bfs_stack_.clear();
    for (LinkId id : dirty_links_) {
      Link& link = links_[static_cast<std::size_t>(id)];
      link.dirty = false;
      if (!link.visited) {
        link.visited = true;
        bfs_stack_.push_back(id);
      }
    }
    dirty_links_.clear();
    walk_component();
  } else {
    for (LinkId id : dirty_links_) {
      links_[static_cast<std::size_t>(id)].dirty = false;
    }
    dirty_links_.clear();
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (links_[i].active > 0) {
        links_[i].visited = true;
        comp_links_.push_back(static_cast<LinkId>(i));
      }
    }
    for (const std::int32_t slot : window_) {
      if (slot < 0) continue;
      Flow& flow = slots_[static_cast<std::size_t>(slot)];
      if (!flow.transferring) continue;
      in_component_[static_cast<std::size_t>(slot)] = 1;
      comp_flows_.push_back(&flow);  // window order == ascending id
    }
  }
  return true;
}

void Network::walk_component() {
  // Seeds (dirtied links) and links saturated at the current rates are
  // crossed: all their flows join the recompute. Any other link reached is
  // a boundary link. It had spare capacity under the current rates, which
  // are the global fill of the previous flow set, so it was never in that
  // fill's freeze set; if it also keeps spare capacity at the new rates
  // (widen_component checks), it is in neither fill's freeze set and
  // couples nothing. The fill leaves it out of every path.
  while (!bfs_stack_.empty()) {
    const LinkId lid = bfs_stack_.back();
    bfs_stack_.pop_back();
    comp_links_.push_back(lid);
    const Link& link = links_[static_cast<std::size_t>(lid)];
    for (const std::int32_t slot : link.flows) {
      std::uint8_t& mark = in_component_[static_cast<std::size_t>(slot)];
      if (mark != 0) continue;
      mark = 1;
      Flow& flow = slots_[static_cast<std::size_t>(slot)];
      assert(flow.transferring);
      comp_flows_.push_back(&flow);
      for (LinkId pl : flow.path) {
        Link& p = links_[static_cast<std::size_t>(pl)];
        if (p.visited || p.boundary) continue;
        if (saturated(p)) {
          p.visited = true;
          bfs_stack_.push_back(pl);
        } else {
          p.boundary = true;
          boundary_links_.push_back(pl);
        }
      }
    }
  }
  // Discovery order depends on link lists; the contract below is id order.
  // A component spanning a good share of the transferring flows (the
  // shared-bottleneck regime) is cheaper to pick out of the persistent
  // id-ordered list than to sort.
  if (comp_flows_.size() * 4 >= transferring_.size()) {
    comp_flows_.clear();
    for (const auto& [id, slot] : transferring_) {
      if (in_component_[static_cast<std::size_t>(slot)] != 0) {
        comp_flows_.push_back(&slots_[static_cast<std::size_t>(slot)]);
      }
    }
  } else {
    std::sort(comp_flows_.begin(), comp_flows_.end(),
              [](const Flow* a, const Flow* b) { return a->id < b->id; });
  }
}

bool Network::widen_component() {
  // A boundary link saturated at the new rates may have bottlenecked a
  // flow in the global fill, which would couple the flows on its two
  // sides. Cross it, walk on from it at the old rates, and let the caller
  // fill the larger set again.
  std::size_t kept = 0;
  for (const LinkId id : boundary_links_) {
    Link& link = links_[static_cast<std::size_t>(id)];
    if (saturated(link)) {
      link.boundary = false;
      link.visited = true;
      bfs_stack_.push_back(id);
    } else {
      boundary_links_[kept++] = id;
    }
  }
  boundary_links_.resize(kept);
  if (bfs_stack_.empty()) return false;
  recompute_expansions_ += 1;
  for (std::size_t i = 0; i < comp_flows_.size(); ++i) {
    comp_flows_[i]->rate = old_rates_[i];
  }
  walk_component();
  recompute_flow_visits_ += comp_flows_.size();
  return true;
}

void Network::water_fill_reference(bool starve_seam) {
  // Progressive water-filling over the recompute set. Each pass finds the
  // most-contended link, freezes its flows at that link's fair share, and
  // removes the consumed capacity; repeats until every flow has a rate.
  // The freeze comparison is exact (no tolerance): that makes per-
  // component water-filling bit-identical to the global pass — a link
  // merely *near* another component's bottleneck must not freeze early.
  old_rates_.clear();
  for (Flow* flow : comp_flows_) {
    old_rates_.push_back(flow->rate);
    flow->rate = 0.0;
  }
  for (LinkId id : comp_links_) {
    Link& link = links_[static_cast<std::size_t>(id)];
    link.wf_capacity = link.spec.capacity * link.scale;
    link.wf_unfrozen = link.active;
  }

  pending_.assign(comp_flows_.begin(), comp_flows_.end());
  while (!starve_seam && !pending_.empty()) {
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (LinkId id : comp_links_) {
      const Link& link = links_[static_cast<std::size_t>(id)];
      if (link.wf_unfrozen > 0) {
        bottleneck_share = std::min(
            bottleneck_share, link.wf_capacity / link.wf_unfrozen);
      }
    }
    if (!std::isfinite(bottleneck_share)) break;  // defensive: no load
    recompute_passes_ += 1;

    still_pending_.clear();
    for (Flow* flow : pending_) {
      bool frozen = false;
      for (LinkId id : flow->path) {
        const Link& link = links_[static_cast<std::size_t>(id)];
        if (link.wf_unfrozen > 0 &&
            link.wf_capacity / link.wf_unfrozen <= bottleneck_share) {
          frozen = true;
          break;
        }
      }
      if (frozen) {
        flow->rate = bottleneck_share;
        for (LinkId id : flow->path) {
          Link& link = links_[static_cast<std::size_t>(id)];
          link.wf_capacity -= bottleneck_share;
          if (link.wf_capacity < 0) link.wf_capacity = 0;
          link.wf_unfrozen -= 1;
        }
      } else {
        still_pending_.push_back(flow);
      }
    }
    if (still_pending_.size() == pending_.size()) break;  // defensive
    pending_.swap(still_pending_);
  }
}

void Network::enter_h(std::int32_t link, std::int32_t after,
                      std::uint32_t pass) {
  WfLink& w = wf_links_[static_cast<std::size_t>(link)];
  w.h_pass = pass;
  // Frozen flows accumulate at the front of a bottleneck link's run (it
  // freezes them in id order), so skipping them once keeps repeated passes
  // over the same link cheap.
  while (w.head < w.end &&
         wf_frozen_[static_cast<std::size_t>(
             wf_members_[static_cast<std::size_t>(w.head)])] != 0) {
    ++w.head;
  }
  const auto next =
      std::upper_bound(wf_members_.begin() + w.head,
                       wf_members_.begin() + w.end, after);
  w.cursor = static_cast<std::int32_t>(next - wf_members_.begin());
  push_candidate(link, after);
}

void Network::push_candidate(std::int32_t link, std::int32_t after) {
  // Advance the link's cursor to its first unfrozen flow past `after` (the
  // last freeze) and mark that flow as a candidate.
  WfLink& w = wf_links_[static_cast<std::size_t>(link)];
  while (w.cursor < w.end) {
    const std::int32_t pos = wf_members_[static_cast<std::size_t>(w.cursor)];
    if (pos > after && wf_frozen_[static_cast<std::size_t>(pos)] == 0) {
      wf_candidates_[static_cast<std::size_t>(pos) >> 6] |=
          std::uint64_t{1} << (pos & 63);
      return;
    }
    ++w.cursor;
  }
}

void Network::water_fill_candidates(bool starve_seam) {
  // The reference pass visits every pending flow in id order and freezes
  // it at the bottleneck share b if any of its links has a fair share
  // <= b at that moment. The set H of such links changes only when a flow
  // freezes, so the next flow the reference pass freezes is the lowest-
  // positioned unfrozen flow, past the last one frozen, on any link in H.
  // Each link in H marks its candidate — the first such flow in its
  // id-ordered member list — in a bitset over component positions, so the
  // lowest set bit is the next freeze. A link in H that is on the frozen
  // flow's path had that flow as its candidate, so after each freeze only
  // the frozen flow's links are re-tested and re-marked — the same
  // freezes, in the same order, with the same float operations, at a cost
  // that follows the flows frozen.
  //
  // A link without unfrozen flows gets share +inf and drops out of the
  // live list. So does a link whose share is +inf or NaN from the start:
  // such a share is never the minimum of a finite pass and never <= a
  // finite b, and the reference stops at an infinite b.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = comp_flows_.size();
  wf_links_.clear();
  wf_share_.clear();
  wf_live_.clear();
  std::int32_t members = 0;
  for (LinkId id : comp_links_) {
    Link& link = links_[static_cast<std::size_t>(id)];
    link.wf_index = static_cast<std::int32_t>(wf_links_.size());
    WfLink w;
    w.capacity = link.spec.capacity * link.scale;
    w.unfrozen = link.active;
    w.head = members;
    w.end = members;
    members += link.active;
    const double share = w.unfrozen > 0 ? w.capacity / w.unfrozen : kInf;
    if (share < kInf) wf_live_.push_back(link.wf_index);
    wf_links_.push_back(w);
    wf_share_.push_back(share);
  }
  // Every flow on a crossed link is in the component, so each link's run
  // holds exactly `active` positions, filled in ascending order. Boundary
  // links are left out of the paths.
  wf_members_.resize(static_cast<std::size_t>(members));
  wf_paths_.clear();
  wf_path_begin_.clear();
  old_rates_.clear();
  for (std::size_t p = 0; p < n; ++p) {
    Flow& flow = *comp_flows_[p];
    old_rates_.push_back(flow.rate);
    flow.rate = 0.0;
    wf_path_begin_.push_back(static_cast<std::int32_t>(wf_paths_.size()));
    for (LinkId id : flow.path) {
      const Link& link = links_[static_cast<std::size_t>(id)];
      if (!link.visited) continue;
      const std::int32_t w = link.wf_index;
      wf_paths_.push_back(w);
      wf_members_[static_cast<std::size_t>(
          wf_links_[static_cast<std::size_t>(w)].end++)] =
          static_cast<std::int32_t>(p);
    }
  }
  wf_path_begin_.push_back(static_cast<std::int32_t>(wf_paths_.size()));
  wf_frozen_.assign(n, 0);
  // All clear between passes: a pass ends only once every bit is consumed.
  const std::size_t words = (n + 63) / 64;
  wf_candidates_.assign(words, 0);

  std::size_t unfrozen_flows = n;
  std::uint32_t pass = 0;
  while (!starve_seam && unfrozen_flows > 0) {
    ++pass;
    // Bottleneck share over the live links; H starts as the links
    // attaining it.
    double b = kInf;
    wf_bottlenecks_.clear();
    std::size_t live = 0;
    for (const std::int32_t idx : wf_live_) {
      const double share = wf_share_[static_cast<std::size_t>(idx)];
      if (!(share < kInf)) continue;
      wf_live_[live++] = idx;
      if (share < b) {
        b = share;
        wf_bottlenecks_.clear();
        wf_bottlenecks_.push_back(idx);
      } else if (share == b) {
        wf_bottlenecks_.push_back(idx);
      }
    }
    wf_live_.resize(live);
    if (!std::isfinite(b)) break;  // defensive: no load
    recompute_passes_ += 1;

    for (const std::int32_t idx : wf_bottlenecks_) enter_h(idx, -1, pass);
    bool froze = false;
    std::size_t word = 0;
    for (;;) {
      // Candidates only ever lie past the last freeze, so the scan for the
      // lowest one never moves backwards.
      while (word < words && wf_candidates_[word] == 0) ++word;
      if (word == words) break;
      std::uint64_t& bits = wf_candidates_[word];
      const auto p = static_cast<std::int32_t>(
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      const auto fp = static_cast<std::size_t>(p);
      comp_flows_[fp]->rate = b;
      wf_frozen_[fp] = 1;
      unfrozen_flows -= 1;
      froze = true;
      const auto path_first = wf_paths_.begin() + wf_path_begin_[fp];
      const auto path_last = wf_paths_.begin() + wf_path_begin_[fp + 1];
      for (auto it = path_first; it != path_last; ++it) {
        WfLink& w = wf_links_[static_cast<std::size_t>(*it)];
        w.capacity -= b;
        if (w.capacity < 0) w.capacity = 0;
        w.unfrozen -= 1;
        wf_share_[static_cast<std::size_t>(*it)] =
            w.unfrozen > 0 ? w.capacity / w.unfrozen : kInf;
      }
      // Only the frozen flow's links changed, so only they can enter or
      // leave H. A link staying in H had this flow as its candidate.
      for (auto it = path_first; it != path_last; ++it) {
        WfLink& w = wf_links_[static_cast<std::size_t>(*it)];
        if (!(wf_share_[static_cast<std::size_t>(*it)] <= b)) {
          w.h_pass = 0;
        } else if (w.h_pass != pass) {
          enter_h(*it, p, pass);
        } else {
          push_candidate(*it, p);
        }
      }
    }
    if (!froze) break;  // defensive
  }

  pending_.clear();
  if (unfrozen_flows == 0) return;
  for (std::size_t p = 0; p < n; ++p) {
    if (wf_frozen_[p] == 0) pending_.push_back(comp_flows_[p]);
  }
}

void Network::recompute_now() {
  if (!collect_component()) return;
  recomputes_ += 1;
  recompute_flow_visits_ += comp_flows_.size();

  if (!comp_flows_.empty()) {
    // Both passes leave each flow's new rate in flow.rate, its old one in
    // old_rates_, and the flows they failed to rate in pending_.
    const bool starve_seam = debug_starve_once_;
    debug_starve_once_ = false;
    if (options_.incremental_recompute) {
      water_fill_candidates(starve_seam);
      while (widen_component()) water_fill_candidates(starve_seam);
    } else {
      water_fill_reference(starve_seam);
    }

    if (!pending_.empty()) {
      // Water-filling failed to rate a transferring flow (a defensive break
      // above fired). An unrated flow schedules no completion, so on a
      // quiet network the run would hang. Self-heal: warn, re-dirty the
      // flow's links, and retry one tick later (not this tick, which would
      // loop); the assert makes an organic occurrence loud in debug builds.
      for (Flow* flow : pending_) {
        starvation_rescues_ += 1;
        warn(flow->id, "water-filling left flow unrated; rescue recompute");
        for (LinkId id : flow->path) mark_dirty(id);
      }
      assert(starve_seam &&
             "water-filling left a transferring flow unrated");
      engine_.schedule_after(1, [this] { request_recompute(); });
    }

    // Reschedule completions at the new rates, in ascending flow id. Flows
    // whose allocation did not change keep their existing completion event
    // and are NOT settled — settle instants are thus a function of rate
    // changes alone, which is what makes the incremental and reference
    // paths produce identical floating-point progress chunking.
    for (std::size_t i = 0; i < comp_flows_.size(); ++i) {
      Flow& flow = *comp_flows_[i];
      const double old_rate = old_rates_[i];
      const double new_rate = flow.rate;
      const bool rate_unchanged =
          old_rate > 0.0 &&
          std::abs(new_rate - old_rate) <= old_rate * 1e-12;
      const bool failure_current =
          flow.fail_at == 0 ||
          (rate_unchanged && engine_.is_pending(flow.failure));
      if (rate_unchanged && engine_.is_pending(flow.completion) &&
          failure_current) {
        continue;  // completion (and failure) times are still exact
      }
      flow.rate = old_rate;
      settle_flow(flow);
      flow.rate = new_rate;
      const FlowId fid = flow.id;
      // Completion/failure moves use Engine::rearm_after — the callbacks
      // are per-flow constants, so a pending event's slot (and its stored
      // std::function) is reused rather than reconstructed for every rate
      // change, and the stored handle is only rewritten when a fresh event
      // is scheduled. The fired-event order matches cancel+schedule
      // exactly (one seq either way).
      if (flow.remaining <= 0.5) {
        // Fractional residue from settling. An armed failure inside the
        // residual bytes still wins — the flow was injected to die in its
        // last bytes, so it must not slip through as a completion.
        if (flow.fail_at > 0) {
          engine_.cancel(flow.completion);
          engine_.rearm_after(flow.failure, 0, [this, fid] { fail_flow(fid); });
        } else {
          engine_.cancel(flow.failure);
          engine_.rearm_after(flow.completion, 0,
                              [this, fid] { finish_flow(fid); });
        }
        continue;
      }
      if (flow.rate <= 0.0) {  // stalled (outage) or rescue pending
        engine_.cancel(flow.completion);
        engine_.cancel(flow.failure);
        continue;
      }
      if (flow.fail_at > 0) {
        const double carried =
            static_cast<double>(flow.total_bytes) - flow.remaining;
        const double left = static_cast<double>(flow.fail_at) - carried;
        if (left <= 0.5) {
          // The armed byte already crossed; fail now.
          engine_.cancel(flow.completion);
          engine_.rearm_after(flow.failure, 0, [this, fid] { fail_flow(fid); });
          continue;  // no completion: the failure removes the flow first
        }
        const Tick fail_eta = util::transfer_time(
            static_cast<std::uint64_t>(std::ceil(left)), flow.rate);
        engine_.rearm_after(flow.failure, fail_eta,
                            [this, fid] { fail_flow(fid); });
        // Scheduled before completion: on an exact tie the failure wins.
      } else {
        engine_.cancel(flow.failure);
      }
      const Tick eta = util::transfer_time(
          static_cast<std::uint64_t>(std::ceil(flow.remaining)), flow.rate);
      engine_.rearm_after(flow.completion, eta,
                          [this, fid] { finish_flow(fid); });
    }
  }

  for (LinkId id : comp_links_) {
    links_[static_cast<std::size_t>(id)].visited = false;
  }
  for (LinkId id : boundary_links_) {
    links_[static_cast<std::size_t>(id)].boundary = false;
  }
  boundary_links_.clear();
  for (Flow* flow : comp_flows_) {
    in_component_[static_cast<std::size_t>(slot_of(*flow))] = 0;
  }
}

void Network::register_stats(obs::StatsRegistry& registry,
                             const std::string& prefix) const {
  registry.gauge(prefix + ".active_flows",
                 [this] { return static_cast<double>(live_flows_); });
  registry.gauge(prefix + ".flows_completed",
                 [this] { return static_cast<double>(flows_completed_); });
  registry.gauge(prefix + ".bytes_completed",
                 [this] { return static_cast<double>(bytes_completed_); });
  registry.gauge(prefix + ".flows_cancelled", [this] {
    return static_cast<double>(flows_cancelled_ + flows_failed_);
  });
  registry.gauge(prefix + ".bytes_abandoned",
                 [this] { return static_cast<double>(bytes_abandoned_); });
}

}  // namespace hepvine::net
