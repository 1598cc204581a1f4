#include "net/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/max_min.h"

namespace hepvine::net {

LinkId Network::add_link(std::string name, Bandwidth capacity) {
  const auto id = static_cast<LinkId>(links_.size());
  Link link;
  link.capacity = capacity;
  links_.push_back(std::move(link));
  link_specs_.push_back(LinkSpec{std::move(name), capacity});
  link_scales_.push_back(1.0);
  link_stats_.emplace_back();
  link_state_.push_back(kUnreached);
  return id;
}

std::int32_t Network::find_slot(FlowId id) const {
  if (id < window_base_) return -1;
  const auto idx = static_cast<std::size_t>(id - window_base_);
  return idx < window_.size() ? window_[idx] : -1;
}

std::int32_t Network::create_flow(FlowId id) {
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::int32_t>(flows_.size());
    flows_.emplace_back();
    hot_.emplace_back();
    armed_keys_.emplace_back();
    comp_pos_.push_back(-1);
    events_.reserve_slots(flows_.size());
  }
  assert(window_base_ + static_cast<FlowId>(window_.size()) == id);
  window_.push_back(slot);
  live_flows_ += 1;
  flow_at(slot).id = id;
  return slot;
}

void Network::destroy_flow(FlowId id) {
  const auto idx = static_cast<std::size_t>(id - window_base_);
  const std::int32_t slot = window_[idx];
  assert(slot >= 0);
  // Reset in place so the recycled slot starts clean and the done callback
  // releases its captures now, not at slot reuse.
  const auto s = static_cast<std::size_t>(slot);
  assert(!events_.key(slot).live() && !armed_keys_[s].finish.live() &&
         !armed_keys_[s].fail.live());
  flows_[s] = Flow{};
  hot_[s] = FlowHot{};
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

FlowId Network::start_flow(std::span<const LinkId> path,
                           std::uint64_t bytes, Tick latency,
                           std::function<void(FlowId)> done) {
  if (path.size() > kMaxPathLinks) {
    throw std::invalid_argument("net: a flow path crosses at most " +
                                std::to_string(kMaxPathLinks) + " links");
  }
  const FlowId id = next_flow_id_++;
  const std::int32_t slot = create_flow(id);
  FlowHot& hot = hot_[static_cast<std::size_t>(slot)];
  for (const LinkId link : path) {
    assert(link >= 0 && static_cast<std::size_t>(link) < links_.size());
    hot.path.links[static_cast<std::size_t>(hot.path.size++)] = link;
    link_stats_[static_cast<std::size_t>(link)].flows_carried += 1;
  }
  hot.remaining = static_cast<double>(bytes);
  hot.last_update = engine_.now();
  Flow& flow = flow_at(slot);
  flow.total_bytes = bytes;
  flow.done = std::move(done);
  flow.created_at = engine_.now();
  engine_.rearm_after(flow.setup, latency,
                      [this, id] { begin_transfer(id); });
  return id;
}

void Network::begin_transfer(FlowId id) {
  const std::int32_t slot = find_slot(id);
  if (slot < 0) return;
  FlowHot& hot = hot_[static_cast<std::size_t>(slot)];
  if (hot.remaining <= 0.0) {
    finish_flow(id);
    return;
  }
  flow_at(slot).transferring = true;
  hot.last_update = engine_.now();
  // Ids are issued monotonically, so a starting transfer usually sorts at
  // or near the back.
  const auto pos = std::lower_bound(
      transferring_.begin(), transferring_.end(), id,
      [](const std::pair<FlowId, std::int32_t>& e, FlowId v) {
        return e.first < v;
      });
  transferring_.insert(pos, {id, slot});
  for (const LinkId link : hot_[static_cast<std::size_t>(slot)].path) {
    Link& l = links_[static_cast<std::size_t>(link)];
    l.active += 1;
    l.flows.push_back(slot);
    mark_dirty(link);
  }
  request_recompute();
}

void Network::release_links(std::int32_t slot) {
  Flow& flow = flow_at(slot);
  if (!flow.transferring) return;
  const auto pos = std::lower_bound(
      transferring_.begin(), transferring_.end(), flow.id,
      [](const std::pair<FlowId, std::int32_t>& e, FlowId v) {
        return e.first < v;
      });
  assert(pos != transferring_.end() && pos->first == flow.id);
  // The entry becomes a tombstone rather than shifting the id-ordered tail
  // down; tombstones are swept once they are an eighth of the list.
  pos->second = -1;
  if (++transferring_dead_ * 8 > transferring_.size()) {
    std::erase_if(transferring_, [](const auto& e) { return e.second < 0; });
    transferring_dead_ = 0;
  }
  for (const LinkId link : hot_[static_cast<std::size_t>(slot)].path) {
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

void Network::cancel_flow(FlowId id) { abandon_flow(id, 'C'); }

void Network::fail_flow(FlowId id) { abandon_flow(id, 'F'); }

void Network::abandon_flow(FlowId id, char outcome) {
  const std::int32_t slot = find_slot(id);
  if (slot < 0) return;
  Flow& flow = flow_at(slot);
  engine_.cancel(flow.setup);
  drop_keys(slot);
  if (flow.transferring) settle_flow(slot);
  release_links(slot);
  (outcome == 'F' ? flows_failed_ : flows_cancelled_) += 1;
  const std::uint64_t carried = hot_[static_cast<std::size_t>(slot)].attributed;
  bytes_abandoned_ += carried;
  const Tick created = flow.created_at;
  const std::uint64_t total = flow.total_bytes;
  destroy_flow(id);
  if (on_span_) on_span_(created, engine_.now(), id, total, carried, outcome);
  if (outcome == 'F' && on_fail_) on_fail_(id);
}

void Network::arm_flow_fault(FlowId id, std::uint64_t fail_after_bytes) {
  const std::int32_t slot = find_slot(id);
  if (slot < 0) return;
  Flow& flow = flow_at(slot);
  if (flow.total_bytes == 0) return;  // no mid-stream byte to fail on
  hot_[static_cast<std::size_t>(slot)].fail_at =
      std::clamp<std::uint64_t>(fail_after_bytes, 1, flow.total_bytes);
  // If the flow is live, rates are already assigned and no recompute may be
  // coming; dirty its path and (re)schedule the failure from here. Flows
  // still in setup pick up their failure event in the next recompute.
  if (flow.transferring) {
    for (const LinkId link : hot_[static_cast<std::size_t>(slot)].path) {
      mark_dirty(link);
    }
    request_recompute();
  }
}

Bandwidth Network::flow_rate(FlowId id) const {
  const std::int32_t slot = find_slot(id);
  return slot < 0 ? 0.0 : hot_[static_cast<std::size_t>(slot)].rate;
}

void Network::set_link_scale(LinkId id, double factor) {
  const auto l = static_cast<std::size_t>(id);
  if (link_scales_[l] == factor) return;
  link_scales_[l] = factor;
  links_[l].capacity = link_specs_[l].capacity * factor;
  mark_dirty(id);
  request_recompute();
}

void Network::attribute_bytes(FlowHot& hot, std::uint64_t bytes) {
  if (bytes == 0) return;
  hot.attributed += bytes;
  for (const LinkId link : hot.path) {
    link_stats_[static_cast<std::size_t>(link)].bytes_carried += bytes;
  }
}

void Network::finish_flow(FlowId id) {
  const std::int32_t slot = find_slot(id);
  if (slot < 0) return;
  Flow& flow = flow_at(slot);
  // Charge this flow's progress up to now so link statistics include the
  // final stretch (settling is per-flow: each flow has its own last_update).
  settle_flow(slot);
  engine_.cancel(flow.setup);
  drop_keys(slot);
  if (flow.transferring) {
    // Attribute whatever rounding left behind so a completed flow charges
    // its links exactly total_bytes, no more and no less.
    FlowHot& hot = hot_[static_cast<std::size_t>(slot)];
    assert(hot.attributed <= flow.total_bytes);
    attribute_bytes(hot, flow.total_bytes - hot.attributed);
    release_links(slot);
  }
  bytes_completed_ += flow.total_bytes;
  auto done = std::move(flow.done);
  const Tick created = flow.created_at;
  const std::uint64_t total = flow.total_bytes;
  destroy_flow(id);
  flows_completed_ += 1;
  if (on_span_) on_span_(created, engine_.now(), id, total, total, 'D');
  if (done) done(id);
  request_recompute();
}

void Network::drop_keys(std::int32_t slot) {
  if (!events_.key(slot).live()) return;  // nor any armed key
  armed_keys_[static_cast<std::size_t>(slot)] = ArmedKeys{};
  events_.set(slot, Key{});
  sync_event();
}

std::size_t Network::pending_flow_events() const {
  std::size_t pending = 0;
  for (std::size_t s = 0; s < flows_.size(); ++s) {
    const ArmedKeys& armed = armed_keys_[s];
    pending += hot_[s].fail_at > 0
                   ? static_cast<std::size_t>(armed.finish.live()) +
                         static_cast<std::size_t>(armed.fail.live())
                   : static_cast<std::size_t>(
                         events_.key(static_cast<std::int32_t>(s)).live());
  }
  return pending;
}

void Network::sync_event() {
  events_.repair();
  const std::int32_t top = events_.top();
  if (top < 0) {
    engine_.cancel(event_);
    event_key_ = Key{};
    return;
  }
  const Key& key = events_.key(top);
  if (key == event_key_ && engine_.is_pending(event_)) return;
  event_key_ = key;
  engine_.rearm_keyed(event_, key.at, key.seq, [this] { fire_event(); });
}

bool Network::event_synced() const {
  const std::int32_t top = events_.top();
  if (top < 0) return !engine_.is_pending(event_);
  return engine_.is_pending(event_) && events_.key(top) == event_key_;
}

void Network::fire_event() {
  // The engine has retired event_; dropping the fired key re-queues it
  // under the next minimum.
  const std::int32_t slot = events_.top();
  assert(slot >= 0 && events_.key(slot) == event_key_);
  const FlowId id = flow_at(slot).id;
  if (armed_keys_[static_cast<std::size_t>(slot)].fail == event_key_) {
    fail_flow(id);
  } else {
    finish_flow(id);
  }
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

void Network::settle_flow(std::int32_t slot) {
  const Tick now = engine_.now();
  FlowHot& hot = hot_[static_cast<std::size_t>(slot)];
  const Tick elapsed = now - hot.last_update;
  if (flow_at(slot).transferring && elapsed > 0 && hot.rate > 0) {
    attribute_bytes(hot, hot.advance(hot.rate * util::to_seconds(elapsed)));
  }
  hot.last_update = now;
}

// kSaturatedFraction (max_min.h) only decides which links the walk
// crosses; computed rates get no tolerance.
bool Network::saturated(const Link& link, bool filled) const {
  double load = 0;
  for (const std::int32_t slot : link.flows) {
    const auto s = static_cast<std::size_t>(slot);
    const std::int32_t pos = filled ? comp_pos_[s] : -1;
    load +=
        pos >= 0 ? new_rates_[static_cast<std::size_t>(pos)] : hot_[s].rate;
  }
  return load >= link.capacity * kSaturatedFraction;
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
  comp_slots_.clear();
  if (options_.incremental_recompute) {
    if (dirty_links_.empty()) return false;
    bfs_stack_.clear();
    for (LinkId id : dirty_links_) {
      links_[static_cast<std::size_t>(id)].dirty = false;
      std::int32_t& state = link_state_[static_cast<std::size_t>(id)];
      if (state == kUnreached) {
        state = kQueued;
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
        link_state_[i] = static_cast<std::int32_t>(comp_links_.size());
        comp_links_.push_back(static_cast<LinkId>(i));
      }
    }
    for (const auto& [id, slot] : transferring_) {
      if (slot >= 0) comp_slots_.push_back(slot);
    }
  }
  gather_component();
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
    link_state_[static_cast<std::size_t>(lid)] =
        static_cast<std::int32_t>(comp_links_.size());
    comp_links_.push_back(lid);
    for (const std::int32_t slot :
         links_[static_cast<std::size_t>(lid)].flows) {
      std::int32_t& mark = comp_pos_[static_cast<std::size_t>(slot)];
      if (mark >= 0) continue;
      mark = 0;  // a position once ordered
      assert(flow_at(slot).transferring);
      comp_slots_.push_back(slot);
      for (const LinkId pl : hot_[static_cast<std::size_t>(slot)].path) {
        std::int32_t& state = link_state_[static_cast<std::size_t>(pl)];
        if (state != kUnreached) continue;
        if (saturated(links_[static_cast<std::size_t>(pl)], false)) {
          state = kQueued;
          bfs_stack_.push_back(pl);
        } else {
          state = kBoundary;
          boundary_links_.push_back(pl);
        }
      }
    }
  }
  order_component();
}

void Network::order_component() {
  // Discovery order depends on link lists; the contract below is id order.
  // A component spanning a good share of the transferring flows (the
  // shared-bottleneck regime) is cheaper to pick out of the persistent
  // id-ordered list than to sort.
  if (comp_slots_.size() * 4 >= transferring_.size() - transferring_dead_) {
    comp_slots_.resize(transferring_.size());
    std::size_t kept = 0;
    for (const auto& [id, slot] : transferring_) {
      if (slot < 0) continue;  // a tombstone
      comp_slots_[kept] = slot;  // kept only if marked; no branch to miss
      kept += comp_pos_[static_cast<std::size_t>(slot)] >= 0 ? 1 : 0;
    }
    comp_slots_.resize(kept);
  } else {
    std::sort(comp_slots_.begin(), comp_slots_.end(),
              [this](std::int32_t a, std::int32_t b) {
                return flow_at(a).id < flow_at(b).id;
              });
  }
}

void Network::gather_component() {
  // Each crossed link gets a dense wf_links_ entry; each component flow,
  // in id order, gets its position, its old rate, and its crossed links
  // as wf_links_ indices. Boundary links are left out of the paths. Every
  // flow on a crossed link is in the component, so each link's member run
  // holds exactly `active` positions, filled in ascending order. After
  // this, neither fill touches a Link or a flow's slot.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  wf_links_.clear();
  wf_share_.clear();
  wf_live_.clear();
  std::int32_t members = 0;
  for (const LinkId id : comp_links_) {
    const Link& link = links_[static_cast<std::size_t>(id)];
    WfLink w;
    w.capacity = link.capacity;
    w.unfrozen = link.active;
    w.head = members;
    w.end = members;
    members += link.active;
    const double share = w.unfrozen > 0 ? w.capacity / w.unfrozen : kInf;
    if (share < kInf) {
      wf_live_.push_back(static_cast<std::int32_t>(wf_links_.size()));
    }
    wf_links_.push_back(w);
    wf_share_.push_back(share);
  }
  wf_members_.resize(static_cast<std::size_t>(members));
  const std::size_t n = comp_slots_.size();
  old_rates_.resize(n);
  new_rates_.assign(n, 0.0);
  wf_paths_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const auto slot = static_cast<std::size_t>(comp_slots_[p]);
    comp_pos_[slot] = static_cast<std::int32_t>(p);
    const FlowHot& hot = hot_[slot];
    old_rates_[p] = hot.rate;
    WfPath& wp = wf_paths_[p];
    wp.size = 0;
    for (const LinkId id : hot.path) {
      const std::int32_t w = link_state_[static_cast<std::size_t>(id)];
      if (w < 0) continue;
      wp.links[static_cast<std::size_t>(wp.size++)] = w;
      wf_members_[static_cast<std::size_t>(
          wf_links_[static_cast<std::size_t>(w)].end++)] =
          static_cast<std::int32_t>(p);
    }
  }
}

bool Network::widen_component() {
  // A boundary link saturated at the new rates may have bottlenecked a
  // flow in the global fill, which would couple the flows on its two
  // sides. Cross it, walk on from it at the old rates, and let the caller
  // fill the larger set again.
  std::size_t kept = 0;
  for (const LinkId id : boundary_links_) {
    if (saturated(links_[static_cast<std::size_t>(id)], true)) {
      link_state_[static_cast<std::size_t>(id)] = kQueued;
      bfs_stack_.push_back(id);
    } else {
      boundary_links_[kept++] = id;
    }
  }
  boundary_links_.resize(kept);
  if (bfs_stack_.empty()) return false;
  recompute_expansions_ += 1;
  walk_component();
  gather_component();
  recompute_flow_visits_ += comp_slots_.size();
  return true;
}

void Network::water_fill_reference(bool starve_seam) {
  // Progressive water-filling over the recompute set. Each pass finds the
  // most-contended link, freezes its flows at that link's fair share, and
  // removes the consumed capacity; repeats until every flow has a rate.
  // The freeze comparison is exact (no tolerance): that makes per-
  // component water-filling bit-identical to the global pass — a link
  // merely *near* another component's bottleneck must not freeze early.
  pending_.resize(comp_slots_.size());
  for (std::size_t p = 0; p < pending_.size(); ++p) {
    pending_[p] = static_cast<std::int32_t>(p);
  }
  while (!starve_seam && !pending_.empty()) {
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (const WfLink& link : wf_links_) {
      if (link.unfrozen > 0) {
        bottleneck_share =
            std::min(bottleneck_share, link.capacity / link.unfrozen);
      }
    }
    if (!std::isfinite(bottleneck_share)) break;  // defensive: no load
    recompute_passes_ += 1;

    still_pending_.clear();
    for (const std::int32_t p : pending_) {
      const WfPath& path = wf_paths_[static_cast<std::size_t>(p)];
      bool frozen = false;
      for (const std::int32_t w : path) {
        const WfLink& link = wf_links_[static_cast<std::size_t>(w)];
        if (link.unfrozen > 0 &&
            link.capacity / link.unfrozen <= bottleneck_share) {
          frozen = true;
          break;
        }
      }
      if (frozen) {
        new_rates_[static_cast<std::size_t>(p)] = bottleneck_share;
        for (const std::int32_t w : path) {
          WfLink& link = wf_links_[static_cast<std::size_t>(w)];
          link.capacity -= bottleneck_share;
          if (link.capacity < 0) link.capacity = 0;
          link.unfrozen -= 1;
        }
      } else {
        still_pending_.push_back(p);
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

std::size_t Network::freeze_solo(std::int32_t link, double b,
                                 std::uint32_t pass) {
  // While H is this one link, the bitset holds at most its candidate, so
  // the next freeze is always that candidate: walk the link's member run
  // with its state in registers instead of round-tripping each freeze
  // through the bitset. Once a freeze brings another link into H, hand
  // the pass back with the bitset as the loop in water_fill_candidates
  // would have left it. Same freezes, same order, same float operations.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto l = static_cast<std::size_t>(link);
  WfLink& w = wf_links_[l];
  if (w.cursor == w.end) return 0;
  const std::int32_t first = wf_members_[static_cast<std::size_t>(w.cursor)];
  wf_candidates_[static_cast<std::size_t>(first) >> 6] &=
      ~(std::uint64_t{1} << (first & 63));
  double capacity = w.capacity;
  std::int32_t unfrozen = w.unfrozen;
  double share = wf_share_[l];
  std::int32_t cursor = w.cursor;
  std::int32_t p = -1;
  std::size_t frozen = 0;
  bool alone = true;
  while (cursor < w.end) {
    const std::int32_t q = wf_members_[static_cast<std::size_t>(cursor++)];
    if (wf_frozen_[static_cast<std::size_t>(q)] != 0) continue;
    p = q;
    const auto fp = static_cast<std::size_t>(p);
    new_rates_[fp] = b;
    wf_frozen_[fp] = 1;
    ++frozen;
    const WfPath& path = wf_paths_[fp];
    for (const std::int32_t idx : path) {
      if (idx == link) {
        capacity -= b;
        if (capacity < 0) capacity = 0;
        unfrozen -= 1;
        share = unfrozen > 0 ? capacity / unfrozen : kInf;
        continue;
      }
      WfLink& o = wf_links_[static_cast<std::size_t>(idx)];
      o.capacity -= b;
      if (o.capacity < 0) o.capacity = 0;
      o.unfrozen -= 1;
      wf_share_[static_cast<std::size_t>(idx)] =
          o.unfrozen > 0 ? o.capacity / o.unfrozen : kInf;
    }
    for (const std::int32_t idx : path) {
      if (idx == link) continue;
      WfLink& o = wf_links_[static_cast<std::size_t>(idx)];
      if (!(wf_share_[static_cast<std::size_t>(idx)] <= b)) {
        o.h_pass = 0;
      } else if (o.h_pass != pass) {
        enter_h(idx, p, pass);
        alone = false;
      } else {
        push_candidate(idx, p);  // the link is twice on the path
      }
    }
    if (!(share <= b) || !alone) break;
  }
  w.capacity = capacity;
  w.unfrozen = unfrozen;
  wf_share_[l] = share;
  w.cursor = cursor;
  if (!(share <= b)) {
    w.h_pass = 0;
  } else if (!alone) {
    push_candidate(link, p);
  }
  return frozen;
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
  const std::size_t n = comp_slots_.size();
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
    if (wf_bottlenecks_.size() == 1) {
      const std::size_t solo = freeze_solo(wf_bottlenecks_.front(), b, pass);
      unfrozen_flows -= solo;
      froze = solo > 0;
    }
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
      new_rates_[fp] = b;
      wf_frozen_[fp] = 1;
      unfrozen_flows -= 1;
      froze = true;
      const WfPath& path = wf_paths_[fp];
      for (const std::int32_t idx : path) {
        WfLink& w = wf_links_[static_cast<std::size_t>(idx)];
        w.capacity -= b;
        if (w.capacity < 0) w.capacity = 0;
        w.unfrozen -= 1;
        wf_share_[static_cast<std::size_t>(idx)] =
            w.unfrozen > 0 ? w.capacity / w.unfrozen : kInf;
      }
      // Only the frozen flow's links changed, so only they can enter or
      // leave H. A link staying in H had this flow as its candidate.
      for (const std::int32_t idx : path) {
        WfLink& w = wf_links_[static_cast<std::size_t>(idx)];
        if (!(wf_share_[static_cast<std::size_t>(idx)] <= b)) {
          w.h_pass = 0;
        } else if (w.h_pass != pass) {
          enter_h(idx, p, pass);
        } else {
          push_candidate(idx, p);
        }
      }
    }
    if (!froze) break;  // defensive
  }

  pending_.clear();
  if (unfrozen_flows == 0) return;
  for (std::size_t p = 0; p < n; ++p) {
    if (wf_frozen_[p] == 0) pending_.push_back(static_cast<std::int32_t>(p));
  }
}

void Network::recompute_now() {
  if (!collect_component()) return;
  recomputes_ += 1;
  recompute_flow_visits_ += comp_slots_.size();

  if (!comp_slots_.empty()) {
    // Both fills leave each flow's new rate in new_rates_ (flows' rates
    // stay the old ones until rerate_component), and the positions they
    // failed to rate in pending_.
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
      for (const std::int32_t p : pending_) {
        const std::int32_t slot = comp_slots_[static_cast<std::size_t>(p)];
        starvation_rescues_ += 1;
        warn(flow_at(slot).id,
             "water-filling left flow unrated; rescue recompute");
        for (const LinkId id : hot_[static_cast<std::size_t>(slot)].path) {
          mark_dirty(id);
        }
      }
      assert(starve_seam &&
             "water-filling left a transferring flow unrated");
      engine_.schedule_after(1, [this] { request_recompute(); });
    }

    rerate_component();
    sync_event();
  }
  assert(event_synced());
  assert(starvation_rescues_ != 0 || rates_max_min_fair());

  for (const LinkId id : comp_links_) {
    link_state_[static_cast<std::size_t>(id)] = kUnreached;
  }
  for (const LinkId id : boundary_links_) {
    link_state_[static_cast<std::size_t>(id)] = kUnreached;
  }
  boundary_links_.clear();
  for (const std::int32_t slot : comp_slots_) {
    comp_pos_[static_cast<std::size_t>(slot)] = -1;
  }
}

void Network::rerate_component() {
  // Write every new rate; settle each flow whose allocation changed at its
  // old rate and re-key its events. Flows whose allocation did not change
  // keep their existing keys and are NOT settled — settle instants are
  // thus a function of rate changes alone, which is what makes the
  // incremental and reference paths produce identical floating-point
  // progress chunking. Flows go in ascending id, and each takes its
  // failure seq before its completion seq, so every key gets the seq an
  // engine event moved the same way would have; a dropped key takes none.
  // Settling never touches the engine, so issuing seqs in the same loop
  // changes no order.
  const Tick now = engine_.now();
  Tick memo_elapsed = 0;  // to_seconds is pure: one division per elapsed
  double memo_seconds = 0;
  for (std::size_t p = 0; p < comp_slots_.size(); ++p) {
    const std::int32_t slot = comp_slots_[p];
    const auto s = static_cast<std::size_t>(slot);
    FlowHot& hot = hot_[s];
    const double old_rate = old_rates_[p];
    const double new_rate = new_rates_[p];
    hot.rate = new_rate;
    const bool armed = hot.fail_at > 0;
    const bool rate_unchanged =
        old_rate > 0.0 && std::abs(new_rate - old_rate) <= old_rate * 1e-12;
    if (rate_unchanged &&
        (armed ? armed_keys_[s].finish.live() && armed_keys_[s].fail.live()
               : events_.key(slot).live())) {
      continue;  // completion (and failure) times are still exact
    }
    const Tick elapsed = now - hot.last_update;
    if (elapsed > 0 && old_rate > 0) {
      if (elapsed != memo_elapsed) {
        memo_elapsed = elapsed;
        memo_seconds = util::to_seconds(elapsed);
      }
      attribute_bytes(hot, hot.advance(old_rate * memo_seconds));
    }
    hot.last_update = now;
    recompute_rearms_ += 1;

    // Delays to key each event at; -1 drops it.
    Tick fail_after = -1;
    Tick finish_after = -1;
    if (hot.remaining <= 0.5) {
      // Fractional residue from settling. An armed failure inside the
      // residual bytes still wins — the flow was injected to die in its
      // last bytes, so it must not slip through as a completion.
      (armed ? fail_after : finish_after) = 0;
    } else if (new_rate > 0.0) {  // else stalled (outage) or rescue pending
      const double left =
          armed ? static_cast<double>(hot.fail_at) -
                      (static_cast<double>(flows_[s].total_bytes) -
                       hot.remaining)
                : 0.0;
      if (armed && left <= 0.5) {
        // The armed byte already crossed; fail now, with no completion:
        // the failure removes the flow first.
        fail_after = 0;
      } else {
        // Keyed before completion: on an exact tie the failure wins.
        if (armed) {
          fail_after = util::transfer_time(util::ceil_bytes(left), new_rate);
        }
        finish_after =
            util::transfer_time(util::ceil_bytes(hot.remaining), new_rate);
      }
    }
    if (!armed) {
      events_.set(slot, finish_after < 0
                            ? Key{}
                            : Key{now + finish_after, engine_.issue_seq()});
      continue;
    }
    ArmedKeys& keys = armed_keys_[s];
    keys.fail =
        fail_after < 0 ? Key{} : Key{now + fail_after, engine_.issue_seq()};
    keys.finish = finish_after < 0
                      ? Key{}
                      : Key{now + finish_after, engine_.issue_seq()};
    events_.set(slot,
                EventIndex::before(keys.fail, keys.finish) ? keys.fail
                                                           : keys.finish);
  }
}

bool Network::rates_max_min_fair() const {
  std::vector<double> capacities;
  capacities.reserve(links_.size());
  for (const Link& link : links_) capacities.push_back(link.capacity);
  std::vector<std::vector<std::int32_t>> paths;
  std::vector<double> rates;
  for (const auto& [id, slot] : transferring_) {
    if (slot < 0) continue;
    const FlowHot& hot = hot_[static_cast<std::size_t>(slot)];
    paths.emplace_back(hot.path.begin(), hot.path.end());
    rates.push_back(hot.rate);
  }
  const std::string violation = check_max_min(capacities, paths, rates);
  if (!violation.empty()) {
    std::fprintf(stderr, "net: not max-min fair: %s\n", violation.c_str());
  }
  return violation.empty();
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
