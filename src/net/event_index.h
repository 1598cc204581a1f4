// The flow network's event index: every live flow's earliest event key,
// by flow slot, and the earliest of them all.
//
// A key is the (tick, seq) an engine event would fire under; the network
// queues only the index minimum in the engine (Engine::rearm_keyed), so a
// re-rate that moves a hundred completions touches this index and at most
// one engine entry. The index is a 4-ary winner tree over slots: each node
// holds the slot with the earliest key below it. set() writes a leaf and
// queues its parent; repair() then re-derives the queued nodes one level
// at a time, queueing each parent once, so a batch of k changed keys costs
// O(k + their distinct ancestors) node merges with no branch on the keys.
// Early exit on an unchanged winner would save merges but cost a branch
// that mispredicts about half the time, which measured slower.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/units.h"

namespace hepvine::net {

class EventIndex {
 public:
  struct Key {
    util::Tick at = std::numeric_limits<util::Tick>::max();
    std::uint64_t seq = std::numeric_limits<std::uint64_t>::max();
    /// The default key is "no event" and sorts after every live one.
    [[nodiscard]] bool live() const noexcept {
      return at != std::numeric_limits<util::Tick>::max();
    }
    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Strict (at, seq) order, as one 128-bit compare (ticks are never
  /// negative), which compiles to a flag rather than a branch.
  [[nodiscard]] static bool before(const Key& a, const Key& b) noexcept {
    using U = unsigned __int128;
    return ((U{static_cast<std::uint64_t>(a.at)} << 64) | a.seq) <
           ((U{static_cast<std::uint64_t>(b.at)} << 64) | b.seq);
  }

  /// Cover slots [0, n); new slots hold no event. Pre: nothing queued.
  void reserve_slots(std::size_t n) {
    assert(queued_ == 0);
    if (n <= leaves_) return;
    std::size_t leaves = leaves_ == 0 ? 64 : leaves_;
    while (leaves < n) leaves *= 4;
    keys_.resize(leaves);
    leaves_ = leaves;
    inner_ = (leaves - 1) / 3;
    win_.resize(inner_);
    mark_.assign(inner_, 0);
    queue_.resize(inner_);
    bottom_ = (inner_ - 1) / 4;  // == inner_ - leaves / 4
    for (std::size_t q = inner_; q-- > bottom_;) win_[q] = merge_leaves(q);
    for (std::size_t q = bottom_; q-- > 0;) win_[q] = merge(q);
  }

  [[nodiscard]] const Key& key(std::int32_t slot) const {
    return keys_[static_cast<std::size_t>(slot)];
  }

  /// Set a slot's key (Key{} removes its event); top() is stale until the
  /// next repair().
  void set(std::int32_t slot, const Key& key) {
    keys_[static_cast<std::size_t>(slot)] = key;
    const std::size_t parent =
        (inner_ + static_cast<std::size_t>(slot) - 1) >> 2;
    queue_[queued_] = static_cast<std::uint32_t>(parent);
    queued_ += mark_[parent] ^ 1u;
    mark_[parent] = 1;
  }

  /// Re-derive every node above the keys set since the last repair.
  void repair() {
    std::size_t n = queued_;
    queued_ = 0;
    bool bottom = true;  // the first level's children are leaves
    while (n > 0) {
      if (queue_[0] == 0) {  // the root, alone on its level
        mark_[0] = 0;
        win_[0] = merge(0);  // leaves_ >= 64: the root is never bottom
        return;
      }
      std::size_t m = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t q = queue_[i];
        mark_[q] = 0;
        win_[q] = bottom ? merge_leaves(q) : merge(q);
        const std::size_t parent = (q - 1) >> 2;
        queue_[m] = static_cast<std::uint32_t>(parent);  // m <= i: read
        m += mark_[parent] ^ 1u;
        mark_[parent] = 1;
      }
      n = m;
      bottom = false;
    }
  }

  /// The slot holding the earliest key, or -1 when no slot has an event.
  [[nodiscard]] std::int32_t top() const {
    assert(queued_ == 0);
    if (leaves_ == 0) return -1;
    const std::int32_t slot = win_[0];
    return keys_[static_cast<std::size_t>(slot)].live() ? slot : -1;
  }

 private:
  /// The earliest of node q's four children's winners, by a tournament of
  /// index selects: a branch per compare would mispredict half the time.
  [[nodiscard]] std::int32_t merge(std::size_t q) const {
    const std::int32_t* c = &win_[4 * q + 1];
    return pick(pick(c[0], c[1]), pick(c[2], c[3]));
  }
  /// merge() for a node just above the leaves: its children are the four
  /// consecutive slots from 4q + 1 - inner_.
  [[nodiscard]] std::int32_t merge_leaves(std::size_t q) const {
    const auto first = static_cast<std::int32_t>(4 * q + 1 - inner_);
    return pick(pick(first, first + 1), pick(first + 2, first + 3));
  }
  /// Of two slots, the one with the earlier key (a on a tie).
  [[nodiscard]] std::int32_t pick(std::int32_t a, std::int32_t b) const {
    const auto b_first = static_cast<std::int32_t>(
        before(keys_[static_cast<std::size_t>(b)],
               keys_[static_cast<std::size_t>(a)]));
    return a ^ ((a ^ b) & -b_first);
  }

  std::size_t leaves_ = 0;         // a power of 4
  std::size_t inner_ = 0;          // internal nodes: (leaves_ - 1) / 3
  std::size_t bottom_ = 0;         // first node whose children are leaves
  std::vector<Key> keys_;          // by slot
  /// By internal node: root 0, children of q at 4q+1..4q+4, where node
  /// inner_ + s is the leaf of slot s.
  std::vector<std::int32_t> win_;
  std::vector<std::uint8_t> mark_;        // by internal node: queued
  std::vector<std::uint32_t> queue_;      // queued nodes, one level
  std::size_t queued_ = 0;
};

}  // namespace hepvine::net
