// Dispatch index: the indexed placement path's view of the workers.
//
// EligibleSet is a bitmap of the workers that can take a task now;
// the round-robin placement walks it from a cursor. DispatchIndex is a
// segment tree over worker ids that ranks them: each leaf holds two keys
// — disk-tight fallback headroom and raw disk capacity, each stored as
// value + 1 so that 0 marks an ineligible worker (live zero headroom is
// key 1) — and every inner node keeps the larger key of its children,
// ties to the smaller worker id. The root answers "roomiest eligible
// worker" and "largest eligible disk" in O(1); a leaf update fixes its
// root path in O(log workers). Leaves go stale lazily: WorkerDisk marks a
// worker on every mutation and Placement on every eligibility change, and
// Placement refreshes the marked leaves before it reads the tree.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster.h"

namespace hepvine::vine {

class EligibleSet {
 public:
  void reset(std::size_t workers) {
    workers_ = workers;
    bits_.assign((workers + 63) / 64, 0);
  }

  [[nodiscard]] bool contains(cluster::WorkerId w) const {
    return (bits_[static_cast<std::size_t>(w) >> 6] >>
            (static_cast<std::uint32_t>(w) & 63)) &
           1u;
  }

  /// Add `w` to (or drop it from) the set. Returns whether that changed it.
  bool set(cluster::WorkerId w, bool member) {
    auto& word = bits_[static_cast<std::size_t>(w) >> 6];
    const std::uint64_t bit = 1ull << (static_cast<std::uint32_t>(w) & 63);
    if (((word & bit) != 0) == member) return false;
    word ^= bit;
    return true;
  }

  /// Visit members in circular id order — ids >= start ascending, then
  /// wraparound — until `fn` returns true. Returns the worker it stopped
  /// on, or kNoWorker.
  template <typename Fn>
  [[nodiscard]] cluster::WorkerId walk(cluster::WorkerId start,
                                       Fn&& fn) const {
    const std::size_t words = bits_.size();
    if (words == 0) return cluster::kNoWorker;
    std::size_t s = static_cast<std::size_t>(start);
    if (s >= workers_) s = 0;
    // The start's word comes up twice: its ids >= start first, its ids
    // < start last, after every other word in circular order.
    for (std::size_t k = 0; k <= words; ++k) {
      const std::size_t wi = ((s >> 6) + k) % words;
      std::uint64_t word = bits_[wi];
      if (k == 0) word &= ~0ull << (s & 63);
      if (k == words) word &= (1ull << (s & 63)) - 1;
      for (; word != 0; word &= word - 1) {
        const auto w = static_cast<cluster::WorkerId>(
            (wi << 6) + static_cast<std::size_t>(__builtin_ctzll(word)));
        if (fn(w)) return w;
      }
    }
    return cluster::kNoWorker;
  }

 private:
  std::size_t workers_ = 0;
  std::vector<std::uint64_t> bits_;
};

class DispatchIndex {
 public:
  struct Node {
    std::uint64_t free_key = 0;  // headroom + 1; 0 = ineligible
    std::uint64_t cap_key = 0;   // capacity + 1; 0 = ineligible
    cluster::WorkerId free_w = cluster::kNoWorker;
  };

  void reset(std::size_t workers) {
    leaves_ = 1;
    while (leaves_ < workers) leaves_ <<= 1;
    nodes_.assign(2 * leaves_, Node{});
    stale_flags_.assign(workers, 0);
    stale_.clear();
  }

  /// Mark `w`'s leaf out of date. O(1) and idempotent: bursts of marks
  /// between queries cost one bit each, not a tree walk each.
  void mark(cluster::WorkerId w) {
    auto& flag = stale_flags_[static_cast<std::size_t>(w)];
    if (flag == 0) {
      flag = 1;
      stale_.push_back(w);
    }
  }

  /// Re-derive every marked leaf, in marking order, from `keys(w)`: its
  /// (free, capacity) keys, 0 marking an ineligible worker. Each changed
  /// leaf fixes up its root path in O(log workers).
  template <typename KeysFn>
  void refresh(KeysFn&& keys) {
    for (cluster::WorkerId w : stale_) {
      stale_flags_[static_cast<std::size_t>(w)] = 0;
      const auto [free_key, cap_key] = keys(w);
      std::size_t i = leaves_ + static_cast<std::size_t>(w);
      // Most marks re-derive an unchanged leaf (pins and reservations
      // that cancel out, non-reclaimable files): skip the root fix-up.
      if (nodes_[i].free_key == free_key && nodes_[i].cap_key == cap_key) {
        continue;
      }
      nodes_[i] = Node{free_key, cap_key, w};
      for (i >>= 1; i >= 1; i >>= 1) {
        nodes_[i] = merge(nodes_[2 * i], nodes_[2 * i + 1]);
      }
    }
    stale_.clear();
  }

  /// Worker `w`'s (free, capacity) keys as last updated.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> leaf(
      cluster::WorkerId w) const {
    const Node& n = nodes_[leaves_ + static_cast<std::size_t>(w)];
    return {n.free_key, n.cap_key};
  }

  /// The root: the most fallback headroom over eligible workers and the
  /// worker holding it, and the largest eligible disk capacity. A zero
  /// free_key means no worker is eligible.
  [[nodiscard]] const Node& top() const { return nodes_[1]; }

 private:
  [[nodiscard]] static Node merge(const Node& a, const Node& b) {
    Node out;
    // Larger key wins; ties go to the smaller worker id (a is the lower
    // id subtree), keeping the ranking deterministic.
    const bool free_b = b.free_key > a.free_key;
    out.free_key = free_b ? b.free_key : a.free_key;
    out.free_w = free_b ? b.free_w : a.free_w;
    out.cap_key = std::max(a.cap_key, b.cap_key);
    return out;
  }
  std::size_t leaves_ = 1;
  std::vector<Node> nodes_{Node{}, Node{}};
  std::vector<std::uint8_t> stale_flags_;
  std::vector<cluster::WorkerId> stale_;
};

}  // namespace hepvine::vine
