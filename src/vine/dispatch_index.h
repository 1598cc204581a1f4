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
// root path in O(log workers).
#pragma once

#include <cstdint>
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
    using cluster::WorkerId;
    if (static_cast<std::size_t>(start) >= workers_) start = 0;
    const std::size_t words = bits_.size();
    // Segment [start, workers).
    std::size_t wi = static_cast<std::size_t>(start) >> 6;
    std::uint64_t word =
        wi < words ? bits_[wi] &
                         (~0ull << (static_cast<std::uint32_t>(start) & 63))
                   : 0;
    for (; wi < words; word = (++wi < words) ? bits_[wi] : 0) {
      while (word != 0) {
        const auto w = static_cast<WorkerId>(
            (wi << 6) + static_cast<std::size_t>(__builtin_ctzll(word)));
        if (fn(w)) return w;
        word &= word - 1;
      }
    }
    // Wraparound segment [0, start).
    for (wi = 0; wi <= (static_cast<std::size_t>(start) >> 6) && wi < words;
         ++wi) {
      std::uint64_t ww = bits_[wi];
      while (ww != 0) {
        const auto w = static_cast<WorkerId>(
            (wi << 6) + static_cast<std::size_t>(__builtin_ctzll(ww)));
        if (w >= start) break;
        if (fn(w)) return w;
        ww &= ww - 1;
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
  void reset(std::size_t workers) {
    leaves_ = 1;
    while (leaves_ < workers) leaves_ <<= 1;
    nodes_.assign(2 * leaves_, Node{});
  }

  /// Re-derive worker `w`'s leaf (keys of 0 mark ineligible) and fix up
  /// its root path. O(log workers).
  void update(cluster::WorkerId w, std::uint64_t free_key,
              std::uint64_t cap_key) {
    std::size_t i = leaves_ + static_cast<std::size_t>(w);
    // Most touches re-derive an unchanged leaf (pins and reservations
    // that cancel out, non-reclaimable files): skip the root fix-up.
    if (nodes_[i].free_key == free_key && nodes_[i].cap_key == cap_key) {
      return;
    }
    nodes_[i] = Node{free_key, cap_key, w, w};
    for (i >>= 1; i >= 1; i >>= 1) {
      nodes_[i] = merge(nodes_[2 * i], nodes_[2 * i + 1]);
    }
  }

  /// Eligible worker with the most fallback headroom (kNoWorker if none).
  [[nodiscard]] cluster::WorkerId top_free_worker() const {
    return nodes_[1].free_key == 0 ? cluster::kNoWorker : nodes_[1].free_w;
  }
  [[nodiscard]] std::uint64_t top_free_key() const {
    return nodes_[1].free_key;
  }
  /// Largest disk capacity over eligible workers (key+1 encoding).
  [[nodiscard]] std::uint64_t top_cap_key() const {
    return nodes_[1].cap_key;
  }

 private:
  struct Node {
    std::uint64_t free_key = 0;  // headroom + 1; 0 = ineligible
    std::uint64_t cap_key = 0;   // capacity + 1; 0 = ineligible
    cluster::WorkerId free_w = cluster::kNoWorker;
    cluster::WorkerId cap_w = cluster::kNoWorker;
  };
  [[nodiscard]] static Node merge(const Node& a, const Node& b) {
    Node out;
    // Larger key wins; ties go to the smaller worker id (a is the lower
    // id subtree), keeping the ranking deterministic.
    const bool free_b = b.free_key > a.free_key;
    out.free_key = free_b ? b.free_key : a.free_key;
    out.free_w = free_b ? b.free_w : a.free_w;
    const bool cap_b = b.cap_key > a.cap_key;
    out.cap_key = cap_b ? b.cap_key : a.cap_key;
    out.cap_w = cap_b ? b.cap_w : a.cap_w;
    return out;
  }
  std::size_t leaves_ = 1;
  std::vector<Node> nodes_{Node{}, Node{}};
};

}  // namespace hepvine::vine
