// Deterministic discrete-event simulation engine.
//
// Single-threaded. Events are ordered by (time, sequence number) so runs
// with identical inputs replay identically. Events are cancellable and
// movable. An owner of many would-be events can also keep their keys
// itself and queue only the earliest under its issued key: the flow-level
// network re-keys its transfers' completions whenever bandwidth shares
// change, and queues one entry per network.
//
// Hot-path layout: event records live in a slab/free-list arena instead of
// one heap allocation per event. An EventRef addresses an event by (slot
// index, generation); the generation is bumped every time a slot is
// recycled, so a stale ref to a fired or cancelled event can never touch
// its slot's new occupant. Pending events sit either in a hand-rolled
// binary heap (future ticks) or in a FIFO "now bucket" (events scheduled
// for the current tick) that is drained before time advances — same-tick
// completion bursts cost O(1) per event instead of a heap round-trip. Both
// containers pop in strict (at, seq) order, so the firing sequence is
// bit-identical to a single priority queue.
//
// A dense slot-indexed array records where each slot's entry sits in the
// heap, so a cancel removes a heap entry in place and a move re-keys it in
// place (or lifts it into the bucket when it becomes due now). Only the
// bucket's FIFO cannot be edited in place: cancelling or moving one of its
// events leaves a tombstone there, discarded when it reaches the front.
// The bucket drains before time advances, so tombstones never outlive
// their tick and need no purge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/units.h"

namespace hepvine::sim {

using util::Tick;

class Engine {
 private:
  /// Slab-allocated event records. Slots are recycled through a free list;
  /// each recycle bumps the slot's generation so outstanding refs go inert
  /// instead of aliasing the new occupant. A 32-bit generation would need
  /// four billion reuses of one slot while a stale ref to it survives
  /// before a false match — not a realistic hazard here. A slot's callback
  /// sits in a slab; its bookkeeping in a dense array, which is all a
  /// pending check or a re-key reads.
  struct EventArena {
    using Callback = std::function<void()>;
    static constexpr std::uint32_t kChunkShift = 12;  // 4096 slots per slab
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    /// live_seq of a free slot: no queue entry owns it.
    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    struct Slot {
      /// Seq of the queue entry that currently owns this slot. A bucket
      /// entry whose seq differs is a tombstone: its event was moved (a
      /// newer entry owns the slot) or cancelled (the slot was released).
      std::uint64_t live_seq = kNoSeq;
      /// Never 0, which marks an empty EventRef.
      std::uint32_t gen = 1;
    };

    std::vector<std::unique_ptr<Callback[]>> chunks;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;

    [[nodiscard]] Slot& slot(std::uint32_t idx) noexcept { return slots[idx]; }
    [[nodiscard]] const Slot& slot(std::uint32_t idx) const noexcept {
      return slots[idx];
    }
    [[nodiscard]] Callback& fn(std::uint32_t idx) noexcept {
      return chunks[idx >> kChunkShift][idx & (kChunkSize - 1)];
    }

    [[nodiscard]] std::uint32_t allocate(Callback f) {
      if (free_slots.empty()) grow();
      const std::uint32_t idx = free_slots.back();
      free_slots.pop_back();
      fn(idx) = std::move(f);
      return idx;
    }

    /// Return a slot to the free list (after firing or cancelling).
    /// Bumping the generation here is what invalidates stale refs.
    void release(std::uint32_t idx) {
      fn(idx) = nullptr;
      Slot& s = slot(idx);
      s.live_seq = kNoSeq;
      if (++s.gen == 0) s.gen = 1;
      free_slots.push_back(idx);
    }

    void grow() {
      const auto base =
          static_cast<std::uint32_t>(chunks.size()) << kChunkShift;
      chunks.push_back(std::make_unique<Callback[]>(kChunkSize));
      slots.resize(slots.size() + kChunkSize);
      free_slots.reserve(free_slots.size() + kChunkSize);
      // Reverse order so the lowest index pops first (cosmetic only:
      // allocation order never affects event firing order).
      for (std::uint32_t i = kChunkSize; i-- > 0;) {
        free_slots.push_back(base + i);
      }
    }
  };

 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Bare (slot, generation) reference to an event, valid only against the
  /// engine that issued it: ask that engine whether it is_pending, cancel
  /// it, or move it with rearm_at/after. A copy is two words; a ref to a
  /// fired or cancelled event is inert. Default = no event.
  struct EventRef {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;  // 0 = no event
    friend bool operator==(EventRef, EventRef) = default;
  };

  /// Current simulated time.
  [[nodiscard]] Tick now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `at` (clamped to now()).
  EventRef schedule_at(Tick at, Callback fn);

  /// Schedule `fn` to run `delay` ticks from now (delay < 0 clamps to 0).
  EventRef schedule_after(Tick delay, Callback fn) {
    return schedule_at(now_ + (delay > 0 ? delay : 0), std::move(fn));
  }

  /// True if `ref` (issued by this engine) names an event that has not
  /// fired and is not cancelled.
  [[nodiscard]] bool is_pending(EventRef ref) const noexcept {
    return ref.gen != 0 && arena_.slot(ref.slot).gen == ref.gen;
  }

  /// Cancel `ref`'s event if it is pending; safe to call repeatedly. The
  /// slot is recycled at once. A heap entry is removed in place; a
  /// now-bucket entry is left as a tombstone until the bucket drains.
  void cancel(EventRef ref) {
    if (is_pending(ref)) cancel_slot(ref.slot);
  }

  /// Move `ref`'s still-pending event to `at` (clamped to now()), reusing
  /// its slot and its stored callback — `fn` is only consumed when `ref`
  /// names no pending event, in which case a fresh event is scheduled
  /// exactly as schedule_at would and `ref` is updated to it. Callers must
  /// therefore pass a callback behaviourally identical to the original.
  /// Consumes exactly one seq like cancel()+schedule_at, so the fired
  /// order is bit-identical to that pattern; what it saves is the
  /// std::function construction per move — the dominant cost when the
  /// flow network re-rates hundreds of transfers per recompute — and, for
  /// a heap entry, the tombstone. Templated on the callable: the lambda is
  /// only wrapped into a std::function on the cold path.
  template <typename F>
  void rearm_at(EventRef& ref, Tick at, F&& fn) {
    if (!is_pending(ref)) {
      ref = schedule_at(at, Callback(std::forward<F>(fn)));
      return;
    }
    move_slot(ref.slot, at < now_ ? now_ : at);
  }
  template <typename F>
  void rearm_after(EventRef& ref, Tick delay, F&& fn) {
    rearm_at(ref, now_ + (delay > 0 ? delay : 0), std::forward<F>(fn));
  }

  /// Keyed entries, for an owner that keeps many would-be events' keys
  /// itself and queues only the earliest. issue_seq() takes the seq the
  /// next scheduled event would have got; rearm_keyed() then queues `ref`
  /// under that key, moving its pending event (or scheduling `fn` afresh,
  /// as rearm_at does), and consumes no seq. So a key fires exactly where
  /// an event scheduled at `at` when `seq` was issued would have fired.
  /// Pre: at >= now(); no other queued entry holds `seq`; when at == now(),
  /// no live same-tick entry issued after `seq` has fired yet — true of
  /// any key whose event would still be pending. A key due now goes to the
  /// heap when it is older than every live now-bucket entry, to the
  /// bucket's back when it is newer than all of them, and in between to
  /// its seq's place in the bucket. Re-arming under the key the event
  /// already has changes nothing.
  [[nodiscard]] std::uint64_t issue_seq() noexcept { return next_seq_++; }
  template <typename F>
  void rearm_keyed(EventRef& ref, Tick at, std::uint64_t seq, F&& fn) {
    if (!is_pending(ref)) {
      const std::uint32_t slot = allocate(Callback(std::forward<F>(fn)));
      enqueue_keyed(at, seq, slot);
      ref = EventRef{slot, arena_.slot(slot).gen};
      return;
    }
    move_slot_keyed(ref.slot, at, seq);
  }

  /// Execute the next pending event. Returns false if the queue is empty.
  bool step();

  /// Run until no events remain.
  void run();

  /// Run events with time <= `deadline`; advances now() to the later of the
  /// last fired event and `deadline`. Returns the number of events fired.
  std::size_t run_until(Tick deadline);

  /// Total events executed so far (diagnostics).
  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }

  /// Queue entries: pending events plus the current tick's bucket
  /// tombstones (none once run_until(deadline >= now()) has returned).
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + (bucket_.size() - bucket_head_);
  }

  /// Free-list depth + live slots currently allocated (test introspection).
  [[nodiscard]] std::size_t arena_capacity() const noexcept {
    return arena_.chunks.size() * EventArena::kChunkSize;
  }

 private:
  struct QueueEntry {
    Tick at = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  /// Insert one allocated slot into the right container. Same-tick events
  /// are FIFO in the bucket; their seqs are necessarily larger than any
  /// heap entry at the same tick (heap entries at tick T were scheduled
  /// while now() < T, or are keyed entries older than every live bucket
  /// entry), so "bucket only when the heap has nothing at now()" preserves
  /// the global (at, seq) pop order.
  void enqueue(Tick at, std::uint64_t seq, std::uint32_t slot);

  /// True when the next entry in (at, seq) order is the bucket's front.
  [[nodiscard]] bool bucket_next() const noexcept {
    return bucket_head_ < bucket_.size() &&
           (heap_.empty() || heap_.front().at > now_);
  }

  /// Discard the tombstones at the front of the pop order, then report the
  /// next event's tick. Returns false when no event is pending.
  bool next_live(Tick& at);

  /// Pop the next entry in (at, seq) order. Pre: pending() > 0.
  QueueEntry pop_next();

  /// Re-key a live slot's entry to (at, fresh seq). Pre: the slot is live.
  void move_slot(std::uint32_t slot, Tick at);
  /// Queue an allocated slot under an issued key (see rearm_keyed).
  void enqueue_keyed(Tick at, std::uint64_t seq, std::uint32_t slot);
  /// Re-key a live slot's entry to an issued key. Pre: the slot is live.
  void move_slot_keyed(std::uint32_t slot, Tick at, std::uint64_t seq);
  /// Cancel a live slot: in place for heap entries, tombstone in the bucket.
  void cancel_slot(std::uint32_t slot);

  /// Arena allocate that keeps heap_pos_ covering every slot.
  [[nodiscard]] std::uint32_t allocate(Callback fn) {
    const std::uint32_t slot = arena_.allocate(std::move(fn));
    if (slot >= heap_pos_.size()) {
      heap_pos_.resize(arena_capacity(), kNotInHeap);
    }
    return slot;
  }

  // Binary min-heap on (at, seq) that keeps every slot's heap_pos_ current.
  void heap_push(QueueEntry entry);
  QueueEntry heap_pop_front();
  void heap_erase(std::uint32_t pos);
  void heap_place(std::uint32_t pos, const QueueEntry& entry) {
    heap_[pos] = entry;
    heap_pos_[entry.slot] = pos;
  }
  void sift_up(std::uint32_t pos, QueueEntry entry);
  void sift_down(std::uint32_t pos, QueueEntry entry);

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  EventArena arena_;
  std::vector<QueueEntry> heap_;    // binary min-heap on (at, seq)
  std::vector<QueueEntry> bucket_;  // FIFO of events with at == now()
  std::size_t bucket_head_ = 0;
  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;
  /// By arena slot: the index of the slot's heap entry, or kNotInHeap
  /// while it sits in the now-bucket. Kept apart from the arena's slots so
  /// a sift's writes land in one dense array.
  std::vector<std::uint32_t> heap_pos_;
};

}  // namespace hepvine::sim
