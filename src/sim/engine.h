// Deterministic discrete-event simulation engine.
//
// Single-threaded. Events are ordered by (time, sequence number) so runs
// with identical inputs replay identically. Events are cancellable, which
// the flow-level network model relies on: a transfer's completion event is
// rescheduled whenever bandwidth shares change.
//
// Hot-path layout: event records live in a slab/free-list arena instead of
// one heap allocation per event. Handles address events by (slot index,
// generation); the generation is bumped every time a slot is recycled, so
// a stale handle to a fired or purged event can never touch its slot's new
// occupant. Pending events sit either in a hand-rolled binary heap (future
// ticks) or in a FIFO "now bucket" (events scheduled for the current tick)
// that is drained before time advances — same-tick completion bursts cost
// O(1) per event instead of a heap round-trip. Both containers pop in
// strict (at, seq) order, so the firing sequence is bit-identical to the
// single priority-queue implementation this replaces.
//
// A dense slot-indexed array records where each slot's entry sits in the
// heap, so a reschedule of a live heap event sifts that entry in place (and
// a move to the current tick lifts it out into the bucket) instead of
// leaving a superseded tombstone behind; only moves of now-bucket events,
// whose FIFO order cannot be edited in place, still leave one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/units.h"

namespace hepvine::sim {

using util::Tick;

// vine-snapshot: state
class Engine {
 private:
  /// Slab-allocated event records. Slots are recycled through a free list;
  /// each recycle bumps the slot's generation so outstanding handles go
  /// inert instead of aliasing the new occupant. A 32-bit generation would
  /// need four billion reuses of one slot while a stale handle to it
  /// survives before a false match — not a realistic hazard here. A slot's
  /// callback sits in a slab; its bookkeeping in a dense array, which is
  /// all a pending check or a re-key reads.
  struct EventArena {
    using Callback = std::function<void()>;
    static constexpr std::uint32_t kChunkShift = 12;  // 4096 slots per slab
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

    struct Slot {
      /// Seq of the queue entry that currently owns this slot. A
      /// reschedule of a now-bucket event enqueues a fresh entry for the
      /// same slot; the older entry sees a seq mismatch at pop time and is
      /// discarded without firing or releasing (the slot still belongs to
      /// the new entry).
      std::uint64_t live_seq = 0;
      /// Never 0, which marks an empty EventRef.
      std::uint32_t gen = 1;
      bool cancelled = false;
    };

    std::vector<std::unique_ptr<Callback[]>> chunks;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
    /// Cancelled events still sitting in a queue (tombstones).
    std::size_t cancelled_pending = 0;

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

    /// Return a slot to the free list (after firing or tombstone pop).
    /// Bumping the generation here is what invalidates stale handles.
    void release(std::uint32_t idx) {
      fn(idx) = nullptr;
      Slot& s = slot(idx);
      s.cancelled = false;
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
  /// engine that issued it. For code that holds the engine and outlives
  /// none of it (the flow network): checks and moves cost no weak_ptr
  /// control-block traffic, and a copy is two words. Default = no event.
  struct EventRef {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;  // 0 = no event
    friend bool operator==(EventRef, EventRef) = default;
  };

  /// Handle to a scheduled event; allows cancellation. Copyable; all copies
  /// refer to the same underlying event. Safe to hold across engine
  /// destruction (goes inert) and across slot reuse (generation mismatch).
  /// Code that holds the engine should prefer Engine::is_pending/cancel,
  /// which answer the same questions without weak_ptr::lock() refcount
  /// traffic.
  class EventHandle {
   public:
    EventHandle() = default;

    /// Cancel the event if it has not yet fired. Safe to call repeatedly.
    void cancel() const {
      auto arena = arena_.lock();
      if (!arena) return;
      auto& s = arena->slot(ref_.slot);
      if (s.gen != ref_.gen || s.cancelled) return;
      s.cancelled = true;
      ++arena->cancelled_pending;
    }

    /// True if the event is still pending (not fired, not cancelled).
    [[nodiscard]] bool pending() const {
      auto arena = arena_.lock();
      if (!arena) return false;
      const auto& s = arena->slot(ref_.slot);
      return s.gen == ref_.gen && !s.cancelled;
    }

   private:
    friend class Engine;
    EventHandle(std::weak_ptr<EventArena> arena, EventRef ref)
        : arena_(std::move(arena)), ref_(ref) {}
    std::weak_ptr<EventArena> arena_;
    EventRef ref_;
  };

  /// Current simulated time.
  [[nodiscard]] Tick now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `at` (clamped to now()).
  EventHandle schedule_at(Tick at, Callback fn);

  /// True if `ref` (issued by this engine) names an event that has not
  /// fired and is not cancelled.
  [[nodiscard]] bool is_pending(EventRef ref) const noexcept {
    if (ref.gen == 0) return false;
    const auto& s = arena_->slot(ref.slot);
    return s.gen == ref.gen && !s.cancelled;
  }

  /// Same answer as handle.pending(), checked against this engine: a
  /// handle from another (or a destroyed) engine is never pending here.
  /// Arena identity is a control-block comparison, so unlike
  /// weak_ptr::lock() it costs no atomic refcount operations.
  [[nodiscard]] bool is_pending(const EventHandle& handle) const noexcept {
    return owns(handle) && is_pending(handle.ref_);
  }

  /// Cancel `ref`'s event if it is pending. A heap entry is removed in
  /// place and its slot recycled at once; a now-bucket entry is left as a
  /// tombstone, as handle.cancel() leaves every entry.
  void cancel(EventRef ref) {
    if (is_pending(ref)) cancel_slot(ref.slot);
  }

  /// Same effect as handle.cancel() for this engine's handles (no-op for
  /// others), without refcount traffic.
  void cancel(const EventHandle& handle) {
    if (owns(handle)) cancel(handle.ref_);
  }

  /// Schedule `fn` to run `delay` ticks from now (delay < 0 clamps to 0).
  EventHandle schedule_after(Tick delay, Callback fn) {
    return schedule_at(now_ + (delay > 0 ? delay : 0), std::move(fn));
  }

  /// Batched schedule: every callback fires at `at` (clamped to now()), in
  /// argument order. Same-tick batches land in the FIFO now-bucket with no
  /// heap traffic; future-tick batches of any size pay one heap rebuild
  /// instead of per-event sifts once the batch is large enough.
  std::vector<EventHandle> schedule_many(Tick at, std::vector<Callback> fns);

  /// Move a still-pending event to a new time, reusing its slot and its
  /// stored callback — `fn` is only consumed when the handle is no longer
  /// live (fired, cancelled, or from another engine), so callers must pass
  /// a callback behaviorally identical to the original. Consumes exactly
  /// one seq like cancel()+schedule_at, so the fired-event order is
  /// bit-identical to that pattern; what it saves is the per-reschedule
  /// std::function construction, move, and destruction — the dominant cost
  /// when the flow network re-rates hundreds of transfers per recompute —
  /// and, for a heap entry, the tombstone: the entry is re-keyed and sifted
  /// in place. All copies of the handle refer to the moved event
  /// afterwards.
  template <typename F>
  EventHandle reschedule_at(const EventHandle& handle, Tick at, F&& fn) {
    EventRef ref = owns(handle) ? handle.ref_ : EventRef{};
    const EventRef before = ref;
    rearm_at(ref, at, std::forward<F>(fn));
    return ref == before ? handle : EventHandle(arena_, ref);
  }
  template <typename F>
  EventHandle reschedule_after(const EventHandle& handle, Tick delay,
                               F&& fn) {
    return reschedule_at(handle, now_ + (delay > 0 ? delay : 0),
                         std::forward<F>(fn));
  }

  /// reschedule_at for a reference the caller stores: same event
  /// semantics, but `ref` is updated in place, and only when a fresh event
  /// had to be scheduled (an empty `ref` schedules one, exactly as
  /// schedule_at would). Templated on the callable: the lambda is only
  /// wrapped into a std::function on that cold path, so the hot path
  /// passes two words in registers.
  template <typename F>
  void rearm_at(EventRef& ref, Tick at, F&& fn) {
    if (at < now_) at = now_;
    maybe_purge_cancelled();
    if (is_pending(ref)) {
      move_slot(ref.slot, at);
      return;
    }
    const std::uint32_t slot = allocate(Callback(std::forward<F>(fn)));
    ref = EventRef{slot, arena_->slot(slot).gen};
    enqueue(at, next_seq_++, slot);
  }
  template <typename F>
  void rearm_after(EventRef& ref, Tick delay, F&& fn) {
    rearm_at(ref, now_ + (delay > 0 ? delay : 0), std::forward<F>(fn));
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

  /// Events currently pending (including cancelled-but-not-popped ones).
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + (bucket_.size() - bucket_head_);
  }

  /// Free-list depth + live slots currently allocated (test introspection).
  [[nodiscard]] std::size_t arena_capacity() const noexcept {
    return arena_->chunks.size() * EventArena::kChunkSize;
  }

 private:
  /// Arena identity via control-block comparison: no refcount traffic,
  /// unlike weak_ptr::lock(). A handle from a destroyed engine keeps its
  /// (expired) control block, so it can never alias a live arena's.
  [[nodiscard]] bool owns(const EventHandle& handle) const noexcept {
    return !handle.arena_.owner_before(arena_) &&
           !arena_.owner_before(handle.arena_);
  }

  struct QueueEntry {
    Tick at = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Drop cancelled-but-unpopped entries when they dominate the queue.
  /// Handle-side cancels and now-bucket moves leave tombstones; without
  /// compaction those accumulate under cancel-heavy load.
  /// The guard is inline — it runs on every schedule — while the purge
  /// itself (in-place remove + re-heapify, O(n) against the old pop/push
  /// rebuild's O(n log n)) stays out of line.
  void maybe_purge_cancelled() {
    const std::size_t cp = arena_->cancelled_pending;
    if (cp < 4096 || cp * 2 < pending()) return;
    purge_cancelled_now();
  }
  void purge_cancelled_now();

  /// Insert one allocated slot into the right container. Same-tick events
  /// are FIFO in the bucket; their seqs are necessarily larger than any
  /// heap entry at the same tick (heap entries at tick T were scheduled
  /// while now() < T), so "bucket only when the heap has nothing at now()"
  /// preserves the global (at, seq) pop order.
  void enqueue(Tick at, std::uint64_t seq, std::uint32_t slot);

  /// Pop the next entry in (at, seq) order. Pre: pending() > 0.
  QueueEntry pop_next();

  /// Re-key a live slot's entry to (at, fresh seq). Pre: the slot is live.
  void move_slot(std::uint32_t slot, Tick at);
  /// Cancel a live slot: in place for heap entries, tombstone in the bucket.
  void cancel_slot(std::uint32_t slot);

  /// Arena allocate that keeps heap_pos_ covering every slot.
  [[nodiscard]] std::uint32_t allocate(Callback fn) {
    const std::uint32_t slot = arena_->allocate(std::move(fn));
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
  /// Re-heapify the whole vector and re-index every slot (bulk paths).
  void heap_rebuild();

  // The event queue is deliberately NOT snapshot-bearing state: its
  // entries hold closures (they capture `this` and cannot move between
  // processes, in the simulation exactly as in the real manager), so HA
  // recovery re-executes deterministically from run start instead of
  // restoring the queue (see ha/snapshot.h). now_ rides along in every
  // snapshot via the tick stamp.
  Tick now_ = 0;
  // vine-snapshot: derived(seq order is reproduced by deterministic replay)
  std::uint64_t next_seq_ = 0;
  // vine-snapshot: derived(counter of executed events; replay recounts it)
  std::size_t executed_ = 0;
  // vine-snapshot: derived(slab of closures; unserializable by design)
  std::shared_ptr<EventArena> arena_ = std::make_shared<EventArena>();
  // vine-snapshot: derived(pending closures; replay rebuilds the queue)
  std::vector<QueueEntry> heap_;    // binary min-heap on (at, seq)
  // vine-snapshot: derived(pending closures; replay rebuilds the queue)
  std::vector<QueueEntry> bucket_;  // FIFO of events with at == now()
  // vine-snapshot: derived(cursor into bucket_, which is itself derived)
  std::size_t bucket_head_ = 0;
  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;
  /// By arena slot: the index of the slot's heap entry, or kNotInHeap
  /// while it sits in the now-bucket. Kept apart from the arena's slots so
  /// a sift's writes land in one dense array.
  // vine-snapshot: derived(heap index; replay rebuilds the queue)
  std::vector<std::uint32_t> heap_pos_;
};

}  // namespace hepvine::sim
