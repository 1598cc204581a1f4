#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hepvine::sim {

namespace {

/// Strict (at, seq) order; every entry's key is distinct.
[[nodiscard]] bool before(Tick at_a, std::uint64_t seq_a, Tick at_b,
                          std::uint64_t seq_b) noexcept {
  return at_a != at_b ? at_a < at_b : seq_a < seq_b;
}

}  // namespace

void Engine::sift_up(std::uint32_t pos, QueueEntry entry) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    const QueueEntry& p = heap_[parent];
    if (!before(entry.at, entry.seq, p.at, p.seq)) break;
    heap_place(pos, p);
    pos = parent;
  }
  heap_place(pos, entry);
}

void Engine::sift_down(std::uint32_t pos, QueueEntry entry) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1].at, heap_[child + 1].seq,
                                heap_[child].at, heap_[child].seq)) {
      ++child;
    }
    const QueueEntry& c = heap_[child];
    if (!before(c.at, c.seq, entry.at, entry.seq)) break;
    heap_place(pos, c);
    pos = child;
  }
  heap_place(pos, entry);
}

void Engine::heap_push(QueueEntry entry) {
  heap_.emplace_back();
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1), entry);
}

Engine::QueueEntry Engine::heap_pop_front() {
  const QueueEntry top = heap_.front();
  arena_->slot(top.slot).heap_pos = EventArena::kNotInHeap;
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
  return top;
}

void Engine::heap_erase(std::uint32_t pos) {
  arena_->slot(heap_[pos].slot).heap_pos = EventArena::kNotInHeap;
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // erased the last entry
  // The hole takes the last entry, which may belong above or below it.
  if (pos > 0) {
    const QueueEntry& parent = heap_[(pos - 1) / 2];
    if (before(last.at, last.seq, parent.at, parent.seq)) {
      sift_up(pos, last);
      return;
    }
  }
  sift_down(pos, last);
}

void Engine::heap_rebuild() {
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    arena_->slot(heap_[i].slot).heap_pos = static_cast<std::uint32_t>(i);
  }
}

void Engine::enqueue(Tick at, std::uint64_t seq, std::uint32_t slot) {
  arena_->slot(slot).live_seq = seq;
  if (at == now_) {
    arena_->slot(slot).heap_pos = EventArena::kNotInHeap;
    bucket_.push_back(QueueEntry{at, seq, slot});
    return;
  }
  heap_push(QueueEntry{at, seq, slot});
}

void Engine::move_slot(std::uint32_t slot, Tick at) {
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t pos = arena_->slot(slot).heap_pos;
  if (pos == EventArena::kNotInHeap) {
    // A now-bucket entry cannot be moved inside the FIFO: enqueue a fresh
    // entry and leave the old one as a superseded tombstone, counted toward
    // the purge trigger like a cancellation.
    ++arena_->cancelled_pending;
    enqueue(at, seq, slot);
    return;
  }
  if (at == now_) {
    // Due now: the entry leaves the heap for the bucket, where its fresh
    // seq orders it after every bucket entry already queued.
    heap_erase(pos);
    enqueue(at, seq, slot);
    return;
  }
  arena_->slot(slot).live_seq = seq;
  QueueEntry entry = heap_[pos];
  // The fresh seq exceeds every seq in the queue, so the key only grows
  // unless the tick moves earlier.
  const bool earlier = at < entry.at;
  entry.at = at;
  entry.seq = seq;
  if (earlier) {
    sift_up(pos, entry);
  } else {
    sift_down(pos, entry);
  }
}

void Engine::cancel_slot(std::uint32_t slot) {
  auto& s = arena_->slot(slot);
  if (s.heap_pos != EventArena::kNotInHeap) {
    heap_erase(s.heap_pos);
    arena_->release(slot);
    return;
  }
  s.cancelled = true;
  ++arena_->cancelled_pending;
}

Engine::EventHandle Engine::schedule_at(Tick at, Callback fn) {
  if (at < now_) at = now_;
  maybe_purge_cancelled();
  const std::uint32_t slot = arena_->allocate(std::move(fn));
  const std::uint32_t gen = arena_->slot(slot).gen;
  enqueue(at, next_seq_++, slot);
  return EventHandle(arena_, slot, gen);
}

std::vector<Engine::EventHandle> Engine::schedule_many(
    Tick at, std::vector<Callback> fns) {
  if (at < now_) at = now_;
  maybe_purge_cancelled();
  std::vector<EventHandle> handles;
  handles.reserve(fns.size());
  // Large future-tick batches: append then one O(n) re-heapify instead of
  // per-event sifts. Heap layout never affects pop order — every entry has
  // a distinct (at, seq), so the pop sequence is the unique sorted order.
  const bool bulk_heap = at != now_ && fns.size() >= 64;
  for (auto& fn : fns) {
    const std::uint32_t slot = arena_->allocate(std::move(fn));
    const std::uint32_t gen = arena_->slot(slot).gen;
    const std::uint64_t seq = next_seq_++;
    if (bulk_heap) {
      arena_->slot(slot).live_seq = seq;
      heap_.push_back(QueueEntry{at, seq, slot});
    } else {
      enqueue(at, seq, slot);
    }
    handles.emplace_back(EventHandle(arena_, slot, gen));
  }
  if (bulk_heap) heap_rebuild();
  return handles;
}

void Engine::purge_cancelled_now() {
  auto dead = [this](const QueueEntry& entry) {
    const auto& s = arena_->slot(entry.slot);
    if (entry.seq != s.live_seq) return true;  // superseded; slot lives on
    if (!s.cancelled) return false;
    arena_->release(entry.slot);
    return true;
  };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  heap_rebuild();
  bucket_.erase(bucket_.begin(),
                bucket_.begin() + static_cast<std::ptrdiff_t>(bucket_head_));
  bucket_head_ = 0;
  // remove_if is stable, so surviving bucket entries keep FIFO order.
  bucket_.erase(std::remove_if(bucket_.begin(), bucket_.end(), dead),
                bucket_.end());
  arena_->cancelled_pending = 0;
}

Engine::QueueEntry Engine::pop_next() {
  // Heap entries at the current tick always precede bucket entries (their
  // seqs are smaller; see enqueue()), so the bucket drains only when the
  // heap has nothing due at now().
  const bool bucket_live = bucket_head_ < bucket_.size();
  if (bucket_live && (heap_.empty() || heap_.front().at > now_)) {
    QueueEntry entry = bucket_[bucket_head_++];
    if (bucket_head_ == bucket_.size()) {
      bucket_.clear();
      bucket_head_ = 0;
    }
    return entry;
  }
  assert(!heap_.empty());
  return heap_pop_front();
}

bool Engine::step() {
  while (pending() > 0) {
    const QueueEntry entry = pop_next();
    auto& slot = arena_->slot(entry.slot);
    // Superseded by a reschedule: a newer entry owns this slot. Discard
    // without firing and without releasing.
    if (entry.seq != slot.live_seq) {
      if (arena_->cancelled_pending > 0) --arena_->cancelled_pending;
      continue;
    }
    if (slot.cancelled) {
      if (arena_->cancelled_pending > 0) --arena_->cancelled_pending;
      arena_->release(entry.slot);
      continue;
    }
    now_ = entry.at;
    ++executed_;
    // Move the callback out and recycle the slot before running, so
    // captured state is released promptly even if the handle outlives the
    // event and the slot is immediately reusable by callbacks it runs.
    Callback fn = std::move(slot.fn);
    arena_->release(entry.slot);
    fn();
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

std::size_t Engine::run_until(Tick deadline) {
  std::size_t fired = 0;
  while (pending() > 0) {
    const bool bucket_live = bucket_head_ < bucket_.size();
    if (bucket_live && (heap_.empty() || heap_.front().at > now_)) {
      // Bucket entries are due at now(); fire them only inside the window.
      if (now_ > deadline) break;
      if (step()) ++fired;
      continue;
    }
    // Skip cancelled heap entries without advancing time. (Moves re-key
    // heap entries in place, so no superseded entry ever sits in the heap.)
    if (arena_->slot(heap_.front().slot).cancelled) {
      const QueueEntry dead = heap_pop_front();
      arena_->release(dead.slot);
      if (arena_->cancelled_pending > 0) --arena_->cancelled_pending;
      continue;
    }
    if (heap_.front().at > deadline) break;
    if (step()) ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

}  // namespace hepvine::sim
