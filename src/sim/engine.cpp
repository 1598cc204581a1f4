#include "sim/engine.h"

#include <cassert>
#include <utility>

namespace hepvine::sim {

namespace {

/// Strict (at, seq) order; every entry's key is distinct. Bitwise, so a
/// sift's child pick compiles to a conditional add, not a branch.
[[nodiscard]] bool before(Tick at_a, std::uint64_t seq_a, Tick at_b,
                          std::uint64_t seq_b) noexcept {
  return (at_a < at_b) | ((at_a == at_b) & (seq_a < seq_b));
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
    if (child + 1 < n) {
      child += before(heap_[child + 1].at, heap_[child + 1].seq,
                      heap_[child].at, heap_[child].seq)
                   ? 1
                   : 0;
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
  heap_pos_[top.slot] = kNotInHeap;
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
  return top;
}

void Engine::heap_erase(std::uint32_t pos) {
  heap_pos_[heap_[pos].slot] = kNotInHeap;
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

void Engine::enqueue(Tick at, std::uint64_t seq, std::uint32_t slot) {
  arena_.slot(slot).live_seq = seq;
  if (at == now_) {
    heap_pos_[slot] = kNotInHeap;
    bucket_.push_back(QueueEntry{at, seq, slot});
    return;
  }
  heap_push(QueueEntry{at, seq, slot});
}

void Engine::move_slot(std::uint32_t slot, Tick at) {
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t pos = heap_pos_[slot];
  if (pos == kNotInHeap) {
    // A now-bucket entry cannot be moved inside the FIFO: enqueue a fresh
    // entry and leave the old one behind as a tombstone.
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
  arena_.slot(slot).live_seq = seq;
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

void Engine::enqueue_keyed(Tick at, std::uint64_t seq, std::uint32_t slot) {
  assert(at >= now_);
  arena_.slot(slot).live_seq = seq;
  const QueueEntry entry{at, seq, slot};
  if (at != now_) {
    heap_push(entry);
    return;
  }
  // Due now. The live bucket entries are in seq order, and every heap
  // entry due now pops before them, so an entry older than all of them
  // belongs in the heap. Tombstones (this slot's old entry among them: the
  // live_seq above retired it) hold no place.
  const auto live = [this](const QueueEntry& e) {
    return e.seq == arena_.slot(e.slot).live_seq;
  };
  std::size_t front = bucket_head_;
  while (front < bucket_.size() && !live(bucket_[front])) ++front;
  if (front == bucket_.size() || seq < bucket_[front].seq) {
    heap_push(entry);
    return;
  }
  heap_pos_[slot] = kNotInHeap;
  std::size_t back = bucket_.size();
  while (!live(bucket_[back - 1])) --back;
  if (bucket_[back - 1].seq < seq) {
    bucket_.push_back(entry);
    return;
  }
  // Between two live entries: a key older than a same-tick event queued
  // after it was issued, re-armed after a sibling key it shared a tick
  // with was dropped. Rare, so the FIFO takes an insert.
  std::size_t pos = front + 1;
  while (!live(bucket_[pos]) || bucket_[pos].seq < seq) ++pos;
  bucket_.insert(bucket_.begin() + static_cast<std::ptrdiff_t>(pos), entry);
}

void Engine::move_slot_keyed(std::uint32_t slot, Tick at, std::uint64_t seq) {
  // A seq names one key, so an entry already queued under it stays put.
  if (arena_.slot(slot).live_seq == seq) return;
  const std::uint32_t pos = heap_pos_[slot];
  if (pos == kNotInHeap || at == now_) {
    // A bucket entry stays behind as a tombstone; a heap entry due now is
    // placed afresh, since it may belong in the bucket.
    if (pos != kNotInHeap) heap_erase(pos);
    enqueue_keyed(at, seq, slot);
    return;
  }
  arena_.slot(slot).live_seq = seq;
  QueueEntry entry = heap_[pos];
  const bool earlier = before(at, seq, entry.at, entry.seq);
  entry.at = at;
  entry.seq = seq;
  if (earlier) {
    sift_up(pos, entry);
  } else {
    sift_down(pos, entry);
  }
}

void Engine::cancel_slot(std::uint32_t slot) {
  if (heap_pos_[slot] != kNotInHeap) heap_erase(heap_pos_[slot]);
  // A bucket entry stays queued: the release resets the slot's live_seq,
  // which turns the entry into a tombstone.
  arena_.release(slot);
}

Engine::EventRef Engine::schedule_at(Tick at, Callback fn) {
  if (at < now_) at = now_;
  const std::uint32_t slot = allocate(std::move(fn));
  enqueue(at, next_seq_++, slot);
  return EventRef{slot, arena_.slot(slot).gen};
}

Engine::QueueEntry Engine::pop_next() {
  // Heap entries at the current tick always precede live bucket entries
  // (their seqs are smaller; see enqueue() and enqueue_keyed()), so the
  // bucket drains only when the heap has nothing due at now().
  if (bucket_next()) {
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

bool Engine::next_live(Tick& at) {
  // The heap holds no tombstones: cancels and moves edit it in place.
  while (bucket_next()) {
    const QueueEntry& front = bucket_[bucket_head_];
    if (front.seq == arena_.slot(front.slot).live_seq) {
      at = now_;
      return true;
    }
    (void)pop_next();
  }
  if (heap_.empty()) return false;
  at = heap_.front().at;
  return true;
}

bool Engine::step() {
  while (pending() > 0) {
    const QueueEntry entry = pop_next();
    // A bucket tombstone: its event was moved or cancelled.
    if (entry.seq != arena_.slot(entry.slot).live_seq) continue;
    now_ = entry.at;
    ++executed_;
    // Move the callback out and recycle the slot before running, so
    // captured state is released promptly and the slot is immediately
    // reusable by callbacks it runs.
    Callback fn = std::move(arena_.fn(entry.slot));
    arena_.release(entry.slot);
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
  Tick at = 0;
  while (next_live(at) && at <= deadline) {
    step();
    ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

}  // namespace hepvine::sim
