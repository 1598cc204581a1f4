// Concurrency gate for transfer admission.
//
// Schedulers use gates to bound how many flows they keep simultaneously
// open against a contended endpoint (the manager's NIC, the shared
// filesystem's stream slots). This mirrors reality — managers serve
// transfers over a bounded socket set, filesystems over bounded stream
// slots — and keeps the flow-level network model efficient: rate
// recomputation costs O(active flows) per change.
//
// Usage: submit() a starter callback. When a slot frees, the starter runs
// and receives an opaque slot token (shared_ptr). The slot is held as long
// as any copy of the token lives; capture it in the flow's completion
// callback and the slot releases automatically on completion — or on
// cancellation, because cancelling a flow destroys its callback. Tokens
// co-own the gate's state, so a token may outlive the FlowGate object (a
// flow still in the network when its scheduler is gone). Destroying the
// gate drops its queued starters unrun, so releasing such a token frees
// the slot and starts nothing: a starter calls back into the scheduler
// that submitted it, which may no longer exist.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

namespace hepvine::net {

class FlowGate {
 public:
  using SlotToken = std::shared_ptr<void>;
  using Starter = std::function<void(SlotToken)>;

  /// A limit of 0 means unbounded.
  explicit FlowGate(std::uint32_t limit)
      : state_(std::make_shared<State>(limit)) {}
  ~FlowGate() { drop_waiters(); }

  FlowGate(const FlowGate&) = delete;
  FlowGate& operator=(const FlowGate&) = delete;

  /// Run `fn` now if a slot is free, else queue it. `fn` receives the slot
  /// token; dropping all copies of the token frees the slot.
  void submit(Starter fn) {
    if (state_->limit == 0) {
      fn(SlotToken{});
      return;
    }
    state_->queue.push_back(std::move(fn));
    pump(state_);
  }

  /// Drop every queued starter unrun. Slots already handed out stay held
  /// until their tokens die.
  void drop_waiters() {
    // Emptied before the starters die, so a token their destruction
    // releases pumps an empty queue.
    std::deque<Starter> dropped;
    dropped.swap(state_->queue);
  }

  [[nodiscard]] std::uint32_t active() const noexcept {
    return state_->active;
  }
  [[nodiscard]] std::size_t queued() const noexcept {
    return state_->queue.size();
  }

 private:
  struct State {
    explicit State(std::uint32_t lim) : limit(lim) {}
    std::uint32_t limit;
    std::uint32_t active = 0;
    bool pumping = false;
    std::deque<Starter> queue;
  };

  /// Admit starters while slots are free. Iterative with a reentrancy
  /// guard: a starter that drops its token synchronously (e.g. its fetch
  /// vanished) frees the slot mid-pump, and the loop condition simply
  /// re-admits — no recursion, no stack growth on long queues.
  static void pump(const std::shared_ptr<State>& state) {
    if (state->pumping) return;
    state->pumping = true;
    while (!state->queue.empty() && state->active < state->limit) {
      Starter next = std::move(state->queue.front());
      state->queue.pop_front();
      ++state->active;
      // The token co-owns the state and returns the slot on destruction
      // (flow completion, or cancellation destroying the callback).
      auto token = SlotToken(static_cast<void*>(state.get()),
                             [state](void*) {
                               --state->active;
                               pump(state);
                             });
      next(std::move(token));
    }
    state->pumping = false;
  }

  std::shared_ptr<State> state_;
};

}  // namespace hepvine::net
