// BackoffLedger: per-key retry-escalation counters that reset on success.
//
// A retried transfer escalates its delay with the number of *consecutive*
// failures of one logical operation — kill, wait backoff(1), kill again,
// wait backoff(2), ... Success must clear the counter: a later, independent
// failure of the same file or task is a fresh episode and starts back at
// backoff(1). The raw `std::map<Key, uint32_t>` counters this replaces
// were incremented forever, so unrelated failures months of simulated time
// apart kept inheriting earlier episodes' escalation.
//
// One owner: exec::RunShell keeps the only ledger, keyed by exec::Episode
// (its retry record). Every retry site of both engines (staging fetches,
// manager FS reads, relay pulls, dd input fetches, sink gathers) is an
// episode kind there.
//
// Header-only.
#pragma once

#include <cstdint>
#include <map>

namespace hepvine::fault {

template <typename Key>
class BackoffLedger {
 public:
  /// Record one more failure of `key` and return its attempt number
  /// (1-based) for RetryPolicy::backoff / FaultInjector::backoff_delay.
  std::uint32_t next_attempt(const Key& key) { return ++counts_[key]; }

  /// The operation succeeded: the episode is over, escalation starts fresh.
  void reset(const Key& key) { counts_.erase(key); }

  /// Failures recorded for `key` in the current episode (0 = none).
  [[nodiscard]] std::uint32_t attempts(const Key& key) const {
    const auto it = counts_.find(key);
    return it == counts_.end() ? 0 : it->second;
  }

  [[nodiscard]] bool empty() const { return counts_.empty(); }
  [[nodiscard]] std::size_t size() const { return counts_.size(); }

 private:
  std::map<Key, std::uint32_t> counts_;
};

}  // namespace hepvine::fault
