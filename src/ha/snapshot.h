// ManagerSnapshot: serialize the manager's logical state to a canonical,
// digestable text form.
//
// The snapshot is the HA counterpart of the txn log's journal: everything
// the scheduler would need to stand a new manager up at the checkpoint
// tick — the task-state table, the replica table with pin/GC refcounts and
// incarnation guards, the in-flight flow set, the peer-slot ledger, the
// fault injector's cursors and the RNG stream positions. It deliberately
// does NOT capture engine closures (they hold `this` and cannot move
// between processes, in the simulation exactly as in the real manager);
// recovery therefore re-executes deterministically up to the checkpoint and
// proves convergence by digest instead of mutating live state
// (ha/recovery.h).
//
// The format is line-oriented and canonical — `## section` headers and
// `key=value` fields, emitted in a deterministic order by construction —
// so that two runs that agree on logical state produce byte-identical
// snapshots and a single 128-bit digest comparison decides convergence.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ha/ha_options.h"

namespace hepvine::ha {

class SnapshotBuilder {
 public:
  /// Open a `## name` section; subsequent fields belong to it.
  void section(const std::string& name);

  void field(const std::string& key, std::uint64_t value);
  void field_i(const std::string& key, std::int64_t value);
  void field_s(const std::string& key, const std::string& value);
  /// One RNG stream's four state words as a single hex field.
  void field_rng(const std::string& key,
                 const std::array<std::uint64_t, 4>& words);
  /// Continue with everything `part` wrote (fields and sections).
  void append(const SnapshotBuilder& part) { text_ += part.text_; }

  /// Seal the snapshot: digest the accumulated text and stamp identity.
  [[nodiscard]] SnapshotRecord finish(Tick tick, std::uint64_t seq) const;

 private:
  std::string text_;
};

/// Parse a snapshot's state text back into ("section.key", value) pairs in
/// emission order. Used by tests to assert that delicate invariants (pin
/// incarnation guards, peer-slot balance) survive the round trip, and by
/// recovery diagnostics.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
parse_snapshot(const std::string& state);

/// First value for `section.key` in `state`, or empty string.
[[nodiscard]] std::string snapshot_field(const std::string& state,
                                         const std::string& dotted_key);

}  // namespace hepvine::ha
