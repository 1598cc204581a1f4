// Node-local zero-copy object store for serverless outputs.
//
// The paper's serverless stack (LibraryTask + FunctionCall) still pays
// full serialization and a scratch-disk write to move an output between
// two FunctionCalls forked from the same LibraryTask — processes that
// share a node and could exchange a pointer. Vineyard-style shared-memory
// stores fix exactly this: the producer publishes its output into a
// per-node memory segment and colocated consumers map it by reference.
//
// This module is the bookkeeping core of that idea for the simulator:
// one logical store per worker node, each object held by exactly one
// node (objects are never copied between stores — a remote consumer
// forces a SPILL, after which the bytes live in the ordinary replica
// table and travel the existing peer-transfer paths). Objects are
// ref-counted by running consumer attempts; unreferenced objects are
// spill victims in LRU order when the per-node byte budget is exceeded.
//
// The store carries manager-visible logical state only: the scheduler
// (src/vine) drives every transition.
#pragma once

#include <cstdint>
#include <vector>

#include "data/file_catalog.h"
#include "util/flat_map.h"
#include "util/units.h"

namespace hepvine::objstore {

using util::Tick;
using data::FileId;

/// Worker index of an object's holder; mirrors cluster::WorkerId.
using NodeId = std::int32_t;
inline constexpr NodeId kNoHolder = -1;

/// One in-memory object: a task output that never touched disk.
struct StoreEntry {
  std::uint64_t bytes = 0;   // payload size (== catalog file size)
  std::uint32_t refs = 0;    // live by-reference consumer attempts
  Tick put_at = 0;           // publication time; LRU spill order
};

/// One resident object with its holder (ObjectStore::objects).
struct StoreItem {
  NodeId holder = kNoHolder;
  FileId file = data::kInvalidFile;
  StoreEntry entry;
};

class ObjectStore {
 public:
  ObjectStore() = default;

  /// (Re)initialize for `nodes` workers with a per-node byte budget.
  void reset(std::size_t nodes, std::uint64_t capacity_bytes);

  /// Publish `file` (`bytes` payload) into node `n`'s store. The caller
  /// guarantees the object is not already stored anywhere.
  void put(NodeId n, FileId file, std::uint64_t bytes, Tick now);

  /// Does node `n` hold `file` in memory?
  [[nodiscard]] bool holds(NodeId n, FileId file) const;

  /// The single node holding `file` in memory, or kNoHolder.
  [[nodiscard]] NodeId holder_of(FileId file) const;

  /// Payload size of `file` on node `n` (0 when absent).
  [[nodiscard]] std::uint64_t object_bytes(NodeId n, FileId file) const;

  /// Live by-reference handles on `file` at node `n` (0 when absent).
  [[nodiscard]] std::uint32_t refs(NodeId n, FileId file) const;

  /// Take / release a by-reference handle. Release is tolerant of an
  /// object that was force-spilled or wiped while referenced.
  void add_ref(NodeId n, FileId file);
  void release_ref(NodeId n, FileId file);

  /// Remove the object; returns false when it was not present.
  bool erase(NodeId n, FileId file);

  /// Wipe node `n`'s store (worker death). Silent, like the replica
  /// table's drop_worker: the worker's DISCONNECTION line covers it.
  void drop_node(NodeId n);

  /// The LRU *unreferenced* object on node `n` — the next spill victim —
  /// or kInvalidFile when every resident object has live references
  /// (the store then tolerates running over budget).
  [[nodiscard]] FileId spill_victim(NodeId n) const;

  [[nodiscard]] bool over_capacity(NodeId n) const {
    return used(n) > capacity_;
  }

  [[nodiscard]] std::uint64_t used(NodeId n) const;
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t total_objects() const;

  /// All resident objects in ascending (file id) order. Each file has
  /// exactly one holder, so file id alone is a total order.
  [[nodiscard]] std::vector<StoreItem> objects() const;

 private:
  std::vector<util::FlatMap<FileId, StoreEntry>> objects_;  // per node
  util::FlatMap<FileId, NodeId> holder_;  // file -> its single holder
  std::vector<std::uint64_t> used_;       // per-node resident bytes
  std::uint64_t capacity_ = 0;            // per-node byte budget
};

}  // namespace hepvine::objstore
