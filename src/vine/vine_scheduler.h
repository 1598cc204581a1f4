// TaskVine: the task *and data* scheduler that is the paper's core system.
//
// A central manager coordinates workers granted by the batch system. The
// manager tracks every file's replicas cluster-wide (by cachename), places
// tasks where their inputs already live, instructs throttled worker-to-
// worker peer transfers for what's missing, retains task outputs on worker
// local disks, and supports two execution paradigms: standard serialized
// tasks and serverless FunctionCalls against a persistent LibraryTask
// (with optional import hoisting).
//
// The same execution engine, configured through DataPolicy, also serves as
// the Work Queue baseline (all data staged through the manager, no
// retention, no peer transfers) and as ablations (e.g. peer transfers off,
// locality off). Work Queue and TaskVine genuinely share this lineage in
// CCTools, so a shared engine with policy knobs mirrors reality.
#pragma once

#include <string>

#include "exec/scheduler.h"
#include "util/units.h"

namespace hepvine::vine {

using util::Tick;

/// Data-movement policy: what distinguishes TaskVine from Work Queue.
struct DataPolicy {
  /// Dataset inputs are staged shared-fs -> manager -> worker (Work Queue)
  /// instead of read by workers directly from the shared filesystem.
  bool inputs_via_manager = false;
  /// Task outputs stay cached on the producing worker (TaskVine). If
  /// false, outputs are shipped back to the manager and the worker's copy
  /// is deleted (Work Queue sandbox semantics).
  bool retain_outputs_on_worker = true;
  /// Direct worker->worker transfers. If false, worker-resident files are
  /// relayed through the manager.
  bool peer_transfers = true;
  /// Serialized function bodies are content-addressed cacheable files
  /// (TaskVine); if false each task re-ships its function body.
  bool cache_function_bodies = true;
  /// Locality-aware placement (prefer workers already holding inputs); if
  /// false, placement is round-robin only (ablation).
  bool locality_placement = true;
  /// Dispatch ready tasks deepest-first (DaskVine forwards Dask's
  /// depth-first priorities). The legacy Work Queue executor runs FIFO,
  /// which lets intermediates pile up during wide map phases.
  bool depth_priority = true;
  /// When a cache reservation would overflow a worker's scratch partition,
  /// evict unpinned cached files (deterministic LRU: last-use tick, file-id
  /// tiebreak) instead of letting the worker die. `crash_worker` remains
  /// for the nothing-evictable case, so disabling this knob reproduces the
  /// paper's Fig 11 overflow pathology exactly (the ablation axis).
  bool evict_on_pressure = true;
};

[[nodiscard]] inline DataPolicy taskvine_policy() { return DataPolicy{}; }

[[nodiscard]] inline DataPolicy work_queue_policy() {
  DataPolicy policy;
  policy.inputs_via_manager = true;
  policy.retain_outputs_on_worker = false;
  policy.peer_transfers = false;
  policy.cache_function_bodies = false;
  policy.locality_placement = false;
  policy.depth_priority = false;
  // Legacy Work Queue has no manager-driven cache lifecycle: a full
  // sandbox partition kills the worker, which is the baseline the Fig 11
  // comparison needs.
  policy.evict_on_pressure = false;
  return policy;
}

/// Manager-loop and protocol costs. Standard tasks carry heavyweight
/// serialized closures and per-task bookkeeping; FunctionCalls are small
/// invocation records — this asymmetry is what lets Stack 4 keep 200
/// workers busy where Stack 3 starves (paper Fig 13).
struct VineTunables {
  Tick dispatch_cost_standard = 25 * util::kMsec;
  Tick dispatch_cost_function_call = 400 * util::kUsec;
  Tick result_cost_standard = 8 * util::kMsec;
  Tick result_cost_function_call = 200 * util::kUsec;
  Tick peer_instruction_cost = 300 * util::kUsec;
  /// Use the indexed dispatch hot path of vine::Placement (vine/placement.h):
  /// a bounded round-robin probe, then the disk-headroom argmax tree for
  /// the disk-tight fallback, its stale leaves marked by WorkerDisk and
  /// Placement::set_eligible themselves. When false, Placement uses the
  /// reference O(workers) scans with identical semantics — test_placement
  /// compares the two decision by decision on random states, and
  /// test_saturation diffs their txn logs byte-for-byte.
  // vine-fastpath: opt-in
  bool indexed_dispatch = true;
  /// Node-local zero-copy object store for serverless outputs (vineyard
  /// style): colocated FunctionCalls exchange outputs by reference — no
  /// serialization, no scratch-disk write — and objects spill to disk
  /// through the pin/GC/evict ladder when the per-node budget is tight or
  /// a remote consumer needs the bytes. The reference arm (store off) is
  /// the disk-backed output path the paper measures; the differential
  /// suite runs both arms and checks each replays bit-identically.
  // vine-fastpath: opt-in
  bool object_store = false;
  /// Per-node byte budget for in-memory store objects; pressure past it
  /// spills the LRU unreferenced object to the holder's scratch disk.
  std::uint64_t object_store_bytes = 4 * util::kGiB;
};

class VineScheduler final : public exec::SchedulerBackend {
 public:
  VineScheduler() = default;
  VineScheduler(DataPolicy policy, VineTunables tunables,
                std::string name = "taskvine")
      : policy_(policy), tunables_(tunables), name_(std::move(name)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] const DataPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const VineTunables& tunables() const noexcept {
    return tunables_;
  }

  exec::RunReport run(const dag::TaskGraph& graph, cluster::Cluster& cluster,
                      const exec::RunOptions& options) override;

 private:
  DataPolicy policy_ = taskvine_policy();
  VineTunables tunables_;
  std::string name_ = "taskvine";
};

}  // namespace hepvine::vine
