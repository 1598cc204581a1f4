// Implementation of the manager-worker execution engine behind
// VineScheduler (and, via DataPolicy, the Work Queue baseline).
//
// Everything is event-driven: the manager reacts to worker arrivals,
// fetch completions, task completions, and failures; the run shell's
// `pump()` greedily dispatches ready tasks whenever capacity may have
// appeared, asking this engine where to place each one. All callbacks that
// land after asynchronous delays validate an attempt token (task id +
// attempt counter) or a worker incarnation before acting, which makes
// preemption/crash handling uniform: invalidate the token, requeue the
// task, and let stale events fall on the floor. The run lifecycle itself
// (observability, profiling, faults, snapshots, completion) lives in
// exec::RunShell (exec/run_shell.h).

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "exec/run_shell.h"
#include "exec/serial_resource.h"
#include "fault/backoff_ledger.h"
#include "ha/snapshot.h"
#include "net/flow_gate.h"
#include "exec/task_state.h"
#include "exec/time_model.h"
#include "objstore/object_store.h"
#include "obs/observer.h"
#include "obs/span.h"
#include "sim/rng.h"
#include "util/flat_map.h"
#include "vine/dispatch_index.h"
#include "vine/replica_table.h"
#include "vine/vine_scheduler.h"
#include "vine/worker_disk.h"

namespace hepvine::vine {

namespace {

using cluster::WorkerId;
using data::FileId;
using dag::TaskId;
using exec::TaskState;
using util::Tick;

// vine-snapshot: state
class VineRun {
 public:
  VineRun(const dag::TaskGraph& graph, cluster::Cluster& cluster,
          const exec::RunOptions& options, const DataPolicy& policy,
          const VineTunables& tunables, std::string name)
      : graph_(graph),
        cluster_(cluster),
        engine_(cluster.engine()),
        options_(options),
        policy_(policy),
        tun_(tunables),
        table_(graph, policy.depth_priority),
        rng_(options.seed, "vine-run"),
        manager_(cluster.engine()),
        workers_rt_(cluster.worker_count()),
        obs_(obs::make_observation(options.observability)),
        shell_(graph, cluster, options_, table_, rng_, manager_, obs_,
               exec::RunShell::Identity{
                   std::move(name), "manager", "worker ", "peer file ",
                   "vine_run",
                   "event queue drained before workflow completion", true},
               hooks()) {
    build_file_table();
    store_.reset(cluster.worker_count(), tunables.object_store_bytes);
  }

  exec::RunReport run() {
    cluster_.network().set_warn_listener(
        [this](Tick t, net::FlowId f, const char* detail) {
          if (shell_.txn_on()) obs_->txn().net_warn(t, f, detail);
        });
    return shell_.execute();
  }

 private:
  // ---------------------------------------------------------------------
  // File table: catalog files plus runtime files (environment, function
  // bodies) appended past the catalog's range.
  // ---------------------------------------------------------------------
  struct FileInfo {
    std::uint64_t size = 0;
    data::FileKind kind = data::FileKind::kIntermediate;
    TaskId producer = dag::kInvalidTask;  // for intermediates
  };

  void build_file_table() {
    const auto& catalog = graph_.catalog();
    files_.reserve(catalog.size() + 8);
    for (const auto& f : catalog) {
      files_.push_back(FileInfo{f.size, f.kind, dag::kInvalidTask});
    }
    for (const auto& task : graph_.tasks()) {
      files_[static_cast<std::size_t>(task.output_file)].producer = task.id;
    }

    if (!options_.env_from_shared_fs) {
      env_file_ = add_runtime_file(options_.python.environment_bytes,
                                   data::FileKind::kEnvironment);
    }
    if (policy_.cache_function_bodies) {
      for (const auto& task : graph_.tasks()) {
        auto [it, inserted] = function_bodies_.try_emplace(
            task.spec.function, data::kInvalidFile);
        if (inserted) {
          it->second = add_runtime_file(options_.python.function_body_bytes,
                                        data::FileKind::kFunctionBody);
        }
      }
    }

    replicas_ = std::make_unique<ReplicaTable>(files_.size());
    std::vector<std::uint64_t> reclaim_bytes;
    for (const FileInfo& f : files_) {
      reclaim_bytes.push_back(
          f.kind == data::FileKind::kDatasetInput ? f.size : 0);
    }
    disk_ = std::make_unique<WorkerDisk>(cluster_.worker_count(),
                                         std::move(reclaim_bytes));
    // Runtime files and nothing else start at the manager.
    if (env_file_ != data::kInvalidFile) {
      replicas_->set_at_manager(env_file_);
    }
    for (const auto& [fn, file] : function_bodies_) {
      replicas_->set_at_manager(file);
    }
    const std::size_t workers = cluster_.worker_count();
    eligible_.reset(workers);
    dispatch_index_.reset(workers);
    loc_score_.assign(workers, 0);
    loc_epoch_.assign(workers, 0);
    index_dirty_flag_.assign(workers, 0);
    worker_fetches_.resize(workers);

    // Consumer reference counts, derived from the task graph: one count
    // per (task, file-it-reads) edge, covering both dependency outputs and
    // dataset inputs. Decremented as consuming tasks complete; a file at
    // zero has no pending reader and is garbage-collected cluster-wide.
    // Sink outputs and runtime files have no consuming edges, so their
    // count stays zero and is simply never decremented into a GC.
    consumers_left_.assign(files_.size(), 0);
    for (const auto& task : graph_.tasks()) {
      for (TaskId dep : task.spec.deps) {
        consumers_left_[static_cast<std::size_t>(
            graph_.task(dep).output_file)] += 1;
      }
      for (data::FileId f : task.spec.input_files) {
        consumers_left_[static_cast<std::size_t>(f)] += 1;
      }
    }
    // A lineage reset demotes done consumers back to waiting: they will
    // complete (and decrement) again, so their references come back.
    table_.set_undone_listener([this](TaskId t, Tick /*now*/) {
      for (TaskId dep : graph_.task(t).spec.deps) {
        consumers_left_[static_cast<std::size_t>(
            graph_.task(dep).output_file)] += 1;
      }
      for (data::FileId f : graph_.task(t).spec.input_files) {
        consumers_left_[static_cast<std::size_t>(f)] += 1;
      }
    });
  }

  FileId add_runtime_file(std::uint64_t size, data::FileKind kind) {
    const auto id = static_cast<FileId>(files_.size());
    files_.push_back(FileInfo{size, kind, dag::kInvalidTask});
    return id;
  }

  [[nodiscard]] const FileInfo& file(FileId id) const {
    return files_[static_cast<std::size_t>(id)];
  }

  using Token = exec::AttemptToken;

  struct Attempt : exec::AttemptBase {
    std::uint32_t staging_outstanding = 0;
    std::vector<dag::ValuePtr> inputs;
    bool resources_released = false;
    /// Disk bytes this attempt expects to add to its worker (missing
    /// inputs + output); reserved logically at dispatch so concurrent
    /// dispatches cannot over-commit a scratch disk.
    std::uint64_t disk_committed = 0;
    /// Files pinned on pin_worker for this attempt: every needed input at
    /// dispatch (staged or still staging), plus the output once produced.
    /// Released at attempt teardown; pin_incarnation guards against the
    /// worker having rebooted (the reboot wipes its pin set wholesale).
    std::vector<FileId> pinned;
    WorkerId pin_worker = cluster::kNoWorker;
    std::uint32_t pin_incarnation = 0;
    /// Object-store files this attempt holds by-reference handles on
    /// (subset of `pinned`); released with the pins. The handle keeps the
    /// object off the spill-victim list while the consumer runs.
    std::vector<FileId> store_refs;
  };

  // ---------------------------------------------------------------------
  // Per-worker runtime state (library, memory, transfer slots). What the
  // worker's disk holds lives in disk_ (WorkerDisk).
  // ---------------------------------------------------------------------
  enum class LibState : std::uint8_t { kNone, kInstalling, kReady };

  struct WorkerRt {
    LibState lib = LibState::kNone;
    std::uint64_t mem_in_use = 0;
    std::uint32_t active_out = 0;  // peer transfers sourced here
    std::vector<TaskId> here;      // tasks dispatched/running/returning
    std::vector<Token> waiting_for_lib;
    /// Residue clock for serialization charges on this worker: repeated
    /// sub-tick argument pickles sum exactly instead of each rounding up.
    util::TickAccumulator ser;
  };

  // ---------------------------------------------------------------------
  // Worker-disk lifecycle: pins, consumer-refcount GC, pressure eviction.
  // disk_ keeps the per-worker state; every mutation touches the worker's
  // dispatch-index leaf, since committed and reclaimable bytes feed it.
  // ---------------------------------------------------------------------
  void cache_insert(WorkerId w, FileId f) {
    disk_->insert(w, f, engine_.now());
    index_touch(w);
    replicas_->add(f, w);
    if (txn_on()) {
      obs_->txn().cache_insert(engine_.now(), w, f, file(f).size);
    }
  }

  /// Pin `f` on `w`: attempt inputs/outputs and transfer sources must not
  /// be evicted (or GC'd) from under their users.
  void pin_file(WorkerId w, FileId f) {
    disk_->pin(w, f, engine_.now());
    index_touch(w);
  }
  void unpin_file(WorkerId w, FileId f) {
    disk_->unpin(w, f);
    index_touch(w);
  }

  /// Release every pin the attempt holds. Only the pinning incarnation
  /// unpins: after a reboot the worker's pin set was wiped wholesale, and
  /// decrementing a successor's identically-named pins would corrupt them.
  void unpin_attempt(Attempt& attempt) {
    if (attempt.pin_worker == cluster::kNoWorker) return;
    if (worker_current(attempt.pin_worker, attempt.pin_incarnation)) {
      for (FileId f : attempt.pinned) unpin_file(attempt.pin_worker, f);
      // release_ref tolerates objects that were force-spilled or wiped
      // while the consumer ran; the handle simply dies with the attempt.
      for (FileId f : attempt.store_refs) {
        store_.release_ref(attempt.pin_worker, f);
      }
    }
    attempt.pinned.clear();
    attempt.store_refs.clear();
    attempt.pin_worker = cluster::kNoWorker;
  }

  /// One consuming task of `f` completed. At zero pending consumers the
  /// file is dead: drop every worker replica (manager copies stay — they
  /// back sink results and relays and cost no worker disk).
  void release_consumer_ref(FileId f) {
    auto& left = consumers_left_[static_cast<std::size_t>(f)];
    assert(left > 0 && "consumer refcount underflow");
    if (left == 0) return;
    if (--left == 0) gc_file(f);
  }

  void gc_file(FileId f) {
    // An in-memory store object dies with its last consumer too. Running
    // consumers hold consumer refs, so at this point store refs are zero.
    const objstore::NodeId sh = store_.holder_of(f);
    if (sh != objstore::kNoHolder) drop_store_object(sh, f);
    for (WorkerId holder : replicas_->holders_sorted(f)) {
      if (disk_->pins(holder, f) > 0) continue;  // in use by a live transfer
      drop_worker_copy(holder, f, file(f).size, DropReason::kGc);
    }
  }

  // ---------------------------------------------------------------------
  // Node-local object store: zero-copy output exchange for colocated
  // FunctionCalls (see objstore/object_store.h and DESIGN.md §9).
  // ---------------------------------------------------------------------
  /// The store only makes sense in serverless mode with output retention:
  /// FunctionCalls sharing a LibraryTask node are what can exchange a
  /// pointer, and Work Queue semantics delete outputs anyway.
  [[nodiscard]] bool store_enabled() const {
    return tun_.object_store &&
           options_.mode == exec::ExecMode::kFunctionCalls &&
           policy_.retain_outputs_on_worker;
  }

  /// Should `t`'s output be published in-memory instead of written to
  /// scratch disk? Sink outputs always materialize: they are fetched back
  /// to the manager immediately and backing them with memory buys nothing.
  [[nodiscard]] bool store_output(TaskId t) const {
    return store_enabled() && !shell_.is_sink(t) &&
           file(graph_.task(t).output_file).kind ==
               data::FileKind::kIntermediate;
  }

  /// Is `f` usable on `w` without any staging — on its scratch disk or
  /// mapped in the node's object store?
  [[nodiscard]] bool file_resident(WorkerId w, FileId f) const {
    return disk_->cached(w, f) || store_.holds(w, f);
  }

  /// Does any copy of `f` exist — replica table, manager, or a live
  /// in-memory store object? Lineage decisions must see store objects or
  /// they would re-run producers whose output is sitting in memory.
  [[nodiscard]] bool output_available(FileId f) const {
    return replicas_->available(f) || store_.holder_of(f) != objstore::kNoHolder;
  }

  /// True when every dependency output of `t` is a live store object on
  /// `w`: the argument tuple is handed over by reference and nothing is
  /// pickled. Tasks reading dataset inputs still deserialize those.
  [[nodiscard]] bool inputs_by_reference(TaskId t, WorkerId w) const {
    const auto& spec = graph_.task(t).spec;
    if (spec.deps.empty() || !spec.input_files.empty()) return false;
    for (TaskId dep : spec.deps) {
      if (!store_.holds(w, graph_.task(dep).output_file)) return false;
    }
    return true;
  }

  /// Publish `f` into `w`'s store, then spill LRU unreferenced objects
  /// while over budget. Returns false when a spill's disk reservation
  /// crashed the worker (the store died with it); callers must re-validate
  /// their token.
  bool store_put_object(WorkerId w, FileId f) {
    const std::uint64_t bytes = file(f).size;
    store_.put(w, f, bytes, engine_.now());
    shell_.report().store_puts += 1;
    shell_.report().store_put_bytes += bytes;
    if (txn_on()) obs_->txn().store_put(engine_.now(), w, f, bytes);
    while (store_.over_capacity(w)) {
      const FileId victim = store_.spill_victim(w);
      if (victim == data::kInvalidFile) break;  // all referenced: tolerate
      if (!spill_object(w, victim)) return false;
    }
    return true;
  }

  /// Materialize a store object as an ordinary replica-table file on its
  /// holder's scratch disk (capacity pressure, or a remote consumer or
  /// sink fetch needs the bytes). The object leaves memory; the file then
  /// travels the existing peer/relay transfer paths and ages through the
  /// LRU like any other cached output. No write time is charged — the
  /// buffer drains to disk off the critical path, matching how fetch
  /// arrivals are charged. Returns false when the reservation crashed the
  /// worker.
  bool spill_object(WorkerId w, FileId f) {
    const std::uint64_t bytes = store_.object_bytes(w, f);
    if (!reserve_or_crash(w, bytes)) {
      return false;  // crash_worker already wiped w's store
    }
    store_.erase(w, f);
    store_.counters().spills += 1;
    store_.counters().spill_bytes += bytes;
    shell_.report().store_spills += 1;
    shell_.report().store_spill_bytes += bytes;
    if (txn_on()) obs_->txn().store_spill(engine_.now(), w, f, bytes);
    cache_insert(w, f);
    maybe_replicate(f);
    return true;
  }

  /// The object dies in memory without touching disk (GC, or holder loss
  /// handled by drop_node). Tolerant of a missing entry.
  void drop_store_object(WorkerId w, FileId f) {
    const std::uint64_t bytes = store_.object_bytes(w, f);
    if (!store_.erase(w, f)) return;
    store_.counters().drops += 1;
    shell_.report().store_drops += 1;
    if (txn_on()) obs_->txn().store_drop(engine_.now(), w, f, bytes);
  }

  /// Reserve `bytes` of scratch on `w`, evicting under disk pressure when
  /// the policy allows. Returns false when the partition overflowed anyway
  /// (nothing evictable was enough): the worker is already crashing — the
  /// paper's Fig 11 pathology — and the caller must stop touching it.
  [[nodiscard]] bool reserve_or_crash(WorkerId w, std::uint64_t bytes) {
    auto& node = cluster_.worker(w);
    if (policy_.evict_on_pressure && bytes > node.disk.available()) {
      evict_for_pressure(w, bytes - node.disk.available());
    }
    if (!node.disk.try_reserve(bytes)) {
      shell_.crash_worker(w);
      return false;
    }
    index_touch(w);
    return true;
  }

  /// Free at least `need` bytes on `w` by dropping unpinned cached files,
  /// in a deterministic order: files recoverable without recompute
  /// (dataset inputs, files with another replica or a manager copy) go
  /// first, then last-copy intermediates (a later consumer recovers those
  /// via lineage reset, backstopped by the poisoned-task detector). Within
  /// a tier, least-recently-used first, file id as the tiebreak. Pinned
  /// files, runtime files, and sink outputs not yet safe at the manager
  /// are never victims.
  void evict_for_pressure(WorkerId w, std::uint64_t need) {
    const auto tier = [this](FileId f) {
      const FileInfo& info = file(f);
      if (info.kind == data::FileKind::kEnvironment ||
          info.kind == data::FileKind::kFunctionBody ||
          (info.producer != dag::kInvalidTask &&
           shell_.is_sink(info.producer) && !replicas_->at_manager(f))) {
        return WorkerDisk::kNeverEvict;
      }
      return info.kind == data::FileKind::kDatasetInput ||
                     replicas_->replica_count(f) > 1
                 ? 0
                 : 1;
    };
    std::uint64_t freed = 0;
    for (FileId f : disk_->eviction_order(w, tier)) {
      if (freed >= need) break;
      drop_worker_copy(w, f, file(f).size, DropReason::kEvict);
      freed += file(f).size;
    }
  }

  // ---------------------------------------------------------------------
  // Dispatch index: eligibility bitmap + incrementally maintained argmax
  // over disk headroom and capacity.
  //
  // `eligible_` is the set of workers that are alive with a free core,
  // walked from the round-robin cursor (vine/dispatch_index.h).
  // `dispatch_index_` ranks workers by disk-tight fallback headroom
  // (avail - committed, plus the reclaimable-input credit when eviction
  // is on) and by raw disk capacity, so choose_worker reads the fallback
  // ranking and the could-ever-fit bound in O(1) instead of rescanning
  // every worker. Leaves are re-derived by
  // index_touch(w) at every mutation of eligibility, disk reservations,
  // committed bytes, or reclaimable bytes. The differential suite pits
  // this path against the reference O(workers) scans byte-for-byte.
  // ---------------------------------------------------------------------
  /// Add `w` to (or drop it from) the eligible set; a change touches its
  /// dispatch-index leaf.
  void set_eligible(WorkerId w, bool eligible) {
    if (eligible_.set(w, eligible)) index_touch(w);
  }

  /// Fallback headroom for `w`: available scratch minus bytes promised to
  /// in-flight attempts, plus space held by unpinned cached dataset inputs
  /// when eviction can mint it back. Matches what disk_fits charges, so
  /// the ranking never crowns a worker whose free space is already spoken
  /// for.
  [[nodiscard]] std::uint64_t fallback_headroom(WorkerId w) const {
    const std::uint64_t avail = cluster_.worker(w).disk.available();
    const std::uint64_t committed = disk_->committed(w);
    std::uint64_t free = avail > committed ? avail - committed : 0;
    if (policy_.evict_on_pressure) free += disk_->reclaimable(w);
    return free;
  }

  /// Mark `w`'s dispatch-index leaf stale. Called from every place
  /// eligibility, disk reservations, committed bytes, or reclaimable
  /// bytes change; the leaf is re-derived lazily by index_flush at the
  /// next indexed query, so bursts of touches between dispatches (pins,
  /// reservations, releases) cost one bit each, not a tree walk each.
  /// The reference path recomputes by scan and never reads the tree, so
  /// maintenance is skipped entirely there.
  void index_touch(WorkerId w) {
    if (!tun_.indexed_dispatch) return;
    auto& dirty = index_dirty_flag_[static_cast<std::size_t>(w)];
    if (dirty == 0) {
      dirty = 1;
      index_dirty_.push_back(w);
    }
  }

  /// Re-derive every stale leaf; the tree is current on return.
  void index_flush() {
    for (WorkerId w : index_dirty_) {
      index_dirty_flag_[static_cast<std::size_t>(w)] = 0;
      if (!eligible_.contains(w)) {
        dispatch_index_.update(w, 0, 0);
        continue;
      }
      dispatch_index_.update(w, fallback_headroom(w) + 1,
                             cluster_.worker(w).disk.capacity() + 1);
    }
    index_dirty_.clear();
  }

  // ---------------------------------------------------------------------
  // Fetches: one active fetch per (file, destination worker).
  // ---------------------------------------------------------------------
  using FetchKey = std::pair<FileId, WorkerId>;

  struct Fetch {
    FileId file = data::kInvalidFile;
    WorkerId dst = cluster::kNoWorker;
    WorkerId peer_src = cluster::kNoWorker;  // valid while a peer flow runs
    std::uint32_t peer_src_inc = 0;  // peer_src's incarnation at acquire
    net::FlowId flow = net::kInvalidFlow;
    bool throttled = false;
    std::uint32_t kill_retries = 0;  // injected kills survived so far
    std::vector<std::function<void(bool)>> waiters;  // bool: file arrived
  };

  /// Active fetches, sharded by destination worker and keyed by file.
  /// Every lookup carries the full (file, dst) key, so the shard is O(1)
  /// to pick and each per-worker sorted vector stays a handful of entries
  /// (the files currently staging to that worker) — a Fetch is heavy
  /// (waiter callbacks), and a single flat global map paid an O(active
  /// fetches) move-and-destroy per insert/erase at 10k workers. Global
  /// iteration (worker teardown's peer-source scan, snapshots) walks
  /// shards in worker order, files ascending within, which is
  /// deterministic either way.
  std::vector<util::FlatMap<FileId, Fetch>> worker_fetches_;

  [[nodiscard]] Fetch* fetch_find(const FetchKey& key) {
    auto& shard = worker_fetches_[static_cast<std::size_t>(key.second)];
    auto it = shard.find(key.first);
    return it == shard.end() ? nullptr : &it->second;
  }
  /// Insert a fetch for `key`; returns null if one already exists.
  Fetch* fetch_emplace(const FetchKey& key, Fetch&& fetch) {
    auto& shard = worker_fetches_[static_cast<std::size_t>(key.second)];
    auto [it, inserted] = shard.emplace(key.first, std::move(fetch));
    return inserted ? &it->second : nullptr;
  }
  void fetch_erase(const FetchKey& key) {
    worker_fetches_[static_cast<std::size_t>(key.second)].erase(key.first);
  }

  std::deque<FetchKey> throttle_queue_;

  // ---------------------------------------------------------------------
  // Worker lifecycle.
  // ---------------------------------------------------------------------
  void on_worker_up(WorkerId w) {
    workers_rt_[static_cast<std::size_t>(w)] = WorkerRt{};
    disk_->reset(w);
    // After the runtime reset: set_eligible re-derives the worker's
    // dispatch-index leaf from the state it reads.
    set_eligible(w, true);
    if (options_.mode == exec::ExecMode::kFunctionCalls) {
      install_library(w);
    }
    shell_.pump();
  }

  void on_worker_down(WorkerId w) {
    set_eligible(w, false);
    auto& rt = workers_rt_[static_cast<std::size_t>(w)];

    // Fail every task attempt on this worker.
    const std::vector<TaskId> here = std::move(rt.here);
    rt.here.clear();
    for (TaskId t : here) {
      fail_attempt(t, /*requeue=*/true);
      if (shell_.finished()) return;
    }

    // Drop replicas and wipe the node's object store; lost intermediates
    // are rediscovered lazily at dispatch pre-check or fetch time
    // (lineage reset).
    replicas_->drop_worker(w, disk_->cached_files(w));
    store_.drop_node(w);
    rt = WorkerRt{};
    disk_->reset(w);
    index_touch(w);
    shell_.report().cache.mark_failure(static_cast<std::size_t>(w),
                                       engine_.now());

    // Cancel fetches touching this worker: everything staging to it (its
    // own shard) and, across the other shards, anything peer-sourced from
    // it. The cross-shard scan runs only on worker death.
    std::vector<FetchKey> to_dst;
    std::vector<FetchKey> from_src;
    for (const auto& [f, fetch] : worker_fetches_[static_cast<std::size_t>(w)]) {
      to_dst.push_back(FetchKey{f, w});
    }
    for (std::size_t dst = 0; dst < worker_fetches_.size(); ++dst) {
      if (dst == static_cast<std::size_t>(w)) continue;
      for (const auto& [f, fetch] : worker_fetches_[dst]) {
        if (fetch.peer_src == w) {
          from_src.push_back(FetchKey{f, static_cast<WorkerId>(dst)});
        }
      }
    }
    for (const FetchKey& key : to_dst) {
      Fetch* fetch = fetch_find(key);
      if (fetch == nullptr) continue;  // cascaded away already
      if (fetch->flow != net::kInvalidFlow) {
        shell_.cancel(fetch->flow);
        if (fetch->peer_src != cluster::kNoWorker) {
          release_peer_slot(fetch->peer_src, fetch->peer_src_inc,
                            fetch->file);
        }
      }
      // If a peer broker request is still queued (flow not yet started),
      // the broker callback releases the slot when it finds the fetch gone.
      fetch_erase(key);  // waiters' tokens are already invalid
    }
    for (const FetchKey& key : from_src) {
      Fetch* fetch = fetch_find(key);
      if (fetch == nullptr) continue;
      // No flow yet while the peer broker request is queued; the broker
      // callback finds the fetch re-sourced and gives the slot back.
      if (fetch->flow != net::kInvalidFlow) shell_.cancel(fetch->flow);
      fetch->flow = net::kInvalidFlow;
      fetch->peer_src = cluster::kNoWorker;
      start_fetch_transfer(key);  // re-source from another replica
    }

    // Sink results mid-flight from this worker must be re-fetched (or the
    // sink recomputed if no replica survives).
    std::vector<TaskId> broken_sinks;
    for (const auto& [t, flow_src] : sink_flows_) {
      if (flow_src.second == w) broken_sinks.push_back(t);
    }
    for (TaskId t : broken_sinks) {
      shell_.cancel(sink_flows_.at(t).first);
      sink_flows_.erase(t);
      fetch_sink_result(t);
    }

    shell_.pump();
  }

  // ---------------------------------------------------------------------
  // Fault injection. Only flows with a retry path are kill targets: each
  // fetch, relay pull, output return and sink gather passes its recovery
  // to start_transfer as `killed`. Import reads have no recovery closure,
  // so killing them would strand the run.
  // ---------------------------------------------------------------------
  /// Drop `f` from `w`'s cache (w = kNoWorker: from every holder). Future
  /// consumers rediscover the loss at precheck/fetch time and lineage-reset
  /// the producer; values already gathered for dispatched attempts are
  /// unaffected (they live in the task table, not in the file).
  std::size_t lose_cached_file(WorkerId w, FileId f) {
    if (shell_.finished() || f < 0 ||
        static_cast<std::size_t>(f) >= files_.size()) {
      return 0;
    }
    std::vector<WorkerId> targets;
    if (w == cluster::kNoWorker) {
      targets = replicas_->holders(f);  // copy: drop mutates the list
    } else {
      targets.push_back(w);
    }
    std::size_t lost = 0;
    for (WorkerId holder : targets) {
      if (!cluster_.worker(holder).alive || !disk_->cached(holder, f)) continue;
      drop_worker_copy(holder, f, file(f).size, DropReason::kLoss);
      ++lost;
    }
    return lost;
  }

  /// A fetch's flow was killed mid-stream: retry the fetch from scratch
  /// after capped exponential backoff (any surviving source is fine), or
  /// give up after the retry budget and let the lost-input path take over.
  void on_fetch_killed(const FetchKey& key) {
    Fetch* fp = fetch_find(key);
    if (fp == nullptr) return;
    Fetch& fetch = *fp;
    if (fetch.peer_src != cluster::kNoWorker) {
      release_peer_slot(fetch.peer_src, fetch.peer_src_inc, fetch.file);
      fetch.peer_src = cluster::kNoWorker;
    }
    fetch.flow = net::kInvalidFlow;
    fetch.kill_retries += 1;
    if (fetch.kill_retries >= options_.fault_retry.max_transfer_retries) {
      // The budget counts kills tolerated: the Nth kill exhausts it after
      // N-1 backoff re-fetches (RetryPolicy::max_transfer_retries).
      shell_.injector()->record_giveup(
          "file=" + std::to_string(fetch.file) +
          " dst=" + std::to_string(fetch.dst) +
          " kills=" + std::to_string(fetch.kill_retries));
      fail_fetch(key);
      shell_.pump();
      return;
    }
    const Tick delay = shell_.injector()->backoff_delay(fetch.kill_retries);
    engine_.schedule_after(delay, [this, key] { start_fetch_transfer(key); });
  }

  /// Files the task needs staged into the worker's cache.
  void needed_files(TaskId t, std::vector<FileId>& out) const {
    out.clear();
    const auto& task = graph_.task(t);
    if (options_.mode == exec::ExecMode::kStandardTasks &&
        env_file_ != data::kInvalidFile) {
      out.push_back(env_file_);
    }
    if (policy_.cache_function_bodies &&
        options_.mode == exec::ExecMode::kStandardTasks) {
      // Serverless function code lives inside the library; only standard
      // tasks stage serialized bodies as files.
      out.push_back(function_bodies_.at(task.spec.function));
    }
    for (FileId f : task.spec.input_files) out.push_back(f);
    for (TaskId dep : task.spec.deps) {
      out.push_back(graph_.task(dep).output_file);
    }
  }

  [[nodiscard]] bool worker_eligible(WorkerId w, const dag::Task& task) const {
    const auto& node = cluster_.worker(w);
    if (!node.alive || node.cores_free() == 0) return false;
    const auto& rt = workers_rt_[static_cast<std::size_t>(w)];
    return rt.mem_in_use + task.spec.memory_bytes <= node.memory;
  }

  [[nodiscard]] std::uint64_t missing_bytes(WorkerId w,
                                            const std::vector<FileId>& need)
      const {
    std::uint64_t bytes = 0;
    for (FileId f : need) {
      if (!file_resident(w, f)) bytes += file(f).size;
    }
    return bytes;
  }

  void advance_cursor(WorkerId w) {
    const auto n = static_cast<WorkerId>(cluster_.worker_count());
    shell_.rr_cursor() = static_cast<WorkerId>((w + 1) % n);
  }

  WorkerId choose_worker(TaskId t) {
    const auto& task = graph_.task(t);
    needed_files(t, scratch_files_);

    if (policy_.locality_placement) {
      const WorkerId w = locality_choice(task);
      if (w != cluster::kNoWorker) {
        // A locality win consumes this worker's turn too: without the
        // cursor advance, the round-robin path restarted at the same
        // worker on the next non-local dispatch and starved the tail of
        // the id space under mixed workloads.
        advance_cursor(w);
        return w;
      }
    }
    return tun_.indexed_dispatch ? rr_indexed(task) : rr_reference(task);
  }

  /// Locality placement: score eligible workers by resident input bytes
  /// and take the best-scored one whose disk fits — trying the remaining
  /// holders in descending (score, id-ascending) order rather than giving
  /// up when only the top holder is disk-tight. Replica lists are tiny, so
  /// this is O(inputs x replicas) per dispatch in both dispatch modes.
  WorkerId locality_choice(const dag::Task& task) {
    if (++loc_epoch_cur_ == 0) {  // epoch wrapped: invalidate all stamps
      std::fill(loc_epoch_.begin(), loc_epoch_.end(), 0);
      loc_epoch_cur_ = 1;
    }
    scratch_holders_.clear();
    const auto score_holder = [&](WorkerId holder, FileId f) {
      const auto hi = static_cast<std::size_t>(holder);
      if (loc_epoch_[hi] != loc_epoch_cur_) {
        if (!worker_eligible(holder, task)) return;
        loc_epoch_[hi] = loc_epoch_cur_;
        loc_score_[hi] = 0;
        scratch_holders_.push_back(holder);
      }
      loc_score_[hi] += file(f).size;
    };
    for (FileId f : scratch_files_) {
      if (file(f).kind == data::FileKind::kEnvironment) continue;
      for (WorkerId holder : replicas_->holders(f)) score_holder(holder, f);
      // An in-memory store object is the strongest locality signal of
      // all: placing the consumer on its holder makes the input free.
      const objstore::NodeId sh = store_.holder_of(f);
      if (sh != objstore::kNoHolder) score_holder(sh, f);
    }
    std::sort(scratch_holders_.begin(), scratch_holders_.end(),
              [this](WorkerId a, WorkerId b) {
                const std::uint64_t sa = loc_score_[static_cast<std::size_t>(a)];
                const std::uint64_t sb = loc_score_[static_cast<std::size_t>(b)];
                if (sa != sb) return sa > sb;
                return a < b;
              });
    for (WorkerId w : scratch_holders_) {
      if (disk_fits(w, task, scratch_files_)) return w;
    }
    return cluster::kNoWorker;
  }

  /// Reference round-robin: circular walk over eligible workers from the
  /// cursor, first disk-fitting worker wins; disk-tight fallback re-derived
  /// by full scan. Kept as the differential oracle for rr_indexed.
  WorkerId rr_reference(const dag::Task& task) {
    std::uint64_t best_capacity = 0;
    const WorkerId hit = eligible_.walk(shell_.rr_cursor(), [&](WorkerId w) {
      best_capacity = std::max(best_capacity, cluster_.worker(w).disk.capacity());
      return worker_eligible(w, task) && disk_fits(w, task, scratch_files_);
    });
    if (hit != cluster::kNoWorker) {
      advance_cursor(hit);
      return hit;
    }
    return resolve_fallback(task, best_capacity,
                            [&] { return scan_fallback_worker(task); });
  }

  /// Indexed round-robin: identical outcomes to rr_reference, with the
  /// O(workers) scans replaced by dispatch-index reads. The walk for a
  /// disk-fitting worker is skipped outright when even the cluster-wide
  /// max headroom cannot cover the task's output (disk_fits needs
  /// avail - committed >= missing + output, and headroom bounds
  /// avail - committed from above), and the disk-tight fallback comes from
  /// the index argmax instead of a rescan.
  WorkerId rr_indexed(const dag::Task& task) {
    // Probe a bounded prefix of the round-robin walk before touching the
    // index at all: when disks have room the first eligible worker wins
    // and the tree (and its deferred leaf fix-ups) stays cold. Only a
    // failed probe — the disk-tight regime — pays the flush, and the tree
    // then prunes the rest of the scan or answers the fallback outright.
    constexpr std::size_t kProbe = 64;
    std::size_t visited = 0;
    WorkerId bound_stop = cluster::kNoWorker;
    WorkerId hit = eligible_.walk(shell_.rr_cursor(), [&](WorkerId w) {
      if (worker_eligible(w, task) && disk_fits(w, task, scratch_files_)) {
        return true;
      }
      if (++visited >= kProbe) {
        bound_stop = w;
        return true;  // stop the walk; not a hit
      }
      return false;
    });
    if (hit != cluster::kNoWorker && hit != bound_stop) {
      advance_cursor(hit);
      return hit;
    }
    index_flush();
    const std::uint64_t max_free = dispatch_index_.top_free_key();
    if (max_free == 0) return cluster::kNoWorker;  // nothing eligible
    const std::uint64_t best_capacity = dispatch_index_.top_cap_key() - 1;
    if (bound_stop != cluster::kNoWorker &&
        max_free - 1 >= task.spec.output_bytes) {
      // Something may still fit; resume past the probe boundary. The
      // continuation wraps through the already-probed prefix at its tail,
      // which re-tests provably unfit workers — harmless, and only on
      // this no-hit-in-prefix path.
      const auto n = static_cast<WorkerId>(cluster_.worker_count());
      hit = eligible_.walk(static_cast<WorkerId>((bound_stop + 1) % n),
                           [&](WorkerId w) {
                             return worker_eligible(w, task) &&
                                    disk_fits(w, task, scratch_files_);
                           });
      if (hit != cluster::kNoWorker) {
        advance_cursor(hit);
        return hit;
      }
    }
    return resolve_fallback(task, best_capacity, [&] {
      // The index argmax ignores the per-task memory fit; when the top
      // worker passes it, it is also the argmax over the memory-fitting
      // subset (max over a superset attained inside the subset, same
      // smaller-id tiebreak). Otherwise re-derive by scan.
      const WorkerId fb = dispatch_index_.top_free_worker();
      if (fb != cluster::kNoWorker && !worker_eligible(fb, task)) {
        return scan_fallback_worker(task);
      }
      return fb;
    });
  }

  /// Disk-tight fallback by scan: the eligible, memory-fitting worker with
  /// the most fallback headroom (ties to the smaller id — the walk is in
  /// ascending id order and replacement is strict). Ranking by headroom
  /// rather than raw disk.available() matters: raw availability can crown
  /// a "roomiest" worker whose free space is already promised to in-flight
  /// attempts, and when eviction is on, space held by unpinned dataset
  /// inputs counts — a forced dispatch landing there reclaims it instead
  /// of overflowing.
  [[nodiscard]] WorkerId scan_fallback_worker(const dag::Task& task) const {
    WorkerId fb = cluster::kNoWorker;
    std::uint64_t fb_free = 0;
    (void)eligible_.walk(0, [&](WorkerId w) {
      if (!worker_eligible(w, task)) return false;
      const std::uint64_t free = fallback_headroom(w);
      if (fb == cluster::kNoWorker || free > fb_free) {
        fb = w;
        fb_free = free;
      }
      return false;
    });
    return fb;
  }

  /// Workers are eligible but their disks are currently tight. If the
  /// task would fit an *empty* scratch disk, wait: running tasks will
  /// finish and pruning will reclaim space. If it cannot fit any disk at
  /// all — the paper's single-node reduction — dispatch to the roomiest
  /// worker anyway and let the overflow surface as the worker failure it
  /// would be in production. Also force progress if nothing is running
  /// (waiting would deadlock). `best_capacity` spans every eligible
  /// worker, memory fit aside — a task that only "could ever fit" on a
  /// memory-busy worker should still wait for it rather than overflow a
  /// smaller disk. `pick_fallback` is only invoked on the force-dispatch
  /// path, so the common wait case never pays the ranking scan.
  template <typename FallbackFn>
  WorkerId resolve_fallback(const dag::Task& task,
                            std::uint64_t best_capacity,
                            FallbackFn&& pick_fallback) {
    std::uint64_t footprint = task.spec.output_bytes;
    for (FileId f : scratch_files_) footprint += file(f).size;
    const bool could_ever_fit = footprint <= best_capacity;
    if (could_ever_fit && shell_.attempts_live() != 0) {
      return cluster::kNoWorker;  // wait for space
    }
    const WorkerId fallback = pick_fallback();
    if (fallback == cluster::kNoWorker) return cluster::kNoWorker;
    advance_cursor(fallback);
    return fallback;
  }

  [[nodiscard]] bool disk_fits(WorkerId w, const dag::Task& task,
                               const std::vector<FileId>& need) const {
    return missing_bytes(w, need) + task.spec.output_bytes +
               disk_->committed(w) <=
           cluster_.worker(w).disk.available();
  }

  // ---------------------------------------------------------------------
  // Dispatch and staging.
  // ---------------------------------------------------------------------
  [[nodiscard]] Tick dispatch_cost() const {
    return options_.mode == exec::ExecMode::kFunctionCalls
               ? tun_.dispatch_cost_function_call
               : tun_.dispatch_cost_standard;
  }
  [[nodiscard]] Tick result_cost() const {
    return options_.mode == exec::ExecMode::kFunctionCalls
               ? tun_.result_cost_function_call
               : tun_.result_cost_standard;
  }

  void dispatch(TaskId t, WorkerId w) {
    auto& attempt = shell_.begin_attempt<Attempt>(t, w);
    auto& node = cluster_.worker(w);
    node.cores_in_use += 1;
    if (node.cores_free() == 0) set_eligible(w, false);
    auto& rt = workers_rt_[static_cast<std::size_t>(w)];
    rt.mem_in_use += graph_.task(t).spec.memory_bytes;
    rt.here.push_back(t);

    attempt.inputs = table_.gather_inputs(t);
    needed_files(t, scratch_files_);
    attempt.disk_committed =
        missing_bytes(w, scratch_files_) + graph_.task(t).spec.output_bytes;
    disk_->commit(w, attempt.disk_committed);
    index_touch(w);
    // Pin every needed file for the attempt's lifetime — resident copies
    // now, in-flight ones ahead of their arrival — so pressure eviction
    // and GC cannot pull an input from under a dispatched task.
    attempt.pin_worker = w;
    attempt.pin_incarnation = node.incarnation;
    attempt.pinned = scratch_files_;
    for (FileId f : scratch_files_) pin_file(w, f);
    if (store_enabled()) {
      // Inputs already mapped in w's object store are consumed by
      // reference: take a handle per file so capacity pressure cannot
      // spill them from under the running FunctionCall.
      for (FileId f : scratch_files_) {
        if (!store_.holds(w, f)) continue;
        store_.add_ref(w, f);
        attempt.store_refs.push_back(f);
        shell_.report().store_ref_hits += 1;
        if (txn_on()) obs_->txn().store_ref(engine_.now(), w, f, file(f).size);
      }
    }
    const Token token = shell_.token(t);

    // Serialize + enqueue the dispatch on the manager thread. The argument
    // payload (plus the function body, when bodies are not cacheable
    // files) is small enough to ride the control channel: we charge the
    // manager's serial time and the control RTT rather than opening a
    // dedicated flow per task.
    std::uint64_t wire_bytes = options_.python.argument_bytes;
    if (!policy_.cache_function_bodies &&
        options_.mode == exec::ExecMode::kStandardTasks) {
      wire_bytes += options_.python.function_body_bytes;
    }
    manager_.acquire_then(dispatch_cost(), [this, token, w, wire_bytes] {
      if (!shell_.token_valid(token)) return;
      shell_.record_bytes(cluster_.manager_endpoint(),
                          cluster_.worker_endpoint(w), wire_bytes);
      engine_.schedule_after(cluster_.control_rtt() / 2,
                             [this, token, w] { begin_staging(token, w); });
    });
  }

  void begin_staging(const Token& token, WorkerId w) {
    if (!shell_.token_valid(token)) return;
    needed_files(token.task, scratch_files_);
    auto& attempt = shell_.attempt_at<Attempt>(token.task);
    attempt.span_staged = engine_.now();
    std::vector<FileId> missing;
    for (FileId f : scratch_files_) {
      if (!file_resident(w, f)) missing.push_back(f);
    }
    attempt.staging_outstanding = static_cast<std::uint32_t>(missing.size());
    if (missing.empty()) {
      maybe_start_exec(token, w);
      return;
    }
    for (FileId f : missing) {
      stage_file(f, w, [this, token, w](bool ok) {
        if (!shell_.token_valid(token)) return;
        if (!ok) {
          // Input is unrecoverable right now: abort this attempt and
          // lineage-reset the producer; the dependents-fix inside
          // reset_lost demotes the (now requeued) task back to waiting.
          abort_attempt_for_lost_input(token);
          return;
        }
        auto& att = shell_.attempt_at<Attempt>(token.task);
        assert(att.staging_outstanding > 0);
        if (--att.staging_outstanding == 0) {
          maybe_start_exec(token, w);
        }
      });
    }
  }

  void abort_attempt_for_lost_input(const Token& token) {
    const TaskId t = token.task;
    fail_attempt(t, /*requeue=*/true);
    if (shell_.finished()) return;
    // t is kReady from the requeue; resetting its lost inputs demotes it.
    shell_.precheck_inputs(t);
    shell_.pump();
  }

  // --- stage_file: ensure `f` lands in w's cache, then notify ------------
  void stage_file(FileId f, WorkerId w, std::function<void(bool)> done) {
    if (file_resident(w, f)) {
      done(true);
      return;
    }
    const FetchKey key{f, w};
    if (Fetch* existing = fetch_find(key)) {
      existing->waiters.push_back(std::move(done));
      return;
    }
    Fetch fetch;
    fetch.file = f;
    fetch.dst = w;
    fetch.waiters.push_back(std::move(done));
    fetch_emplace(key, std::move(fetch));
    start_fetch_transfer(key);
  }

  void start_fetch_transfer(const FetchKey& key) {
    Fetch* fp = fetch_find(key);
    if (fp == nullptr) return;
    Fetch& fetch = *fp;
    const FileId f = fetch.file;
    const WorkerId w = fetch.dst;

    // Dataset inputs are always recoverable from backing storage (the
    // local data store or the wide-area federation). When replicas already
    // exist on workers — a chunk cached by an earlier attempt, or
    // replicated — peer transfer is still preferred below, so only truly
    // cold chunks hit storage.
    if (file(f).kind == data::FileKind::kDatasetInput &&
        pick_peer_source(f) == cluster::kNoWorker) {
      if (policy_.inputs_via_manager) {
        ensure_manager_copy(f, [this, key] { transfer_from_manager(key); });
      } else {
        fs_gate_.submit([this, key](net::FlowGate::SlotToken slot) {
          Fetch* fit = fetch_find(key);
          if (fit == nullptr) return;  // fetch vanished while queued
          fit->flow = start_fetch_flow(
              key,
              options_.inputs_from_wan ? cluster_.wan_endpoint()
                                       : cluster_.fs_endpoint(),
              0, [this, key, slot = std::move(slot)](net::FlowId flow) {
                shell_.land(flow);
                complete_fetch(key);
              });
        });
      }
      return;
    }

    // Worker-resident replicas: peer transfer if allowed and a source has
    // a free slot; otherwise relay through the manager.
    const WorkerId src = pick_peer_source(f);
    if (src != cluster::kNoWorker) {
      fetch.peer_src = src;
      fetch.peer_src_inc = cluster_.worker(src).incarnation;
      acquire_peer_slot(src, f);
      const std::uint32_t src_inc = fetch.peer_src_inc;
      // The manager brokers the transfer (small control cost), then the
      // data flows directly between the workers.
      manager_.acquire_then(tun_.peer_instruction_cost,
                            [this, key, src, src_inc] {
        Fetch* fit = fetch_find(key);
        if (fit == nullptr || fit->peer_src != src ||
            fit->peer_src_inc != src_inc) {
          // The fetch vanished (destination died) or was re-sourced while
          // the broker request was queued; the slot we reserved is ours to
          // give back (the flow-completion path never runs).
          release_peer_slot(src, src_inc, key.first);
          return;
        }
        fit->flow = start_fetch_flow(
            key, cluster_.worker_endpoint(src), cluster_.control_rtt(),
            [this, key, src, src_inc](net::FlowId flow) {
              // The freed slot starts throttled fetches before the DONE
              // line. One of them may spill and crash either end of this
              // fetch, whose teardown then closes the flow itself.
              release_peer_slot(src, src_inc, key.first);
              Fetch* landed = fetch_find(key);
              if (landed == nullptr || landed->flow != flow) return;
              landed->peer_src = cluster::kNoWorker;
              shell_.land(flow);
              complete_fetch(key);
            });
      });
      return;
    }

    if (policy_.peer_transfers && !replicas_->holders(f).empty()) {
      // All sources are at their transfer cap: wait for a slot.
      if (!fetch.throttled) {
        fetch.throttled = true;
        throttle_queue_.push_back(key);
      }
      return;
    }

    if (replicas_->at_manager(f)) {
      transfer_from_manager(key);
      return;
    }

    if (!replicas_->holders(f).empty()) {
      // Peer transfers disabled: relay worker -> manager -> worker.
      ensure_manager_copy_from_worker(f, [this, key](bool ok) {
        if (ok) {
          transfer_from_manager(key);
        } else {
          fail_fetch(key);
        }
      });
      return;
    }

    // The only copy may be a node-local store object: materialize it on
    // its holder's disk (it becomes an ordinary replica-table file) and
    // retry — the fresh replica takes the peer/relay paths above. When
    // the spill lands on the requesting worker itself (a re-dispatched
    // consumer racing a producer's spill), the fetch completes in place.
    const objstore::NodeId sh = store_.holder_of(f);
    if (sh != objstore::kNoHolder && cluster_.worker(sh).alive &&
        spill_object(sh, f)) {
      if (sh == w) {
        Fetch* again = fetch_find(key);
        if (again != nullptr) {
          auto waiters = std::move(again->waiters);
          fetch_erase(key);
          for (auto& cb : waiters) cb(true);
        }
      } else if (fetch_find(key) != nullptr) {
        start_fetch_transfer(key);
      }
      return;
    }

    // No replica anywhere: the file is lost.
    fail_fetch(key);
  }

  [[nodiscard]] WorkerId pick_peer_source(FileId f) const {
    if (!policy_.peer_transfers) return cluster::kNoWorker;
    WorkerId best = cluster::kNoWorker;
    std::uint32_t best_load = 0;
    for (WorkerId holder : replicas_->holders(f)) {
      if (!cluster_.worker(holder).alive) continue;
      const std::uint32_t load =
          workers_rt_[static_cast<std::size_t>(holder)].active_out;
      if (options_.peer_transfer_limit != 0 &&
          load >= options_.peer_transfer_limit) {
        continue;
      }
      if (best == cluster::kNoWorker || load < best_load) {
        best = holder;
        best_load = load;
      }
    }
    return best;
  }

  /// Take a peer-transfer slot on `src` for sending `f`: bump the active
  /// counter and pin the copy — a transfer source must not be evicted or
  /// GC'd from under its flow.
  void acquire_peer_slot(WorkerId src, FileId f) {
    workers_rt_[static_cast<std::size_t>(src)].active_out += 1;
    pin_file(src, f);
  }

  /// Release a slot taken at `incarnation`. Slots die with their worker
  /// (the reboot zeroes active_out and the pin set), so a release landing
  /// on a dead or later incarnation is a stale callback, not an underflow.
  /// A same-incarnation release with no slot outstanding is a genuine
  /// double release: a hard error in Debug builds, counted in the run
  /// report otherwise so production runs stay auditable.
  void release_peer_slot(WorkerId src, std::uint32_t incarnation, FileId f) {
    if (!worker_current(src, incarnation)) return;
    auto& rt = workers_rt_[static_cast<std::size_t>(src)];
    unpin_file(src, f);
    if (rt.active_out == 0) {
      shell_.report().peer_slot_underflows += 1;
      assert(false && "peer-transfer slot double release");
      return;
    }
    rt.active_out -= 1;
    drain_throttle_queue();
  }

  void drain_throttle_queue() {
    // Retry throttled fetches; those still capped re-queue themselves.
    std::size_t n = throttle_queue_.size();
    while (n-- > 0 && !throttle_queue_.empty()) {
      const FetchKey key = throttle_queue_.front();
      throttle_queue_.pop_front();
      Fetch* fetch = fetch_find(key);
      if (fetch == nullptr) continue;
      fetch->throttled = false;
      start_fetch_transfer(key);
      // start_fetch_transfer may have erased or re-throttled the fetch.
      Fetch* again = fetch_find(key);
      if (again != nullptr && again->throttled) break;
    }
  }

  void transfer_from_manager(const FetchKey& key) {
    mgr_gate_.submit([this, key](net::FlowGate::SlotToken slot) {
      Fetch* fetch = fetch_find(key);
      if (fetch == nullptr) return;  // fetch vanished while queued
      fetch->flow = start_fetch_flow(
          key, cluster_.manager_endpoint(), cluster_.control_rtt() / 2,
          [this, key, slot = std::move(slot)](net::FlowId flow) {
            shell_.land(flow);
            complete_fetch(key);
          });
    });
  }

  /// Start the flow behind fetch `key` from endpoint `src`; an injected
  /// kill retries the fetch (on_fetch_killed).
  net::FlowId start_fetch_flow(const FetchKey& key, std::size_t src,
                               Tick latency,
                               std::function<void(net::FlowId)> landed) {
    return shell_.start_transfer(
        {src, cluster_.worker_endpoint(key.second), key.first,
         file(key.first).size},
        latency, std::move(landed), [this, key] { on_fetch_killed(key); });
  }

  /// Stage a dataset input from the shared filesystem to the manager's
  /// disk (Work Queue pattern), deduplicating concurrent requests. The
  /// filesystem is always available, so this path cannot fail.
  void ensure_manager_copy(FileId f, std::function<void()> then) {
    if (replicas_->at_manager(f)) {
      then();
      return;
    }
    auto [it, inserted] = manager_inflight_.try_emplace(f);
    it->second.push_back([then = std::move(then)](bool ok) {
      if (ok) then();
    });
    if (!inserted) return;
    submit_manager_fs_read(f);
  }

  /// Manager-side FS reads retry forever: the filesystem is durable, so a
  /// killed stream just re-opens after backoff. The killed flow's done
  /// callback dies with it, which releases its fs_gate_ slot; the retry
  /// queues for a fresh one.
  void submit_manager_fs_read(FileId f) {
    fs_gate_.submit([this, f](net::FlowGate::SlotToken slot) {
      manager_fs_flows_[f] = shell_.start_transfer(
          {cluster_.fs_endpoint(), cluster_.manager_endpoint(), f,
           file(f).size},
          0,
          [this, f, slot = std::move(slot)](net::FlowId flow) {
            manager_fs_flows_.erase(f);
            shell_.land(flow);
            replicas_->set_at_manager(f);
            // The read landed: close the backoff episode so a later,
            // independent failure of this file starts at backoff(1).
            manager_fs_backoff_.reset(f);
            auto node = manager_inflight_.extract(f);
            for (auto& cb : node.mapped()) cb(true);
          },
          [this, f] {
            manager_fs_flows_.erase(f);
            const Tick delay = shell_.injector()->backoff_delay(
                manager_fs_backoff_.next_attempt(f));
            engine_.schedule_after(delay, [this, f] {
              if (!shell_.finished() && manager_inflight_.count(f) > 0) {
                submit_manager_fs_read(f);
              }
            });
          });
    });
  }

  /// Relay step 1: pull a worker-resident file back to the manager. The
  /// source can be preempted while the request is queued or in flight, so
  /// the continuation receives success/failure.
  void ensure_manager_copy_from_worker(FileId f,
                                       std::function<void(bool)> then) {
    if (replicas_->at_manager(f)) {
      then(true);
      return;
    }
    auto [it, inserted] = manager_inflight_.try_emplace(f);
    it->second.push_back(std::move(then));
    if (!inserted) return;
    mgr_gate_.submit([this, f](net::FlowGate::SlotToken slot) {
      start_relay_pull(f, std::move(slot));
    });
  }

  void start_relay_pull(FileId f, net::FlowGate::SlotToken slot) {
    if (replicas_->at_manager(f)) {
      // Arrived via another path (e.g. an output return) while this pull
      // was queued or backing off.
      auto node = manager_inflight_.extract(f);
      for (auto& cb : node.mapped()) cb(true);
      return;
    }
    // Re-pick a live holder at start time (the original may be gone).
    WorkerId holder = cluster::kNoWorker;
    for (WorkerId h : replicas_->holders(f)) {
      if (cluster_.worker(h).alive) {
        holder = h;
        break;
      }
    }
    if (holder == cluster::kNoWorker) {
      auto node = manager_inflight_.extract(f);
      if (!node.empty()) {
        for (auto& cb : node.mapped()) cb(false);
      }
      return;
    }
    const std::uint32_t incarnation = cluster_.worker(holder).incarnation;
    // The relay source is a live transfer origin: pin it for the flow's
    // duration so eviction/GC cannot destroy the copy being read.
    pin_file(holder, f);
    // Relay pulls retry without a cap after a kill: the holder set is
    // re-resolved on each retry, and if every replica is gone by then the
    // pull reports failure to its waiters (the lost-input path) rather
    // than spinning.
    shell_.start_transfer(
        {cluster_.worker_endpoint(holder), cluster_.manager_endpoint(), f,
         file(f).size},
        cluster_.control_rtt() / 2,
        [this, f, holder, incarnation,
         slot = std::move(slot)](net::FlowId flow) mutable {
          relay_flows_.erase(f);
          if (!worker_current(holder, incarnation)) {
            shell_.fail(flow);
            start_relay_pull(f, std::move(slot));  // retry elsewhere
            return;
          }
          unpin_file(holder, f);
          shell_.land(flow);
          replicas_->set_at_manager(f);
          relay_backoff_.reset(f);
          auto node = manager_inflight_.extract(f);
          for (auto& cb : node.mapped()) cb(true);
        },
        [this, f, holder, incarnation] {
          relay_flows_.erase(f);
          if (worker_current(holder, incarnation)) unpin_file(holder, f);
          const Tick delay = shell_.injector()->backoff_delay(
              relay_backoff_.next_attempt(f));
          engine_.schedule_after(delay, [this, f] {
            if (shell_.finished() || manager_inflight_.count(f) == 0) {
              return;
            }
            mgr_gate_.submit([this, f](net::FlowGate::SlotToken fresh) {
              start_relay_pull(f, std::move(fresh));
            });
          });
        });
    relay_flows_[f] = holder;
  }

  void complete_fetch(const FetchKey& key) {
    Fetch* fetch = fetch_find(key);
    if (fetch == nullptr) return;
    const FileId f = key.first;
    const WorkerId w = key.second;
    auto waiters = std::move(fetch->waiters);
    fetch_erase(key);

    if (!cluster_.worker(w).alive) {
      // Destination died while the bytes were in flight. The waiters'
      // tokens are stale, but the fetch outcome must still be delivered:
      // silently dropping moved-out callbacks leaks any continuation that
      // does not ride an attempt token.
      for (auto& cb : waiters) cb(false);
      return;
    }
    if (!reserve_or_crash(w, file(f).size)) {
      // Scratch partition overflowed and nothing evictable was enough: the
      // worker dies (paper Fig 11). crash_worker tears it down
      // synchronously, so every waiter token is already invalid — but the
      // outcome is still delivered, not dropped on the floor.
      for (auto& cb : waiters) cb(false);
      return;
    }
    cache_insert(w, f);
    for (auto& cb : waiters) cb(true);
  }

  void fail_fetch(const FetchKey& key) {
    Fetch* fetch = fetch_find(key);
    if (fetch == nullptr) return;
    auto waiters = std::move(fetch->waiters);
    fetch_erase(key);
    for (auto& cb : waiters) cb(false);
  }

  // ---------------------------------------------------------------------
  // Execution.
  // ---------------------------------------------------------------------
  void maybe_start_exec(const Token& token, WorkerId w) {
    if (!shell_.token_valid(token)) return;
    if (options_.mode == exec::ExecMode::kFunctionCalls) {
      auto& rt = workers_rt_[static_cast<std::size_t>(w)];
      if (rt.lib != LibState::kReady) {
        rt.waiting_for_lib.push_back(token);
        return;
      }
    }
    start_exec(token, w);
  }

  void start_exec(const Token& token, WorkerId w) {
    if (!shell_.token_valid(token)) return;
    const TaskId t = token.task;
    table_.mark_running(t);
    if (txn_on()) obs_->txn().task_running(engine_.now(), t, w);
    shell_.attempt_at<Attempt>(t).span_exec = engine_.now();
    const auto& task = graph_.task(t);
    const auto& node = cluster_.worker(w);

    Tick pre = 0;
    bool shared_imports = false;
    const auto& py = options_.python;
    auto& rtw = workers_rt_[static_cast<std::size_t>(w)];
    if (options_.mode == exec::ExecMode::kStandardTasks) {
      pre += py.interpreter_startup;
      pre += py.serialize_time_acc(py.function_body_bytes + py.argument_bytes,
                                   rtw.ser);
      if (options_.env_from_shared_fs) {
        shared_imports = true;
      } else {
        pre += options_.imports.import_time_local(node.disk.spec());
      }
    } else {
      // Zero-copy bypass: when every dependency output is a live store
      // object on this node, the argument tuple is handed to the forked
      // FunctionCall by reference and nothing is pickled. The reference
      // arm (store off) charges the full serialization path.
      const bool by_ref =
          tun_.object_store ? inputs_by_reference(t, w) : false;
      pre += py.fork_cost +
             (by_ref ? py.byref_handoff_time()
                     : py.serialize_time_acc(py.argument_bytes, rtw.ser));
      if (!options_.hoist_imports) {
        if (options_.env_from_shared_fs) {
          shared_imports = true;
        } else {
          pre += options_.imports.import_time_local(node.disk.spec());
        }
      }
    }

    const Tick compute = exec::modeled_exec_ticks(
        task, node.effective_speed(), options_.exec_time_jitter, rng_);
    // Store-eligible outputs never touch scratch disk at completion, so
    // the write stage of the attempt costs nothing.
    const Tick write =
        store_output(t) ? 0 : node.disk.write_time(task.spec.output_bytes);

    if (shared_imports) {
      engine_.schedule_after(pre, [this, token, w, compute, write] {
        if (!shell_.token_valid(token)) return;
        cluster_.fs().metadata_ops(
            options_.imports.total_metadata_ops(),
            [this, token, w, compute, write] {
              if (!shell_.token_valid(token)) return;
              fs_gate_.submit([this, token, w, compute,
                               write](net::FlowGate::SlotToken slot) {
                if (!shell_.token_valid(token)) return;
                shell_.start_transfer(
                    {cluster_.fs_endpoint(), cluster_.worker_endpoint(w),
                     data::kInvalidFile, options_.imports.total_code_bytes()},
                    0,
                    [this, token, w, compute, write,
                     slot = std::move(slot)](net::FlowId flow) {
                      if (!shell_.token_valid(token)) {
                        shell_.fail(flow);
                        return;
                      }
                      shell_.land(flow);
                      const Tick cpu = options_.imports.total_cpu_cost();
                      shell_.attempt_at<Attempt>(token.task).span_compute =
                          engine_.now() + cpu;
                      engine_.schedule_after(
                          cpu + compute + write,
                          [this, token, w] { complete_exec(token, w); });
                    });
              });
            });
      });
    } else {
      shell_.attempt_at<Attempt>(t).span_compute = engine_.now() + pre;
      engine_.schedule_after(pre + compute + write, [this, token, w] {
        complete_exec(token, w);
      });
    }
  }

  void complete_exec(const Token& token, WorkerId w) {
    if (!shell_.token_valid(token)) return;
    const TaskId t = token.task;
    const auto& task = graph_.task(t);

    // Produce the output: store-eligible FunctionCall outputs publish
    // into the node's in-memory object store (zero-copy, no disk write);
    // everything else lands on the worker's scratch disk as before.
    // A capacity spill inside store_put_object can crash the worker —
    // re-validate the token like any other asynchronous hazard.
    if (store_output(t)) {
      if (!store_put_object(w, task.output_file) ||
          !shell_.token_valid(token)) {
        return;
      }
    } else {
      if (!reserve_or_crash(w, task.spec.output_bytes)) {
        return;
      }
      cache_insert(w, task.output_file);
    }
    // Run the real computation.
    auto& attempt = shell_.attempt_at<Attempt>(t);
    // The fresh output is pinned until the attempt finalizes: eviction
    // must not destroy a result the manager has not ingested yet. For a
    // store object the pin arms lazily — it starts protecting the disk
    // copy the moment a forced spill materializes one.
    attempt.pinned.push_back(task.output_file);
    pin_file(w, task.output_file);
    if (!store_output(t)) maybe_replicate(task.output_file);
    attempt.span_exec_end = engine_.now();
    dag::ValuePtr value =
        task.spec.fn ? task.spec.fn(attempt.inputs) : nullptr;
    attempt.inputs.clear();

    // The process exits: core and memory free immediately; the manager
    // learns of the result after the control hop + its own handling cost.
    release_resources(t, w);

    if (policy_.retain_outputs_on_worker) {
      manager_.acquire_then(
          result_cost() + cluster_.control_rtt() / 2,
          [this, token, w, value = std::move(value)]() mutable {
            finalize_task(token, w, std::move(value));
          });
    } else {
      // Work Queue: ship the output back to the manager; the worker's
      // sandbox copy is deleted on arrival.
      const std::uint64_t bytes = task.spec.output_bytes;
      mgr_gate_.submit([this, token, w, bytes, t,
                        value = std::move(value)](
                           net::FlowGate::SlotToken slot) mutable {
        if (!shell_.token_valid(token)) return;
        const FileId f = graph_.task(t).output_file;
        // A killed return destroys the serialized result value riding the
        // stream along with the flow, so the only recovery is re-running
        // the attempt: there is nothing left to re-send.
        return_flows_[t] = shell_.start_transfer(
            {cluster_.worker_endpoint(w), cluster_.manager_endpoint(), f,
             bytes},
            cluster_.control_rtt() / 2,
            [this, token, w, f, bytes, value = std::move(value),
             slot = std::move(slot)](net::FlowId flow) mutable {
              if (!shell_.token_valid(token)) {
                shell_.fail(flow);
                return;
              }
              shell_.land(flow);
              replicas_->set_at_manager(f);
              drop_worker_copy(w, f, bytes, DropReason::kSandbox);
              manager_.acquire_then(
                  result_cost(), [this, token, w,
                                  value = std::move(value)]() mutable {
                    finalize_task(token, w, std::move(value));
                  });
            },
            [this, t, token] {
              return_flows_.erase(t);
              if (shell_.token_valid(token)) {
                fail_attempt(t, /*requeue=*/true);
                shell_.pump();
              }
            });
      });
    }
  }

  /// Why a cached replica is leaving a worker's disk. The reason picks the
  /// transaction verb and which run-report counters move: evicting a file
  /// is a scheduler decision, losing one is a fault.
  enum class DropReason : std::uint8_t {
    kGc,       // consumer refcount hit zero (CACHE ... GC)
    kEvict,    // LRU pressure eviction (CACHE ... EVICT)
    kSandbox,  // Work Queue sandbox cleanup after output return (EVICT)
    kLoss,     // injected fault destroyed the copy (CACHE ... LOST)
  };

  void drop_worker_copy(WorkerId w, FileId f, std::uint64_t bytes,
                        DropReason why) {
    auto& node = cluster_.worker(w);
    if (!node.alive || !disk_->erase(w, f)) return;
    replicas_->remove(f, w);
    node.disk.release(bytes);
    index_touch(w);
    char span_verb = 'G';
    switch (why) {
      case DropReason::kGc:
        shell_.report().cache_gc_drops += 1;
        if (txn_on()) obs_->txn().cache_gc(engine_.now(), w, f, bytes);
        span_verb = 'G';
        break;
      case DropReason::kEvict:
        shell_.report().cache_evictions += 1;
        shell_.report().cache_evicted_bytes += bytes;
        shell_.report().cache.mark_eviction(static_cast<std::size_t>(w),
                                    engine_.now(), bytes);
        if (txn_on()) obs_->txn().cache_evict(engine_.now(), w, f, bytes);
        span_verb = 'E';
        break;
      case DropReason::kSandbox:
        if (txn_on()) obs_->txn().cache_evict(engine_.now(), w, f, bytes);
        span_verb = 'S';
        break;
      case DropReason::kLoss:
        if (txn_on()) obs_->txn().cache_lost(engine_.now(), w, f, bytes);
        span_verb = 'L';
        break;
    }
    obs::CacheSpan cs;
    cs.t = engine_.now();
    cs.worker = static_cast<std::int32_t>(w);
    cs.file = f;
    cs.bytes = bytes;
    cs.verb = span_verb;
    shell_.report().profile.add_cache(cs);
  }

  void finalize_task(const Token& token, WorkerId w, dag::ValuePtr value) {
    if (!shell_.token_valid(token)) return;
    const TaskId t = token.task;
    return_flows_.erase(t);
    remove_from_here(w, t);

    if (txn_on()) {
      obs_->txn().task_retrieved(engine_.now(), t, "SUCCESS");
    }
    shell_.record_attempt_span(t, w, /*failed=*/false);

    table_.mark_done(t, std::move(value), engine_.now());
    unpin_attempt(shell_.attempt_at<Attempt>(t));
    shell_.attempt_erase(t);
    if (txn_on()) obs_->txn().task_done(engine_.now(), t, "SUCCESS");

    // This completion consumed its dependency outputs and dataset inputs
    // once; files whose last pending consumer it was are dead and get
    // garbage-collected cluster-wide (TaskVine prunes cache entries with
    // no pending consumers; without this, long workflows exhaust worker
    // disks). Sink outputs have no consuming edge, so GC never sees them.
    for (TaskId dep : graph_.task(t).spec.deps) {
      release_consumer_ref(graph_.task(dep).output_file);
    }
    for (FileId f : graph_.task(t).spec.input_files) {
      release_consumer_ref(f);
    }

    if (shell_.is_sink(t)) fetch_sink_result(t);
    check_completion();
    shell_.pump();
  }

  /// Proactively replicate a freshly produced intermediate onto additional
  /// workers (TaskVine temp-file replication): preemption of the producer
  /// then no longer forces lineage re-execution. Reuses the normal fetch
  /// machinery, so replicas ride throttled peer transfers and register in
  /// the replica table like any other copy.
  void maybe_replicate(FileId f) {
    const std::uint32_t want = options_.intermediate_replicas;
    if (want <= 1 || !policy_.peer_transfers) return;
    if (file(f).kind != data::FileKind::kIntermediate) return;
    std::uint32_t have =
        static_cast<std::uint32_t>(replicas_->holders(f).size());
    if (have >= want) return;

    // Spread copies over alive workers with the most free disk, skipping
    // current holders.
    std::vector<WorkerId> targets;
    for (WorkerId w = 0;
         w < static_cast<WorkerId>(cluster_.worker_count()); ++w) {
      const auto& node = cluster_.worker(w);
      if (!node.alive || disk_->cached(w, f)) continue;
      if (node.disk.available() < file(f).size * 2) continue;
      targets.push_back(w);
    }
    std::sort(targets.begin(), targets.end(), [this](WorkerId a, WorkerId b) {
      return cluster_.worker(a).disk.available() >
             cluster_.worker(b).disk.available();
    });
    for (WorkerId w : targets) {
      if (have >= want) break;
      ++have;
      stage_file(f, w, [](bool) { /* background copy; best effort */ });
    }
  }

  // ---------------------------------------------------------------------
  // Sink results must reach the manager for the workflow to complete.
  // ---------------------------------------------------------------------
  void fetch_sink_result(TaskId t) {
    const FileId f = graph_.task(t).output_file;
    if (replicas_->at_manager(f)) {
      on_sink_fetched(t);
      return;
    }
    const auto& holders = replicas_->holders(f);
    if (holders.empty()) {
      // A store-held sink output (a task promoted to sink after its
      // store-eligible output was published) must materialize before the
      // manager can gather it.
      const objstore::NodeId sh = store_.holder_of(f);
      if (sh != objstore::kNoHolder && cluster_.worker(sh).alive &&
          spill_object(sh, f)) {
        fetch_sink_result(t);
        return;
      }
      // Output lost between completion and fetch: recompute.
      shell_.lineage_reset(t);
      shell_.pump();
      return;
    }
    const WorkerId src = holders.front();
    const std::uint64_t bytes = file(f).size;
    mgr_gate_.submit([this, t, f, src, bytes](net::FlowGate::SlotToken slot) {
      if (shell_.sink_done(t)) return;
      if (!cluster_.worker(src).alive) {
        fetch_sink_result(t);  // re-resolve a live holder
        return;
      }
      const std::uint32_t src_inc = cluster_.worker(src).incarnation;
      // Pin the gather source: a sink result being shipped to the manager
      // must survive on the worker until it lands.
      pin_file(src, f);
      // Killed sink gathers re-resolve a holder after backoff and retry
      // without a cap; if every replica is gone by then, fetch_sink_result
      // falls through to a lineage reset of the sink itself.
      sink_flows_[t] = {
          shell_.start_transfer(
              {cluster_.worker_endpoint(src), cluster_.manager_endpoint(), f,
               bytes},
              cluster_.control_rtt() / 2,
              [this, t, f, src, src_inc,
               slot = std::move(slot)](net::FlowId flow) {
                if (worker_current(src, src_inc)) unpin_file(src, f);
                shell_.land(flow);
                replicas_->set_at_manager(f);
                sink_backoff_.reset(t);
                sink_flows_.erase(t);
                on_sink_fetched(t);
              },
              [this, t, f, src, src_inc] {
                sink_flows_.erase(t);
                if (worker_current(src, src_inc)) unpin_file(src, f);
                const Tick delay = shell_.injector()->backoff_delay(
                    sink_backoff_.next_attempt(t));
                engine_.schedule_after(delay, [this, t] {
                  if (!shell_.finished() && !shell_.sink_done(t)) {
                    fetch_sink_result(t);
                  }
                });
              }),
          src};
    });
  }

  void on_sink_fetched(TaskId t) {
    if (shell_.mark_sink_done(t)) check_completion();
  }

  /// Debug builds audit every live worker's disk when a run succeeds
  /// (WorkerDisk::settled).
  void check_completion() {
    shell_.check_completion();
    if (!shell_.report().success) return;
    for (WorkerId w = 0; w < static_cast<WorkerId>(cluster_.worker_count());
         ++w) {
      assert(!cluster_.worker(w).alive || disk_->settled(w));
    }
  }

  // ---------------------------------------------------------------------
  // Serverless library lifecycle.
  // ---------------------------------------------------------------------
  void install_library(WorkerId w) {
    auto& rt = workers_rt_[static_cast<std::size_t>(w)];
    rt.lib = LibState::kInstalling;
    if (txn_on()) obs_->txn().library_sent(engine_.now(), w);
    const std::uint32_t incarnation = cluster_.worker(w).incarnation;
    auto continue_install = [this, w, incarnation](bool ok) {
      if (!worker_current(w, incarnation) || !ok) return;
      library_startup(w, incarnation);
    };
    if (env_file_ != data::kInvalidFile) {
      stage_file(env_file_, w, continue_install);
    } else {
      continue_install(true);
    }
  }

  void library_startup(WorkerId w, std::uint32_t incarnation) {
    const auto& py = options_.python;
    const Tick interpreter = py.interpreter_startup;
    if (options_.hoist_imports) {
      if (options_.env_from_shared_fs) {
        engine_.schedule_after(interpreter, [this, w, incarnation] {
          if (!worker_current(w, incarnation)) return;
          cluster_.fs().metadata_ops(
              options_.imports.total_metadata_ops(),
              [this, w, incarnation] {
                if (!worker_current(w, incarnation)) return;
                fs_gate_.submit([this, w,
                                 incarnation](net::FlowGate::SlotToken slot) {
                  if (!worker_current(w, incarnation)) return;
                  shell_.start_transfer(
                      {cluster_.fs_endpoint(), cluster_.worker_endpoint(w),
                       data::kInvalidFile,
                       options_.imports.total_code_bytes()},
                      0,
                      [this, w, incarnation,
                       slot = std::move(slot)](net::FlowId flow) {
                        if (!worker_current(w, incarnation)) {
                          shell_.fail(flow);
                          return;
                        }
                        shell_.land(flow);
                        engine_.schedule_after(
                            options_.imports.total_cpu_cost(),
                            [this, w, incarnation] {
                              library_ready(w, incarnation);
                            });
                      });
                });
              });
        });
      } else {
        const Tick imports = options_.imports.import_time_local(
            cluster_.worker(w).disk.spec());
        engine_.schedule_after(interpreter + imports, [this, w, incarnation] {
          library_ready(w, incarnation);
        });
      }
    } else {
      engine_.schedule_after(interpreter, [this, w, incarnation] {
        library_ready(w, incarnation);
      });
    }
  }

  void library_ready(WorkerId w, std::uint32_t incarnation) {
    if (!worker_current(w, incarnation)) return;
    if (txn_on()) obs_->txn().library_started(engine_.now(), w);
    auto& rt = workers_rt_[static_cast<std::size_t>(w)];
    rt.lib = LibState::kReady;
    auto waiting = std::move(rt.waiting_for_lib);
    rt.waiting_for_lib.clear();
    for (const Token& token : waiting) {
      if (shell_.token_valid(token)) start_exec(token, w);
    }
    shell_.pump();
  }

  [[nodiscard]] bool worker_current(WorkerId w,
                                    std::uint32_t incarnation) const {
    const auto& node = cluster_.worker(w);
    return node.alive && node.incarnation == incarnation;
  }

  // ---------------------------------------------------------------------
  // Failure plumbing.
  // ---------------------------------------------------------------------
  void release_resources(TaskId t, WorkerId w) {
    Attempt* attempt = shell_.attempt_find<Attempt>(t);
    if (attempt == nullptr || attempt->resources_released) return;
    attempt->resources_released = true;
    auto& node = cluster_.worker(w);
    if (node.cores_in_use > 0) node.cores_in_use -= 1;
    auto& rt = workers_rt_[static_cast<std::size_t>(w)];
    const std::uint64_t mem = graph_.task(t).spec.memory_bytes;
    rt.mem_in_use = mem > rt.mem_in_use ? 0 : rt.mem_in_use - mem;
    disk_->uncommit(w, attempt->disk_committed);
    if (node.alive && node.cores_free() > 0) {
      set_eligible(w, true);  // touches the index with the released state
    }
    index_touch(w);  // committed bytes changed even if already eligible
    shell_.pump();
  }

  void remove_from_here(WorkerId w, TaskId t) {
    auto& here = workers_rt_[static_cast<std::size_t>(w)].here;
    here.erase(std::remove(here.begin(), here.end(), t), here.end());
  }

  /// Fail the current attempt of a dispatched/running task. Records the
  /// failed attempt, releases worker resources, cancels any output-return
  /// flow, and (optionally) requeues the task.
  void fail_attempt(TaskId t, bool requeue) {
    const auto& st = table_.at(t);
    if (st.state != TaskState::kDispatched &&
        st.state != TaskState::kRunning) {
      return;
    }
    const WorkerId w = st.worker;
    if (txn_on()) obs_->txn().task_retrieved(engine_.now(), t, "FAILURE");

    if (auto it = return_flows_.find(t); it != return_flows_.end()) {
      // A return that already landed is waiting for ingestion: no flow.
      if (cluster_.network().flow_active(it->second)) {
        shell_.cancel(it->second);
      }
      return_flows_.erase(it);
    }
    if (w != cluster::kNoWorker) {
      release_resources(t, w);
      remove_from_here(w, t);
    }
    if (Attempt* a = shell_.attempt_find<Attempt>(t)) {
      shell_.record_attempt_span(t, w, /*failed=*/true);
      unpin_attempt(*a);
      shell_.attempt_erase(t);
    }

    if (table_.at(t).attempts >= options_.max_task_retries) {
      shell_.fail_run("task " + std::to_string(t) + " (" +
               graph_.task(t).spec.category + ") exceeded " +
               std::to_string(options_.max_task_retries) + " attempts");
      return;
    }
    if (requeue) {
      table_.requeue(t, engine_.now());
    }
  }

  // ---------------------------------------------------------------------
  // Instrumentation.
  // ---------------------------------------------------------------------
  [[nodiscard]] bool txn_on() const { return shell_.txn_on(); }

  /// The engine's side of the run lifecycle (exec/run_shell.h).
  exec::RunShell::Hooks hooks() {
    exec::RunShell::Hooks h;
    h.start = [this] { schedule_cache_sample(); };
    h.node_up = [this](WorkerId w) { on_worker_up(w); };
    h.node_down = [this](WorkerId w) { on_worker_down(w); };
    h.lose_cached_file = [this](WorkerId w, FileId f) {
      return lose_cached_file(w, f);
    };
    h.output_available = [this](TaskId p) {
      return output_available(graph_.task(p).output_file);
    };
    h.place = [this](TaskId t) { return choose_worker(t); };
    h.dispatch = [this](TaskId t, WorkerId w) { dispatch(t, w); };
    h.releasable = [this](WorkerId w) { return worker_releasable(w); };
    h.gauges = [this](obs::StatsRegistry& stats) { add_gauges(stats); };
    h.snapshot_run_fields = [this] {
      ha::SnapshotBuilder b;
      b.field("cache_evictions", shell_.report().cache_evictions);
      b.field("cache_evicted_bytes", shell_.report().cache_evicted_bytes);
      b.field("cache_gc_drops", shell_.report().cache_gc_drops);
      return b;
    };
    h.snapshot_sections = [this] { return snapshot_sections(); };
    return h;
  }

  void add_gauges(obs::StatsRegistry& stats) {
    stats.gauge("tasks.waiting", [this] {
      const std::size_t accounted = table_.done_count() +
                                    table_.ready_count() +
                                    shell_.attempts_live();
      return accounted >= graph_.size()
                 ? 0.0
                 : static_cast<double>(graph_.size() - accounted);
    });
    stats.gauge("workers.connected", [this] {
      std::size_t n = 0;
      for (WorkerId w = 0;
           w < static_cast<WorkerId>(cluster_.worker_count()); ++w) {
        if (cluster_.worker(w).alive) ++n;
      }
      return static_cast<double>(n);
    });
    stats.gauge("workers.busy", [this] {
      std::size_t n = 0;
      for (WorkerId w = 0;
           w < static_cast<WorkerId>(cluster_.worker_count()); ++w) {
        const auto& node = cluster_.worker(w);
        if (node.alive && node.cores_in_use > 0) ++n;
      }
      return static_cast<double>(n);
    });
    stats.gauge("manager.backlog", [this] {
      return static_cast<double>(manager_.backlog());
    });
    stats.gauge("manager.ops", [this] {
      return static_cast<double>(manager_.operations());
    });
    stats.gauge("manager.busy_fraction", [this] {
      const Tick now = engine_.now();
      if (now <= 0) return 0.0;
      return std::min(1.0, static_cast<double>(manager_.total_busy_time()) /
                               static_cast<double>(now));
    });
    shell_.add_engine_gauges(stats);
    stats.gauge("store.objects", [this] {
      return static_cast<double>(store_.total_objects());
    });
    stats.gauge("store.puts", [this] {
      return static_cast<double>(store_.counters().puts);
    });
    stats.gauge("store.spills", [this] {
      return static_cast<double>(store_.counters().spills);
    });
    shell_.add_transfer_counters(stats);
  }

  void schedule_cache_sample() {
    engine_.schedule_after(options_.cache_sample_interval, [this] {
      if (shell_.finished()) return;
      const Tick now = engine_.now();
      if (cache_sample_last_.size() < cluster_.worker_count()) {
        cache_sample_last_.assign(cluster_.worker_count(), kNoCacheSample);
      }
      for (std::uint32_t w = 0; w < cluster_.worker_count(); ++w) {
        const auto& node = cluster_.worker(static_cast<WorkerId>(w));
        if (!node.alive) continue;
        // Record only changes: an idle fleet contributes nothing per tick
        // instead of workers x samples rows, and every consumer of the
        // trace (peaks, skew, heatmap buckets) is insensitive to repeats.
        const std::uint64_t used = node.disk.used();
        if (cache_sample_last_[w] == used) continue;
        cache_sample_last_[w] = used;
        shell_.report().cache.sample(w, now, used);
      }
      schedule_cache_sample();
    });
  }

  // ---------------------------------------------------------------------
  // Manager HA. The shell snapshots the run and task state; the engine
  // adds worker disks, the object store, live flows and backoff ledgers.
  // ---------------------------------------------------------------------
  ha::SnapshotBuilder snapshot_sections() {
    ha::SnapshotBuilder b;
    b.section("replicas");
    for (FileId f = 0; f < static_cast<FileId>(files_.size()); ++f) {
      const bool at_mgr = replicas_->at_manager(f);
      const auto holders = replicas_->holders_sorted(f);
      const std::uint32_t left =
          consumers_left_[static_cast<std::size_t>(f)];
      if (!at_mgr && holders.empty() && left == 0) continue;
      std::string v = at_mgr ? "m" : "-";
      v += "/";
      for (std::size_t i = 0; i < holders.size(); ++i) {
        if (i) v += ",";
        v += std::to_string(holders[i]);
      }
      v += "/" + std::to_string(left);
      b.field_s("f" + std::to_string(f), v);
    }

    // Peer-slot ledger + pin sets, guarded by incarnation so a recovered
    // manager never resurrects a pin against a re-matched slot.
    b.section("workers");
    for (WorkerId w = 0; w < static_cast<WorkerId>(cluster_.worker_count());
         ++w) {
      const auto& node = cluster_.worker(w);
      if (!node.alive) continue;
      const auto& rt = workers_rt_[static_cast<std::size_t>(w)];
      std::string v = "inc=" + std::to_string(node.incarnation) +
                      " out=" + std::to_string(rt.active_out) +
                      " cores=" + std::to_string(node.cores_in_use) +
                      " ser=" + std::to_string(rt.ser.bytes) + ":" +
                      std::to_string(rt.ser.charged) + " pins=";
      bool first = true;
      for (const auto& [f, entry] : disk_->files(w)) {
        if (entry.pins == 0) continue;
        if (!first) v += ",";
        first = false;
        v += std::to_string(f) + ":" + std::to_string(entry.pins);
      }
      b.field_s("w" + std::to_string(w), v);
    }

    // Node-local object store: every in-memory object (holder, bytes,
    // live refs, publication tick, holder's resident total) plus the
    // budget and lifetime counters. Files have a single holder, so file
    // id alone orders the section deterministically.
    b.section("store");
    b.field("capacity", store_.capacity());
    b.field("objects", store_.total_objects());
    b.field("puts", store_.counters().puts);
    b.field("put_bytes", store_.counters().put_bytes);
    b.field("ref_hits", store_.counters().ref_hits);
    b.field("spills", store_.counters().spills);
    b.field("spill_bytes", store_.counters().spill_bytes);
    b.field("drops", store_.counters().drops);
    for (const objstore::StoreItem& item : store_.objects()) {
      const objstore::StoreEntry& entry = item.entry;
      b.field_s("o" + std::to_string(item.file),
                "w=" + std::to_string(item.holder) +
                    " b=" + std::to_string(entry.bytes) +
                    " r=" + std::to_string(entry.refs) +
                    " t=" + std::to_string(entry.put_at) +
                    " u=" + std::to_string(store_.used(item.holder)));
    }

    b.section("flows");
    {
      // (file, worker) order, matching the historical global-map layout.
      std::vector<std::pair<FetchKey, std::uint32_t>> live_fetches;
      for (std::size_t dst = 0; dst < worker_fetches_.size(); ++dst) {
        for (const auto& [f, fetch] : worker_fetches_[dst]) {
          live_fetches.push_back({FetchKey{f, static_cast<WorkerId>(dst)},
                                  fetch.kill_retries});
        }
      }
      std::sort(live_fetches.begin(), live_fetches.end());
      for (const auto& [key, kills] : live_fetches) {
        b.field_s("fetch." + std::to_string(key.first) + "." +
                      std::to_string(key.second),
                  "kills=" + std::to_string(kills));
      }
    }
    for (const auto& [f, holder] : relay_flows_) {
      b.field_s("relay." + std::to_string(f), std::to_string(holder));
    }
    for (const auto& [t, flow] : return_flows_) {
      b.field_s("return." + std::to_string(t), std::to_string(flow));
    }
    for (const auto& [t, fw] : sink_flows_) {
      b.field_s("sink." + std::to_string(t), std::to_string(fw.second));
    }
    for (const auto& [f, waiters] : manager_inflight_) {
      b.field_s("mgr." + std::to_string(f),
                std::to_string(waiters.size()));
    }
    for (const auto& [f, flow] : manager_fs_flows_) {
      b.field_s("mgrfs." + std::to_string(f), std::to_string(flow));
    }
    // The throttle queue is ordered state: admission order decides which
    // fetch starts first when a gate slot frees up.
    if (!throttle_queue_.empty()) {
      std::string q;
      for (const auto& [f, w] : throttle_queue_) {
        if (!q.empty()) q += ",";
        q += std::to_string(f) + ":" + std::to_string(w);
      }
      b.field_s("throttle", q);
    }

    b.section("backoff");
    manager_fs_backoff_.for_each([&b](FileId f, std::uint32_t n) {
      b.field("fs." + std::to_string(f), n);
    });
    relay_backoff_.for_each([&b](FileId f, std::uint32_t n) {
      b.field("relay." + std::to_string(f), n);
    });
    sink_backoff_.for_each([&b](TaskId t, std::uint32_t n) {
      b.field("sink." + std::to_string(t), n);
    });
    return b;
  }

  /// Factory shrink: a worker may go when it runs nothing and sources no
  /// peer transfer.
  [[nodiscard]] bool worker_releasable(WorkerId w) const {
    const auto& rt = workers_rt_[static_cast<std::size_t>(w)];
    return cluster_.worker(w).cores_in_use == 0 && rt.active_out == 0 &&
           rt.here.empty();
  }

  // ---------------------------------------------------------------------
  const dag::TaskGraph& graph_;
  cluster::Cluster& cluster_;
  sim::Engine& engine_;
  const exec::RunOptions options_;
  const DataPolicy policy_;
  const VineTunables tun_;

  exec::TaskStateTable table_;
  sim::Rng rng_;
  exec::SerialResource manager_;
  // Transfer-admission gates: the manager serves data over a bounded
  // socket set; the shared filesystem serves a bounded number of streams.
  // Their occupancy is implied by the in-flight flow sections of the
  // snapshot; the waiter queues hold closures and replay rebuilds them.
  // vine-snapshot: derived(occupancy implied by the snapshot flow sections)
  net::FlowGate mgr_gate_{64};
  // vine-snapshot: derived(occupancy implied by the snapshot flow sections)
  net::FlowGate fs_gate_{256};
  std::vector<WorkerRt> workers_rt_;
  std::vector<FileInfo> files_;
  std::unique_ptr<ReplicaTable> replicas_;
  /// What each worker's scratch disk holds: cached files, pins, LRU ticks,
  /// committed and reclaimable bytes.
  std::unique_ptr<WorkerDisk> disk_;
  /// Node-local object store: in-memory FunctionCall outputs exchanged by
  /// reference between colocated consumers (VineTunables::object_store).
  objstore::ObjectStore store_;
  // vine-snapshot: derived(built once from the graph before any event runs)
  std::map<std::string, FileId> function_bodies_;
  // vine-snapshot: derived(fixed at startup from RunOptions)
  FileId env_file_ = data::kInvalidFile;

  /// Pending consumers per file (graph-derived; see build_file_table).
  std::vector<std::uint32_t> consumers_left_;
  std::map<FileId, std::vector<std::function<void(bool)>>> manager_inflight_;
  std::map<FileId, WorkerId> relay_flows_;
  std::map<TaskId, net::FlowId> return_flows_;
  std::map<TaskId, std::pair<net::FlowId, WorkerId>> sink_flows_;

  // The backoff ledgers feed the capped exponential backoff for paths that
  // retry without a cap; each resets on success so escalation counts
  // consecutive failures, not lifetime kills.
  std::map<FileId, net::FlowId> manager_fs_flows_;
  fault::BackoffLedger<FileId> manager_fs_backoff_;
  fault::BackoffLedger<FileId> relay_backoff_;
  fault::BackoffLedger<TaskId> sink_backoff_;

  std::shared_ptr<obs::RunObservation> obs_;

  /// Last disk usage recorded per worker by the cache sampler (sentinel =
  /// never sampled); the sampler skips workers whose usage is unchanged.
  static constexpr std::uint64_t kNoCacheSample = ~0ull;
  // vine-snapshot: derived(trace-sampler dedup memo, observability only)
  std::vector<std::uint64_t> cache_sample_last_;
  // Workers that are alive with at least one free core (see
  // set_eligible); the dispatch round-robin scans set bits instead of
  // every configured worker. The whole dispatch index is a pure function
  // of worker state the snapshot already carries, rebuilt leaf by leaf as
  // events touch workers.
  // vine-snapshot: derived(index over snapshotted worker state)
  EligibleSet eligible_;
  // vine-snapshot: derived(index over snapshotted worker state)
  DispatchIndex dispatch_index_;
  // vine-snapshot: derived(index over snapshotted worker state)
  std::vector<WorkerId> index_dirty_;
  // vine-snapshot: derived(index over snapshotted worker state)
  std::vector<std::uint8_t> index_dirty_flag_;

  // Scratch buffers reused across dispatches to avoid per-task allocation.
  // Locality scoring stamps loc_epoch_ per candidate instead of clearing a
  // map: a worker's score is valid only when its stamp equals the current
  // epoch, so reset between dispatches is one counter increment.
  // vine-snapshot: derived(scratch, dead between dispatches)
  std::vector<FileId> scratch_files_;
  // vine-snapshot: derived(scratch, dead between dispatches)
  std::vector<WorkerId> scratch_holders_;
  // vine-snapshot: derived(scratch, dead between dispatches)
  std::vector<std::uint64_t> loc_score_;
  // vine-snapshot: derived(scratch, dead between dispatches)
  std::vector<std::uint32_t> loc_epoch_;
  // vine-snapshot: derived(scratch, dead between dispatches)
  std::uint32_t loc_epoch_cur_ = 0;

  // vine-snapshot: serialized(the shell writes its run and tasks sections itself)
  exec::RunShell shell_;
};

}  // namespace

exec::RunReport VineScheduler::run(const dag::TaskGraph& graph,
                                   cluster::Cluster& cluster,
                                   const exec::RunOptions& options) {
  VineRun engine(graph, cluster, options, policy_, tunables_, name_);
  return engine.run();
}

}  // namespace hepvine::vine
