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
// (observability, profiling, faults, completion) lives in
// exec::RunShell (exec/run_shell.h).

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "exec/run_shell.h"
#include "exec/serial_resource.h"
#include "net/flow_gate.h"
#include "exec/task_state.h"
#include "exec/time_model.h"
#include "objstore/object_store.h"
#include "obs/observer.h"
#include "sim/rng.h"
#include "util/flat_map.h"
#include "vine/placement.h"
#include "vine/replica_table.h"
#include "vine/vine_scheduler.h"
#include "vine/worker_disk.h"

namespace hepvine::vine {

namespace {

using cluster::WorkerId;
using data::FileId;
using dag::TaskId;
using exec::RetryKind;
using obs::Residency;
using util::Tick;

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
        shell_(graph, cluster, options_, table_, manager_, obs_,
               exec::RunShell::Identity{
                   std::move(name), "manager", "worker ", "peer file ",
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
    std::vector<std::uint64_t> sizes;
    std::vector<std::uint64_t> reclaim_bytes;
    for (const FileInfo& f : files_) {
      sizes.push_back(f.size);
      reclaim_bytes.push_back(
          f.kind == data::FileKind::kDatasetInput ? f.size : 0);
    }
    disk_ = std::make_unique<WorkerDisk>(
        cluster_.worker_count(), std::move(sizes), std::move(reclaim_bytes));
    placement_ = std::make_unique<Placement>(
        Placement::Config{policy_.locality_placement,
                          policy_.evict_on_pressure, tun_.indexed_dispatch,
                          env_file_},
        cluster_, *replicas_, *disk_, store_);
    disk_->watch(&placement_->index());
    // Runtime files and nothing else start at the manager.
    if (env_file_ != data::kInvalidFile) {
      replicas_->set_at_manager(env_file_);
    }
    for (const auto& [fn, file] : function_bodies_) {
      replicas_->set_at_manager(file);
    }
    worker_fetches_.resize(cluster_.worker_count());
    cache_sample_last_.assign(cluster_.worker_count(), kNoCacheSample);
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
  // Per-worker runtime state (library, transfer slots). What the worker's
  // disk holds lives in disk_ (WorkerDisk), its memory in use in
  // placement_.
  // ---------------------------------------------------------------------
  enum class LibState : std::uint8_t { kNone, kInstalling, kReady };

  struct WorkerRt {
    LibState lib = LibState::kNone;
    std::uint32_t active_out = 0;  // peer transfers sourced here
    std::vector<TaskId> here;      // tasks dispatched/running/returning
    std::vector<Token> waiting_for_lib;
    /// Residue clock for serialization charges on this worker: repeated
    /// sub-tick argument pickles sum exactly instead of each rounding up.
    util::TickAccumulator ser;
  };

  // ---------------------------------------------------------------------
  // Worker-disk lifecycle: pins, GC of dead files, pressure eviction.
  // disk_ keeps the per-worker state and marks the placement index stale
  // itself on every mutation.
  // ---------------------------------------------------------------------
  void cache_insert(WorkerId w, FileId f) {
    const bool arrives = !disk_->cached(w, f);
    disk_->insert(w, f, engine_.now());
    replicas_->add(f, w);
    // A copy already there (a re-run rewriting the output its failed
    // attempt left behind) only refreshes its last use: it is no arrival.
    if (arrives) shell_.residency({Residency::kInsert, w, f, file(f).size});
  }

  /// Pin `f` on `w`: attempt inputs/outputs and transfer sources must not
  /// be evicted (or GC'd) from under their users.
  void pin_file(WorkerId w, FileId f) { disk_->pin(w, f, engine_.now()); }

  /// Release every pin the attempt holds. Only the pinning incarnation
  /// unpins: after a reboot the worker's pin set was wiped wholesale, and
  /// decrementing a successor's identically-named pins would corrupt them.
  void unpin_attempt(Attempt& attempt) {
    if (attempt.pin_worker == cluster::kNoWorker) return;
    if (worker_current(attempt.pin_worker, attempt.pin_incarnation)) {
      for (FileId f : attempt.pinned) disk_->unpin(attempt.pin_worker, f);
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

  /// `f` has no pending consumer left (Hooks::file_dead): drop every
  /// worker replica and its store object. Manager copies stay: they back
  /// sink results and relays and cost no worker disk.
  void gc_file(FileId f) {
    // An in-memory store object dies with its last consumer too. Every
    // consumer attempt, finished or failed, has released its handle by now.
    const objstore::NodeId sh = store_.holder_of(f);
    if (sh != objstore::kNoHolder) {
      assert(store_.refs(sh, f) == 0 && "GC of a store object still in use");
      drop_store_object(sh, f);
    }
    for (WorkerId holder : replicas_->holders_sorted(f)) {
      if (disk_->pins(holder, f) > 0) continue;  // in use by a live transfer
      drop_worker_copy(holder, f, Residency::kGc);
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
    shell_.residency({Residency::kPut, w, f, bytes});
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
    shell_.residency({Residency::kSpill, w, f, bytes});
    cache_insert(w, f);
    maybe_replicate(f);
    return true;
  }

  /// The object dies in memory without touching disk (GC, or holder loss
  /// handled by drop_node). Tolerant of a missing entry.
  void drop_store_object(WorkerId w, FileId f) {
    const std::uint64_t bytes = store_.object_bytes(w, f);
    if (!store_.erase(w, f)) return;
    shell_.residency({Residency::kDrop, w, f, bytes});
  }

  /// Make room for `bytes` more on `w`'s scratch, evicting under disk
  /// pressure when the policy allows; the insert that follows does the
  /// accounting. Returns false when the partition would overflow anyway
  /// (nothing evictable was enough): the worker is already crashing — the
  /// paper's Fig 11 pathology — and the caller must stop touching it.
  [[nodiscard]] bool reserve_or_crash(WorkerId w, std::uint64_t bytes) {
    const std::uint64_t capacity = cluster_.worker(w).disk.capacity();
    if (policy_.evict_on_pressure && disk_->used(w) + bytes > capacity) {
      evict_for_pressure(w, disk_->used(w) + bytes - capacity);
    }
    if (disk_->used(w) + bytes > capacity) {
      shell_.crash_worker(w);
      return false;
    }
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
      drop_worker_copy(w, f, Residency::kEvict);
      freed += file(f).size;
    }
  }

  // ---------------------------------------------------------------------
  // Fetches: one active fetch per (file, destination worker).
  // ---------------------------------------------------------------------
  using FetchKey = std::pair<FileId, WorkerId>;

  struct Fetch {
    WorkerId peer_src = cluster::kNoWorker;  // valid while a peer flow runs
    std::uint32_t peer_src_inc = 0;  // peer_src's incarnation at acquire
    net::FlowId flow = net::kInvalidFlow;
    bool throttled = false;
    std::vector<std::function<void(bool)>> waiters;  // bool: file arrived
  };

  /// Active fetches, sharded by destination worker and keyed by file.
  /// Every lookup carries the full (file, dst) key, so the shard is O(1)
  /// to pick and each per-worker sorted vector stays a handful of entries
  /// (the files currently staging to that worker) — a Fetch is heavy
  /// (waiter callbacks), and a single flat global map paid an O(active
  /// fetches) move-and-destroy per insert/erase at 10k workers. Global
  /// iteration (worker teardown's peer-source scan) walks shards in worker
  /// order, files ascending within, which is deterministic either way.
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
    shell_.end_episode({RetryKind::kFetch, key.first, key.second});
  }

  std::deque<FetchKey> throttle_queue_;

  // ---------------------------------------------------------------------
  // Worker lifecycle.
  // ---------------------------------------------------------------------
  void on_worker_up(WorkerId w) {
    workers_rt_[static_cast<std::size_t>(w)] = WorkerRt{};
    placement_->reset_memory(w);
    disk_->reset(w);
    placement_->set_eligible(w, true);
    if (options_.mode == exec::ExecMode::kFunctionCalls) {
      install_library(w);
    }
    shell_.pump();
  }

  void on_worker_down(WorkerId w) {
    placement_->set_eligible(w, false);
    auto& rt = workers_rt_[static_cast<std::size_t>(w)];

    // Fail every task attempt on this worker.
    const std::vector<TaskId> here = std::move(rt.here);
    rt.here.clear();
    for (TaskId t : here) {
      shell_.fail_attempt(t);
      if (shell_.finished()) return;
    }

    // Drop replicas and wipe the node's object store; lost intermediates
    // are rediscovered lazily at dispatch pre-check or fetch time
    // (lineage reset).
    replicas_->drop_worker(w, disk_->cached_files(w));
    store_.drop_node(w);
    rt = WorkerRt{};
    placement_->reset_memory(w);
    disk_->reset(w);

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
          release_peer_slot(fetch->peer_src, fetch->peer_src_inc, key.first);
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
  // Fault injection. Only flows with a recovery path are kill targets:
  // each fetch, manager FS read, relay pull and sink gather passes its
  // exec::Retry to start_transfer, an output return its `killed` closure.
  // Import reads have neither, so killing them would strand the run.
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
      if (drop_worker_copy(holder, f, Residency::kLost)) ++lost;
    }
    return lost;
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
    if (node.cores_free() == 0) placement_->set_eligible(w, false);
    placement_->take_memory(w, graph_.task(t).spec.memory_bytes);
    workers_rt_[static_cast<std::size_t>(w)].here.push_back(t);

    needed_files(t, scratch_files_);
    attempt.disk_committed = placement_->missing_bytes(w, scratch_files_) +
                             graph_.task(t).spec.output_bytes;
    disk_->commit(w, attempt.disk_committed);
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
        shell_.residency({Residency::kRef, w, f, file(f).size});
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
    shell_.send_attempt(token, dispatch_cost(), wire_bytes,
                        [this, token, w] { begin_staging(token, w); });
  }

  void begin_staging(const Token& token, WorkerId w) {
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
    shell_.fail_attempt(t);
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
    fetch.waiters.push_back(std::move(done));
    fetch_emplace(key, std::move(fetch));
    start_fetch_transfer(key);
  }

  void start_fetch_transfer(const FetchKey& key) {
    Fetch* fp = fetch_find(key);
    if (fp == nullptr) return;
    Fetch& fetch = *fp;
    const auto [f, w] = key;

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
        shell_.fs_gate().submit([this, key](net::FlowGate::SlotToken slot) {
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
    disk_->unpin(src, f);
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
    shell_.mgr_gate().submit([this, key](net::FlowGate::SlotToken slot) {
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

  /// Start the flow behind fetch `key` from endpoint `src`. A kill frees
  /// its peer slot and, after backoff, restarts the fetch from scratch
  /// (any surviving source will do); past the kill budget the fetch fails
  /// and the lost-input path takes over.
  net::FlowId start_fetch_flow(const FetchKey& key, std::size_t src,
                               Tick latency,
                               std::function<void(net::FlowId)> landed) {
    return shell_.start_transfer(
        {src, cluster_.worker_endpoint(key.second), key.first,
         file(key.first).size},
        latency, std::move(landed),
        {.episode = {RetryKind::kFetch, key.first, key.second},
         .killed = [this, key] {
           Fetch* fetch = fetch_find(key);
           if (fetch == nullptr) return false;
           if (fetch->peer_src != cluster::kNoWorker) {
             release_peer_slot(fetch->peer_src, fetch->peer_src_inc, key.first);
             fetch->peer_src = cluster::kNoWorker;
           }
           fetch->flow = net::kInvalidFlow;
           return true;
         },
         .again = [this, key] { start_fetch_transfer(key); },
         .give_up = [this, key] { fail_fetch(key); shell_.pump(); }});
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
  /// callback dies with it, which releases its fs-gate slot; the retry
  /// queues for a fresh one.
  void submit_manager_fs_read(FileId f) {
    shell_.fs_gate().submit([this, f](net::FlowGate::SlotToken slot) {
      shell_.start_transfer(
          {cluster_.fs_endpoint(), cluster_.manager_endpoint(), f,
           file(f).size},
          0,
          [this, f, slot = std::move(slot)](net::FlowId flow) {
            shell_.land(flow);
            replicas_->set_at_manager(f);
            manager_copy_done(RetryKind::kManagerFs, f, true);
          },
          {.episode = {RetryKind::kManagerFs, f}, .again = [this, f] {
             if (manager_inflight_.count(f) > 0) submit_manager_fs_read(f);
           }});
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
    shell_.mgr_gate().submit([this, f](net::FlowGate::SlotToken slot) {
      start_relay_pull(f, std::move(slot));
    });
  }

  void start_relay_pull(FileId f, net::FlowGate::SlotToken slot) {
    if (replicas_->at_manager(f)) {
      // Arrived via another path (e.g. an output return) while this pull
      // was queued or backing off.
      manager_copy_done(RetryKind::kRelay, f, true);
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
      manager_copy_done(RetryKind::kRelay, f, false);
      return;
    }
    const std::uint32_t incarnation = cluster_.worker(holder).incarnation;
    // The relay source is a live transfer origin: pin it for the flow's
    // duration so eviction/GC cannot destroy the copy being read.
    pin_file(holder, f);
    // Relay pulls retry without a cap after a kill: the holder set is
    // re-resolved on each retry, and if every replica is gone by then the
    // pull ends and reports failure to its waiters (the lost-input path)
    // rather than spinning.
    shell_.start_transfer(
        {cluster_.worker_endpoint(holder), cluster_.manager_endpoint(), f,
         file(f).size},
        cluster_.control_rtt() / 2,
        [this, f, holder, incarnation,
         slot = std::move(slot)](net::FlowId flow) mutable {
          if (!worker_current(holder, incarnation)) {
            shell_.fail(flow);
            start_relay_pull(f, std::move(slot));  // retry elsewhere
            return;
          }
          disk_->unpin(holder, f);
          shell_.land(flow);
          replicas_->set_at_manager(f);
          manager_copy_done(RetryKind::kRelay, f, true);
        },
        {.episode = {RetryKind::kRelay, f},
         .killed = [this, f, holder, incarnation] {
           if (worker_current(holder, incarnation)) disk_->unpin(holder, f);
           return true;
         },
         .again = [this, f] {
           if (manager_inflight_.count(f) == 0) return;
           shell_.mgr_gate().submit([this, f](net::FlowGate::SlotToken fresh) {
             start_relay_pull(f, std::move(fresh));
           });
         }});
  }

  /// The manager copy of `f` arrived (`ok`) or cannot be had: the read or
  /// pull of `kind` that fetched it is over, and its waiters learn which.
  void manager_copy_done(RetryKind kind, FileId f, bool ok) {
    shell_.end_episode({kind, f});
    auto node = manager_inflight_.extract(f);
    if (node.empty()) return;
    for (auto& cb : node.mapped()) cb(ok);
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
    if (options_.mode == exec::ExecMode::kFunctionCalls) {
      auto& rt = workers_rt_[static_cast<std::size_t>(w)];
      if (rt.lib != LibState::kReady) {
        rt.waiting_for_lib.push_back(token);
        // An install whose environment fetch gave up left no library.
        if (rt.lib == LibState::kNone) install_library(w);
        return;
      }
    }
    start_exec(token, w);
  }

  void start_exec(const Token& token, WorkerId w) {
    const TaskId t = token.task;
    shell_.start_running(t);
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

    shell_.compute(
        token, pre, compute + write, shared_imports,
        [this, token] { return shell_.token_valid(token); },
        [this, token, w] { complete_exec(token, w); });
  }

  void complete_exec(const Token& token, WorkerId w) {
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
    dag::ValuePtr value = shell_.evaluate(t);

    // The process exits: core and memory free immediately; the manager
    // learns of the result after the control hop + its own handling cost.
    release_resources(t, w);

    if (policy_.retain_outputs_on_worker) {
      shell_.succeed(token, result_cost() + cluster_.control_rtt() / 2,
                     std::move(value));
    } else {
      // Work Queue: ship the output back to the manager; the worker's
      // sandbox copy is deleted on arrival.
      const std::uint64_t bytes = task.spec.output_bytes;
      shell_.mgr_gate().submit([this, token, w, bytes, t,
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
              drop_worker_copy(w, f, Residency::kSandbox);
              shell_.succeed(token, result_cost(), std::move(value));
            },
            {.killed = [this, t, token] {
              return_flows_.erase(t);
              if (shell_.token_valid(token)) {
                shell_.fail_attempt(t);
                shell_.pump();
              }
              return false;  // nothing left to re-send
            }});
      });
    }
  }

  /// `f` leaves `w`'s disk; `why` is the drop kind (GC, evict, sandbox or
  /// lost). Returns false, changing nothing, when `w` is dead or does not
  /// hold `f`.
  bool drop_worker_copy(WorkerId w, FileId f, Residency why) {
    if (!cluster_.worker(w).alive || !disk_->erase(w, f)) return false;
    replicas_->remove(f, w);
    shell_.residency({why, w, f, file(f).size});
    return true;
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
    for (WorkerId w : placement_->replica_targets(f)) {
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
      shell_.end_episode({RetryKind::kSink, t});
      shell_.lineage_reset(t);
      shell_.pump();
      return;
    }
    const WorkerId src = holders.front();
    const std::uint64_t bytes = file(f).size;
    shell_.mgr_gate().submit([this, t, f, src,
                              bytes](net::FlowGate::SlotToken slot) {
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
                if (worker_current(src, src_inc)) disk_->unpin(src, f);
                shell_.land(flow);
                replicas_->set_at_manager(f);
                sink_flows_.erase(t);
                on_sink_fetched(t);
              },
              {.episode = {RetryKind::kSink, t},
               .killed = [this, t, f, src, src_inc] {
                 sink_flows_.erase(t);
                 if (worker_current(src, src_inc)) disk_->unpin(src, f);
                 return true;
               },
               .again = [this, t] {
                 if (!shell_.sink_done(t)) fetch_sink_result(t);
               }}),
          src};
    });
  }

  void on_sink_fetched(TaskId t) {
    shell_.end_episode({RetryKind::kSink, t});
    if (shell_.mark_sink_done(t)) shell_.check_completion();
  }

  /// Hooks::audit: every live worker's disk ledger is settled
  /// (WorkerDisk::settled), only its open peer slots still pin a file, and
  /// the residency record counts exactly the files on its disk and the
  /// objects in its store.
  void audit() const {
    [[maybe_unused]] const auto objects = store_.objects();
    for (WorkerId w = 0; w < static_cast<WorkerId>(cluster_.worker_count());
         ++w) {
      if (!cluster_.worker(w).alive) continue;
      assert(disk_->settled(w));
      [[maybe_unused]] std::uint32_t pins = 0;
      for (const auto& [f, entry] : disk_->files(w)) pins += entry.pins;
      assert(pins == workers_rt_[static_cast<std::size_t>(w)].active_out);
      assert(shell_.resident(w).disk == disk_->cached_files(w).size());
      assert(shell_.resident(w).store ==
             static_cast<std::size_t>(std::count_if(
                 objects.begin(), objects.end(),
                 [w](const auto& o) { return o.holder == w; })));
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
      if (!worker_current(w, incarnation)) return;
      if (ok) {
        library_startup(w, incarnation);
      } else {
        library_failed(w);
      }
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
        shell_.read_imports(
            w, interpreter,
            [this, w, incarnation] { return worker_current(w, incarnation); },
            [this, w, incarnation] {
              engine_.schedule_after(
                  options_.imports.total_cpu_cost(),
                  [this, w, incarnation] { library_ready(w, incarnation); });
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

  /// The environment fetch gave up: the worker has no library, and each
  /// attempt waiting for it fails through the retry budget. The next
  /// function call dispatched here installs the library again.
  void library_failed(WorkerId w) {
    auto& rt = workers_rt_[static_cast<std::size_t>(w)];
    rt.lib = LibState::kNone;
    const std::vector<Token> waiting = std::move(rt.waiting_for_lib);
    rt.waiting_for_lib.clear();
    for (const Token& token : waiting) {
      if (!shell_.token_valid(token)) continue;
      shell_.fail_attempt(token.task);
      if (shell_.finished()) return;
    }
    shell_.pump();
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
    Attempt& attempt = shell_.attempt_at<Attempt>(t);
    if (attempt.resources_released) return;
    attempt.resources_released = true;
    auto& node = cluster_.worker(w);
    if (node.cores_in_use > 0) node.cores_in_use -= 1;
    placement_->free_memory(w, graph_.task(t).spec.memory_bytes);
    disk_->uncommit(w, attempt.disk_committed);
    if (node.alive && node.cores_free() > 0) placement_->set_eligible(w, true);
    shell_.pump();
  }

  /// Hooks::release_attempt: cancel an output return still in flight (one
  /// that landed waits for ingestion with no flow), free the core, memory
  /// and disk commitment if the process has not exited, and drop the pins.
  /// Freeing capacity pumps.
  void release_attempt(TaskId t) {
    const WorkerId w = table_.at(t).worker;
    if (auto it = return_flows_.find(t); it != return_flows_.end()) {
      if (cluster_.network().flow_active(it->second)) {
        shell_.cancel(it->second);
      }
      return_flows_.erase(it);
    }
    release_resources(t, w);
    auto& here = workers_rt_[static_cast<std::size_t>(w)].here;
    here.erase(std::remove(here.begin(), here.end(), t), here.end());
    unpin_attempt(shell_.attempt_at<Attempt>(t));
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
    h.place = [this](TaskId t) {
      needed_files(t, scratch_files_);
      return placement_->choose_worker(graph_.task(t), scratch_files_,
                                       shell_.rr_cursor(),
                                       shell_.attempts_live());
    };
    h.dispatch = [this](TaskId t, WorkerId w) { dispatch(t, w); };
    h.release_attempt = [this](TaskId t) { release_attempt(t); };
    h.file_dead = [this](FileId f) { gc_file(f); };
    h.gather_sink = [this](TaskId t, WorkerId) { fetch_sink_result(t); };
    h.releasable = [this](WorkerId w) { return worker_releasable(w); };
    h.gauges = [this](obs::StatsRegistry& stats) { add_gauges(stats); };
    h.audit = [this] { audit(); };
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
      return static_cast<double>(cluster_.alive_workers());
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
      return static_cast<double>(shell_.report().store_puts);
    });
    stats.gauge("store.spills", [this] {
      return static_cast<double>(shell_.report().store_spills);
    });
    shell_.add_transfer_counters(stats);
  }

  void schedule_cache_sample() {
    engine_.schedule_after(options_.cache_sample_interval, [this] {
      if (shell_.finished()) return;
      const Tick now = engine_.now();
      for (std::uint32_t w = 0; w < cluster_.worker_count(); ++w) {
        if (!cluster_.worker(static_cast<WorkerId>(w)).alive) continue;
        // Record only changes: an idle fleet contributes nothing per tick
        // instead of workers x samples rows, and every consumer of the
        // trace (peaks, skew, heatmap buckets) is insensitive to repeats.
        const std::uint64_t used = disk_->used(static_cast<WorkerId>(w));
        if (cache_sample_last_[w] == used) continue;
        cache_sample_last_[w] = used;
        shell_.report().cache.sample(w, now, used);
      }
      schedule_cache_sample();
    });
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
  std::vector<WorkerRt> workers_rt_;
  std::vector<FileInfo> files_;
  std::unique_ptr<ReplicaTable> replicas_;
  /// What each worker's scratch disk holds: cached files and their bytes,
  /// pins, LRU ticks, committed and reclaimable bytes.
  std::unique_ptr<WorkerDisk> disk_;
  /// Node-local object store: in-memory FunctionCall outputs exchanged by
  /// reference between colocated consumers (VineTunables::object_store).
  objstore::ObjectStore store_;
  std::map<std::string, FileId> function_bodies_;
  FileId env_file_ = data::kInvalidFile;

  std::map<FileId, std::vector<std::function<void(bool)>>> manager_inflight_;
  std::map<TaskId, net::FlowId> return_flows_;
  std::map<TaskId, std::pair<net::FlowId, WorkerId>> sink_flows_;

  std::shared_ptr<obs::RunObservation> obs_;

  /// Last disk usage recorded per worker by the cache sampler (sentinel =
  /// never sampled); the sampler skips workers whose usage is unchanged.
  static constexpr std::uint64_t kNoCacheSample = ~0ull;
  std::vector<std::uint64_t> cache_sample_last_;
  /// Where tasks and replicas go: the eligibility set, memory in use and
  /// dispatch index over worker state.
  std::unique_ptr<Placement> placement_;

  // Scratch buffer reused across dispatches to avoid per-task allocation.
  std::vector<FileId> scratch_files_;

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
