// Transactions log: structured lifecycle events in TaskVine's
// transactions-log text format, driven off simulated time.
//
// One line per event, `time_us SUBJECT id EVENT ...`, mirroring the real
// manager's always-on log that `vine_plot_txn_log` consumes:
//
//   time MANAGER START|END
//   time TASK id WAITING category attempt
//   time TASK id RUNNING worker_id
//   time TASK id RETRIEVED reason
//   time TASK id DONE reason
//   time WORKER id CONNECTION|DISCONNECTION reason
//   time CACHE file_id INSERT|EVICT|GC|LOST size_bytes worker_id
//   time STORE file_id PUT|REF|SPILL|DROP size_bytes worker_id
//   time TRANSFER src dst file_id size_bytes START|DONE|FAILED
//   time LIBRARY worker_id SENT|STARTED
//   time FAULT seq KIND detail
//   time NET flow_id WARN detail
//   time SPAN task ATTEMPT attempt worker ready dispatched staged exec
//        compute exec_end SUCCESS|FAILURE category
//
// Endpoints in TRANSFER lines use the transfer-matrix numbering
// (0 = manager, 1..N = workers, N+1 = shared filesystem). CACHE and STORE
// lines are the residency record's (exec::RunShell::residency, one
// TxnLog::residency writer; Residency lists the kinds), as TRANSFER lines
// are the transfer record's.
//
// The writer is a bounded ring buffer so million-task runs don't blow
// memory: `tail()` returns the most recent `capacity` lines; when a file
// path is configured, every line also streams to disk as it is recorded,
// so the on-disk log is always complete.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace hepvine::obs {

using util::Tick;

/// Registry of every subject that may appear in a transactions-log line.
/// This table is the machine-readable contract for the log format:
/// `txn_query` drives its parser off it, and vine_lint rule VL005
/// (txn-subject) rejects any emitter whose subject is missing here — so
/// adding an emitter means adding a row first.
struct TxnSubjectInfo {
  const char* name = "";
  /// True when the first operand after the subject is a numeric id that
  /// txn_query should surface as Event::id (TRANSFER leads with src/dst
  /// endpoints instead, so its id stays 0 and fields land in rest).
  bool id_first = false;
};

inline constexpr TxnSubjectInfo kTxnSubjects[] = {
    {"MANAGER", true}, {"TASK", true},  {"WORKER", true},
    {"CACHE", true},   {"TRANSFER", false}, {"LIBRARY", true},
    {"FAULT", true},   {"NET", true},   {"SPAN", true},
    {"STORE", true},
};

[[nodiscard]] constexpr bool txn_subject_registered(std::string_view s) {
  for (const TxnSubjectInfo& info : kTxnSubjects) {
    if (s == info.name) return true;
  }
  return false;
}

[[nodiscard]] constexpr bool txn_subject_id_first(std::string_view s) {
  for (const TxnSubjectInfo& info : kTxnSubjects) {
    if (s == info.name) return info.id_first;
  }
  return false;
}

/// A file arriving on or leaving a worker's disk (CACHE lines) or its
/// node-local object store (STORE lines). exec::RunShell::residency is the
/// one writer of these events; TxnLog::residency renders their txn line.
enum class Residency : std::uint8_t {
  /// CACHE INSERT: a copy landed on the worker's disk.
  kInsert,
  /// CACHE GC: the manager garbage-collected a replica because every
  /// consumer of the file has completed (its reference count reached zero).
  kGc,
  /// CACHE EVICT: LRU pressure eviction, a scheduler decision.
  kEvict,
  /// CACHE EVICT: Work Queue sandbox cleanup after the output returned.
  kSandbox,
  /// CACHE LOST: a copy destroyed by a fault (injected cache loss) — unlike
  /// EVICT/GC this was not the scheduler's decision, and the FAULT line
  /// carries the injection record.
  kLost,
  /// STORE PUT: a FunctionCall output became a node-local in-memory store
  /// object on the worker — no serialization, no disk write.
  kPut,
  /// STORE REF: a consumer dispatched to the holder took a by-reference
  /// handle on the object for the lifetime of its attempt.
  kRef,
  /// STORE SPILL: the object was materialized on the holder's scratch disk
  /// (capacity pressure, or a remote consumer needs the bytes); an ordinary
  /// `CACHE INSERT` for the same file follows and the file joins the
  /// replica table.
  kSpill,
  /// STORE DROP: the object died in memory (reference count drained)
  /// without ever touching disk.
  kDrop,
};

class TxnLog {
 public:
  /// Disabled log: every record call is a cheap no-op.
  TxnLog() = default;

  /// Enabled log keeping at most `ring_capacity` lines in memory and, if
  /// `path` is non-empty, streaming every line to that file.
  TxnLog(std::size_t ring_capacity, const std::string& path);

  ~TxnLog();
  TxnLog(const TxnLog&) = delete;
  TxnLog& operator=(const TxnLog&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // --- typed emitters ----------------------------------------------------
  void manager_start(Tick t) { line(t, "MANAGER 0 START"); }
  void manager_end(Tick t) { line(t, "MANAGER 0 END"); }

  void task_waiting(Tick t, std::int64_t task, const std::string& category,
                    std::uint32_t attempt);
  void task_running(Tick t, std::int64_t task, std::int32_t worker);
  void task_retrieved(Tick t, std::int64_t task, const char* reason);
  void task_done(Tick t, std::int64_t task, const char* reason);

  void worker_connection(Tick t, std::int32_t worker);
  void worker_disconnection(Tick t, std::int32_t worker, const char* reason);

  /// `time CACHE|STORE file_id VERB size_bytes worker_id` — the residency
  /// record's txn line (Residency names the subject and verb of each kind).
  void residency(Tick t, Residency kind, std::int32_t worker,
                 std::int64_t file, std::uint64_t bytes);

  void transfer_start(Tick t, std::size_t src, std::size_t dst,
                      std::int64_t file, std::uint64_t bytes);
  void transfer_done(Tick t, std::size_t src, std::size_t dst,
                     std::int64_t file, std::uint64_t bytes);
  void transfer_failed(Tick t, std::size_t src, std::size_t dst,
                       std::int64_t file, std::uint64_t bytes);

  void library_sent(Tick t, std::int32_t worker);
  void library_started(Tick t, std::int32_t worker);

  /// `time FAULT seq KIND detail` — one line per injected fault, so a
  /// schedule can be replayed/diffed straight from the transactions log.
  void fault_injected(Tick t, std::uint64_t seq, const char* kind,
                      const std::string& detail);

  /// `time NET flow_id WARN detail` — a network-substrate anomaly the
  /// simulator self-healed from (e.g. a starved flow rescued by a
  /// rescheduled recompute). Should never appear in a healthy run.
  void net_warn(Tick t, std::int64_t flow, const char* detail);

  /// `time SPAN task ATTEMPT attempt worker ready dispatched staged exec
  /// compute exec_end SUCCESS|FAILURE category` — one line per completed
  /// task attempt carrying its full lifecycle phase boundaries, emitted
  /// when the attempt is finalized. `txn_query profile` reconstructs the
  /// blame rollup and critical chain from these. Boundaries the attempt
  /// never reached are -1.
  void span_attempt(Tick t, std::int64_t task, std::uint32_t attempt,
                    std::int32_t worker, Tick ready, Tick dispatched,
                    Tick staged, Tick exec, Tick compute, Tick exec_end,
                    bool success, const std::string& category);

  // --- inspection --------------------------------------------------------
  /// Total events recorded (including lines already rotated out of the
  /// ring).
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  /// Events dropped from the in-memory ring (still on disk if streaming).
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// The most recent lines, oldest first.
  [[nodiscard]] std::vector<std::string> tail() const;

  /// All retained lines joined with newlines (a full log when the run was
  /// smaller than the ring).
  [[nodiscard]] std::string text() const;

  void flush();

 private:
  void line(Tick t, const char* body);
  void push(std::string line);

  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::deque<std::string> ring_;
  std::uint64_t events_ = 0;
  std::uint64_t dropped_ = 0;
  std::FILE* file_ = nullptr;
};

}  // namespace hepvine::obs
