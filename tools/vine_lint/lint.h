// vine_lint: the determinism contract, statically enforced.
//
// The simulator's core guarantee — bit-identical transaction logs, digests
// and event interleavings across recompute paths, schedulers and fault
// schedules — is only as strong as the code that has not yet been written.
// This library scans `src/`, `bench/` and `tools/` with a lightweight
// tokenizer (no libclang) and rejects the hazard patterns that have
// historically broken replay in distributed schedulers.
//
// v2 runs in two passes. Pass 1 builds a symbol index over every file in
// the scan set: struct/class member lists for pragma-annotated state types,
// the identifier set of every SnapshotBuilder writer region, fast-path
// tunable registrations and their branch reads, and the names of
// EventHandle- and FlatMap/FlatSet-typed members. Pass 2 runs the per-file
// rules plus cross-file rules against the index:
//
//   VL001 unordered-iter           iteration over std::unordered_map/set
//   VL002 ambient-entropy          wall clocks, rand(), random_device, getenv
//   VL003 pointer-sort             sorts keyed on pointer addresses
//   VL004 uninit-pod               scalar struct members left uninitialized
//   VL005 txn-subject              txn subjects missing from the subject table
//   VL006 float-accum              naive float accumulation in digest files
//   VL007 snapshot-completeness    mutable state-type member never serialized
//   VL008 handle-generation        stored EventHandle re-armed or poked unsafely
//   VL009 flat-container-aliasing  FlatMap/FlatSet alias held across a mutation
//   VL010 tunable-parity           fast-path branch without reference/test twin
//   VL011 pragma-hygiene           malformed or unknown lint/snapshot pragmas
//   VL012 unsequenced-draws        two or more Rng draws in one argument list
//
// Suppression is explicit and greppable:
//   // vine-lint: allow(<rule-name>)     — disable a rule for a whole file
//   // vine-lint: suppress(<rule-name>)  — disable for this line and the next
//
// Contract pragmas consumed by the index:
//   // vine-snapshot: state             — next struct/class is snapshot-bearing
//   // vine-snapshot: derived(<why>)    — member is rebuilt, not serialized
//   // vine-snapshot: serialized(<how>) — member is serialized indirectly
//   // vine-fastpath: opt-in            — member is a fast-path tunable flag
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hepvine::lint {

enum class Rule {
  kUnorderedIter = 0,
  kAmbientEntropy,
  kPointerSort,
  kUninitPod,
  kTxnSubject,
  kFloatAccum,
  kSnapshotCompleteness,
  kHandleGeneration,
  kFlatAliasing,
  kTunableParity,
  kPragmaHygiene,
  kUnsequencedDraws,
};

inline constexpr std::size_t kRuleCount = 12;

struct RuleInfo {
  Rule rule = Rule::kUnorderedIter;
  const char* id = "";    // "VL001"
  const char* name = "";  // "unordered-iter" — the pragma spelling
  const char* hint = "";  // fix-it guidance printed with every finding
};

/// Static metadata for every rule, indexed by the Rule enum value.
const RuleInfo& rule_info(Rule rule);

/// Reverse lookup from the pragma spelling ("unordered-iter") or the rule
/// id ("VL001", case-insensitive).
std::optional<Rule> rule_from_name(std::string_view name);

struct Finding {
  std::string file;
  int line = 0;
  Rule rule = Rule::kUnorderedIter;
  std::string message;
};

/// `file:line: [VL00x unordered-iter] message` plus an indented fix-it
/// hint, one finding per block. Stable ordering is the caller's job.
std::string format_findings(const std::vector<Finding>& findings);

/// Pass-1 symbol-index counters, for CI job summaries and tests.
struct IndexStats {
  std::size_t files_indexed = 0;
  std::size_t state_types = 0;      // // vine-snapshot: state annotations
  std::size_t members_checked = 0;  // mutable members of state types
  std::size_t members_exempt = 0;   // derived()/serialized() exemptions
  std::size_t writer_regions = 0;   // SnapshotBuilder lexical scopes
  std::size_t writer_idents = 0;    // distinct identifiers in those scopes
  std::size_t fastpath_flags = 0;   // // vine-fastpath: opt-in tunables
  std::size_t branch_reads = 0;     // if/ternary reads of those tunables
  std::size_t handle_members = 0;   // EventHandle-typed member names
  std::size_t flat_members = 0;     // FlatMap/FlatSet-typed member names
};

struct LintOptions {
  /// Files or directories to scan (directories walk recursively, picking
  /// up .h/.hpp/.cpp/.cc/.cxx in sorted order so output is deterministic).
  std::vector<std::string> roots;

  /// Path to obs/txn_log.h, used to load the txn subject table for VL005.
  /// Empty means "derive from the first root that contains
  /// src/obs/txn_log.h"; rule VL005 reports a finding if a file needs the
  /// table and it cannot be loaded.
  std::string txn_log_header;

  /// Pre-loaded subject table (tests use this to avoid touching disk).
  /// Non-empty overrides txn_log_header.
  std::vector<std::string> subjects;

  /// Files or directories holding the differential tests that VL010 checks
  /// fast-path tunables against. Empty means "derive <root>/../tests or
  /// <root>/tests from the first root that has one"; when nothing resolves,
  /// every fast-path flag reports missing test parity.
  std::vector<std::string> test_roots;

  /// When non-empty, only findings for these rules are reported (the CLI
  /// --only flag). All rules still execute; filtering is on output.
  std::vector<Rule> only;

  /// When true, every `// vine-lint: suppress(...)` pragma must carry a
  /// trailing justification after the closing parenthesis (VL011). CI turns
  /// this on for tree scans; fixtures and ad-hoc runs leave it off.
  bool require_suppress_justification = false;
};

class Linter {
 public:
  explicit Linter(LintOptions opts);

  /// Scan every root; findings come back sorted by (file, line, rule).
  [[nodiscard]] std::vector<Finding> run();

  /// Lint one in-memory file: the file is both the whole pass-1 index and
  /// the pass-2 scan set, so fixtures exercise the cross-file rules
  /// self-contained. `path` is used for reporting and for path-based
  /// exemptions (src/util/ may read the environment, src/sim is the
  /// EventHandle implementation layer).
  [[nodiscard]] std::vector<Finding> lint_text(const std::string& path,
                                               const std::string& text);

  /// Number of files scanned by the last run().
  [[nodiscard]] std::size_t files_scanned() const { return files_scanned_; }

  /// Symbol-index counters from the last run() or lint_text().
  [[nodiscard]] const IndexStats& index_stats() const { return stats_; }

  /// Extract subject names from the kTxnSubjects table in txn_log.h text.
  /// Empty result means the table was not found. Tolerates trailing commas
  /// and interleaved block comments inside the initializer.
  static std::vector<std::string> parse_subject_table(
      const std::string& header_text);

 private:
  void ensure_subjects();
  void apply_only_filter(std::vector<Finding>& findings) const;
  std::vector<std::pair<std::string, std::string>> load_test_corpus() const;

  LintOptions opts_;
  bool subjects_loaded_ = false;
  bool subjects_missing_ = false;
  std::size_t files_scanned_ = 0;
  IndexStats stats_;
};

}  // namespace hepvine::lint
