// Tests for tools/vine_lint: per-rule fixtures (flagging / clean /
// suppressed), the pragma machinery, the subject-table parser, and an
// end-to-end check that the real tree lints clean.
#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using hepvine::lint::Finding;
using hepvine::lint::Linter;
using hepvine::lint::LintOptions;
using hepvine::lint::Rule;
using hepvine::lint::rule_from_name;
using hepvine::lint::rule_info;

const std::vector<std::string> kSubjects = {
    "MANAGER", "TASK",     "WORKER", "CACHE",
    "TRANSFER", "LIBRARY", "FAULT",  "NET"};

std::string fixture_path(const std::string& name) {
  return std::string(LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Finding> lint_fixture(const std::string& name) {
  LintOptions opts;
  opts.roots = {fixture_path(name)};
  opts.subjects = kSubjects;
  Linter linter(std::move(opts));
  return linter.run();
}

/// Like lint_fixture but with caller-tuned options (test corpus, --only,
/// justification policy); roots/subjects are still filled in here.
std::vector<Finding> lint_fixture_with(const std::string& name,
                                       LintOptions opts) {
  opts.roots = {fixture_path(name)};
  opts.subjects = kSubjects;
  Linter linter(std::move(opts));
  return linter.run();
}

std::vector<Finding> lint_snippet(const std::string& path,
                                  const std::string& text) {
  LintOptions opts;
  opts.subjects = kSubjects;
  Linter linter(std::move(opts));
  return linter.lint_text(path, text);
}

int count_rule(const std::vector<Finding>& findings, Rule rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [rule](const Finding& f) { return f.rule == rule; }));
}

bool only_rule(const std::vector<Finding>& findings, Rule rule) {
  return std::all_of(findings.begin(), findings.end(),
                     [rule](const Finding& f) { return f.rule == rule; });
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// VL001 unordered-iter
// ---------------------------------------------------------------------------

TEST(VineLintUnorderedIter, FlagsIterationOverUnorderedContainers) {
  const auto findings = lint_fixture("unordered_iter_bad.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kUnorderedIter), 3)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kUnorderedIter));
}

TEST(VineLintUnorderedIter, QuietOnOrderedIterationAndLookups) {
  const auto findings = lint_fixture("unordered_iter_clean.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintUnorderedIter, FileAllowPragmaSilencesRule) {
  const auto findings = lint_fixture("unordered_iter_suppressed.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

// ---------------------------------------------------------------------------
// VL002 ambient-entropy
// ---------------------------------------------------------------------------

TEST(VineLintAmbientEntropy, FlagsWallClockAndEntropySources) {
  const auto findings = lint_fixture("ambient_entropy_bad.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kAmbientEntropy), 4)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kAmbientEntropy));
}

TEST(VineLintAmbientEntropy, QuietOnMemberFunctionsSharingBannedNames) {
  const auto findings = lint_fixture("ambient_entropy_clean.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintAmbientEntropy, LineSuppressionCoversPragmaAndNextLine) {
  const auto findings = lint_fixture("ambient_entropy_suppressed.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintAmbientEntropy, UtilDirectoryIsExempt) {
  const auto findings = lint_snippet(
      "src/util/env.cpp", "const char* v = std::getenv(\"X\");\n");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

// ---------------------------------------------------------------------------
// VL003 pointer-sort
// ---------------------------------------------------------------------------

TEST(VineLintPointerSort, FlagsAddressKeyedSorts) {
  const auto findings = lint_fixture("pointer_sort_bad.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kPointerSort), 3)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kPointerSort));
}

TEST(VineLintPointerSort, QuietOnKeyBasedComparators) {
  const auto findings = lint_fixture("pointer_sort_clean.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintPointerSort, LineSuppressionSilencesRule) {
  const auto findings = lint_fixture("pointer_sort_suppressed.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

// ---------------------------------------------------------------------------
// VL004 uninit-pod
// ---------------------------------------------------------------------------

TEST(VineLintUninitPod, FlagsUninitializedScalarAndPointerMembers) {
  const auto findings = lint_fixture("uninit_pod_bad.cpp");
  // Event: tick, worker, weight, label. Pair: a, b.
  EXPECT_EQ(count_rule(findings, Rule::kUninitPod), 6)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kUninitPod));
}

TEST(VineLintUninitPod, QuietOnInitializedMembersCtorsAndClassTypes) {
  const auto findings = lint_fixture("uninit_pod_clean.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintUninitPod, LineSuppressionSilencesRule) {
  const auto findings = lint_fixture("uninit_pod_suppressed.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

// ---------------------------------------------------------------------------
// VL005 txn-subject
// ---------------------------------------------------------------------------

TEST(VineLintTxnSubject, FlagsUnregisteredSubjects) {
  const auto findings = lint_fixture("txn_subject_bad.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kTxnSubject), 2)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kTxnSubject));
}

TEST(VineLintTxnSubject, QuietOnRegisteredSubjectsAndNonTxnStrings) {
  const auto findings = lint_fixture("txn_subject_clean.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintTxnSubject, SuppressionSilencesRule) {
  const auto findings = lint_fixture("txn_subject_suppressed.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintTxnSubject, FilesWithoutTxnLogIncludeAreOutOfScope) {
  const auto findings = lint_snippet(
      "src/foo.cpp", "void f(L& log, long long t) { log.line(t, \"ZOMBIE 1 X\"); }\n");
  EXPECT_EQ(count_rule(findings, Rule::kTxnSubject), 0)
      << hepvine::lint::format_findings(findings);
}

// ---------------------------------------------------------------------------
// VL006 float-accum
// ---------------------------------------------------------------------------

TEST(VineLintFloatAccum, FlagsNaiveAccumulationInDigestFiles) {
  const auto findings = lint_fixture("float_accum_bad.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kFloatAccum), 2)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kFloatAccum));
}

TEST(VineLintFloatAccum, QuietOnDetSumAndIntegralAccumulators) {
  const auto findings = lint_fixture("float_accum_clean.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintFloatAccum, SuppressionSilencesRule) {
  const auto findings = lint_fixture("float_accum_suppressed.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintFloatAccum, NonDigestFilesAreOutOfScope) {
  const auto findings = lint_snippet(
      "src/foo.cpp",
      "double total(const double* xs, int n) {\n"
      "  double acc = 0;\n"
      "  for (int i = 0; i < n; ++i) acc += xs[i];\n"
      "  return acc;\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

// ---------------------------------------------------------------------------
// VL008 handle-generation
// ---------------------------------------------------------------------------

TEST(VineLintHandleGeneration, FlagsUncheckedRearmAndInternalsAccess) {
  const auto findings = lint_fixture("handle_generation_bad.cpp");
  // Re-arm after a plain use, a .slot read, container re-arm.
  EXPECT_EQ(count_rule(findings, Rule::kHandleGeneration), 3)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kHandleGeneration));
}

TEST(VineLintHandleGeneration, QuietOnCancelPendingAndRescheduleHandoff) {
  const auto findings = lint_fixture("handle_generation_clean.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintHandleGeneration, SuppressionSilencesRule) {
  const auto findings = lint_fixture("handle_generation_suppressed.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

// ---------------------------------------------------------------------------
// VL009 flat-container-aliasing
// ---------------------------------------------------------------------------

TEST(VineLintFlatAliasing, FlagsAliasesHeldAcrossMutation) {
  const auto findings = lint_fixture("flat_aliasing_bad.cpp");
  // Iterator across insert, reference across reserve, erase in range-for.
  EXPECT_EQ(count_rule(findings, Rule::kFlatAliasing), 3)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kFlatAliasing));
}

TEST(VineLintFlatAliasing, QuietOnUseBeforeMutationAndRebind) {
  const auto findings = lint_fixture("flat_aliasing_clean.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintFlatAliasing, SuppressionSilencesRule) {
  const auto findings = lint_fixture("flat_aliasing_suppressed.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

// ---------------------------------------------------------------------------
// VL010 tunable-parity
// ---------------------------------------------------------------------------

TEST(VineLintTunableParity, FlagsBareReadMissingElseAndMissingTest) {
  const auto findings = lint_fixture("tunable_parity_bad.cpp");
  // Bare branch read, flag never against a reference arm, no test mention.
  EXPECT_EQ(count_rule(findings, Rule::kTunableParity), 3)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kTunableParity));
}

TEST(VineLintTunableParity, QuietWithReferenceArmsAndNamedTest) {
  LintOptions opts;
  opts.test_roots = {fixture_path("tunable_parity_tests.cpp")};
  const auto findings =
      lint_fixture_with("tunable_parity_clean.cpp", std::move(opts));
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintTunableParity, MissingTestCorpusMentionIsItsOwnFinding) {
  // Same clean fixture, but without the differential-test corpus: the
  // branch shape is fine, so exactly the test-parity leg must fire.
  const auto findings = lint_fixture("tunable_parity_clean.cpp");
  ASSERT_EQ(count_rule(findings, Rule::kTunableParity), 1)
      << hepvine::lint::format_findings(findings);
  EXPECT_NE(findings[0].message.find("not exercised by name"),
            std::string::npos)
      << findings[0].message;
}

TEST(VineLintTunableParity, FileAllowPragmaSilencesRule) {
  const auto findings = lint_fixture("tunable_parity_suppressed.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

// ---------------------------------------------------------------------------
// VL012 unsequenced-draws
// ---------------------------------------------------------------------------

TEST(VineLintUnsequencedDraws, FlagsDrawsSharingAnArgumentList) {
  const auto findings = lint_fixture("unsequenced_draws_bad.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kUnsequencedDraws), 3)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kUnsequencedDraws));
}

TEST(VineLintUnsequencedDraws, QuietOnSequencedAndIndependentDraws) {
  const auto findings = lint_fixture("unsequenced_draws_clean.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintUnsequencedDraws, LineSuppressionSilencesRule) {
  const auto findings = lint_fixture("unsequenced_draws_suppressed.cpp");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintUnsequencedDraws, NestedCallsAreCheckedOnTheirOwn) {
  // The outer call sees one draw unit (the nested call); the nested call
  // holds two draws itself and is the one flagged.
  const auto findings = lint_snippet(
      "src/x.cpp",
      "void f(hepvine::sim::Rng& rng) {\n"
      "  outer(inner(rng.uniform(), rng.uniform()), 1.0);\n"
      "}\n");
  ASSERT_EQ(count_rule(findings, Rule::kUnsequencedDraws), 1)
      << hepvine::lint::format_findings(findings);
  EXPECT_EQ(findings.front().line, 2);
  EXPECT_NE(findings.front().message.find("2 draws from 'rng'"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule metadata, formatting, pragma edge cases
// ---------------------------------------------------------------------------

TEST(VineLintMeta, RuleNamesRoundTrip) {
  for (std::size_t i = 0; i < hepvine::lint::kRuleCount; ++i) {
    const Rule rule = static_cast<Rule>(i);
    const auto& info = rule_info(rule);
    EXPECT_STRNE(info.id, "");
    EXPECT_STRNE(info.hint, "");
    const auto back = rule_from_name(info.name);
    ASSERT_TRUE(back.has_value()) << info.name;
    EXPECT_EQ(*back, rule);
  }
  EXPECT_FALSE(rule_from_name("no-such-rule").has_value());
}

TEST(VineLintMeta, FormatIncludesIdNameAndHint) {
  std::vector<Finding> findings;
  findings.push_back(
      Finding{"src/x.cpp", 12, Rule::kPointerSort, "sorted by address"});
  const std::string out = hepvine::lint::format_findings(findings);
  EXPECT_NE(out.find("src/x.cpp:12"), std::string::npos);
  EXPECT_NE(out.find("VL003"), std::string::npos);
  EXPECT_NE(out.find("pointer-sort"), std::string::npos);
  EXPECT_NE(out.find("fix-it:"), std::string::npos);
}

TEST(VineLintMeta, UnknownPragmaRuleIsAHardError) {
  // A pragma naming an unknown rule must not silence anything, and the
  // typo itself is a VL011 finding — a misspelled suppression that
  // silently disables nothing is worse than no suppression at all.
  const auto findings = lint_snippet(
      "src/foo.cpp",
      "#include <unordered_map>\n"
      "// vine-lint: allow(bogus-rule)\n"
      "int f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  int s = 0;\n"
      "  for (const auto& kv : m) s += kv.second;\n"
      "  return s;\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, Rule::kUnorderedIter), 1)
      << hepvine::lint::format_findings(findings);
  ASSERT_EQ(count_rule(findings, Rule::kPragmaHygiene), 1)
      << hepvine::lint::format_findings(findings);
  const auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.rule == Rule::kPragmaHygiene; });
  EXPECT_NE(it->message.find("bogus-rule"), std::string::npos) << it->message;
  EXPECT_EQ(it->line, 2);
}

TEST(VineLintMeta, MalformedPragmaOpsAreHardErrors) {
  const auto findings = lint_snippet(
      "src/foo.cpp",
      "// vine-lint: suppress\n"
      "// vine-fastpath: sometimes\n"
      "int x = 0;\n");
  EXPECT_EQ(count_rule(findings, Rule::kPragmaHygiene), 2)
      << hepvine::lint::format_findings(findings);
}

TEST(VineLintMeta, SuppressionIsPerRule) {
  // Suppressing one rule must not hide a different rule on the same line.
  const auto findings = lint_snippet(
      "src/foo.cpp",
      "#include <unordered_map>\n"
      "int f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  int s = 0;\n"
      "  // vine-lint: suppress(pointer-sort)\n"
      "  for (const auto& kv : m) s += kv.second;\n"
      "  return s;\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, Rule::kUnorderedIter), 1)
      << hepvine::lint::format_findings(findings);
}

TEST(VineLintMeta, SuppressionOnLastLineOfFile) {
  // A trailing-comment suppression on the file's final line (no newline
  // after it) still covers its own line.
  const auto findings = lint_snippet(
      "src/foo.cpp",
      "int f() {\n"
      "  return rand();  // vine-lint: suppress(ambient-entropy) seeded later"
      );
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintMeta, StackedSuppressionsInOnePragma) {
  // One comment may carry several groups; each silences its own rule.
  const auto findings = lint_snippet(
      "src/foo.cpp",
      "#include <unordered_map>\n"
      "int f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  int s = 0;\n"
      "  // vine-lint: suppress(unordered-iter) suppress(ambient-entropy)\n"
      "  for (const auto& kv : m) s += kv.second + rand();\n"
      "  return s;\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintMeta, OnlyFilterKeepsSelectedRules) {
  LintOptions opts;
  opts.subjects = kSubjects;
  opts.only = {Rule::kUnorderedIter};
  Linter linter(std::move(opts));
  const auto findings = linter.lint_text(
      "src/foo.cpp",
      "#include <unordered_map>\n"
      "int f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  int s = 0;\n"
      "  for (const auto& kv : m) s += kv.second + rand();\n"
      "  return s;\n"
      "}\n");
  // Both VL001 and VL002 fire on the loop line; only VL001 is reported.
  EXPECT_EQ(count_rule(findings, Rule::kUnorderedIter), 1)
      << hepvine::lint::format_findings(findings);
  EXPECT_TRUE(only_rule(findings, Rule::kUnorderedIter))
      << hepvine::lint::format_findings(findings);
}

TEST(VineLintMeta, RuleIdsResolveForOnlyFlag) {
  // --only accepts ids as well as names, case-insensitively.
  auto rule = rule_from_name("VL009");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(*rule, Rule::kFlatAliasing);
  rule = rule_from_name("vl008");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(*rule, Rule::kHandleGeneration);
  EXPECT_FALSE(rule_from_name("VL007").has_value());  // retired id
  EXPECT_FALSE(rule_from_name("VL999").has_value());
}

TEST(VineLintMeta, SuppressJustificationPolicy) {
  const std::string bare =
      "int f() {\n"
      "  // vine-lint: suppress(ambient-entropy)\n"
      "  return rand();\n"
      "}\n";
  const std::string justified =
      "int f() {\n"
      "  // vine-lint: suppress(ambient-entropy) — benchmark warmup only\n"
      "  return rand();\n"
      "}\n";
  LintOptions strict;
  strict.subjects = kSubjects;
  strict.require_suppress_justification = true;
  {
    Linter linter(strict);
    const auto findings = linter.lint_text("src/foo.cpp", bare);
    EXPECT_EQ(count_rule(findings, Rule::kPragmaHygiene), 1)
        << hepvine::lint::format_findings(findings);
  }
  {
    Linter linter(strict);
    const auto findings = linter.lint_text("src/foo.cpp", justified);
    EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
  }
  {
    // Without the policy flag a bare suppression is tolerated.
    LintOptions lax;
    lax.subjects = kSubjects;
    Linter linter(std::move(lax));
    const auto findings = linter.lint_text("src/foo.cpp", bare);
    EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
  }
}

TEST(VineLintMeta, CommentsAndStringsDoNotTriggerRules) {
  const auto findings = lint_snippet(
      "src/foo.cpp",
      "// getenv(\"HOME\") and rand() in a comment\n"
      "const char* kDoc = \"call time(nullptr) then rand()\";\n"
      "/* std::random_device in a block comment */\n");
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
}

TEST(VineLintMeta, ParseSubjectTable) {
  const std::string header =
      "struct TxnSubjectInfo { const char* name = \"\"; bool id_first = "
      "false; };\n"
      "inline constexpr TxnSubjectInfo kTxnSubjects[] = {\n"
      "    {\"MANAGER\", true}, {\"TASK\", true},\n"
      "};\n";
  const auto subjects = Linter::parse_subject_table(header);
  ASSERT_EQ(subjects.size(), 2u);
  EXPECT_EQ(subjects[0], "MANAGER");
  EXPECT_EQ(subjects[1], "TASK");
}

TEST(VineLintMeta, ParseSubjectTableToleratesTrailingComma) {
  const std::string header =
      "inline constexpr TxnSubjectInfo kTxnSubjects[] = {\n"
      "    {\"MANAGER\", true},\n"
      "    {\"TASK\", true},\n"
      "};\n";
  const auto subjects = Linter::parse_subject_table(header);
  ASSERT_EQ(subjects.size(), 2u);
  EXPECT_EQ(subjects[0], "MANAGER");
  EXPECT_EQ(subjects[1], "TASK");
}

TEST(VineLintMeta, ParseSubjectTableToleratesBlockComments) {
  // Block comments inside the initializer — including ones quoting retired
  // subject names — must not confuse or pollute the parse.
  const std::string header =
      "inline constexpr TxnSubjectInfo kTxnSubjects[] = {\n"
      "    /* core */ {\"MANAGER\", true},\n"
      "    {\"TASK\", /* id leads */ true},\n"
      "    /* retired: {\"ZOMBIE\", false} */\n"
      "    {\"NET\", false},  // trailing line comment\n"
      "};\n";
  const auto subjects = Linter::parse_subject_table(header);
  ASSERT_EQ(subjects.size(), 3u);
  EXPECT_EQ(subjects[0], "MANAGER");
  EXPECT_EQ(subjects[1], "TASK");
  EXPECT_EQ(subjects[2], "NET");
}

TEST(VineLintMeta, ParseSubjectTableFromRealHeader) {
  const std::string header =
      read_file(std::string(LINT_SOURCE_ROOT) + "/src/obs/txn_log.h");
  ASSERT_FALSE(header.empty());
  const auto subjects = Linter::parse_subject_table(header);
  for (const std::string& want : kSubjects) {
    EXPECT_NE(std::find(subjects.begin(), subjects.end(), want),
              subjects.end())
        << "subject " << want << " missing from kTxnSubjects";
  }
}

// ---------------------------------------------------------------------------
// End to end: the tree itself must lint clean.
// ---------------------------------------------------------------------------

TEST(VineLintTree, WholeTreeIsClean) {
  const std::string root(LINT_SOURCE_ROOT);
  LintOptions opts;
  opts.roots = {root + "/src", root + "/bench", root + "/tools"};
  opts.txn_log_header = root + "/src/obs/txn_log.h";
  Linter linter(std::move(opts));
  const auto findings = linter.run();
  EXPECT_TRUE(findings.empty()) << hepvine::lint::format_findings(findings);
  EXPECT_GT(linter.files_scanned(), 100u);
  // VL008 keys on stored EventRef declarations: the network's flow-event
  // entry and setup refs and the batch system's preemption timer. Fewer
  // means the index has gone blind to them.
  EXPECT_GE(linter.index_stats().handle_members, 3u);
}

}  // namespace
