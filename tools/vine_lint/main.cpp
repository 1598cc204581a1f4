// vine_lint CLI: scan the tree for determinism-contract violations.
//
//   vine_lint --root <repo>            # scans <repo>/{src,bench,tools}
//   vine_lint file.cpp dir/ ...        # scans explicit paths
//   vine_lint --list-rules             # print the rule table
//   vine_lint --only=VL008,VL009 ...   # run everything, report these rules
//   vine_lint --stats ...              # print symbol-index counters
//
// Exit status: 0 clean, 1 findings, 2 usage/configuration error.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint.h"

namespace {

void print_rules() {
  using hepvine::lint::kRuleCount;
  using hepvine::lint::Rule;
  using hepvine::lint::rule_info;
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    const auto& info = rule_info(static_cast<Rule>(i));
    std::printf("%s %-24s %s\n", info.id, info.name, info.hint);
  }
}

void print_stats(const hepvine::lint::IndexStats& s) {
  std::printf(
      "vine_lint index: %zu file(s), %zu fast-path flag(s) with %zu branch "
      "read(s), %zu handle member(s), %zu flat member(s)\n",
      s.files_indexed, s.fastpath_flags, s.branch_reads, s.handle_members,
      s.flat_members);
}

/// Parse "VL008,flat-container-aliasing,..." into rules; returns false and
/// reports the offending name on error.
bool parse_only(const std::string& list,
                std::vector<hepvine::lint::Rule>* out) {
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string name = list.substr(pos, comma - pos);
    if (!name.empty()) {
      auto rule = hepvine::lint::rule_from_name(name);
      if (!rule) {
        std::fprintf(stderr,
                     "vine_lint: unknown rule '%s' in --only (see "
                     "--list-rules)\n",
                     name.c_str());
        return false;
      }
      out->push_back(*rule);
    }
    pos = comma + 1;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::string root = ".";
  std::vector<std::string> paths;
  hepvine::lint::LintOptions opts;
  bool want_stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vine_lint: --root needs a directory\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--tests") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vine_lint: --tests needs a path\n");
        return 2;
      }
      opts.test_roots.push_back(argv[++i]);
    } else if (arg.rfind("--only=", 0) == 0) {
      if (!parse_only(arg.substr(7), &opts.only)) return 2;
      if (opts.only.empty()) {
        std::fprintf(stderr, "vine_lint: --only needs at least one rule\n");
        return 2;
      }
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--require-suppress-justification") {
      opts.require_suppress_justification = true;
    } else if (arg == "--list-rules") {
      print_rules();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: vine_lint [--root DIR] [--tests PATH] [--only=RULES]\n"
          "                 [--stats] [--require-suppress-justification]\n"
          "                 [--list-rules] [paths...]\n"
          "With no paths, scans DIR/src, DIR/bench and DIR/tools.\n"
          "--only takes a comma-separated list of rule ids (VL008) or\n"
          "names (handle-generation); all rules still run, output is\n"
          "filtered. --tests points VL010 at the differential-test corpus\n"
          "(default DIR/tests).\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "vine_lint: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (paths.empty()) {
    for (const char* sub : {"src", "bench", "tools"}) {
      const std::string dir = root + "/" + sub;
      std::error_code ec;
      if (fs::is_directory(dir, ec)) opts.roots.push_back(dir);
    }
    if (opts.roots.empty()) {
      std::fprintf(stderr,
                   "vine_lint: no src/, bench/ or tools/ under --root %s\n",
                   root.c_str());
      return 2;
    }
  } else {
    opts.roots = paths;
  }
  opts.txn_log_header = root + "/src/obs/txn_log.h";
  if (opts.test_roots.empty()) {
    const std::string tests = root + "/tests";
    std::error_code ec;
    if (fs::is_directory(tests, ec)) opts.test_roots.push_back(tests);
  }

  hepvine::lint::Linter linter(opts);
  const auto findings = linter.run();
  if (linter.files_scanned() == 0) {
    std::fprintf(stderr, "vine_lint: no input files found\n");
    return 2;
  }
  if (!findings.empty()) {
    std::fputs(hepvine::lint::format_findings(findings).c_str(), stdout);
  }
  if (want_stats) print_stats(linter.index_stats());
  std::printf("vine_lint: %zu finding(s) across %zu file(s)\n",
              findings.size(), linter.files_scanned());
  return findings.empty() ? 0 : 1;
}
