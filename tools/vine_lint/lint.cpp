#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace hepvine::lint {

namespace {

const RuleInfo kRules[kRuleCount] = {
    {Rule::kUnorderedIter, "VL001", "unordered-iter",
     "iterate a deterministically ordered snapshot (std::map, or sort the "
     "keys first); if the order provably never escapes the loop, annotate "
     "the file with // vine-lint: allow(unordered-iter)"},
    {Rule::kAmbientEntropy, "VL002", "ambient-entropy",
     "simulation code must take time from the engine clock and randomness "
     "from sim::Rng (xoshiro256**); read the environment only through the "
     "util/env.h helpers"},
    {Rule::kPointerSort, "VL003", "pointer-sort",
     "sort on a stable key (id, name, tick) instead of an address; pointer "
     "values differ run to run with ASLR and allocation order"},
    {Rule::kUninitPod, "VL004", "uninit-pod",
     "brace- or equals-initialize the member (e.g. `std::uint64_t seq = 0;`) "
     "so structs crossing the txn-log/digest boundary never carry "
     "indeterminate bytes"},
    {Rule::kTxnSubject, "VL005", "txn-subject",
     "register the subject in kTxnSubjects in obs/txn_log.h so txn_query "
     "can parse the line"},
    {Rule::kFloatAccum, "VL006", "float-accum",
     "accumulate through util::DetSum (compensated summation) so digest "
     "inputs do not drift with rounding order"},
    {Rule::kSnapshotCompleteness, "VL007", "snapshot-completeness",
     "serialize the member in every SnapshotBuilder writer (b.field / "
     "field_i / field_s / field_rng) or annotate it with "
     "// vine-snapshot: derived(<why it is rebuilt, not state>) — an "
     "unserialized member silently diverges the RESTORE rerun from the "
     "anchor snapshot"},
    {Rule::kHandleGeneration, "VL008", "handle-generation",
     "cancel() the stored handle (or check pending()) before re-arming it, "
     "or hand it to engine.reschedule_at/after which supersedes in place; "
     "only cancel()/pending() are generation-checked, so any other access "
     "can touch a recycled slot"},
    {Rule::kFlatAliasing, "VL009", "flat-container-aliasing",
     "re-find() after any insert/erase/operator[] on a FlatMap/FlatSet — "
     "the backing sorted vector reallocates and shifts, invalidating every "
     "outstanding reference and iterator"},
    {Rule::kTunableParity, "VL010", "tunable-parity",
     "keep the reference implementation reachable (else arm, ternary, or a "
     "negated early-out) and name the tunable in a differential test under "
     "tests/ so the fast path stays verifiable against it"},
    {Rule::kPragmaHygiene, "VL011", "pragma-hygiene",
     "fix the pragma: rule names must match --list-rules, vine-snapshot "
     "ops are state | derived(<why>) | serialized(<how>), vine-fastpath "
     "ops are opt-in, and suppressions need a trailing justification"},
    {Rule::kUnsequencedDraws, "VL012", "unsequenced-draws",
     "take each draw into a named local, one statement per draw, in the "
     "order the stream must see them; C++ leaves the evaluation order of "
     "function arguments unspecified, so the content would depend on the "
     "compiler"},
};

// ---------------------------------------------------------------------------
// Lexer: a C++-shaped token stream plus the comment list (for pragmas).
// Preprocessor directives are skipped; adjacent analysis that needs them
// (include detection, VL005/VL006 file gates) works on the raw text.
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind = kPunct;
  std::string text;  // for kString: the literal's inner content, unquoted
  int line = 0;
};

struct Comment {
  std::string text;
  int line = 0;
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

LexResult lex(const std::string& text) {
  LexResult out;
  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;

  auto push = [&](Token::Kind kind, std::string body, int at) {
    out.tokens.push_back(Token{kind, std::move(body), at});
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Preprocessor directive: skip to end of line, honoring continuations.
    if (c == '#' && at_line_start) {
      while (i < n) {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (text[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t end = text.find('\n', i);
      if (end == std::string::npos) end = n;
      out.comments.push_back(Comment{text.substr(i + 2, end - i - 2), line});
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(text[j] == '*' && text[j + 1] == '/')) {
        if (text[j] == '\n') ++line;
        ++j;
      }
      out.comments.push_back(
          Comment{text.substr(i + 2, j - i - 2), start_line});
      i = (j + 1 < n) ? j + 2 : n;
      continue;
    }
    // String literal (with optional raw-string handling via the ident path).
    if (c == '"') {
      std::string body;
      std::size_t j = i + 1;
      while (j < n && text[j] != '"') {
        if (text[j] == '\\' && j + 1 < n) {
          body += text[j];
          body += text[j + 1];
          j += 2;
          continue;
        }
        if (text[j] == '\n') ++line;  // unterminated; be forgiving
        body += text[j];
        ++j;
      }
      push(Token::kString, body, line);
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (c == '\'') {
      std::size_t j = i + 1;
      std::string body;
      while (j < n && text[j] != '\'') {
        if (text[j] == '\\' && j + 1 < n) {
          body += text[j + 1];
          j += 2;
          continue;
        }
        body += text[j];
        ++j;
      }
      push(Token::kChar, body, line);
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      while (j < n && (ident_char(text[j]) || text[j] == '.' ||
                       text[j] == '\'' ||
                       ((text[j] == '+' || text[j] == '-') && j > i &&
                        (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                         text[j - 1] == 'p' || text[j - 1] == 'P')))) {
        ++j;
      }
      push(Token::kNumber, text.substr(i, j - i), line);
      i = j;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(text[j])) ++j;
      std::string id = text.substr(i, j - i);
      // Raw string literal: R"delim( ... )delim"
      if (j < n && text[j] == '"' && !id.empty() && id.back() == 'R') {
        std::size_t open = text.find('(', j + 1);
        if (open != std::string::npos) {
          const std::string delim = text.substr(j + 1, open - j - 1);
          const std::string closer = ")" + delim + "\"";
          std::size_t close = text.find(closer, open + 1);
          if (close == std::string::npos) close = n;
          std::string body = text.substr(open + 1, close - open - 1);
          line += static_cast<int>(
              std::count(body.begin(), body.end(), '\n'));
          push(Token::kString, std::move(body), line);
          i = (close == n) ? n : close + closer.size();
          continue;
        }
      }
      push(Token::kIdent, std::move(id), line);
      i = j;
      continue;
    }
    // Multi-char punctuation we care about; everything else single-char.
    static const char* kTwoChar[] = {"::", "->", "++", "--", "+=", "-=",
                                     "*=", "/=", "%=", "&=", "|=", "^=",
                                     "==", "!=", "<=", ">=", "&&", "||"};
    bool matched = false;
    if (i + 1 < n) {
      const std::string two = text.substr(i, 2);
      for (const char* p : kTwoChar) {
        if (two == p) {
          push(Token::kPunct, two, line);
          i += 2;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      push(Token::kPunct, std::string(1, c), line);
      ++i;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pragmas.
//   // vine-lint: allow(rule) | suppress(rule)
//     allow() covers the whole file; suppress() its own line and the next.
//   // vine-snapshot: state | derived(<why>) | serialized(<how>)
//     state marks the next struct/class as snapshot-bearing; derived and
//     serialized exempt the member declared on the same or next line.
//   // vine-fastpath: opt-in
//     marks the tunable declared on the same or next line as a fast path
//     that VL010 holds to reference-branch and differential-test parity.
// Malformed pragmas (unknown rule names, unknown ops, empty reasons) are
// collected as issues and reported as VL011 — a typo in a suppression must
// never silently disable nothing.
// ---------------------------------------------------------------------------

struct PragmaIssue {
  int line = 0;
  std::string message;
};

struct FilePragmas {
  std::set<Rule> allowed;
  std::map<int, std::set<Rule>> suppressed_at;
  std::vector<PragmaIssue> issues;
  /// Lines bearing `// vine-lint: suppress(...)` and whether a trailing
  /// justification follows the pragma groups.
  std::vector<std::pair<int, bool>> suppress_sites;
  std::set<int> state_lines;                 // lines bearing the state pragma
  std::map<int, std::string> member_exempt;  // line -> "derived: <why>" etc
  std::set<int> fastpath_lines;              // opt-in tunable pragma lines
};

/// Extract `op(content)` with paren counting so reasons may contain calls,
/// e.g. derived(rebuilt by index_flush()). Returns content and advances p
/// past the closing paren; returns nullopt if no '(' at p.
std::optional<std::string> parse_paren_group(const std::string& s,
                                             std::size_t& p) {
  if (p >= s.size() || s[p] != '(') return std::nullopt;
  int depth = 0;
  const std::size_t start = p + 1;
  for (; p < s.size(); ++p) {
    if (s[p] == '(') {
      ++depth;
    } else if (s[p] == ')') {
      --depth;
      if (depth == 0) {
        const std::string content = s.substr(start, p - start);
        ++p;
        return content;
      }
    }
  }
  p = s.size();
  return s.substr(start);  // unterminated; be forgiving, caller validates
}

bool has_alnum(const std::string& s, std::size_t from) {
  for (std::size_t i = from; i < s.size(); ++i) {
    if (std::isalnum(static_cast<unsigned char>(s[i])) != 0) return true;
  }
  return false;
}

std::string next_pragma_word(const std::string& s, std::size_t& p) {
  while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p])) != 0) {
    ++p;
  }
  const std::size_t word_start = p;
  while (p < s.size() && (ident_char(s[p]) || s[p] == '-')) ++p;
  return s.substr(word_start, p - word_start);
}

/// A pragma only counts when nothing but whitespace precedes it in the
/// comment: documentation that *mentions* the syntax (indented, or behind
/// another `//` as in `//   // vine-lint: ...` or `/// ... pragmas`) never
/// parses as a live pragma.
std::size_t pragma_at(const std::string& text, const char* marker) {
  const std::size_t pos = text.find(marker);
  if (pos == std::string::npos) return std::string::npos;
  for (std::size_t i = 0; i < pos; ++i) {
    if (std::isspace(static_cast<unsigned char>(text[i])) == 0) {
      return std::string::npos;
    }
  }
  return pos;
}

FilePragmas collect_pragmas(const std::vector<Comment>& comments) {
  FilePragmas out;
  for (const Comment& c : comments) {
    // Family 1: vine-lint rule pragmas.
    std::size_t pos = pragma_at(c.text, "vine-lint:");
    if (pos != std::string::npos) {
      pos += 10;
      std::size_t p = pos;
      bool saw_suppress = false;
      std::size_t groups_end = p;
      while (p < c.text.size()) {
        const std::size_t word_at = p;
        const std::string op = next_pragma_word(c.text, p);
        if (op != "allow" && op != "suppress") {
          p = word_at;
          break;
        }
        auto name = parse_paren_group(c.text, p);
        if (!name) {
          out.issues.push_back(
              {c.line, "vine-lint " + op + " pragma is missing its (rule)"});
          break;
        }
        groups_end = p;
        if (auto rule = rule_from_name(*name)) {
          if (op == "allow") {
            out.allowed.insert(*rule);
          } else {
            out.suppressed_at[c.line].insert(*rule);
            saw_suppress = true;
          }
        } else {
          out.issues.push_back({c.line, "unknown rule '" + *name +
                                            "' in vine-lint " + op +
                                            "() pragma"});
        }
      }
      if (saw_suppress) {
        out.suppress_sites.emplace_back(c.line,
                                        has_alnum(c.text, groups_end));
      }
    }
    // Family 2: vine-snapshot contract pragmas.
    pos = pragma_at(c.text, "vine-snapshot:");
    if (pos != std::string::npos) {
      pos += 14;
      std::size_t p = pos;
      const std::string op = next_pragma_word(c.text, p);
      if (op == "state") {
        out.state_lines.insert(c.line);
      } else if (op == "derived" || op == "serialized") {
        auto why = parse_paren_group(c.text, p);
        if (!why || !has_alnum(*why, 0)) {
          out.issues.push_back({c.line, "vine-snapshot " + op +
                                            "() needs a non-empty reason"});
        } else {
          out.member_exempt[c.line] = op + ": " + *why;
        }
      } else {
        out.issues.push_back(
            {c.line, "unknown vine-snapshot op '" + op +
                         "' (expected state | derived(<why>) | "
                         "serialized(<how>))"});
      }
    }
    // Family 3: vine-fastpath tunable registration.
    pos = pragma_at(c.text, "vine-fastpath:");
    if (pos != std::string::npos) {
      pos += 14;
      std::size_t p = pos;
      const std::string op = next_pragma_word(c.text, p);
      if (op == "opt-in") {
        out.fastpath_lines.insert(c.line);
      } else {
        out.issues.push_back({c.line, "unknown vine-fastpath op '" + op +
                                          "' (expected opt-in)"});
      }
    }
  }
  return out;
}

bool is_suppressed(const FilePragmas& p, Rule rule, int line) {
  if (p.allowed.count(rule) != 0) return true;
  for (int l : {line, line - 1}) {
    auto it = p.suppressed_at.find(l);
    if (it != p.suppressed_at.end() && it->second.count(rule) != 0) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Shared per-file context and token helpers.
// ---------------------------------------------------------------------------

struct FileCtx {
  const std::string& path;
  const std::string& raw;
  const std::vector<Token>& toks;
  const FilePragmas& pragmas;
  std::vector<Finding>& out;

  void report(Rule rule, int line, std::string msg) const {
    if (is_suppressed(pragmas, rule, line)) return;
    out.push_back(Finding{path, line, rule, std::move(msg)});
  }
};

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// `i` indexes an open token; returns the index of the matching close
/// (same nesting family only), or toks.size() when unbalanced.
std::size_t match_forward(const std::vector<Token>& t, std::size_t i,
                          const char* open, const char* close) {
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (t[k].kind != Token::kPunct) continue;
    if (t[k].text == open) {
      ++depth;
    } else if (t[k].text == close) {
      --depth;
      if (depth == 0) return k;
    }
  }
  return t.size();
}

bool tok_is(const std::vector<Token>& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].text == s;
}

bool path_contains_dir(const std::string& path, const std::string& dir) {
  const std::string needle = "/" + dir + "/";
  if (path.find(needle) != std::string::npos) return true;
  return path.rfind(dir + "/", 0) == 0;
}

// ---------------------------------------------------------------------------
// VL001 unordered-iter
// ---------------------------------------------------------------------------

const std::set<std::string>& unordered_type_names() {
  static const std::set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kSet;
}

bool is_begin_like(const std::string& s) {
  return s == "begin" || s == "cbegin" || s == "rbegin" || s == "crbegin";
}

void rule_unordered_iter(const FileCtx& ctx) {
  const auto& t = ctx.toks;
  std::set<std::string> vars;
  std::set<std::string> aliases;

  // Pass A: declarations and `using Alias = std::unordered_...` aliases.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    const bool direct = unordered_type_names().count(t[i].text) != 0;
    const bool via_alias = aliases.count(t[i].text) != 0;
    if (!direct && !via_alias) continue;

    // `using Alias = [std::]unordered_map<...>` registers the alias.
    std::size_t base = i;
    if (base >= 2 && t[base - 1].text == "::" && t[base - 2].text == "std") {
      base -= 2;
    }
    if (direct && base >= 3 && t[base - 1].text == "=" &&
        t[base - 2].kind == Token::kIdent && t[base - 3].text == "using") {
      aliases.insert(t[base - 2].text);
      continue;
    }

    std::size_t j = i + 1;
    if (direct) {
      if (!tok_is(t, j, "<")) continue;  // not a concrete type use
      j = match_forward(t, j, "<", ">");
      if (j >= t.size()) continue;
      ++j;
    }
    if (tok_is(t, j, "::")) {
      if (j + 1 < t.size() && (t[j + 1].text == "iterator" ||
                               t[j + 1].text == "const_iterator")) {
        ctx.report(Rule::kUnorderedIter, t[i].line,
                   "explicit iterator type over " + t[i].text +
                       " — traversal order is nondeterministic");
      }
      continue;
    }
    while (j < t.size() &&
           (t[j].text == "const" || t[j].text == "&" || t[j].text == "*")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == Token::kIdent) {
      vars.insert(t[j].text);
    }
  }

  // Pass B: range-for over a tracked name, or .begin()-family calls on one.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == Token::kIdent && t[i].text == "for" &&
        tok_is(t, i + 1, "(")) {
      const std::size_t close = match_forward(t, i + 1, "(", ")");
      std::size_t colon = kNpos;
      int depth = 0;
      for (std::size_t k = i + 2; k < close; ++k) {
        const std::string& s = t[k].text;
        if (s == "(" || s == "[" || s == "{") {
          ++depth;
        } else if (s == ")" || s == "]" || s == "}") {
          --depth;
        } else if (depth == 0 && s == ";") {
          break;  // classic for loop
        } else if (depth == 0 && s == ":") {
          colon = k;
          break;
        }
      }
      if (colon != kNpos) {
        for (std::size_t k = colon + 1; k < close; ++k) {
          if (t[k].kind != Token::kIdent) continue;
          if (vars.count(t[k].text) != 0 ||
              unordered_type_names().count(t[k].text) != 0 ||
              aliases.count(t[k].text) != 0) {
            ctx.report(Rule::kUnorderedIter, t[k].line,
                       "range-for over unordered container '" + t[k].text +
                           "' — iteration order is nondeterministic");
            break;
          }
        }
      }
    }
    if (t[i].kind == Token::kIdent && vars.count(t[i].text) != 0 &&
        i + 3 < t.size() &&
        (t[i + 1].text == "." || t[i + 1].text == "->") &&
        t[i + 2].kind == Token::kIdent && is_begin_like(t[i + 2].text) &&
        t[i + 3].text == "(") {
      ctx.report(Rule::kUnorderedIter, t[i].line,
                 "iteration over unordered container '" + t[i].text +
                     "' via ." + t[i + 2].text + "()");
    }
  }
}

// ---------------------------------------------------------------------------
// VL002 ambient-entropy
// ---------------------------------------------------------------------------

void rule_ambient_entropy(const FileCtx& ctx) {
  if (path_contains_dir(ctx.path, "src/util") ||
      path_contains_dir(ctx.path, "util")) {
    return;  // util/ is the sanctioned wrapper layer
  }
  static const std::set<std::string> kBannedCalls = {
      "rand",          "srand",      "random",       "drand48",
      "lrand48",       "mrand48",    "time",         "clock",
      "gettimeofday",  "localtime",  "gmtime",       "mktime",
      "getenv",        "secure_getenv", "setenv",    "putenv",
      "clock_gettime"};
  static const std::set<std::string> kBannedEntities = {
      "random_device", "system_clock", "steady_clock",
      "high_resolution_clock"};
  // Identifier-shaped tokens after which `name(` is still a call expression
  // rather than a declaration of `name`.
  static const std::set<std::string> kExprKeywords = {
      "return", "co_return", "co_await", "co_yield", "throw", "case",
      "else",   "do",        "sizeof",   "new",      "delete"};
  const auto& t = ctx.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    const std::string& s = t[i].text;
    if (kBannedEntities.count(s) != 0) {
      const bool qualified = (i > 0 && t[i - 1].text == "::") ||
                             tok_is(t, i + 1, "::");
      if (qualified) {
        ctx.report(Rule::kAmbientEntropy, t[i].line,
                   "ambient entropy / wall-clock source 'std::" + s + "'");
      }
      continue;
    }
    if (kBannedCalls.count(s) != 0 && tok_is(t, i + 1, "(")) {
      if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) {
        continue;  // member call on some object, e.g. engine.clock()
      }
      if (i > 0 && t[i - 1].kind == Token::kIdent &&
          kExprKeywords.count(t[i - 1].text) == 0 && t[i - 1].text != "::") {
        // `long clock() const` / `auto time(...)`: a declaration that merely
        // shares the banned name, not a call into libc.
        continue;
      }
      if (i > 0 && t[i - 1].text == "::") {
        // Only std:: or the global namespace count as the libc function.
        if (i >= 2 && t[i - 2].kind == Token::kIdent &&
            t[i - 2].text != "std") {
          continue;
        }
      }
      ctx.report(Rule::kAmbientEntropy, t[i].line,
                 "call to ambient entropy / wall-clock function '" + s +
                     "()'");
    }
  }
}

// ---------------------------------------------------------------------------
// VL003 pointer-sort
// ---------------------------------------------------------------------------

void rule_pointer_sort(const FileCtx& ctx) {
  const auto& t = ctx.toks;

  // Track vectors of pointers so comparator-less sorts over them flag.
  std::set<std::string> ptr_containers;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind == Token::kIdent && t[i].text == "vector" &&
        t[i + 1].text == "<") {
      const std::size_t close = match_forward(t, i + 1, "<", ">");
      if (close >= t.size() || close < 2 || t[close - 1].text != "*") {
        continue;
      }
      std::size_t j = close + 1;
      while (j < t.size() &&
             (t[j].text == "const" || t[j].text == "&" || t[j].text == "*")) {
        ++j;
      }
      if (j < t.size() && t[j].kind == Token::kIdent) {
        ptr_containers.insert(t[j].text);
      }
    }
  }

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent ||
        (t[i].text != "sort" && t[i].text != "stable_sort" &&
         t[i].text != "partial_sort") ||
        !tok_is(t, i + 1, "(")) {
      continue;
    }
    const std::size_t open = i + 1;
    const std::size_t close = match_forward(t, open, "(", ")");
    if (close >= t.size()) continue;
    const int call_line = t[i].line;

    bool has_comparator = false;

    // std::less<T*> as comparator.
    for (std::size_t k = open + 1; k < close; ++k) {
      if (t[k].kind == Token::kIdent && t[k].text == "less" &&
          tok_is(t, k + 1, "<")) {
        const std::size_t lc = match_forward(t, k + 1, "<", ">");
        has_comparator = true;
        if (lc < close && lc >= 1 && t[lc - 1].text == "*") {
          ctx.report(Rule::kPointerSort, t[k].line,
                     "std::less over a pointer type orders by address");
        }
      }
    }

    // Lambda comparator.
    for (std::size_t k = open + 1; k < close; ++k) {
      if (t[k].text != "[") continue;
      const std::size_t cap_close = match_forward(t, k, "[", "]");
      if (cap_close >= close || !tok_is(t, cap_close + 1, "(")) continue;
      const std::size_t p_open = cap_close + 1;
      const std::size_t p_close = match_forward(t, p_open, "(", ")");
      if (p_close >= close) continue;
      has_comparator = true;

      // Parse parameters: name = last ident per comma-separated chunk.
      std::set<std::string> ptr_params;
      std::set<std::string> all_params;
      {
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        std::size_t start = p_open + 1;
        int depth = 0;
        for (std::size_t m = p_open + 1; m <= p_close; ++m) {
          const std::string& s = t[m].text;
          if (s == "(" || s == "[" || s == "{" || s == "<") {
            ++depth;
          } else if (s == ")" || s == "]" || s == "}" || s == ">") {
            if (m == p_close) {
              chunks.emplace_back(start, m);
              break;
            }
            --depth;
          } else if (depth == 0 && s == ",") {
            chunks.emplace_back(start, m);
            start = m + 1;
          }
        }
        for (auto [b, e] : chunks) {
          std::string name;
          bool is_ptr = false;
          for (std::size_t m = b; m < e; ++m) {
            if (t[m].kind == Token::kIdent) name = t[m].text;
            if (t[m].text == "*") is_ptr = true;
          }
          if (name.empty()) continue;
          all_params.insert(name);
          if (is_ptr) ptr_params.insert(name);
        }
      }

      std::size_t b_open = p_close + 1;
      while (b_open < close && t[b_open].text != "{") ++b_open;
      if (b_open >= close) continue;
      const std::size_t b_close = match_forward(t, b_open, "{", "}");

      static const std::set<std::string> kRelOps = {"<", ">", "<=", ">="};
      for (std::size_t m = b_open + 1; m < b_close && m < close; ++m) {
        if (t[m].kind != Token::kPunct || kRelOps.count(t[m].text) == 0) {
          continue;
        }
        if (m < 1 || m + 1 >= t.size()) continue;
        const Token& lhs = t[m - 1];
        const Token& rhs = t[m + 1];
        // &a < &b — comparing addresses of anything.
        if (m >= 2 && t[m - 2].text == "&" && rhs.text == "&") {
          ctx.report(Rule::kPointerSort, t[m].line,
                     "comparator orders by address-of (&) — addresses are "
                     "not stable across runs");
          continue;
        }
        // Raw pointer params compared without dereference.
        if (lhs.kind == Token::kIdent && rhs.kind == Token::kIdent &&
            ptr_params.count(lhs.text) != 0 &&
            ptr_params.count(rhs.text) != 0) {
          const bool lhs_deref = m >= 2 && t[m - 2].text == "*";
          const bool rhs_member =
              m + 2 < t.size() &&
              (t[m + 2].text == "." || t[m + 2].text == "->");
          if (!lhs_deref && !rhs_member) {
            ctx.report(Rule::kPointerSort, t[m].line,
                       "comparator orders raw pointers '" + lhs.text +
                           "' and '" + rhs.text + "' by address");
          }
        }
      }
    }

    // Comparator-less sort over a container of pointers.
    if (!has_comparator) {
      for (std::size_t k = open + 1; k < close; ++k) {
        if (t[k].kind == Token::kIdent && ptr_containers.count(t[k].text) &&
            k + 2 < close && (t[k + 1].text == "." || t[k + 1].text == "->") &&
            t[k + 2].text == "begin") {
          ctx.report(Rule::kPointerSort, call_line,
                     "sorting container of pointers '" + t[k].text +
                         "' without a key-based comparator orders by "
                         "address");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// VL004 uninit-pod
// ---------------------------------------------------------------------------

bool is_scalar_word(const std::string& s) {
  static const std::set<std::string> kScalars = {
      "bool",    "char",    "wchar_t",  "char8_t",  "char16_t", "char32_t",
      "short",   "int",     "long",     "float",    "double",   "unsigned",
      "signed",  "size_t",  "ptrdiff_t", "intptr_t", "uintptr_t", "Tick"};
  if (kScalars.count(s) != 0) return true;
  // (u)int{8,16,32,64}[_least|_fast]_t
  std::size_t p = 0;
  if (p < s.size() && s[p] == 'u') ++p;
  if (s.compare(p, 3, "int") != 0) return false;
  p += 3;
  std::size_t d = p;
  while (d < s.size() && std::isdigit(static_cast<unsigned char>(s[d])) != 0) {
    ++d;
  }
  if (d == p) return false;
  return s.compare(d, std::string::npos, "_t") == 0 ||
         s.compare(d, std::string::npos, "_least_t") == 0 ||
         s.compare(d, std::string::npos, "_fast_t") == 0;
}

struct PendingField {
  int line = 0;
  std::string name;
  std::string type;
};

void analyze_struct(const FileCtx& ctx, const std::string& sname,
                    std::size_t body_begin, std::size_t body_end) {
  const auto& t = ctx.toks;
  bool has_ctor = false;
  std::vector<PendingField> pending;

  std::size_t k = body_begin;
  while (k < body_end) {
    // Collect one member statement; parenthesized/braced/bracketed groups
    // collapse to their open-token marker.
    std::vector<std::size_t> stmt;
    bool saw_paren = false;
    while (k < body_end) {
      const std::string& s = t[k].text;
      if (t[k].kind == Token::kPunct && s == ";") {
        ++k;
        break;
      }
      if (t[k].kind == Token::kPunct && s == "{") {
        const std::size_t bc = match_forward(t, k, "{", "}");
        if (saw_paren) {
          // Function (or constructor) body: statement ends here.
          k = bc + 1;
          if (k < body_end && t[k].text == ";") ++k;
          break;
        }
        stmt.push_back(k);  // in-class brace initializer marker
        k = bc + 1;
        continue;
      }
      if (t[k].kind == Token::kPunct && s == "(") {
        saw_paren = true;
        stmt.push_back(k);
        k = match_forward(t, k, "(", ")") + 1;
        continue;
      }
      if (t[k].kind == Token::kPunct && s == "[") {
        stmt.push_back(k);
        k = match_forward(t, k, "[", "]") + 1;
        continue;
      }
      stmt.push_back(k);
      ++k;
    }
    if (stmt.empty()) continue;

    // Strip leading qualifiers that can precede either a data member or a
    // constructor, so `explicit Foo(...)` still registers as a ctor.
    std::size_t s0 = 0;
    while (s0 < stmt.size() &&
           (t[stmt[s0]].text == "mutable" || t[stmt[s0]].text == "const" ||
            t[stmt[s0]].text == "volatile" ||
            t[stmt[s0]].text == "explicit" ||
            t[stmt[s0]].text == "constexpr" ||
            t[stmt[s0]].text == "inline" ||
            t[stmt[s0]].text == "[")) {  // leading [[attribute]]
      ++s0;
    }
    if (s0 >= stmt.size()) continue;
    const Token& first = t[stmt[s0]];

    if (first.kind == Token::kIdent && first.text == sname &&
        s0 + 1 < stmt.size() && t[stmt[s0 + 1]].text == "(") {
      has_ctor = true;
      continue;
    }
    static const std::set<std::string> kSkipLead = {
        "public",   "private", "protected", "using",    "friend",
        "typedef",  "template", "static",   "operator", "enum",
        "struct",   "class",    "union",    "virtual",  "~",
        "requires", "alignas"};
    if (kSkipLead.count(first.text) != 0) continue;

    // Templates / qualified class types: not scalar, skip whole statement.
    bool has_angle = false;
    std::size_t first_paren = kNpos;
    std::size_t first_eq = kNpos;
    for (std::size_t m = s0; m < stmt.size(); ++m) {
      const std::string& s = t[stmt[m]].text;
      if (s == "<") has_angle = true;
      if (s == "(" && first_paren == kNpos) first_paren = m;
      if (s == "=" && first_eq == kNpos) first_eq = m;
    }
    if (has_angle) continue;
    if (first_paren != kNpos &&
        (first_eq == kNpos || first_paren < first_eq)) {
      continue;  // function declaration
    }

    // Split into comma-separated declarator chunks.
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::size_t start = s0;
    for (std::size_t m = s0; m <= stmt.size(); ++m) {
      if (m == stmt.size() || t[stmt[m]].text == ",") {
        if (m > start) chunks.emplace_back(start, m);
        start = m + 1;
      }
    }
    if (chunks.empty()) continue;

    // First chunk carries the type; its declarator name is the last ident
    // before any initializer.
    std::vector<std::string> type_words;
    bool type_ptr = false;
    std::string first_name;
    int first_line = 0;
    bool first_init = false;
    {
      auto [b, e] = chunks[0];
      std::size_t limit = e;
      for (std::size_t m = b; m < e; ++m) {
        const std::string& s = t[stmt[m]].text;
        if (s == "=" || s == "{") {
          limit = m;
          first_init = true;
          break;
        }
      }
      std::size_t name_idx = kNpos;
      for (std::size_t m = b; m < limit; ++m) {
        if (t[stmt[m]].kind == Token::kIdent) name_idx = m;
      }
      if (name_idx == kNpos) continue;
      first_name = t[stmt[name_idx]].text;
      first_line = t[stmt[name_idx]].line;
      for (std::size_t m = b; m < name_idx; ++m) {
        const Token& tk = t[stmt[m]];
        if (tk.kind == Token::kIdent) {
          if (tk.text != "std" && tk.text != "const" &&
              tk.text != "volatile" && tk.text != "mutable") {
            type_words.push_back(tk.text);
          }
        } else if (tk.text == "*") {
          type_ptr = true;
        } else if (tk.text == "&" || tk.text == "&&") {
          type_words.clear();
          type_ptr = false;
          break;  // reference members are out of scope
        }
      }
    }
    if (type_words.empty() && !type_ptr) continue;
    bool scalar = true;
    for (const std::string& w : type_words) {
      if (!is_scalar_word(w)) {
        scalar = false;
        break;
      }
    }
    const bool flaggable = type_ptr || (scalar && !type_words.empty());
    if (!flaggable) continue;

    std::string type_str;
    for (const std::string& w : type_words) {
      if (!type_str.empty()) type_str += ' ';
      type_str += w;
    }
    if (type_ptr) type_str += '*';

    if (!first_init) {
      pending.push_back(PendingField{first_line, first_name, type_str});
    }
    for (std::size_t ci = 1; ci < chunks.size(); ++ci) {
      auto [b, e] = chunks[ci];
      std::string name;
      int line = 0;
      bool init = false;
      for (std::size_t m = b; m < e; ++m) {
        const std::string& s = t[stmt[m]].text;
        if (s == "=" || s == "{") {
          init = true;
          break;
        }
        if (t[stmt[m]].kind == Token::kIdent && name.empty()) {
          name = s;
          line = t[stmt[m]].line;
        }
      }
      if (!name.empty() && !init) {
        pending.push_back(PendingField{line, name, type_str});
      }
    }
  }

  if (has_ctor) return;  // a user constructor may initialize the members
  for (const PendingField& f : pending) {
    ctx.report(Rule::kUninitPod, f.line,
               "struct '" + sname + "' member '" + f.name + "' (" + f.type +
                   ") has no initializer");
  }
}

void rule_uninit_pod(const FileCtx& ctx) {
  const auto& t = ctx.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || t[i].text != "struct") continue;
    if (i > 0 && t[i - 1].text == "enum") continue;
    if (t[i + 1].kind != Token::kIdent) continue;
    const std::string sname = t[i + 1].text;
    std::size_t j = i + 2;
    if (tok_is(t, j, "final")) ++j;
    if (tok_is(t, j, ":")) {
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
    }
    if (!tok_is(t, j, "{")) continue;  // forward decl or elaborated use
    const std::size_t body_close = match_forward(t, j, "{", "}");
    if (body_close >= t.size()) continue;
    analyze_struct(ctx, sname, j + 1, body_close);
  }
}

// ---------------------------------------------------------------------------
// VL005 txn-subject
// ---------------------------------------------------------------------------

bool in_txn_scope(const std::string& path, const std::string& raw) {
  if (path.find("obs/txn_log.") != std::string::npos) return true;
  return raw.find("obs/txn_log.h\"") != std::string::npos;
}

bool all_caps_word(const std::string& s) {
  if (s.size() < 2) return false;
  for (char c : s) {
    if ((c < 'A' || c > 'Z') && c != '_') return false;
  }
  return true;
}

/// Merge a run of adjacent string literals, treating interleaved PRIxNN
/// macros as the `lld` length modifier they expand to. Returns the merged
/// content and the index one past the run.
std::pair<std::string, std::size_t> merge_literal(
    const std::vector<Token>& t, std::size_t i) {
  std::string merged;
  std::size_t j = i;
  while (j < t.size()) {
    if (t[j].kind == Token::kString) {
      merged += t[j].text;
    } else if (t[j].kind == Token::kIdent &&
               t[j].text.rfind("PRI", 0) == 0) {
      merged += "lld";
    } else {
      break;
    }
    ++j;
  }
  return {merged, j};
}

std::string first_word(const std::string& s, std::size_t from) {
  std::size_t b = from;
  while (b < s.size() && s[b] == ' ') ++b;
  std::size_t e = b;
  while (e < s.size() && s[e] != ' ' && s[e] != '\\' && s[e] != '\n') ++e;
  return s.substr(b, e - b);
}

void rule_txn_subject(const FileCtx& ctx,
                      const std::vector<std::string>& subjects,
                      bool subjects_available) {
  if (!in_txn_scope(ctx.path, ctx.raw)) return;
  const auto& t = ctx.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kString) continue;
    auto [merged, jend] = merge_literal(t, i);

    std::string subject;
    if (!merged.empty() && merged[0] == '%') {
      // A printf body is a txn line iff it leads with the 64-bit tick
      // conversion, "%lld " after PRId64 splicing.
      if (merged.rfind("%lld ", 0) == 0) {
        const std::string w = first_word(merged, 5);
        if (all_caps_word(w)) subject = w;
      }
    } else {
      // Literal passed straight to TxnLog::line(t, "SUBJECT ...").
      bool in_line_call = false;
      const std::size_t back = (i >= 8) ? i - 8 : 0;
      for (std::size_t k = i; k > back; --k) {
        if (t[k - 1].text == ")") break;
        if (t[k - 1].kind == Token::kIdent && t[k - 1].text == "line" &&
            tok_is(t, k, "(")) {
          in_line_call = true;
          break;
        }
      }
      if (in_line_call) {
        const std::string w = first_word(merged, 0);
        if (all_caps_word(w)) subject = w;
      }
    }

    if (!subject.empty()) {
      if (!subjects_available) {
        ctx.report(Rule::kTxnSubject, t[i].line,
                   "cannot verify txn subject '" + subject +
                       "': kTxnSubjects table not found in obs/txn_log.h");
      } else if (std::find(subjects.begin(), subjects.end(), subject) ==
                 subjects.end()) {
        ctx.report(Rule::kTxnSubject, t[i].line,
                   "txn subject '" + subject +
                       "' is not registered in kTxnSubjects");
      }
    }
    i = jend - 1;
  }
}

// ---------------------------------------------------------------------------
// VL006 float-accum
// ---------------------------------------------------------------------------

bool is_digest_file(const std::string& raw) {
  return raw.find("add_to_digest") != std::string::npos ||
         raw.find("Digest128") != std::string::npos ||
         raw.find("util::Hasher") != std::string::npos ||
         raw.find("Hasher&") != std::string::npos;
}

void rule_float_accum(const FileCtx& ctx) {
  if (!is_digest_file(ctx.raw)) return;
  const auto& t = ctx.toks;
  std::set<std::string> float_vars;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent ||
        (t[i].text != "double" && t[i].text != "float")) {
      continue;
    }
    std::size_t j = i + 1;
    while (j + 1 < t.size() && t[j].kind == Token::kIdent) {
      const std::string& name = t[j].text;
      const std::string& after = t[j + 1].text;
      if (after != "=" && after != "{" && after != "," && after != ";") {
        break;
      }
      float_vars.insert(name);
      if (after == ";") break;
      // Advance over the initializer to the declarator separator.
      std::size_t m = j + 1;
      int depth = 0;
      while (m < t.size()) {
        const std::string& s = t[m].text;
        if (s == "(" || s == "[" || s == "{") {
          ++depth;
        } else if (s == ")" || s == "]" || s == "}") {
          if (depth == 0) break;
          --depth;
        } else if (depth == 0 && (s == ";" )) {
          break;
        } else if (depth == 0 && s == ",") {
          break;
        }
        ++m;
      }
      if (m >= t.size() || t[m].text != ",") break;
      j = m + 1;
    }
  }
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind == Token::kIdent && float_vars.count(t[i].text) != 0 &&
        (t[i + 1].text == "+=" || t[i + 1].text == "-=")) {
      ctx.report(Rule::kFloatAccum, t[i].line,
                 "floating-point accumulation into '" + t[i].text +
                     "' in a digest-path file");
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 1: the symbol index. One lightweight pass per file collects the
// cross-file facts pass 2 needs: annotated state types with their member
// lists, the identifier set of every SnapshotBuilder writer region, fast
// path tunable registrations, and the names of EventHandle- and
// FlatMap/FlatSet-typed members (so uses in other translation units are
// still recognized).
// ---------------------------------------------------------------------------

struct TypeSpan {
  std::string name;
  int decl_line = 0;
  std::size_t body_begin = 0;  // token index just past '{'
  std::size_t body_end = 0;    // token index of the matching '}'
};

std::vector<TypeSpan> find_type_spans(const std::vector<Token>& t) {
  std::vector<TypeSpan> out;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent ||
        (t[i].text != "struct" && t[i].text != "class")) {
      continue;
    }
    if (i > 0 && t[i - 1].text == "enum") continue;
    std::size_t j = i + 1;
    while (tok_is(t, j, "[")) j = match_forward(t, j, "[", "]") + 1;
    if (j >= t.size() || t[j].kind != Token::kIdent) continue;  // anonymous
    const std::string name = t[j].text;
    const int decl_line = t[j].line;
    std::size_t k = j + 1;
    if (tok_is(t, k, "final")) ++k;
    if (tok_is(t, k, ":")) {
      while (k < t.size() && t[k].text != "{" && t[k].text != ";") ++k;
    }
    if (!tok_is(t, k, "{")) continue;  // forward decl or elaborated use
    const std::size_t close = match_forward(t, k, "{", "}");
    if (close >= t.size()) continue;
    out.push_back(TypeSpan{name, decl_line, k + 1, close});
  }
  return out;
}

bool inside_any_span(const std::vector<TypeSpan>& spans, std::size_t pos) {
  for (const TypeSpan& s : spans) {
    if (pos >= s.body_begin && pos < s.body_end) return true;
  }
  return false;
}

/// `i` indexes '<'. Returns the matching '>' treating the sequence as a
/// template argument list, or kNpos when a statement boundary or an
/// operator-shaped token intervenes first (then '<' was a comparison).
std::size_t match_angle(const std::vector<Token>& t, std::size_t i,
                        std::size_t limit) {
  int depth = 0;
  for (std::size_t k = i; k < t.size() && k < limit; ++k) {
    if (t[k].kind != Token::kPunct) continue;
    const std::string& s = t[k].text;
    if (s == "<") {
      ++depth;
    } else if (s == ">") {
      --depth;
      if (depth == 0) return k;
    } else if (s == "(") {
      k = match_forward(t, k, "(", ")");
      if (k >= t.size()) return kNpos;
    } else if (s == "[") {
      k = match_forward(t, k, "[", "]");
      if (k >= t.size()) return kNpos;
    } else if (s == ";" || s == "{" || s == "}" || s == "&&" || s == "||") {
      return kNpos;
    }
  }
  return kNpos;
}

struct IndexedMember {
  std::string name;
  std::string type;
  int line = 0;       // the declarator name's line (used for reporting)
  int stmt_line = 0;  // first line of the declaration statement
  bool exempt = false;  // derived()/serialized() pragma on its line
};

struct IndexedType {
  std::string name;
  std::string file;
  int line = 0;
  std::vector<IndexedMember> members;
};

struct FlagRead {
  enum Kind { kGuard, kElse, kTernary, kBare };
  std::string file;
  int line = 0;
  Kind kind = kBare;
};

struct IndexedFlag {
  std::string name;
  std::string file;
  int line = 0;
  std::vector<FlagRead> reads;
};

struct SymbolIndex {
  std::vector<IndexedType> state_types;
  std::set<std::string> writer_idents;
  std::size_t writer_regions = 0;
  std::vector<IndexedFlag> flags;
  std::set<std::string> handle_members;            // scalar EventHandle names
  std::set<std::string> handle_container_members;  // container-of-handle names
  std::set<std::string> flat_members;              // FlatMap/FlatSet names
};

struct FileData {
  std::string path;
  std::string raw;
  LexResult lexed;
  FilePragmas pragmas;
  std::vector<TypeSpan> spans;
};

/// Data-member extraction for VL007, generalized from the VL004 collector:
/// keeps template-typed members (angle groups collapse), skips nested type
/// bodies, methods, constructors, static/constexpr/const members, and
/// reference members (none of which are independently serializable state).
/// Multi-declarator statements (`int a, b;`) register the first declarator
/// only — the style here is one member per line.
void collect_state_members(const std::vector<Token>& t,
                           const TypeSpan& span,
                           std::vector<IndexedMember>& out) {
  struct Piece {
    std::size_t idx = 0;
    bool group = false;
  };
  std::size_t k = span.body_begin;
  while (k < span.body_end) {
    const std::string& lead = t[k].text;
    if (t[k].kind == Token::kIdent &&
        (lead == "public" || lead == "private" || lead == "protected") &&
        tok_is(t, k + 1, ":")) {
      k += 2;
      continue;
    }
    if (t[k].kind == Token::kIdent &&
        (lead == "struct" || lead == "class" || lead == "union" ||
         lead == "enum")) {
      // Nested type: skip its body and any trailing declarator wholesale.
      std::size_t j = k;
      while (j < span.body_end && t[j].text != "{" && t[j].text != ";") ++j;
      if (tok_is(t, j, "{")) {
        j = match_forward(t, j, "{", "}") + 1;
        while (j < span.body_end && t[j].text != ";") ++j;
      }
      k = j + 1;
      continue;
    }
    // Collect one statement, collapsing (), [], {} and template <> groups.
    std::vector<Piece> stmt;
    bool saw_paren = false;
    bool ended_by_body = false;
    while (k < span.body_end) {
      const std::string& s = t[k].text;
      if (t[k].kind == Token::kPunct) {
        if (s == ";") {
          ++k;
          break;
        }
        if (s == "{") {
          const std::size_t bc = match_forward(t, k, "{", "}");
          if (saw_paren) {  // method or constructor body
            k = bc + 1;
            if (k < span.body_end && t[k].text == ";") ++k;
            ended_by_body = true;
            break;
          }
          stmt.push_back({k, true});  // brace initializer
          k = bc + 1;
          continue;
        }
        if (s == "(") {
          saw_paren = true;
          stmt.push_back({k, true});
          k = match_forward(t, k, "(", ")") + 1;
          continue;
        }
        if (s == "[") {
          stmt.push_back({k, true});
          k = match_forward(t, k, "[", "]") + 1;
          continue;
        }
        if (s == "<" && !stmt.empty() && !stmt.back().group &&
            t[stmt.back().idx].kind == Token::kIdent) {
          const std::size_t ac = match_angle(t, k, span.body_end);
          if (ac != kNpos) {
            stmt.push_back({k, true});
            k = ac + 1;
            continue;
          }
        }
      }
      stmt.push_back({k, false});
      ++k;
    }
    if (stmt.empty() || ended_by_body) continue;

    auto text_at = [&](std::size_t m) -> const std::string& {
      return t[stmt[m].idx].text;
    };
    std::size_t s0 = 0;
    while (s0 < stmt.size()) {
      const std::string& s = text_at(s0);
      if (stmt[s0].group && s == "[") {  // [[attribute]]
        ++s0;
        continue;
      }
      if (s == "mutable" || s == "volatile" || s == "inline" ||
          s == "explicit") {
        ++s0;
        continue;
      }
      break;
    }
    if (s0 >= stmt.size()) continue;
    const std::string& first = text_at(s0);
    static const std::set<std::string> kSkipLead = {
        "public",    "private",  "protected", "using",    "friend",
        "typedef",   "template", "static",    "operator", "virtual",
        "~",         "requires", "alignas",   "const",    "constexpr",
        "consteval", "constinit", "extern",   "decltype"};
    if (kSkipLead.count(first) != 0) continue;
    if (first == span.name && s0 + 1 < stmt.size() && stmt[s0 + 1].group &&
        text_at(s0 + 1) == "(") {
      continue;  // constructor declaration without a body
    }
    std::size_t first_paren = kNpos;
    std::size_t first_init = kNpos;
    for (std::size_t m = s0; m < stmt.size(); ++m) {
      const std::string& s = text_at(m);
      if (stmt[m].group && s == "(" && first_paren == kNpos) first_paren = m;
      if (first_init == kNpos &&
          ((stmt[m].group && s == "{") || (!stmt[m].group && s == "="))) {
        first_init = m;
      }
    }
    if (first_paren != kNpos &&
        (first_init == kNpos || first_paren < first_init)) {
      continue;  // function declaration
    }
    const std::size_t limit = (first_init == kNpos) ? stmt.size() : first_init;
    bool is_ref = false;
    std::size_t name_idx = kNpos;
    for (std::size_t m = s0; m < limit; ++m) {
      if (stmt[m].group) continue;
      const Token& tk = t[stmt[m].idx];
      if (tk.kind == Token::kIdent) name_idx = m;
      if (tk.text == "&" || tk.text == "&&") is_ref = true;
    }
    if (is_ref || name_idx == kNpos) continue;
    std::string type_str;
    for (std::size_t m = s0; m < name_idx; ++m) {
      const std::string& s = text_at(m);
      if (stmt[m].group) {
        if (s == "<") type_str += "<>";
        continue;
      }
      if (s == "::" || s == "*") {
        type_str += s;
        continue;
      }
      if (!type_str.empty() && type_str.back() != ':') type_str += ' ';
      type_str += s;
    }
    out.push_back(IndexedMember{text_at(name_idx), type_str,
                                t[stmt[name_idx].idx].line,
                                t[stmt.front().idx].line, false});
  }
}

/// A writer region is the lexical scope from a `SnapshotBuilder <var>`
/// declaration to the close of its enclosing block. Every identifier inside
/// joins the serialized set: a member counts as covered when its name (or
/// the name with the trailing '_' stripped, for accessor-style emission)
/// appears in any region across the whole scan set.
void collect_writer_regions(const std::vector<Token>& t, SymbolIndex& idx) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || t[i].text != "SnapshotBuilder") {
      continue;
    }
    if (i > 0 && t[i - 1].text == "class") continue;  // the definition
    std::size_t j = i + 1;
    if (j >= t.size() || t[j].kind != Token::kIdent) continue;
    const std::string& after = t[j + 1].text;
    if (after != ";" && after != "{" && after != "(" && after != "=") {
      continue;  // member function qualifier, return type, etc.
    }
    ++idx.writer_regions;
    int depth = 0;
    for (std::size_t k = j; k < t.size(); ++k) {
      if (t[k].kind == Token::kPunct) {
        if (t[k].text == "{") {
          ++depth;
        } else if (t[k].text == "}") {
          if (depth == 0) break;
          --depth;
        }
      } else if (t[k].kind == Token::kIdent) {
        idx.writer_idents.insert(t[k].text);
      }
    }
  }
}

/// Declarations of EventHandle / FlatMap / FlatSet variables. Scalar
/// handles are tracked when they are members (inside a type body) or named
/// like members (trailing '_'); containers of handles and flat containers
/// are tracked wherever declared.
void collect_typed_names(const FileData& fd, SymbolIndex& idx) {
  const auto& t = fd.lexed.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    if (t[i].text == "EventHandle") {
      std::size_t j = i + 1;
      std::size_t closers = 0;
      while (tok_is(t, j, ">")) {
        ++j;
        ++closers;
      }
      if (j + 1 >= t.size() || t[j].kind != Token::kIdent) continue;
      const std::string& after = t[j + 1].text;
      if (after != ";" && after != "=" && after != "{") continue;
      const std::string& name = t[j].text;
      const bool stored = inside_any_span(fd.spans, j) ||
                          (!name.empty() && name.back() == '_');
      if (closers > 0) {
        idx.handle_container_members.insert(name);
      } else if (stored) {
        idx.handle_members.insert(name);
      }
      continue;
    }
    if ((t[i].text == "FlatMap" || t[i].text == "FlatSet") &&
        tok_is(t, i + 1, "<")) {
      const std::size_t close = match_angle(t, i + 1, t.size());
      if (close == kNpos) continue;
      const std::size_t j = close + 1;
      if (j + 1 < t.size() && t[j].kind == Token::kIdent) {
        const std::string& after = t[j + 1].text;
        if (after == ";" || after == "=" || after == "{" || after == ",") {
          idx.flat_members.insert(t[j].text);
        }
      }
    }
  }
}

void collect_fastpath_flags(const FileData& fd, SymbolIndex& idx,
                            std::vector<Finding>& findings) {
  const auto& t = fd.lexed.tokens;
  for (int pragma_line : fd.pragmas.fastpath_lines) {
    bool found = false;
    for (int cand : {pragma_line, pragma_line + 1}) {
      for (std::size_t i = 0; i + 1 < t.size() && !found; ++i) {
        if (t[i].line != cand || t[i].kind != Token::kIdent) continue;
        if (t[i].text == "true" || t[i].text == "false" ||
            t[i].text == "nullptr") {
          continue;
        }
        if (i > 0 && t[i - 1].text == "=") continue;
        const std::string& after = t[i + 1].text;
        if (after == "=" || after == ";" || after == "{") {
          idx.flags.push_back(
              IndexedFlag{t[i].text, fd.path, t[i].line, {}});
          found = true;
        }
      }
      if (found) break;
    }
    if (!found &&
        !is_suppressed(fd.pragmas, Rule::kPragmaHygiene, pragma_line)) {
      findings.push_back(
          Finding{fd.path, pragma_line, Rule::kPragmaHygiene,
                  "vine-fastpath pragma does not precede a member "
                  "declaration"});
    }
  }
}

void index_file(const FileData& fd, SymbolIndex& idx, IndexStats& stats,
                std::vector<Finding>& findings) {
  const auto& t = fd.lexed.tokens;
  // State types: attach each `vine-snapshot: state` pragma to the first
  // type whose declaration opens within the next three lines.
  for (int pragma_line : fd.pragmas.state_lines) {
    const TypeSpan* best = nullptr;
    for (const TypeSpan& s : fd.spans) {
      if (s.decl_line >= pragma_line && s.decl_line <= pragma_line + 3 &&
          (best == nullptr || s.decl_line < best->decl_line)) {
        best = &s;
      }
    }
    if (best == nullptr) {
      if (!is_suppressed(fd.pragmas, Rule::kPragmaHygiene, pragma_line)) {
        findings.push_back(
            Finding{fd.path, pragma_line, Rule::kPragmaHygiene,
                    "vine-snapshot: state pragma does not precede a "
                    "struct/class definition"});
      }
      continue;
    }
    IndexedType ty;
    ty.name = best->name;
    ty.file = fd.path;
    ty.line = best->decl_line;
    collect_state_members(t, *best, ty.members);
    for (IndexedMember& m : ty.members) {
      // The pragma may sit on the declarator's line, the line above it, or
      // (for declarations that wrap) the line above the statement start.
      for (int l : {m.line, m.line - 1, m.stmt_line, m.stmt_line - 1}) {
        if (fd.pragmas.member_exempt.count(l) != 0) {
          m.exempt = true;
          break;
        }
      }
      ++stats.members_checked;
      if (m.exempt) ++stats.members_exempt;
    }
    idx.state_types.push_back(std::move(ty));
    ++stats.state_types;
  }
  collect_writer_regions(t, idx);
  collect_typed_names(fd, idx);
  collect_fastpath_flags(fd, idx, findings);
}

// ---------------------------------------------------------------------------
// Pass 1.5: fast-path flag reads. Runs after every file is indexed (so all
// flag names are known) and classifies each branch-shaped read.
// ---------------------------------------------------------------------------

bool classify_branch_read(const std::vector<Token>& t, std::size_t p,
                          FlagRead::Kind* kind) {
  // Nearest enclosing `if (...)` whose condition parens span p.
  const std::size_t back = (p > 96) ? p - 96 : 0;
  for (std::size_t q = p; q-- > back;) {
    if (t[q].kind != Token::kIdent || t[q].text != "if" ||
        !tok_is(t, q + 1, "(")) {
      continue;
    }
    const std::size_t close = match_forward(t, q + 1, "(", ")");
    if (close <= p || close >= t.size()) continue;
    // Else arm present?
    const std::size_t r = close + 1;
    if (tok_is(t, r, "{")) {
      const std::size_t bc = match_forward(t, r, "{", "}");
      if (tok_is(t, bc + 1, "else")) {
        *kind = FlagRead::kElse;
        return true;
      }
    } else {
      std::size_t s = r;
      int depth = 0;
      while (s < t.size()) {
        const std::string& x = t[s].text;
        if (t[s].kind == Token::kPunct) {
          if (x == "(" || x == "[" || x == "{") {
            ++depth;
          } else if (x == ")" || x == "]" || x == "}") {
            --depth;
          } else if (depth == 0 && x == ";") {
            break;
          }
        }
        ++s;
      }
      if (tok_is(t, s + 1, "else")) {
        *kind = FlagRead::kElse;
        return true;
      }
    }
    // Negated early-out guard: if (!flag) return|continue|break.
    if (tok_is(t, q + 2, "!")) {
      std::size_t b = close + 1;
      if (tok_is(t, b, "{")) ++b;
      if (b < t.size() &&
          (t[b].text == "return" || t[b].text == "continue" ||
           t[b].text == "break")) {
        *kind = FlagRead::kGuard;
        return true;
      }
    }
    *kind = FlagRead::kBare;
    return true;
  }
  // Ternary select in the same statement.
  int depth = 0;
  for (std::size_t s = p + 1; s < t.size() && s < p + 96; ++s) {
    if (t[s].kind != Token::kPunct) continue;
    const std::string& x = t[s].text;
    if (x == "(" || x == "[" || x == "{") {
      ++depth;
    } else if (x == ")" || x == "]" || x == "}") {
      if (depth == 0) break;
      --depth;
    } else if (depth == 0 && x == ";") {
      break;
    } else if (depth == 0 && x == "?") {
      *kind = FlagRead::kTernary;
      return true;
    }
  }
  return false;  // a write or a copy, not a branch read
}

void scan_flag_reads(const FileData& fd, SymbolIndex& idx,
                     IndexStats& stats) {
  const auto& t = fd.lexed.tokens;
  for (IndexedFlag& flag : idx.flags) {
    for (std::size_t p = 0; p < t.size(); ++p) {
      if (t[p].kind != Token::kIdent || t[p].text != flag.name) continue;
      if (fd.path == flag.file && t[p].line == flag.line) continue;  // decl
      if (tok_is(t, p + 1, "=")) continue;  // assignment write
      FlagRead::Kind kind = FlagRead::kBare;
      if (classify_branch_read(t, p, &kind)) {
        flag.reads.push_back(FlagRead{fd.path, t[p].line, kind});
        ++stats.branch_reads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// VL007 snapshot-completeness (cross-file)
// ---------------------------------------------------------------------------

void rule_snapshot_completeness(
    const SymbolIndex& idx,
    const std::map<std::string, const FilePragmas*>& pragmas_by_file,
    std::vector<Finding>& out) {
  for (const IndexedType& st : idx.state_types) {
    const FilePragmas* pg = nullptr;
    auto pit = pragmas_by_file.find(st.file);
    if (pit != pragmas_by_file.end()) pg = pit->second;
    for (const IndexedMember& m : st.members) {
      if (m.exempt) continue;
      std::string stripped = m.name;
      if (!stripped.empty() && stripped.back() == '_') stripped.pop_back();
      if (idx.writer_idents.count(m.name) != 0 ||
          idx.writer_idents.count(stripped) != 0) {
        continue;
      }
      if (pg != nullptr &&
          is_suppressed(*pg, Rule::kSnapshotCompleteness, m.line)) {
        continue;
      }
      out.push_back(Finding{
          st.file, m.line, Rule::kSnapshotCompleteness,
          "state type '" + st.name + "' member '" + m.name + "' (" + m.type +
              ") is never serialized by any SnapshotBuilder writer"});
    }
  }
}

// ---------------------------------------------------------------------------
// VL008 handle-generation
// ---------------------------------------------------------------------------

void rule_handle_generation(const FileCtx& ctx, const SymbolIndex& idx) {
  if (path_contains_dir(ctx.path, "src/sim")) {
    return;  // the implementation layer pokes slots by design
  }
  const auto& t = ctx.toks;
  const std::set<std::string>& scalars = idx.handle_members;
  const std::set<std::string>& containers = idx.handle_container_members;
  if (scalars.empty() && containers.empty()) return;

  auto stmt_arms_without_handoff = [&](std::size_t from) {
    bool arms = false;
    for (std::size_t s = from; s < t.size(); ++s) {
      if (t[s].kind == Token::kPunct && t[s].text == ";") break;
      if (t[s].kind != Token::kIdent) continue;
      const std::string& x = t[s].text;
      if (x == "schedule_at" || x == "schedule_after" ||
          x == "schedule_many") {
        arms = true;
      }
      if (x == "reschedule_at" || x == "reschedule_after") return false;
    }
    return arms;
  };

  auto previous_use_sanctions = [&](std::size_t p, const std::string& name) {
    for (std::size_t q = p; q-- > 0;) {
      if (t[q].kind != Token::kIdent || t[q].text != name) continue;
      // Declaration site (EventHandle x; / vector<EventHandle> x;).
      if (q > 0 && (t[q - 1].text == "EventHandle" || t[q - 1].text == ">")) {
        return true;
      }
      // Generation-checked access.
      if (tok_is(t, q + 1, ".") && q + 2 < t.size() &&
          (t[q + 2].text == "cancel" || t[q + 2].text == "pending")) {
        return true;
      }
      // Hand-off into reschedule_at/after(handle, ...).
      const std::size_t back = (q > 8) ? q - 8 : 0;
      for (std::size_t b = back; b < q; ++b) {
        if (t[b].kind == Token::kIdent &&
            (t[b].text == "reschedule_at" || t[b].text == "reschedule_after")) {
          return true;
        }
      }
      return false;  // plain previous use: the re-arm loses that event
    }
    return true;  // first occurrence in this file
  };

  for (std::size_t p = 0; p < t.size(); ++p) {
    if (t[p].kind != Token::kIdent) continue;
    const std::string& name = t[p].text;
    const bool scalar = scalars.count(name) != 0;
    const bool container = containers.count(name) != 0;
    if (!scalar && !container) continue;
    if (p > 0 && (t[p - 1].text == "EventHandle" || t[p - 1].text == ">")) {
      continue;  // the declaration itself
    }
    // Re-arm: X = ...schedule_*(...) or X[...] = ...schedule_*(...).
    std::size_t eq = kNpos;
    if (tok_is(t, p + 1, "=")) {
      eq = p + 1;
    } else if (container && tok_is(t, p + 1, "[")) {
      const std::size_t bc = match_forward(t, p + 1, "[", "]");
      if (tok_is(t, bc + 1, "=")) eq = bc + 1;
    }
    if (eq != kNpos) {
      if (stmt_arms_without_handoff(eq + 1) &&
          !previous_use_sanctions(p, name)) {
        ctx.report(Rule::kHandleGeneration, t[p].line,
                   "stored EventHandle '" + name +
                       "' is re-armed without cancel()/pending() or a "
                       "reschedule hand-off — the superseded event still "
                       "fires");
      }
      continue;
    }
    // Internals access on a scalar handle: only cancel()/pending() are
    // generation-checked.
    if (scalar && tok_is(t, p + 1, ".") && p + 3 < t.size() &&
        t[p + 2].kind == Token::kIdent && tok_is(t, p + 3, "(") &&
        t[p + 2].text != "cancel" && t[p + 2].text != "pending") {
      ctx.report(Rule::kHandleGeneration, t[p].line,
                 "access to EventHandle '" + name + "' via ." +
                     t[p + 2].text +
                     "() bypasses the generation check; only "
                     "cancel()/pending() are stale-safe");
    }
  }
}

// ---------------------------------------------------------------------------
// VL009 flat-container-aliasing
// ---------------------------------------------------------------------------

const std::set<std::string>& flat_mutators() {
  static const std::set<std::string> kSet = {"insert", "emplace", "erase",
                                             "clear", "reserve"};
  return kSet;
}

bool is_iter_producing(const std::string& s) {
  return s == "find" || s == "begin" || s == "cbegin" ||
         s == "lower_bound" || s == "erase";
}

void rule_flat_aliasing(const FileCtx& ctx, const SymbolIndex& idx) {
  const auto& t = ctx.toks;
  const std::set<std::string>& tracked = idx.flat_members;
  if (tracked.empty()) return;

  struct Alias {
    std::string container;
    std::size_t bound_at = 0;
    std::size_t frame = 0;
  };
  struct Mutation {
    std::string container;
    std::size_t pos = 0;
    int line = 0;
    std::string method;
  };
  std::map<std::string, Alias> aliases;
  std::vector<std::vector<Mutation>> frames(1);
  struct RangeFor {
    std::string container;
    std::size_t end = 0;
  };
  std::vector<RangeFor> range_fors;

  std::size_t stmt_start = 0;
  std::vector<Mutation> stmt_mutations;
  std::vector<std::pair<std::string, std::string>> stmt_bindings;

  auto bind_lhs = [&](std::size_t eq, const std::string& container,
                      bool need_ref) {
    // LHS names: structured binding `auto [a, b] =` or the last identifier
    // before '='. Reference-required bindings (operator[]) must show a '&'.
    bool has_ref = false;
    std::size_t br_open = kNpos;
    std::string last_ident;
    for (std::size_t k = stmt_start; k < eq; ++k) {
      if (t[k].kind == Token::kPunct) {
        if (t[k].text == "&") has_ref = true;
        if (t[k].text == "[") br_open = k;
        continue;
      }
      if (t[k].kind == Token::kIdent) last_ident = t[k].text;
    }
    if (need_ref && !has_ref) return;
    if (br_open != kNpos) {
      const std::size_t br_close = match_forward(t, br_open, "[", "]");
      bool any = false;
      for (std::size_t k = br_open + 1; k < br_close && k < eq; ++k) {
        if (t[k].kind == Token::kIdent) {
          stmt_bindings.emplace_back(t[k].text, container);
          any = true;
        }
      }
      if (any) return;
    }
    if (!last_ident.empty()) stmt_bindings.emplace_back(last_ident, container);
  };

  auto find_stmt_eq = [&](std::size_t before) {
    for (std::size_t k = before; k-- > stmt_start;) {
      if (t[k].kind != Token::kPunct) continue;
      if (t[k].text == "=") return k;
      if (t[k].text == ";" || t[k].text == "{" || t[k].text == "}") break;
    }
    return kNpos;
  };

  for (std::size_t p = 0; p < t.size(); ++p) {
    const Token& tk = t[p];
    if (tk.kind == Token::kPunct) {
      if (tk.text == "{") {
        frames.emplace_back();
        stmt_start = p + 1;
        stmt_mutations.clear();
        stmt_bindings.clear();
        continue;
      }
      if (tk.text == "}") {
        if (frames.size() > 1) {
          frames.pop_back();
          for (auto it = aliases.begin(); it != aliases.end();) {
            if (it->second.frame >= frames.size()) {
              it = aliases.erase(it);
            } else {
              ++it;
            }
          }
        }
        while (!range_fors.empty() && range_fors.back().end <= p) {
          range_fors.pop_back();
        }
        stmt_start = p + 1;
        stmt_mutations.clear();
        stmt_bindings.clear();
        continue;
      }
      if (tk.text == ";") {
        for (const Mutation& m : stmt_mutations) frames.back().push_back(m);
        for (const auto& [nm, c] : stmt_bindings) {
          aliases[nm] = Alias{c, p, frames.size() - 1};
        }
        stmt_mutations.clear();
        stmt_bindings.clear();
        stmt_start = p + 1;
        while (!range_fors.empty() && range_fors.back().end <= p) {
          range_fors.pop_back();
        }
        continue;
      }
      continue;
    }
    if (tk.kind != Token::kIdent) continue;

    // Range-for over a tracked container.
    if (tk.text == "for" && tok_is(t, p + 1, "(")) {
      const std::size_t close = match_forward(t, p + 1, "(", ")");
      int depth = 0;
      std::size_t colon = kNpos;
      for (std::size_t k = p + 2; k < close; ++k) {
        if (t[k].kind != Token::kPunct) continue;
        const std::string& s = t[k].text;
        if (s == "(" || s == "[" || s == "{" || s == "<") {
          ++depth;
        } else if (s == ")" || s == "]" || s == "}" || s == ">") {
          --depth;
        } else if (depth == 0 && s == ";") {
          break;
        } else if (depth == 0 && s == ":") {
          colon = k;
          break;
        }
      }
      if (colon != kNpos) {
        for (std::size_t k = colon + 1; k < close; ++k) {
          if (t[k].kind != Token::kIdent || tracked.count(t[k].text) == 0) {
            continue;
          }
          std::size_t body_end = close + 1;
          if (tok_is(t, close + 1, "{")) {
            body_end = match_forward(t, close + 1, "{", "}");
          } else {
            int d2 = 0;
            while (body_end < t.size()) {
              const std::string& s = t[body_end].text;
              if (t[body_end].kind == Token::kPunct) {
                if (s == "(" || s == "[" || s == "{") {
                  ++d2;
                } else if (s == ")" || s == "]" || s == "}") {
                  --d2;
                } else if (d2 == 0 && s == ";") {
                  break;
                }
              }
              ++body_end;
            }
          }
          range_fors.push_back(RangeFor{t[k].text, body_end});
          break;
        }
      }
      continue;
    }

    // Tracked container: mutation and/or alias-producing call.
    if (tracked.count(tk.text) != 0) {
      std::string method;
      bool is_mut = false;
      if (tok_is(t, p + 1, ".") && p + 3 < t.size() &&
          t[p + 2].kind == Token::kIdent && tok_is(t, p + 3, "(")) {
        method = t[p + 2].text;
        is_mut = flat_mutators().count(method) != 0;
      } else if (tok_is(t, p + 1, "[")) {
        method = "operator[]";
        is_mut = true;
      }
      if (is_mut) {
        stmt_mutations.push_back(Mutation{tk.text, p, tk.line, method});
        for (const RangeFor& rf : range_fors) {
          if (rf.container == tk.text && p <= rf.end) {
            ctx.report(Rule::kFlatAliasing, tk.line,
                       "mutating FlatMap/FlatSet '" + tk.text + "' (" +
                           method +
                           ") inside a range-for over it — the backing "
                           "vector shifts under the loop");
            break;
          }
        }
      }
      // Alias binding: `[auto&] name = c.find(...)` / `auto& v = c[...]`.
      if (!method.empty()) {
        const std::size_t eq = find_stmt_eq(p);
        if (eq != kNpos) {
          if (method != "operator[]" && is_iter_producing(method)) {
            bind_lhs(eq, tk.text, /*need_ref=*/false);
          } else if (method == "operator[]") {
            bind_lhs(eq, tk.text, /*need_ref=*/true);
          }
        }
      }
      continue;
    }

    // Alias use after a committed mutation in a still-open frame.
    auto ait = aliases.find(tk.text);
    if (ait != aliases.end() && ait->second.bound_at < stmt_start) {
      if (tok_is(t, p + 1, "=")) {
        // `it = c.find(...)` re-binds the alias, it does not read it; the
        // RHS handling above re-registers the binding if one is produced.
        aliases.erase(ait);
        continue;
      }
      int mut_line = 0;
      std::string mut_method;
      for (const auto& fr : frames) {
        for (const Mutation& m : fr) {
          if (m.container == ait->second.container &&
              m.pos > ait->second.bound_at) {
            mut_line = m.line;
            mut_method = m.method;
          }
        }
      }
      if (mut_line != 0) {
        ctx.report(Rule::kFlatAliasing, tk.line,
                   "'" + tk.text + "' aliases into FlatMap/FlatSet '" +
                       ait->second.container + "' mutated by " + mut_method +
                       " on line " + std::to_string(mut_line) +
                       " — the alias is invalidated");
        aliases.erase(ait);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// VL010 tunable-parity (cross-file)
// ---------------------------------------------------------------------------

bool word_in_text(const std::string& text, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

void rule_tunable_parity(
    const SymbolIndex& idx,
    const std::map<std::string, const FilePragmas*>& pragmas_by_file,
    const std::vector<std::pair<std::string, std::string>>& test_corpus,
    std::vector<Finding>& out) {
  for (const IndexedFlag& flag : idx.flags) {
    auto report = [&](const std::string& file, int line, std::string msg) {
      auto pit = pragmas_by_file.find(file);
      if (pit != pragmas_by_file.end() &&
          is_suppressed(*pit->second, Rule::kTunableParity, line)) {
        return;
      }
      out.push_back(Finding{file, line, Rule::kTunableParity,
                            std::move(msg)});
    };
    bool has_reference = false;
    for (const FlagRead& r : flag.reads) {
      if (r.kind == FlagRead::kElse || r.kind == FlagRead::kTernary) {
        has_reference = true;
      }
      if (r.kind == FlagRead::kBare) {
        report(r.file, r.line,
               "branch on fast-path tunable '" + flag.name +
                   "' has no reference arm (expected an else, a ternary, "
                   "or a negated early-out)");
      }
    }
    if (!flag.reads.empty() && !has_reference) {
      report(flag.file, flag.line,
             "fast-path tunable '" + flag.name +
                 "' is never branched against a reference path");
    }
    bool mentioned = false;
    for (const auto& [path, text] : test_corpus) {
      (void)path;
      if (word_in_text(text, flag.name)) {
        mentioned = true;
        break;
      }
    }
    if (!mentioned) {
      report(flag.file, flag.line,
             "fast-path tunable '" + flag.name +
                 "' is not exercised by name in any differential test "
                 "under the test roots");
    }
  }
}

// ---------------------------------------------------------------------------
// VL011 pragma-hygiene (per file)
// ---------------------------------------------------------------------------

void rule_pragma_hygiene(const FileCtx& ctx, bool require_justification) {
  for (const PragmaIssue& issue : ctx.pragmas.issues) {
    ctx.report(Rule::kPragmaHygiene, issue.line, issue.message);
  }
  if (require_justification) {
    for (const auto& [line, justified] : ctx.pragmas.suppress_sites) {
      if (!justified) {
        ctx.report(Rule::kPragmaHygiene, line,
                   "suppress() pragma lacks a trailing justification "
                   "comment");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// VL012 unsequenced-draws (per file)
// ---------------------------------------------------------------------------

/// sim::Rng members that advance the stream.
bool is_draw_method(const std::string& s) {
  static const std::set<std::string> kDraws = {
      "next_u64", "uniform",     "uniform_below", "uniform_int",
      "bernoulli", "exponential", "normal",       "lognormal"};
  return kDraws.count(s) != 0;
}

/// Identifier-shaped tokens after which `(` opens something other than a
/// call's argument list.
bool is_paren_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "while",    "for",    "switch",        "catch",
      "return",   "sizeof",   "alignof", "decltype",     "noexcept",
      "co_return", "co_await", "throw",  "static_assert", "alignas"};
  return kKeywords.count(s) != 0;
}

void rule_unsequenced_draws(const FileCtx& ctx) {
  const auto& t = ctx.toks;
  // Generators: names declared with type Rng in this file, plus any name
  // spelled with "rng" (members declared in a header, e.g. rng_).
  std::set<std::string> declared;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || t[i].text != "Rng") continue;
    std::size_t j = i + 1;
    while (j < t.size() && (t[j].text == "&" || t[j].text == "*" ||
                            t[j].text == "const")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == Token::kIdent) declared.insert(t[j].text);
  }
  auto is_rng = [&declared](const Token& tok) {
    if (tok.kind != Token::kIdent) return false;
    if (declared.count(tok.text) != 0) return true;
    std::string lower = tok.text;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return lower.find("rng") != std::string::npos;
  };

  auto is_draw_at = [&](std::size_t k) {
    return k + 3 < t.size() && is_rng(t[k]) &&
           (t[k + 1].text == "." || t[k + 1].text == "->") &&
           is_draw_method(t[k + 2].text) && t[k + 3].text == "(";
  };
  auto is_call_at = [&](std::size_t k) {
    return k + 1 < t.size() && t[k + 1].text == "(" &&
           ((t[k].kind == Token::kIdent && !is_paren_keyword(t[k].text)) ||
            t[k].text == ">" || t[k].text == ")" || t[k].text == "]");
  };
  // Generators a token range draws from: `g.draw(`, or `g` handed to a
  // call as a whole argument (the callee presumably draws from it). Brace
  // groups are skipped: lambda bodies run later and init-lists are
  // sequenced left to right.
  auto drawn_in = [&](std::size_t from, std::size_t to) {
    std::set<std::string> names;
    for (std::size_t k = from; k < to; ++k) {
      if (t[k].text == "{") {
        k = match_forward(t, k, "{", "}");
      } else if (is_draw_at(k)) {
        names.insert(t[k].text);
      } else if (is_rng(t[k]) && k > 0 && k + 1 < t.size() &&
                 (t[k - 1].text == "(" || t[k - 1].text == ",") &&
                 (t[k + 1].text == "," || t[k + 1].text == ")")) {
        names.insert(t[k].text);
      }
    }
    return names;
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_call_at(i)) continue;
    const std::size_t open = i + 1;
    const std::size_t close = match_forward(t, open, "(", ")");
    if (close >= t.size()) continue;

    // Each draw and each nested call that draws is one unit whose order
    // against the others is unspecified; a nested call's own argument list
    // is checked when the scan reaches it. Distinct generators do not
    // interact, so units are counted per generator.
    std::map<std::string, int> units;
    for (std::size_t k = open + 1; k < close; ++k) {
      if (t[k].text == "{") {
        k = match_forward(t, k, "{", "}");
        continue;
      }
      const std::size_t call = is_draw_at(k) ? k + 2 : k;
      if (!is_call_at(call)) continue;
      const std::size_t inner_close = match_forward(t, call + 1, "(", ")");
      for (const std::string& name : drawn_in(k, inner_close)) ++units[name];
      k = inner_close;
    }
    for (const auto& [name, count] : units) {
      if (count < 2) continue;
      ctx.report(Rule::kUnsequencedDraws, t[i].line,
                 std::to_string(count) + " draws from '" + name +
                     "' in one argument list run in an unspecified order");
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void build_file(FileData& fd) {
  fd.lexed = lex(fd.raw);
  fd.pragmas = collect_pragmas(fd.lexed.comments);
  fd.spans = find_type_spans(fd.lexed.tokens);
}

void run_file_rules(const FileData& fd, const SymbolIndex& idx,
                    const std::vector<std::string>& subjects,
                    bool subjects_available, bool require_justification,
                    std::vector<Finding>& findings) {
  FileCtx ctx{fd.path, fd.raw, fd.lexed.tokens, fd.pragmas, findings};
  rule_unordered_iter(ctx);
  rule_ambient_entropy(ctx);
  rule_pointer_sort(ctx);
  rule_uninit_pod(ctx);
  rule_txn_subject(ctx, subjects, subjects_available);
  rule_float_accum(ctx);
  rule_handle_generation(ctx, idx);
  rule_flat_aliasing(ctx, idx);
  rule_pragma_hygiene(ctx, require_justification);
  rule_unsequenced_draws(ctx);
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return static_cast<int>(a.rule) < static_cast<int>(b.rule);
            });
}

}  // namespace

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

const RuleInfo& rule_info(Rule rule) {
  return kRules[static_cast<std::size_t>(rule)];
}

std::optional<Rule> rule_from_name(std::string_view name) {
  for (const RuleInfo& info : kRules) {
    if (name == info.name) return info.rule;
  }
  // Accept the rule id too ("VL007", case-insensitive) for --only.
  if (name.size() == 5) {
    std::string upper(name);
    for (char& c : upper) c = static_cast<char>(std::toupper(
        static_cast<unsigned char>(c)));
    for (const RuleInfo& info : kRules) {
      if (upper == info.id) return info.rule;
    }
  }
  return std::nullopt;
}

std::string format_findings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    const RuleInfo& info = rule_info(f.rule);
    out += f.file + ":" + std::to_string(f.line) + ": [" + info.id + " " +
           info.name + "] " + f.message + "\n  fix-it: " + info.hint + "\n";
  }
  return out;
}

Linter::Linter(LintOptions opts) : opts_(std::move(opts)) {
  if (!opts_.subjects.empty()) subjects_loaded_ = true;
}

std::vector<std::string> Linter::parse_subject_table(
    const std::string& header_text) {
  LexResult lexed = lex(header_text);
  const auto& t = lexed.tokens;
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || t[i].text != "kTxnSubjects") continue;
    std::size_t j = i + 1;
    while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
    if (!tok_is(t, j, "{")) continue;
    const std::size_t close = match_forward(t, j, "{", "}");
    for (std::size_t k = j + 1; k < close && k < t.size(); ++k) {
      if (t[k].kind == Token::kString) out.push_back(t[k].text);
    }
    break;
  }
  return out;
}

void Linter::ensure_subjects() {
  if (subjects_loaded_ || subjects_missing_) return;
  namespace fs = std::filesystem;
  std::vector<std::string> candidates;
  if (!opts_.txn_log_header.empty()) {
    candidates.push_back(opts_.txn_log_header);
  }
  for (const std::string& root : opts_.roots) {
    candidates.push_back(root + "/obs/txn_log.h");
    candidates.push_back(root + "/src/obs/txn_log.h");
  }
  for (const std::string& c : candidates) {
    std::error_code ec;
    if (!fs::is_regular_file(c, ec)) continue;
    auto subjects = parse_subject_table(read_file(c));
    if (!subjects.empty()) {
      opts_.subjects = std::move(subjects);
      subjects_loaded_ = true;
      return;
    }
  }
  subjects_missing_ = true;
}

void Linter::apply_only_filter(std::vector<Finding>& findings) const {
  if (opts_.only.empty()) return;
  findings.erase(
      std::remove_if(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       return std::find(opts_.only.begin(), opts_.only.end(),
                                        f.rule) == opts_.only.end();
                     }),
      findings.end());
}

/// Raw text of every test file VL010 checks tunable names against. When
/// test_roots is empty, derives <root>/tests and <root>/../tests from each
/// scan root (so `vine_lint --root repo src` finds repo/tests).
std::vector<std::pair<std::string, std::string>> Linter::load_test_corpus()
    const {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExts = {".h", ".hpp", ".cpp", ".cc",
                                              ".cxx"};
  std::vector<std::string> roots = opts_.test_roots;
  if (roots.empty()) {
    for (const std::string& root : opts_.roots) {
      std::error_code ec;
      const fs::path p(root);
      for (const fs::path& cand :
           {p / "tests", p.parent_path() / "tests"}) {
        if (fs::is_directory(cand, ec)) {
          roots.push_back(cand.generic_string());
        }
      }
    }
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  std::vector<std::pair<std::string, std::string>> corpus;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      corpus.emplace_back(root, read_file(root));
      continue;
    }
    if (!fs::is_directory(root, ec)) continue;
    std::vector<std::string> files;
    for (fs::recursive_directory_iterator it(root, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      if (kExts.count(it->path().extension().string()) != 0) {
        files.push_back(it->path().generic_string());
      }
    }
    std::sort(files.begin(), files.end());
    for (const std::string& f : files) corpus.emplace_back(f, read_file(f));
  }
  return corpus;
}

std::vector<Finding> Linter::lint_text(const std::string& path,
                                       const std::string& text) {
  ensure_subjects();
  FileData fd;
  fd.path = path;
  fd.raw = text;
  build_file(fd);

  stats_ = IndexStats{};
  stats_.files_indexed = 1;
  SymbolIndex idx;
  std::vector<Finding> findings;
  index_file(fd, idx, stats_, findings);
  scan_flag_reads(fd, idx, stats_);
  stats_.writer_regions = idx.writer_regions;
  stats_.writer_idents = idx.writer_idents.size();
  stats_.fastpath_flags = idx.flags.size();
  stats_.handle_members = idx.handle_members.size();
  stats_.flat_members = idx.flat_members.size();

  run_file_rules(fd, idx, opts_.subjects, subjects_loaded_,
                 opts_.require_suppress_justification, findings);
  const std::map<std::string, const FilePragmas*> by_file = {
      {fd.path, &fd.pragmas}};
  rule_snapshot_completeness(idx, by_file, findings);
  rule_tunable_parity(idx, by_file, load_test_corpus(), findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return static_cast<int>(a.rule) < static_cast<int>(b.rule);
            });
  apply_only_filter(findings);
  return findings;
}

std::vector<Finding> Linter::run() {
  namespace fs = std::filesystem;
  ensure_subjects();

  static const std::set<std::string> kExts = {".h", ".hpp", ".cpp", ".cc",
                                              ".cxx"};
  std::vector<std::string> files;
  for (const std::string& root : opts_.roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(root, ec)) continue;
    for (fs::recursive_directory_iterator it(root, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (kExts.count(ext) != 0) {
        files.push_back(it->path().generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  files_scanned_ = files.size();

  // Pass 1: lex, collect pragmas, and index every file.
  std::vector<FileData> fds(files.size());
  stats_ = IndexStats{};
  stats_.files_indexed = files.size();
  SymbolIndex idx;
  std::vector<Finding> findings;
  for (std::size_t i = 0; i < files.size(); ++i) {
    fds[i].path = files[i];
    fds[i].raw = read_file(files[i]);
    build_file(fds[i]);
    index_file(fds[i], idx, stats_, findings);
  }
  for (FileData& fd : fds) scan_flag_reads(fd, idx, stats_);
  stats_.writer_regions = idx.writer_regions;
  stats_.writer_idents = idx.writer_idents.size();
  stats_.fastpath_flags = idx.flags.size();
  stats_.handle_members = idx.handle_members.size();
  stats_.flat_members = idx.flat_members.size();

  // Pass 2: per-file rules, then the cross-file rules against the index.
  std::map<std::string, const FilePragmas*> by_file;
  for (const FileData& fd : fds) by_file.emplace(fd.path, &fd.pragmas);
  for (const FileData& fd : fds) {
    run_file_rules(fd, idx, opts_.subjects, subjects_loaded_,
                   opts_.require_suppress_justification, findings);
  }
  rule_snapshot_completeness(idx, by_file, findings);
  rule_tunable_parity(idx, by_file, load_test_corpus(), findings);

  sort_findings(findings);
  apply_only_filter(findings);
  return findings;
}

}  // namespace hepvine::lint
