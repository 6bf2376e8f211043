#include "lint_core.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace memfp::lint {
namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool is(const Token& t, std::string_view s) { return t.text == s; }

bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

/// Index of the token matching the opener at `open` ('(' / '[' / '{'),
/// or tokens.size() when unbalanced.
std::size_t match_balanced(const std::vector<Token>& toks, std::size_t open,
                           std::string_view opener, std::string_view closer) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == opener) ++depth;
    if (toks[i].text == closer && --depth == 0) return i;
  }
  return toks.size();
}

const std::set<std::string, std::less<>>& assign_ops() {
  static const std::set<std::string, std::less<>> kOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
  return kOps;
}

/// Keywords that can open a statement but never a declaration's type.
const std::set<std::string, std::less<>>& stmt_keywords() {
  static const std::set<std::string, std::less<>> kWords = {
      "return", "delete", "throw",    "goto",  "case",  "break",
      "continue", "else",  "do",      "new",   "using", "typedef",
      "if",       "while", "switch",  "public", "private", "protected"};
  return kWords;
}

/// Type-prefix keywords a declaration may start with.
const std::set<std::string, std::less<>>& type_keywords() {
  static const std::set<std::string, std::less<>> kWords = {
      "const", "constexpr", "static", "auto",     "unsigned", "signed",
      "long",  "short",     "struct", "volatile", "typename", "register"};
  return kWords;
}

/// Skips a balanced template argument list; `i` points at '<'. Returns the
/// index one past the matching close ('>>' closes two levels).
std::size_t skip_template(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") ++depth;
    if (t == ">") --depth;
    if (t == ">>") depth -= 2;
    if (depth <= 0 && t != "<") return i + 1;
  }
  return toks.size();
}

// ---------------------------------------------------------------------------
// Lambda parsing (parallel-capture, rng-discipline)
// ---------------------------------------------------------------------------

struct Capture {
  std::string name;     ///< empty for the defaults [&] / [=]
  bool by_ref = false;
  bool has_init = false;
  bool init_has_fork = false;  ///< init-capture expression calls fork()
};

struct Lambda {
  bool default_ref = false;
  bool default_copy = false;
  bool captures_this = false;
  std::vector<Capture> captures;
  std::vector<std::string> params;
  std::size_t intro = 0;       ///< index of '['
  std::size_t body_begin = 0;  ///< index of '{'
  std::size_t body_end = 0;    ///< index of matching '}'
};

/// Tries to parse a lambda whose introducer '[' is at `i`. Returns false
/// when the bracket is a subscript or the shape doesn't match.
bool parse_lambda(const std::vector<Token>& toks, std::size_t i,
                  Lambda& out) {
  if (i >= toks.size() || !is(toks[i], "[")) return false;
  // A lambda introducer can only appear where an expression starts; a
  // subscript always follows a value. This filter is heuristic but tight
  // enough: '[' after ident / ')' / ']' is a subscript.
  if (i > 0) {
    const Token& prev = toks[i - 1];
    if (is_ident(prev) || prev.kind == TokKind::kNumber ||
        is(prev, ")") || is(prev, "]")) {
      return false;
    }
  }
  const std::size_t close = match_balanced(toks, i, "[", "]");
  if (close >= toks.size()) return false;
  out = Lambda{};
  out.intro = i;
  // Split the capture list on top-level commas.
  std::size_t entry = i + 1;
  for (std::size_t j = i + 1; j <= close; ++j) {
    const bool at_end = j == close;
    if (!at_end && !is(toks[j], ",")) continue;
    if (entry < j) {
      Capture cap;
      std::size_t k = entry;
      if (is(toks[k], "&")) {
        cap.by_ref = true;
        ++k;
      } else if (is(toks[k], "=")) {
        out.default_copy = true;
        k = j;
      } else if (is(toks[k], "*")) {
        ++k;  // *this
      }
      if (k < j && is(toks[k], "this")) {
        out.captures_this = true;
        k = j;
      } else if (k < j && is_ident(toks[k])) {
        cap.name = toks[k].text;
        ++k;
        if (k < j && is(toks[k], "=")) {
          cap.has_init = true;
          for (std::size_t m = k + 1; m < j; ++m) {
            if (is(toks[m], "fork")) cap.init_has_fork = true;
          }
          k = j;
        }
      }
      if (k <= j && (cap.by_ref || !cap.name.empty())) {
        if (cap.by_ref && cap.name.empty()) {
          out.default_ref = true;
        } else {
          out.captures.push_back(std::move(cap));
        }
      }
    }
    entry = j + 1;
  }
  // Parameter list (optional for captureless-arg lambdas).
  std::size_t at = close + 1;
  if (at < toks.size() && is(toks[at], "(")) {
    const std::size_t params_close = match_balanced(toks, at, "(", ")");
    if (params_close >= toks.size()) return false;
    // Parameter name = last identifier of each top-level comma segment.
    std::string last;
    int depth = 0;
    for (std::size_t j = at + 1; j <= params_close; ++j) {
      const std::string& t = toks[j].text;
      if (t == "(" || t == "<" || t == "[") ++depth;
      if (t == ")" || t == ">" || t == "]") --depth;
      if (t == ">>") depth -= 2;
      if ((j == params_close && depth < 0) || (t == "," && depth == 0)) {
        if (!last.empty()) out.params.push_back(last);
        last.clear();
        continue;
      }
      if (is_ident(toks[j]) && depth == 0) last = toks[j].text;
    }
    at = params_close + 1;
  }
  // Skip specifiers / trailing return type up to the body.
  while (at < toks.size() && !is(toks[at], "{")) {
    if (is(toks[at], ";") || is(toks[at], ")") || is(toks[at], ",")) {
      return false;  // not a lambda after all (e.g. attribute, array decl)
    }
    ++at;
  }
  if (at >= toks.size()) return false;
  out.body_begin = at;
  out.body_end = match_balanced(toks, at, "{", "}");
  return out.body_end < toks.size();
}

/// Names declared inside [begin, end) — locals, for-init/range-for
/// variables, structured bindings, nested-lambda parameters. Heuristic:
/// at each statement boundary, a non-empty type prefix followed by
/// `name` and a declarator-ish token declares `name`.
std::set<std::string> collect_locals(const std::vector<Token>& toks,
                                     std::size_t begin, std::size_t end) {
  std::set<std::string> locals;
  const auto try_decl_at = [&](std::size_t j) {
    int prefix = 0;
    while (j < end) {
      const Token& t = toks[j];
      if (stmt_keywords().count(t.text) != 0) return;
      if (type_keywords().count(t.text) != 0) {
        ++prefix;
        ++j;
        continue;
      }
      if (is(t, "::")) {
        ++j;
        continue;
      }
      if (is(t, "&") || is(t, "*") || is(t, "&&")) {
        if (prefix == 0) return;
        ++j;
        continue;
      }
      if (is(t, "[") && prefix > 0) {
        // Structured binding: auto& [k, v] = / :
        const std::size_t close = match_balanced(toks, j, "[", "]");
        for (std::size_t m = j + 1; m < close && m < end; ++m) {
          if (is_ident(toks[m])) locals.insert(toks[m].text);
        }
        return;
      }
      if (!is_ident(t)) return;
      if (j + 1 >= end) return;
      const std::string& next = toks[j + 1].text;
      if (next == "<") {
        const std::size_t after = skip_template(toks, j + 1);
        if (after >= end) return;
        ++prefix;
        j = after;
        continue;
      }
      if (is_ident(toks[j + 1]) || next == "::" || next == "&" ||
          next == "*" || next == "&&") {
        ++prefix;
        ++j;
        continue;
      }
      if (prefix > 0 && (next == "=" || next == ";" || next == "{" ||
                         next == "(" || next == "[" || next == ":" ||
                         next == ",")) {
        locals.insert(t.text);
      }
      return;
    }
  };
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (is(t, "{") || is(t, "}") || is(t, ";")) {
      try_decl_at(i + 1);
    } else if (is(t, "for") && i + 1 < end && is(toks[i + 1], "(")) {
      try_decl_at(i + 2);
    } else if (is(t, "[")) {
      Lambda nested;
      if (parse_lambda(toks, i, nested)) {
        for (const std::string& p : nested.params) locals.insert(p);
      }
    }
  }
  try_decl_at(begin);  // token right after the body '{' is also a boundary
  if (begin < end && is(toks[begin], "{")) try_decl_at(begin + 1);
  return locals;
}

/// Lambdas passed as arguments to the deterministic pool's entry points.
/// For parallel_for_ordered only the first (the body) runs on the pool; its
/// consume lambda runs in order on the calling thread and may write shared
/// state.
std::vector<Lambda> parallel_lambdas(const std::vector<Token>& toks) {
  std::vector<Lambda> out;
  std::set<std::size_t> seen;  // by introducer index
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    const std::string& name = toks[i].text;
    const bool ordered = name == "parallel_for_ordered";
    if (!ordered && name != "parallel_for" && name != "parallel_for_chunks" &&
        name != "parallel_reduce") {
      continue;
    }
    if (!is(toks[i + 1], "(")) continue;
    const std::size_t close = match_balanced(toks, i + 1, "(", ")");
    for (std::size_t j = i + 2; j < close; ++j) {
      if (!is(toks[j], "[") || seen.count(j) != 0) continue;
      Lambda lambda;
      if (parse_lambda(toks, j, lambda)) {
        seen.insert(j);
        out.push_back(std::move(lambda));
        if (ordered) break;
        j = out.back().body_end;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-file lint state
// ---------------------------------------------------------------------------

struct Allow {
  int line = 0;
  std::string rule;
  bool used = false;
};

struct Linter {
  const ProjectGraph* graph = nullptr;
  const FileNode* file = nullptr;
  std::vector<Allow> allows;
  std::vector<Violation> violations;

  const std::vector<Token>& toks() const { return file->lexed.tokens; }

  void report(int line, int col, const std::string& rule,
              std::string message) {
    for (Allow& allow : allows) {
      if (allow.rule == rule &&
          (allow.line == line || allow.line == line - 1)) {
        allow.used = true;
        return;
      }
    }
    violations.push_back({file->path, line, col, rule, std::move(message)});
  }

  void report(const Token& t, const std::string& rule, std::string message) {
    report(t.line, t.col, rule, std::move(message));
  }
};

bool known_rule(const std::string& rule) {
  const auto& names = rule_names();
  return std::find(names.begin(), names.end(), rule) != names.end();
}

/// Parses `memfp-lint: allow(<rule>): <justification>` suppressions out of
/// the comment stream. Malformed suppressions are violations themselves.
void collect_allows(Linter& lint) {
  for (const auto& [line, text] : lint.file->lexed.comments) {
    const std::size_t tag = text.find("memfp-lint:");
    if (tag == std::string::npos) continue;
    const std::size_t open = text.find("allow(", tag);
    const std::size_t close =
        open == std::string::npos ? std::string::npos
                                  : text.find(')', open + 6);
    if (open == std::string::npos || close == std::string::npos) {
      lint.violations.push_back(
          {lint.file->path, line, 1, "lint-syntax",
           "malformed memfp-lint comment; expected "
           "'memfp-lint: allow(<rule>): <justification>'"});
      continue;
    }
    const std::string rule = text.substr(open + 6, close - open - 6);
    if (!known_rule(rule)) {
      lint.violations.push_back({lint.file->path, line, 1, "unknown-rule",
                                 "allow() names unknown rule '" + rule +
                                     "'"});
      continue;
    }
    std::size_t j = close + 1;
    while (j < text.size() && (text[j] == ' ' || text[j] == ':')) ++j;
    const bool has_colon = text.find(':', close) != std::string::npos;
    if (!has_colon || j >= text.size()) {
      lint.violations.push_back(
          {lint.file->path, line, 1, "missing-justification",
           "allow(" + rule + ") requires a justification: "
           "'memfp-lint: allow(" + rule + "): <why this is safe>'"});
      continue;
    }
    lint.allows.push_back({line, rule, false});
  }
}

// ---------------------------------------------------------------------------
// Per-file rules (token stream)
// ---------------------------------------------------------------------------

void rule_unseeded_random(Linter& lint) {
  const FileNode& f = *lint.file;
  if (!(f.in_src || f.in_tests || f.in_bench)) return;
  if (f.path == "src/common/rng.h" || f.path == "src/common/rng.cc") {
    return;  // the one sanctioned randomness source
  }
  const std::vector<Token>& toks = lint.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    const std::string& t = toks[i].text;
    const char* found = nullptr;
    if (t == "random_device") {
      found = "std::random_device";
    } else if (t == "mt19937" || t == "mt19937_64") {
      found = "std::mt19937";
    } else if (t == "default_random_engine") {
      found = "std::default_random_engine";
    } else if (t == "srand") {
      found = "srand()";
    } else if (t == "rand" && i + 1 < toks.size() && is(toks[i + 1], "(")) {
      found = "rand()";
    }
    if (found != nullptr) {
      lint.report(toks[i], "unseeded-random",
                  std::string(found) +
                      " breaks seed-reproducibility; draw from memfp::Rng "
                      "(common/rng.h) instead");
    }
  }
}

void rule_wall_clock(Linter& lint) {
  if (!lint.file->in_src) return;
  const std::vector<Token>& toks = lint.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    const std::string& t = toks[i].text;
    const char* found = nullptr;
    for (const char* clock : {"system_clock", "steady_clock",
                              "high_resolution_clock", "gettimeofday",
                              "clock_gettime"}) {
      if (t == clock) {
        found = clock;
        break;
      }
    }
    if (found == nullptr && (t == "time" || t == "clock") &&
        i + 1 < toks.size() && is(toks[i + 1], "(") &&
        (i == 0 || (!is(toks[i - 1], ".") && !is(toks[i - 1], "->")))) {
      found = t == "time" ? "time()" : "clock()";
    }
    if (found != nullptr) {
      lint.report(toks[i], "wall-clock",
                  std::string(found) +
                      " reads the wall clock; model-affecting code runs on "
                      "SimTime (common/time.h) so runs replay exactly");
    }
  }
}

void rule_bare_assert(Linter& lint) {
  if (!lint.file->in_src) return;
  const std::vector<Token>& toks = lint.toks();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (is_ident(toks[i]) && is(toks[i], "assert") && is(toks[i + 1], "(")) {
      lint.report(toks[i], "bare-assert",
                  "assert() vanishes under NDEBUG (the default build); use "
                  "MEMFP_CHECK or MEMFP_DCHECK from common/check.h");
    }
  }
}

void rule_naked_new(Linter& lint) {
  if (!lint.file->in_src) return;
  const std::vector<Token>& toks = lint.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    if (is(toks[i], "new")) {
      lint.report(toks[i], "naked-new",
                  "naked new; use std::make_unique/std::make_shared or a "
                  "container");
    } else if (is(toks[i], "delete")) {
      const bool deleted_fn = i > 0 && is(toks[i - 1], "=");
      const bool op_decl = i > 0 && is(toks[i - 1], "operator");
      if (!deleted_fn && !op_decl) {
        lint.report(toks[i], "naked-new",
                    "naked delete; owning pointers belong in "
                    "std::unique_ptr");
      }
    }
  }
}

void rule_thread_spawn(Linter& lint) {
  const FileNode& f = *lint.file;
  if (!f.in_src) return;
  if (f.path == "src/common/thread_pool.h" ||
      f.path == "src/common/thread_pool.cc") {
    return;  // the pool is the one sanctioned thread owner
  }
  const std::vector<Token>& toks = lint.toks();
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (is(toks[i], "std") && is(toks[i + 1], "::") &&
        is(toks[i + 2], "thread")) {
      // std::thread::id / ::hardware_concurrency are not spawns.
      if (i + 3 < toks.size() && is(toks[i + 3], "::")) continue;
      lint.report(toks[i], "thread-spawn",
                  "std::thread outside common/thread_pool.*; all "
                  "parallelism goes through ThreadPool so determinism "
                  "and shutdown stay centralized");
    }
  }
}

void rule_pragma_once(Linter& lint) {
  const FileNode& f = *lint.file;
  if (!f.header || !(f.in_src || f.in_tests || f.in_bench)) return;
  const std::vector<Token>& toks = lint.toks();
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (is(toks[i], "#") && is(toks[i + 1], "pragma") &&
        is(toks[i + 2], "once")) {
      return;
    }
  }
  // Anchor at the first token so a suppression comment above it works.
  const int line = toks.empty() ? 1 : toks.front().line;
  lint.report(line, 1, "pragma-once", "header is missing #pragma once");
}

struct BannedInclude {
  const char* name;
  bool headers_only;
  const char* why;
};

void rule_banned_include(Linter& lint) {
  const FileNode& f = *lint.file;
  if (!f.in_src) return;
  static const BannedInclude kBanned[] = {
      {"random", false,
       "<random> distributions are implementation-defined; use "
       "memfp::Rng (common/rng.h)"},
      {"cassert", false,
       "<cassert> is stripped in release builds; use common/check.h"},
      {"assert.h", false,
       "<assert.h> is stripped in release builds; use common/check.h"},
      {"ctime", false,
       "<ctime> is wall-clock; the library runs on SimTime "
       "(common/time.h)"},
      {"iostream", true,
       "<iostream> in a header drags iostream static initializers into "
       "every TU; log via common/logging.h"},
  };
  for (const IncludeDirective& inc : f.lexed.includes) {
    if (!inc.angled) continue;
    for (const BannedInclude& banned : kBanned) {
      if (inc.path == banned.name && (!banned.headers_only || f.header)) {
        lint.report(inc.line, inc.col, "banned-include",
                    "#include <" + inc.path + "> is banned: " + banned.why);
      }
    }
  }
}

void rule_arch_intrinsics(Linter& lint) {
  const FileNode& f = *lint.file;
  if (!(f.in_src || f.in_tests || f.in_bench)) return;
  if (f.path.starts_with("src/common/simd")) {
    return;  // the dispatch seam: the per-lane kernel TUs and their headers
  }
  static const char* kBannedIncludes[] = {
      "immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
      "smmintrin.h", "tmmintrin.h", "nmmintrin.h", "wmmintrin.h",
      "ammintrin.h", "arm_neon.h",  "arm_sve.h",
  };
  static const char* kBannedPrefixes[] = {
      "_mm_", "_mm256_", "_mm512_", "__m128", "__m256", "__m512",
      "vld1",  "vst1",
  };
  static const char* kBannedTokens[] = {"float32x4_t", "float64x2_t"};
  for (const IncludeDirective& inc : f.lexed.includes) {
    for (const char* banned : kBannedIncludes) {
      if (inc.path == banned) {
        lint.report(inc.line, inc.col, "arch-intrinsics",
                    "#include <" + inc.path +
                        "> outside src/common/simd*: arch-specific "
                        "loops go behind the simd::KernelTable dispatch "
                        "seam (common/simd.h)");
      }
    }
  }
  int last_line = 0;  // one report per line: `__m256d v = _mm256_...()` is
                      // one finding, and one allow() waives the line
  for (const Token& t : lint.toks()) {
    if (!is_ident(t) || t.line == last_line) continue;
    const char* found = nullptr;
    for (const char* prefix : kBannedPrefixes) {
      if (t.text.starts_with(prefix)) {
        found = prefix;
        break;
      }
    }
    if (found == nullptr) {
      for (const char* token : kBannedTokens) {
        if (t.text == token) {
          found = token;
          break;
        }
      }
    }
    if (found != nullptr) {
      last_line = t.line;
      lint.report(t, "arch-intrinsics",
                  std::string("raw ") + found +
                      "… intrinsic outside src/common/simd*: port the loop "
                      "to a KernelTable entry so every architecture lane "
                      "stays behind one dispatch seam (common/simd.h)");
    }
  }
}

// ---------------------------------------------------------------------------
// layering — the module DAG is machine-checked
// ---------------------------------------------------------------------------

/// The sanctioned DAG: common <- dram <- {sim, features} <- ml <-
/// {core, mlops, baseline}. A module may include itself and any strictly
/// lower layer; within a layer only the listed lateral edges are legal.
const std::map<std::string, int, std::less<>>& module_layers() {
  static const std::map<std::string, int, std::less<>> kLayers = {
      {"common", 0}, {"dram", 1},  {"sim", 2},      {"features", 2},
      {"ml", 3},     {"core", 4},  {"mlops", 4},    {"baseline", 4},
  };
  return kLayers;
}

const std::set<std::pair<std::string, std::string>>& lateral_edges() {
  // features->sim: DimmTrace is the shared telemetry shape both layers
  // speak. core->baseline: the pipeline evaluates the heuristic baseline.
  // mlops->core: CI/CD drives the experiment pipeline. core->mlops: the
  // campaign engine consumes mlops policy accounting header-inline (the
  // link graph stays acyclic: memfp_mlops links memfp_core, never the
  // reverse). The mlops<->core pair is cyclic at module granularity by
  // design; find_include_cycles still rejects any file-level cycle.
  static const std::set<std::pair<std::string, std::string>> kEdges = {
      {"features", "sim"},
      {"core", "baseline"},
      {"mlops", "core"},
      {"core", "mlops"}};
  return kEdges;
}

std::string dag_spelling() {
  return "common <- dram <- {sim, features} <- ml <- {core, mlops, "
         "baseline}";
}

void rule_layering(Linter& lint) {
  const FileNode& f = *lint.file;
  if (!f.in_src) return;
  const auto& layers = module_layers();
  const auto self = layers.find(f.module);
  if (self == layers.end()) {
    const int line = f.lexed.tokens.empty() ? 1 : f.lexed.tokens[0].line;
    lint.report(line, 1, "layering",
                "module '" + f.module + "' is not in the layering DAG (" +
                    dag_spelling() +
                    "); add it to module_layers() in tools/lint with a "
                    "deliberate layer");
    return;
  }
  for (const IncludeDirective& inc : f.lexed.includes) {
    if (inc.angled) continue;
    const std::size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // not a module-path include
    const std::string target = inc.path.substr(0, slash);
    if (target == f.module) continue;
    const auto other = layers.find(target);
    if (other == layers.end()) {
      lint.report(inc.line, inc.col, "layering",
                  "#include \"" + inc.path + "\": '" + target +
                      "' is not a module in the layering DAG (" +
                      dag_spelling() + ")");
      continue;
    }
    if (other->second > self->second) {
      lint.report(inc.line, inc.col, "layering",
                  "#include \"" + inc.path + "\" climbs the module DAG: " +
                      f.module + " (layer " +
                      std::to_string(self->second) + ") must not include " +
                      target + " (layer " + std::to_string(other->second) +
                      "); the DAG is " + dag_spelling());
      continue;
    }
    if (other->second == self->second &&
        lateral_edges().count({f.module, target}) == 0) {
      lint.report(inc.line, inc.col, "layering",
                  "#include \"" + inc.path + "\": sibling modules " +
                      f.module + " -> " + target +
                      " have no sanctioned edge in the module DAG (" +
                      dag_spelling() +
                      "); sanctioned lateral edges: features->sim, "
                      "core->baseline, mlops->core, core->mlops");
    }
  }
}

/// File-level include cycles (same-module header cycles included): DFS in
/// sorted file order, reporting the full offending include chain at the
/// back edge. Runs once per graph; violations are attached to the file
/// whose include closes the cycle so a local allow() can waive it.
void find_include_cycles(
    const ProjectGraph& graph,
    std::map<std::string, std::vector<Violation>>& by_file) {
  const std::vector<FileNode>& files = graph.files();
  enum class Mark { kWhite, kGrey, kBlack };
  std::vector<Mark> marks(files.size(), Mark::kWhite);
  std::vector<int> stack;

  const auto dfs = [&](auto&& dfs_ref, int at) -> void {
    marks[static_cast<std::size_t>(at)] = Mark::kGrey;
    stack.push_back(at);
    const FileNode& node = files[static_cast<std::size_t>(at)];
    for (std::size_t k = 0; k < node.resolved.size(); ++k) {
      const int next = node.resolved[k];
      if (next < 0) continue;
      const Mark mark = marks[static_cast<std::size_t>(next)];
      if (mark == Mark::kBlack) continue;
      if (mark == Mark::kGrey) {
        // Back edge: the chain from `next` around to `at` plus this edge.
        std::ostringstream chain;
        const auto from =
            std::find(stack.begin(), stack.end(), next);
        for (auto it = from; it != stack.end(); ++it) {
          chain << files[static_cast<std::size_t>(*it)].path << " -> ";
        }
        chain << files[static_cast<std::size_t>(next)].path;
        const IncludeDirective& inc = node.lexed.includes[k];
        by_file[node.path].push_back(
            {node.path, inc.line, inc.col, "layering",
             "include cycle: " + chain.str() +
                 "; the include DAG must stay acyclic"});
        continue;
      }
      dfs_ref(dfs_ref, next);
    }
    stack.pop_back();
    marks[static_cast<std::size_t>(at)] = Mark::kBlack;
  };
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].in_src && marks[i] == Mark::kWhite) {
      dfs(dfs, static_cast<int>(i));
    }
  }
}

// ---------------------------------------------------------------------------
// unordered-iter — now cross-TU via the include DAG's symbol table
// ---------------------------------------------------------------------------

struct UnorderedName {
  std::string file;  ///< declaring file
  int line = 0;
};

void rule_unordered_iter(Linter& lint) {
  const FileNode& f = *lint.file;
  if (!f.in_src) return;
  // Names visible here: declared in this file, or in any transitively
  // included header. Own-file declarations win the diagnostic location.
  std::map<std::string, UnorderedName, std::less<>> names;
  const int self = lint.graph->find(f.path);
  for (const int r : lint.graph->reachable(self)) {
    const FileNode& inc = lint.graph->files()[static_cast<std::size_t>(r)];
    for (const UnorderedDecl& d : inc.unordered) {
      names.emplace(d.name, UnorderedName{inc.path, d.line});
    }
  }
  for (const UnorderedDecl& d : f.unordered) {
    names.insert_or_assign(d.name, UnorderedName{f.path, d.line});
  }
  if (names.empty()) return;

  const std::vector<Token>& toks = lint.toks();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is(toks[i], "for") || !is(toks[i + 1], "(")) continue;
    const std::size_t close = match_balanced(toks, i + 1, "(", ")");
    if (close >= toks.size()) continue;
    // Find the range-for ':' — the first depth-1 ';' means a classic for.
    std::size_t colon = npos;
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      const std::string& t = toks[j].text;
      if (t == "(") ++depth;
      if (t == ")") --depth;
      if (depth != 1) continue;
      if (t == ";") break;
      if (t == ":") {
        colon = j;
        break;
      }
    }
    if (colon == npos) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (!is_ident(toks[j])) continue;
      const auto hit = names.find(toks[j].text);
      if (hit == names.end()) continue;
      const bool member_access =
          j > colon + 1 && (is(toks[j - 1], ".") || is(toks[j - 1], "->"));
      // Bare names only bind to declarations from this file or a
      // module-sibling (its own header); a bare local in another module
      // shadowing a far-away member is not a finding.
      const bool near_decl =
          hit->second.file == f.path ||
          module_of(hit->second.file) == f.module;
      if (!member_access && !near_decl) continue;
      std::string where =
          hit->second.file == f.path
              ? "declared at line " + std::to_string(hit->second.line)
              : "declared at " + hit->second.file + ":" +
                    std::to_string(hit->second.line);
      lint.report(toks[i], "unordered-iter",
                  "iterating '" + toks[j].text +
                      "' (unordered container, " + where +
                      ") has unspecified order; sort first, or allow() "
                      "with a justification that the consumer is "
                      "order-independent");
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// parallel-capture — shared-state writes inside pool lambdas
// ---------------------------------------------------------------------------

void rule_parallel_capture(Linter& lint) {
  const FileNode& f = *lint.file;
  if (!f.in_src) return;
  if (f.path == "src/common/thread_pool.h" ||
      f.path == "src/common/thread_pool.cc") {
    return;  // the pool's own plumbing (index-slotted partials) is the seam
  }
  const std::vector<Token>& toks = lint.toks();
  for (const Lambda& lambda : parallel_lambdas(toks)) {
    const std::set<std::string> locals =
        collect_locals(toks, lambda.body_begin, lambda.body_end);
    std::set<std::string> ref_caps;
    std::set<std::string> copy_caps;
    for (const Capture& c : lambda.captures) {
      (c.by_ref ? ref_caps : copy_caps).insert(c.name);
    }
    const std::set<std::string> params(lambda.params.begin(),
                                       lambda.params.end());
    const auto indexish = [&](const std::string& name) {
      return params.count(name) != 0 || locals.count(name) != 0;
    };
    for (std::size_t i = lambda.body_begin + 1; i < lambda.body_end; ++i) {
      if (!is_ident(toks[i])) continue;
      if (i > 0 && (is(toks[i - 1], ".") || is(toks[i - 1], "->") ||
                    is(toks[i - 1], "::"))) {
        continue;  // not the head of a postfix chain
      }
      if (stmt_keywords().count(toks[i].text) != 0 ||
          type_keywords().count(toks[i].text) != 0) {
        continue;
      }
      // Walk the postfix chain: members and subscripts.
      std::size_t j = i + 1;
      bool indexed = false;
      std::string last_member;
      while (j < lambda.body_end) {
        if ((is(toks[j], ".") || is(toks[j], "->")) && j + 1 < toks.size() &&
            is_ident(toks[j + 1])) {
          last_member = toks[j + 1].text;
          j += 2;
          continue;
        }
        if (is(toks[j], "[")) {
          const std::size_t close = match_balanced(toks, j, "[", "]");
          for (std::size_t m = j + 1; m < close; ++m) {
            if (is_ident(toks[m]) && indexish(toks[m].text)) indexed = true;
          }
          j = close + 1;
          continue;
        }
        break;
      }
      if (j >= lambda.body_end) continue;
      bool write = false;
      const char* how = nullptr;
      if (assign_ops().count(toks[j].text) != 0) {
        write = true;
        how = "assigned";
      } else if ((last_member == "push_back" ||
                  last_member == "emplace_back") &&
                 is(toks[j], "(")) {
        write = true;
        how = "appended to";
      } else if (is(toks[j], "++") || is(toks[j], "--") ||
                 (i > 0 && (is(toks[i - 1], "++") || is(toks[i - 1], "--")))) {
        write = true;
        how = "incremented";
      }
      if (!write || indexed) continue;
      const std::string& name = toks[i].text;
      if (locals.count(name) != 0 || params.count(name) != 0 ||
          copy_caps.count(name) != 0) {
        continue;
      }
      const bool explicit_ref = ref_caps.count(name) != 0;
      const bool implicit_shared =
          lambda.default_ref || lambda.captures_this;
      if (!explicit_ref && !implicit_shared) continue;
      lint.report(toks[i], "parallel-capture",
                  "'" + name + "' is " + how +
                      " inside a ThreadPool parallel body but is shared "
                      "across tasks (captured by reference) and not "
                      "indexed by the induction variable — an "
                      "order-dependent race the byte-identical contract "
                      "forbids; write into an index-slotted output or use "
                      "parallel_reduce");
    }
  }
}

// ---------------------------------------------------------------------------
// rng-discipline — every stream flows through Rng::fork
// ---------------------------------------------------------------------------

void rule_rng_discipline(Linter& lint) {
  const FileNode& f = *lint.file;
  if (!f.in_src) return;
  if (f.path == "src/common/rng.h" || f.path == "src/common/rng.cc") return;
  const std::vector<Token>& toks = lint.toks();

  // Paren depth per token (computed once; parameter-list detection).
  std::vector<int> depth(toks.size(), 0);
  int d = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is(toks[i], "(")) ++d;
    depth[i] = d;
    if (is(toks[i], ")")) --d;
  }
  const std::vector<Lambda> parallel = parallel_lambdas(toks);
  const auto in_parallel_body = [&](std::size_t i) {
    for (const Lambda& l : parallel) {
      if (i > l.body_begin && i < l.body_end) return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i]) || !is(toks[i], "Rng")) continue;
    if (i > 0 && (is(toks[i - 1], ".") || is(toks[i - 1], "->"))) continue;
    if (i + 1 >= toks.size() || !is_ident(toks[i + 1])) continue;
    const Token& name = toks[i + 1];
    const std::string after = i + 2 < toks.size() ? toks[i + 2].text : "";

    // `Rng name` directly inside a parameter list, with no & or *.
    if ((after == "," || after == ")") && depth[i] > 0) {
      lint.report(toks[i], "rng-discipline",
                  "parameter '" + name.text +
                      "' takes Rng by value: the callee advances a copy "
                      "and the caller's stream silently diverges; pass "
                      "Rng& or hand the callee its own rng.fork(i) child");
      continue;
    }
    // `Rng name = <expr>;` — the initializer must derive a fresh stream.
    if (after == "=") {
      bool derives = false;
      for (std::size_t j = i + 3; j < toks.size() && !is(toks[j], ";");
           ++j) {
        if (is(toks[j], "fork") || is(toks[j], "Rng")) {
          derives = true;
          break;
        }
      }
      if (!derives) {
        lint.report(toks[i], "rng-discipline",
                    "'" + name.text +
                        "' copies an existing Rng stream: both copies now "
                        "replay the same draws; derive an independent "
                        "child with rng.fork(index) instead");
        continue;
      }
    }
    // Direct construction inside a parallel body: the seed cannot depend
    // on anything deterministic-per-task unless it comes from fork.
    if ((after == "(" || after == "{") && in_parallel_body(i)) {
      lint.report(toks[i], "rng-discipline",
                  "'" + name.text +
                      "' constructs an Rng inside a ThreadPool parallel "
                      "body; per-task streams must be forked from the "
                      "parent via Rng::fork(index) so results are "
                      "byte-identical at any thread count");
    }
  }

  // Discarded fork: a statement that is just `chain.fork(...);`.
  for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
    if (!is(toks[i], "fork") || !is(toks[i - 1], ".") ||
        !is(toks[i + 1], "(")) {
      continue;
    }
    const std::size_t close = match_balanced(toks, i + 1, "(", ")");
    if (close + 1 >= toks.size() || !is(toks[close + 1], ";")) continue;
    // Walk back over the postfix chain to its head.
    std::size_t head = i - 1;
    while (head >= 2 && is_ident(toks[head - 1]) &&
           (is(toks[head - 2], ".") || is(toks[head - 2], "->"))) {
      head -= 2;
    }
    if (head < 1 || !is_ident(toks[head - 1])) continue;
    const std::size_t before = head >= 2 ? head - 2 : npos;
    const bool stmt_start =
        before == npos || is(toks[before], ";") || is(toks[before], "{") ||
        is(toks[before], "}");
    if (stmt_start) {
      lint.report(toks[i], "rng-discipline",
                  ".fork() result discarded: fork derives a child stream "
                  "AND advances the parent, so a dropped child is a "
                  "silent reseed; use the returned Rng or delete the "
                  "call");
    }
  }

  // Rng value-captured into any lambda (a copy that replays the parent).
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is(toks[i], "[")) continue;
    Lambda lambda;
    if (!parse_lambda(toks, i, lambda)) continue;
    for (const Capture& cap : lambda.captures) {
      if (cap.by_ref || cap.name.empty()) continue;
      if (cap.has_init && cap.init_has_fork) continue;
      if (!cap.has_init &&
          std::binary_search(f.rng_names.begin(), f.rng_names.end(),
                             cap.name)) {
        lint.report(toks[i], "rng-discipline",
                    "lambda captures Rng '" + cap.name +
                        "' by value: the copy replays the parent's "
                        "stream; capture by reference or init-capture a "
                        "fork (rng = parent.fork(i))");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule registry / driver
// ---------------------------------------------------------------------------

void run_file_rules(Linter& lint) {
  rule_unseeded_random(lint);
  rule_wall_clock(lint);
  rule_unordered_iter(lint);
  rule_bare_assert(lint);
  rule_naked_new(lint);
  rule_thread_spawn(lint);
  rule_pragma_once(lint);
  rule_banned_include(lint);
  rule_arch_intrinsics(lint);
  rule_layering(lint);
  rule_parallel_capture(lint);
  rule_rng_discipline(lint);
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "unseeded-random", "wall-clock",     "unordered-iter",
      "bare-assert",     "naked-new",      "thread-spawn",
      "pragma-once",     "banned-include", "arch-intrinsics",
      "layering",        "parallel-capture", "rng-discipline",
  };
  return kNames;
}

std::vector<Violation> lint_graph(const ProjectGraph& graph) {
  std::map<std::string, std::vector<Violation>> cycle_reports;
  find_include_cycles(graph, cycle_reports);

  std::vector<Violation> all;
  for (const FileNode& file : graph.files()) {
    Linter lint;
    lint.graph = &graph;
    lint.file = &file;
    collect_allows(lint);
    run_file_rules(lint);
    const auto cycles = cycle_reports.find(file.path);
    if (cycles != cycle_reports.end()) {
      for (const Violation& v : cycles->second) {
        lint.report(v.line, v.col, v.rule, v.message);
      }
    }
    for (const Allow& allow : lint.allows) {
      if (!allow.used) {
        lint.violations.push_back(
            {file.path, allow.line, 1, "unused-allow",
             "allow(" + allow.rule +
                 ") suppresses nothing on this or the next line; delete "
                 "the stale waiver"});
      }
    }
    std::sort(lint.violations.begin(), lint.violations.end(),
              [](const Violation& a, const Violation& b) {
                return std::tie(a.line, a.col, a.rule) <
                       std::tie(b.line, b.col, b.rule);
              });
    all.insert(all.end(),
               std::make_move_iterator(lint.violations.begin()),
               std::make_move_iterator(lint.violations.end()));
  }
  return all;
}

std::vector<Violation> lint_files(
    std::vector<std::pair<std::string, std::string>> sources) {
  return lint_graph(ProjectGraph::build(std::move(sources)));
}

std::vector<Violation> lint_source(std::string_view path,
                                   std::string_view content) {
  return lint_files({{std::string(path), std::string(content)}});
}

std::vector<std::pair<std::string, std::string>> read_tree(
    const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const char* top : {"src", "tests", "bench"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".cc") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(paths.size());
  for (const fs::path& file : paths) {
    std::ifstream in(file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sources.emplace_back(fs::proximate(file, root).generic_string(),
                         buffer.str());
  }
  return sources;
}

std::vector<Violation> lint_tree(const std::string& root) {
  return lint_files(read_tree(root));
}

std::string format(const std::vector<Violation>& violations) {
  std::ostringstream out;
  for (const Violation& v : violations) {
    out << v.file << ":" << v.line << ":" << v.col << ": [" << v.rule
        << "] " << v.message << "\n";
  }
  return out.str();
}

}  // namespace memfp::lint
