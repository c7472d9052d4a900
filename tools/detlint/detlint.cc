// detlint — determinism/hot-path invariant linter for this repository.
//
// Every guarantee the bench suite sells (byte-identical goldens, the
// content-addressed result cache, shard-merge byte-diffs, parallel==serial
// runner equivalence) rests on bit-determinism of the simulation core.  The
// compiler cannot see that invariant; this tool makes the obvious ways of
// breaking it fail CI with a file:line message instead of poisoning goldens
// three PRs later.
//
// It is deliberately token-level, not a real C++ front end: no headers are
// resolved, no templates instantiated.  The rules are written so that the
// cheap token patterns they match are (a) overwhelmingly likely to be real
// violations in this codebase and (b) suppressible in place when they are
// not, via
//
//   // detlint:allow(R1): <reason — required, shown in review>
//
// which silences findings of that rule on the same line and the next line.
// An allow pragma without a written reason is itself a finding.
//
// Rules (scopes refer to the repo-relative path prefix):
//   R1  forbidden nondeterminism APIs in sim scope (src/): std::rand,
//       std::random_device, time(), clock(), gettimeofday, clock_gettime,
//       <any>_clock::now, getenv.  getenv is permitted in
//       src/exp/run_config.cc alone — RunConfig::from_env is the one
//       parse of the NIMBUS_* process configuration — and the EventLoop
//       watchdog's wall-deadline reads carry allow pragmas.
//   R2  no iteration over unordered containers in src/: range-for over, or
//       .begin()/.end()-family traversal of, any variable declared with an
//       unordered_{map,set,...} type.  Lookup (find/at/operator[]/count)
//       is fine — iteration order is the nondeterminism.
//   R3  no pointer-keyed ordered/hashed containers anywhere: the first
//       template argument of map/set/hash/unordered_* must not be a
//       pointer type (addresses vary run to run; any ordering or hash
//       derived from them is nondeterministic).
//   R4  RNG construction must take an explicit seed: std::mt19937 and
//       friends are forbidden outright (seed or not — all experiment
//       randomness flows through util::Rng), and zero-argument Rng
//       construction (`Rng()`, `Rng{}`, or a local `Rng r;`) is flagged.
//       Members (`rng_`-style, trailing underscore) are enforced by the
//       compiler instead: util::Rng has no default constructor.
//   R5  regions tagged // NIMBUS_HOT_PATH begin ... // NIMBUS_HOT_PATH end
//       (or a whole file tagged // NIMBUS_HOT_PATH file) forbid `new`,
//       make_unique/make_shared, malloc-family calls, and growing
//       container calls (push_back/emplace/insert/resize/reserve/...),
//       making the operator-new-hook runtime tests' zero-alloc contract
//       visible at review time.
//   R6  every field declared in ScenarioSpec / ImpairmentSpec / LinkSpec /
//       CrossSpec / ProtagonistSpec (src/exp/scenario.h) must be mentioned
//       by name in src/exp/spec_canon.cc.  The sizeof guard there catches
//       size changes; this catches same-size field swaps and renames that
//       would silently decouple the spec hash from behaviour.
//   R7  stdout purity in src/: every bench golden is a byte-diff of
//       stdout, so library code must never write there.  printf/vprintf/
//       puts/putchar calls, std::cout/wcout, and stdio calls passed the
//       `stdout` stream (fprintf/fputs/fputc/fwrite/putc/vfprintf) are
//       findings.  stderr is fine (diagnostics), snprintf is fine
//       (buffers).  src/exp/summary.cc is exempt: it IS the sanctioned
//       stdout path every bench prints through.
//
// Output is stable: findings sorted by (file, line, rule, message), one per
// line, `path:line: [Rk] message`.  Exit 0 iff no unsuppressed finding.
//
// Usage:
//   detlint --root <repo>                    lint <repo>/{src,bench,tests}
//   detlint [--scope src|bench|tests] f...   lint explicit files (fixtures)
//   detlint --r6-spec <h> --r6-canon <cc>    override the R6 file pair
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <sys/stat.h>
#endif

namespace {

// ---------------------------------------------------------------------------
// Tokens.
// ---------------------------------------------------------------------------

struct Tok {
  enum Kind { kIdent, kNumber, kString, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct AllowPragma {
  std::set<std::string> rules;  // "R1".."R7", or "*"
  bool has_reason = false;
};

/// One file, lexed: tokens, allow pragmas by line, hot-path line ranges.
struct FileScan {
  std::string rel;  // path used in reports
  std::vector<Tok> toks;
  std::map<int, AllowPragma> allows;          // line -> pragma
  std::vector<std::pair<int, int>> hot;       // inclusive line ranges
  std::vector<std::string> pragma_errors;     // malformed pragma messages
  std::vector<int> pragma_error_lines;
};

struct Finding {
  std::string file;
  int line;
  std::string rule;  // "R1".."R6" or "pragma"
  std::string msg;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return msg < o.msg;
  }
};

bool starts_with(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}
bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

// ---------------------------------------------------------------------------
// Comment directives: allow pragmas and hot-path tags.
// ---------------------------------------------------------------------------

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

void process_comment(FileScan& f, const std::string& text, int line,
                     bool* hot_open, int* hot_start) {
  // detlint:allow(R1[,R2...]): reason
  std::size_t at = text.find("detlint:allow");
  if (at != std::string::npos) {
    std::size_t open = text.find('(', at);
    std::size_t close = text.find(')', at);
    AllowPragma a;
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      f.pragma_errors.push_back(
          "malformed detlint:allow pragma (expected detlint:allow(R<k>): "
          "reason)");
      f.pragma_error_lines.push_back(line);
      return;
    }
    std::string rules = text.substr(open + 1, close - open - 1);
    std::stringstream ss(rules);
    std::string r;
    while (std::getline(ss, r, ',')) {
      r = trim(r);
      if (!r.empty()) a.rules.insert(r);
    }
    std::string rest = text.substr(close + 1);
    std::size_t colon = rest.find(':');
    std::string reason =
        colon == std::string::npos ? "" : trim(rest.substr(colon + 1));
    a.has_reason = !reason.empty();
    if (a.rules.empty()) {
      f.pragma_errors.push_back("detlint:allow pragma names no rules");
      f.pragma_error_lines.push_back(line);
      return;
    }
    if (!a.has_reason) {
      f.pragma_errors.push_back(
          "detlint:allow(" + rules +
          ") without a reason — every suppression must say why");
      f.pragma_error_lines.push_back(line);
      // Fall through: a reasonless pragma still suppresses nothing, so the
      // underlying finding surfaces too.
      return;
    }
    f.allows[line] = a;
    return;
  }

  at = text.find("NIMBUS_HOT_PATH");
  if (at != std::string::npos) {
    std::string rest = trim(text.substr(at + std::strlen("NIMBUS_HOT_PATH")));
    // First word after the tag decides the form.
    std::string word = rest.substr(0, rest.find_first_of(" \t:(,."));
    if (word == "begin") {
      *hot_open = true;
      *hot_start = line;
    } else if (word == "end") {
      if (*hot_open) {
        f.hot.emplace_back(*hot_start, line);
        *hot_open = false;
      } else {
        f.pragma_errors.push_back("NIMBUS_HOT_PATH end without begin");
        f.pragma_error_lines.push_back(line);
      }
    } else if (word == "file" || word.empty()) {
      f.hot.emplace_back(1, 1 << 30);
    }
    // Mentions in prose ("the NIMBUS_HOT_PATH regions") have a non-keyword
    // next word and are ignored.
  }
}

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

void lex_file(const std::string& content, FileScan& f) {
  int line = 1;
  bool hot_open = false;
  int hot_start = 0;
  bool at_line_start = true;
  std::size_t i = 0;
  const std::size_t n = content.size();
  while (i < n) {
    char c = content[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    // Preprocessor: swallow #include lines whole (header names would
    // otherwise trip type rules); tokenize other directives normally so
    // macro bodies are still linted.
    if (c == '#' && at_line_start) {
      std::size_t j = i + 1;
      while (j < n && (content[j] == ' ' || content[j] == '\t')) ++j;
      std::size_t k = j;
      while (k < n && ident_char(content[k])) ++k;
      if (content.compare(j, k - j, "include") == 0) {
        while (i < n && content[i] != '\n') ++i;
        continue;
      }
      at_line_start = false;
      ++i;
      continue;
    }
    at_line_start = false;
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      std::size_t e = content.find('\n', i);
      if (e == std::string::npos) e = n;
      process_comment(f, content.substr(i + 2, e - i - 2), line, &hot_open,
                      &hot_start);
      i = e;
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      std::size_t e = content.find("*/", i + 2);
      if (e == std::string::npos) e = n;
      std::string body = content.substr(i + 2, e - i - 2);
      process_comment(f, body, line, &hot_open, &hot_start);
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = (e == n) ? n : e + 2;
      continue;
    }
    if (c == '"' ||
        (c == 'R' && i + 1 < n && content[i + 1] == '"')) {
      if (c == 'R') {
        // Raw string: R"delim( ... )delim"
        std::size_t open = content.find('(', i + 2);
        if (open == std::string::npos) {
          ++i;
          continue;
        }
        std::string delim = content.substr(i + 2, open - i - 2);
        std::string close = ")" + delim + "\"";
        std::size_t e = content.find(close, open);
        if (e == std::string::npos) e = n;
        std::string body = content.substr(i, e - i);
        f.toks.push_back({Tok::kString, "<raw>", line});
        line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
        i = (e == n) ? n : e + close.size();
        continue;
      }
      std::size_t j = i + 1;
      while (j < n && content[j] != '"') {
        if (content[j] == '\\') ++j;
        ++j;
      }
      f.toks.push_back({Tok::kString, "<str>", line});
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && content[j] != '\'') {
        if (content[j] == '\\') ++j;
        ++j;
      }
      f.toks.push_back({Tok::kString, "<chr>", line});
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(content[j])) ++j;
      f.toks.push_back({Tok::kIdent, content.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n && (ident_char(content[j]) || content[j] == '.' ||
                       content[j] == '\'')) {
        ++j;
      }
      f.toks.push_back({Tok::kNumber, content.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation.  "::" and "->" are kept whole (the rules key on them);
    // everything else is one char, so ">>" closes two template levels.
    if (c == ':' && i + 1 < n && content[i + 1] == ':') {
      f.toks.push_back({Tok::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && content[i + 1] == '>') {
      f.toks.push_back({Tok::kPunct, "->", line});
      i += 2;
      continue;
    }
    f.toks.push_back({Tok::kPunct, std::string(1, c), line});
    ++i;
  }
  if (hot_open) f.hot.emplace_back(hot_start, 1 << 30);
}

// ---------------------------------------------------------------------------
// Rule helpers.
// ---------------------------------------------------------------------------

const std::set<std::string>& unordered_types() {
  static const std::set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kSet;
}

const std::set<std::string>& keyed_containers() {
  static const std::set<std::string> kSet = {
      "map",           "multimap",      "set",
      "multiset",      "unordered_map", "unordered_set",
      "unordered_multimap", "unordered_multiset", "hash"};
  return kSet;
}

const std::set<std::string>& std_engines() {
  static const std::set<std::string> kSet = {
      "mt19937",   "mt19937_64", "minstd_rand", "minstd_rand0",
      "ranlux24",  "ranlux48",   "knuth_b",     "default_random_engine"};
  return kSet;
}

const std::set<std::string>& growth_calls() {
  static const std::set<std::string> kSet = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "emplace",   "insert",       "resize",     "reserve",
      "append",    "grow"};
  return kSet;
}

const std::set<std::string>& iter_calls() {
  static const std::set<std::string> kSet = {"begin",  "end",  "cbegin",
                                             "cend",   "rbegin", "rend"};
  return kSet;
}

/// Given toks[i] == "<", returns the index of its matching ">" (tracking
/// <, >, (, ) nesting), or npos-equivalent (toks.size()) within `limit`
/// tokens.
std::size_t match_angle(const std::vector<Tok>& t, std::size_t i,
                        std::size_t limit = 256) {
  int angle = 0, paren = 0;
  for (std::size_t j = i; j < t.size() && j < i + limit; ++j) {
    const std::string& s = t[j].text;
    if (t[j].kind != Tok::kPunct) continue;
    if (s == "(") ++paren;
    if (s == ")") --paren;
    if (paren != 0) continue;
    if (s == "<") ++angle;
    if (s == ">") {
      --angle;
      if (angle == 0) return j;
    }
    if (s == ";") break;  // not a template argument list after all
  }
  return t.size();
}

class Linter {
 public:
  Linter(FileScan scan, std::string scope)
      : f_(std::move(scan)), scope_(std::move(scope)) {}

  std::vector<Finding> run(bool r1, bool r2, bool r7) {
    for (std::size_t i = 0; i < f_.pragma_errors.size(); ++i) {
      add(f_.pragma_error_lines[i], "pragma", f_.pragma_errors[i]);
    }
    if (r1) rule1();
    if (r2) rule2();
    rule3();
    rule4();
    rule5();
    if (r7) rule7();
    return std::move(out_);
  }

  const FileScan& scan() const { return f_; }

 private:
  const Tok& tok(std::size_t i) const {
    static const Tok kEof{Tok::kPunct, "", 0};
    return i < f_.toks.size() ? f_.toks[i] : kEof;
  }
  bool is(std::size_t i, const char* s) const { return tok(i).text == s; }

  void add(int line, const std::string& rule, const std::string& msg) {
    out_.push_back({f_.rel, line, rule, msg});
  }

  bool in_hot(int line) const {
    for (const auto& r : f_.hot) {
      if (line >= r.first && line <= r.second) return true;
    }
    return false;
  }

  // R1: nondeterminism APIs.
  void rule1() {
    const bool config_file = ends_with(f_.rel, "src/exp/run_config.cc");
    for (std::size_t i = 0; i < f_.toks.size(); ++i) {
      const Tok& t = f_.toks[i];
      if (t.kind != Tok::kIdent) continue;
      const std::string& s = t.text;
      if ((s == "rand" || s == "srand" || s == "time" || s == "clock" ||
           s == "gettimeofday" || s == "clock_gettime" ||
           s == "timespec_get") &&
          is(i + 1, "(")) {
        // Declarations and member accesses of unrelated things named
        // `time` would be caught here too; none exist, and a pragma with
        // a reason is the escape hatch if one ever does.
        add(t.line, "R1",
            "nondeterministic API '" + s +
                "()' in sim scope — wall time/ambient randomness cannot "
                "feed simulation state");
        continue;
      }
      if (s == "random_device") {
        add(t.line, "R1",
            "std::random_device in sim scope — seeds must flow through "
            "util::Rng / derive_seed");
        continue;
      }
      if (ends_with(s, "_clock") && is(i + 1, "::") && is(i + 2, "now")) {
        add(t.line, "R1",
            "'" + s +
                "::now()' in sim scope — wall-clock reads are reserved "
                "for the EventLoop watchdog (which carries an allow "
                "pragma)");
        continue;
      }
      if (s == "getenv" && !config_file) {
        add(t.line, "R1",
            "getenv outside src/exp/run_config.cc — process configuration "
            "is parsed once, by RunConfig::from_env");
      }
    }
  }

  // R2: unordered-container iteration.
  void rule2() {
    // Pass 1: names declared with an unordered type in this file.
    std::set<std::string> vars;
    for (std::size_t i = 0; i < f_.toks.size(); ++i) {
      if (f_.toks[i].kind != Tok::kIdent ||
          !unordered_types().count(f_.toks[i].text) || !is(i + 1, "<")) {
        continue;
      }
      std::size_t close = match_angle(f_.toks, i + 1);
      if (close >= f_.toks.size()) continue;
      std::size_t j = close + 1;
      while (is(j, "*") || is(j, "&") || tok(j).text == "const") ++j;
      if (tok(j).kind == Tok::kIdent && !is(j + 1, "(")) {
        vars.insert(tok(j).text);
      }
    }
    // Pass 2: traversal of those names (or of an unordered temporary).
    for (std::size_t i = 0; i < f_.toks.size(); ++i) {
      const Tok& t = f_.toks[i];
      if (t.kind != Tok::kIdent) continue;
      // Range-for: for ( decl : range )
      if (t.text == "for" && is(i + 1, "(")) {
        int depth = 0;
        std::size_t colon = 0, close = 0;
        for (std::size_t j = i + 1; j < f_.toks.size(); ++j) {
          const std::string& s = f_.toks[j].text;
          if (f_.toks[j].kind != Tok::kPunct) continue;
          if (s == "(") ++depth;
          if (s == ")") {
            --depth;
            if (depth == 0) {
              close = j;
              break;
            }
          }
          if (s == ":" && depth == 1 && colon == 0) colon = j;
        }
        if (colon == 0 || close == 0) continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (f_.toks[j].kind == Tok::kIdent &&
              (vars.count(f_.toks[j].text) ||
               unordered_types().count(f_.toks[j].text))) {
            add(f_.toks[j].line, "R2",
                "range-for over unordered container '" + f_.toks[j].text +
                    "' — iteration order is hash/address-dependent; use an "
                    "ordered structure or an id-indexed vector");
            break;
          }
        }
        continue;
      }
      // v.begin() / v.end() family.
      if (vars.count(t.text) && (is(i + 1, ".") || is(i + 1, "->")) &&
          tok(i + 2).kind == Tok::kIdent &&
          iter_calls().count(tok(i + 2).text) && is(i + 3, "(")) {
        add(t.line, "R2",
            "iterator traversal of unordered container '" + t.text +
                "' via ." + tok(i + 2).text +
                "() — iteration order is hash/address-dependent");
      }
    }
  }

  // R3: pointer-keyed containers/hashes.
  void rule3() {
    for (std::size_t i = 0; i < f_.toks.size(); ++i) {
      if (f_.toks[i].kind != Tok::kIdent ||
          !keyed_containers().count(f_.toks[i].text) || !is(i + 1, "<")) {
        continue;
      }
      std::size_t close = match_angle(f_.toks, i + 1);
      if (close >= f_.toks.size()) continue;
      // First template argument: tokens from i+2 up to the first ',' at
      // angle depth 1 (or the matching '>').
      int angle = 1, paren = 0;
      std::size_t first_end = close;
      for (std::size_t j = i + 2; j < close; ++j) {
        const std::string& s = f_.toks[j].text;
        if (f_.toks[j].kind != Tok::kPunct) continue;
        if (s == "(") ++paren;
        if (s == ")") --paren;
        if (paren != 0) continue;
        if (s == "<") ++angle;
        if (s == ">") --angle;
        if (s == "," && angle == 1) {
          first_end = j;
          break;
        }
      }
      for (std::size_t j = i + 2; j < first_end; ++j) {
        if (f_.toks[j].kind == Tok::kPunct && f_.toks[j].text == "*") {
          add(f_.toks[i].line, "R3",
              "pointer-keyed '" + f_.toks[i].text +
                  "' — addresses vary run to run, so any order or hash "
                  "derived from them is nondeterministic; key by id/index");
          break;
        }
      }
    }
  }

  // R4: RNG construction.
  void rule4() {
    for (std::size_t i = 0; i < f_.toks.size(); ++i) {
      const Tok& t = f_.toks[i];
      if (t.kind != Tok::kIdent) continue;
      if (std_engines().count(t.text)) {
        add(t.line, "R4",
            "std random engine '" + t.text +
                "' — all experiment randomness flows through explicitly "
                "seeded util::Rng (platform-stable xoshiro256**)");
        continue;
      }
      if (t.text != "Rng") continue;
      if (tok(i ? i - 1 : 0).text == "class" ||
          tok(i ? i - 1 : 0).text == "struct") {
        continue;  // declaration of Rng itself
      }
      // Rng() / Rng{} — explicit zero-argument construction.
      if ((is(i + 1, "(") && is(i + 2, ")")) ||
          (is(i + 1, "{") && is(i + 2, "}"))) {
        add(t.line, "R4",
            "default-seeded Rng construction — pass an explicit seed "
            "derived via util::Rng::split / exp::derive_seed");
        continue;
      }
      // `Rng name;` — a local declared without a seed.  Members (trailing
      // underscore) are excluded: the compiler enforces those, since Rng
      // has no default constructor and must appear in a ctor init list.
      if (tok(i + 1).kind == Tok::kIdent && is(i + 2, ";") &&
          !ends_with(tok(i + 1).text, "_")) {
        add(t.line, "R4",
            "Rng '" + tok(i + 1).text +
                "' declared without a seed — pass an explicit seed "
                "derived via util::Rng::split / exp::derive_seed");
      }
    }
  }

  // R5: allocation in hot-path regions.
  void rule5() {
    if (f_.hot.empty()) return;
    for (std::size_t i = 0; i < f_.toks.size(); ++i) {
      const Tok& t = f_.toks[i];
      if (t.kind != Tok::kIdent || !in_hot(t.line)) continue;
      if (t.text == "new" && tok(i ? i - 1 : 0).text != "operator") {
        add(t.line, "R5",
            "'new' in a NIMBUS_HOT_PATH region — the steady-state path "
            "must not allocate (see the operator-new-hook tests)");
        continue;
      }
      if ((t.text == "make_unique" || t.text == "make_shared" ||
           t.text == "malloc" || t.text == "calloc" || t.text == "realloc") &&
          (is(i + 1, "(") || is(i + 1, "<"))) {
        add(t.line, "R5",
            "'" + t.text +
                "' in a NIMBUS_HOT_PATH region — the steady-state path "
                "must not allocate");
        continue;
      }
      // Growth calls: member form (v.push_back(...)) or a bare call in
      // statement position (grow();).  A preceding identifier or "::"
      // means a declaration/definition or qualified name, not a call on a
      // container — those are the patterns this must not fire on.
      if (growth_calls().count(t.text) && is(i + 1, "(") && i > 0 &&
          f_.toks[i - 1].kind == Tok::kPunct && f_.toks[i - 1].text != "::") {
        add(t.line, "R5",
            "container growth '." + t.text +
                "()' in a NIMBUS_HOT_PATH region — growth allocates; "
                "presize outside the region (or allow with the reason "
                "the call cannot reallocate here)");
      }
    }
  }

  // R7: stdout purity in src/.  Goldens are stdout byte-diffs; any stray
  // library write corrupts every one of them at once.
  void rule7() {
    static const std::set<std::string> kImplicitStdout = {
        "printf", "vprintf", "puts", "putchar"};
    static const std::set<std::string> kStreamArg = {
        "fprintf", "vfprintf", "fputs", "fputc", "fwrite", "putc"};
    for (std::size_t i = 0; i < f_.toks.size(); ++i) {
      const Tok& t = f_.toks[i];
      if (t.kind != Tok::kIdent) continue;
      if ((t.text == "cout" || t.text == "wcout") &&
          (i == 0 || tok(i - 1).text != ".")) {
        add(t.line, "R7",
            "std::" + t.text +
                " in src/ — goldens are stdout byte-diffs; write "
                "diagnostics to stderr, telemetry to NIMBUS_OBS_DIR");
        continue;
      }
      if (!is(i + 1, "(")) continue;
      if (kImplicitStdout.count(t.text)) {
        add(t.line, "R7",
            "'" + t.text +
                "()' writes stdout from src/ — goldens are stdout "
                "byte-diffs; use fprintf(stderr, ...) or an obs artifact");
        continue;
      }
      if (kStreamArg.count(t.text)) {
        // Scan the argument list (bounded, paren-balanced) for `stdout`.
        int depth = 0;
        for (std::size_t j = i + 1; j < f_.toks.size() && j < i + 256; ++j) {
          const std::string& s = f_.toks[j].text;
          if (f_.toks[j].kind == Tok::kPunct) {
            if (s == "(") ++depth;
            if (s == ")" && --depth == 0) break;
            if (s == ";") break;
            continue;
          }
          if (s == "stdout") {
            add(t.line, "R7",
                "'" + t.text +
                    "(..., stdout)' in src/ — goldens are stdout "
                    "byte-diffs; only exp/summary.cc may print there");
            break;
          }
        }
      }
    }
  }

  FileScan f_;
  std::string scope_;
  std::vector<Finding> out_;
};

// ---------------------------------------------------------------------------
// R6: spec-canon field coverage (cross-file).
// ---------------------------------------------------------------------------

/// Field names declared in `name`'s struct body, with their lines.
std::vector<std::pair<std::string, int>> struct_fields(
    const FileScan& f, const std::string& name) {
  std::vector<std::pair<std::string, int>> fields;
  const auto& t = f.toks;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].text != "struct" && t[i].text != "class") continue;
    if (t[i + 1].text != name || t[i + 2].text != "{") continue;
    // Walk the body at depth 1, splitting member statements on ';'.
    std::size_t j = i + 3;
    int depth = 1;
    std::vector<std::size_t> stmt;
    bool saw_brace_block = false;
    for (; j < t.size() && depth > 0; ++j) {
      const std::string& s = t[j].text;
      if (t[j].kind == Tok::kPunct && s == "{") {
        // Nested block (enum body, function body, brace initializer):
        // skip it whole.  A '=' earlier in the statement means it is an
        // initializer and the declaration continues to the ';'.
        int d = 1;
        std::size_t k = j + 1;
        for (; k < t.size() && d > 0; ++k) {
          if (t[k].kind != Tok::kPunct) continue;
          if (t[k].text == "{") ++d;
          if (t[k].text == "}") --d;
        }
        j = k - 1;
        saw_brace_block = true;
        continue;
      }
      if (t[j].kind == Tok::kPunct && s == "}") {
        --depth;
        continue;
      }
      if (t[j].kind == Tok::kPunct && s == ";") {
        // Classify the statement collected so far.
        do {
          if (stmt.empty()) break;
          const std::string& first = t[stmt[0]].text;
          if (first == "using" || first == "typedef" || first == "static" ||
              first == "friend" || first == "enum" || first == "struct" ||
              first == "class" || first == "public" || first == "private") {
            break;
          }
          // Tokens before '=' (if any) form the declarator part; a '(' in
          // it means a function declaration, not a field.
          std::size_t decl_end = stmt.size();
          for (std::size_t k = 0; k < stmt.size(); ++k) {
            if (t[stmt[k]].kind == Tok::kPunct && t[stmt[k]].text == "=") {
              decl_end = k;
              break;
            }
          }
          bool has_paren = false;
          for (std::size_t k = 0; k < decl_end; ++k) {
            if (t[stmt[k]].kind == Tok::kPunct &&
                (t[stmt[k]].text == "(" || t[stmt[k]].text == ")")) {
              has_paren = true;
              break;
            }
          }
          if (has_paren || decl_end == 0) break;
          // Function bodies were skipped as brace blocks; a statement that
          // was *only* a skipped block (e.g. `enum class K {...};`) has
          // its keyword caught above.
          const Tok& last = t[stmt[decl_end - 1]];
          if (last.kind != Tok::kIdent) break;
          fields.emplace_back(last.text, last.line);
        } while (false);
        stmt.clear();
        saw_brace_block = false;
        continue;
      }
      stmt.push_back(j);
    }
    (void)saw_brace_block;
    break;  // first definition of the struct wins
  }
  return fields;
}

void rule6(const FileScan& spec, const FileScan& canon,
           std::vector<Finding>* out) {
  std::set<std::string> canon_idents;
  for (const Tok& t : canon.toks) {
    if (t.kind == Tok::kIdent) canon_idents.insert(t.text);
  }
  static const char* kStructs[] = {"ScenarioSpec", "ImpairmentSpec",
                                   "LinkSpec", "CrossSpec",
                                   "ProtagonistSpec"};
  for (const char* sname : kStructs) {
    for (const auto& [field, line] : struct_fields(spec, sname)) {
      if (canon_idents.count(field)) continue;
      out->push_back(
          {spec.rel, line, "R6",
           "field '" + std::string(sname) + "::" + field +
               "' is not mentioned in " + canon.rel +
               " — canonical_spec() must serialize every spec field, or "
               "the cache key silently decouples from behaviour (the "
               "sizeof guard misses same-size swaps)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

void list_sources(const std::string& dir, std::vector<std::string>* out) {
#if defined(__unix__) || defined(__APPLE__)
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> entries;
  while (dirent* e = readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    entries.push_back(name);
  }
  closedir(d);
  std::sort(entries.begin(), entries.end());
  for (const std::string& name : entries) {
    std::string path = dir + "/" + name;
    struct stat st;
    if (stat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      // Fixture corpora violate the rules on purpose.
      if (name.find("detlint_fixtures") != std::string::npos) continue;
      list_sources(path, out);
    } else if (ends_with(name, ".cc") || ends_with(name, ".h") ||
               ends_with(name, ".cpp") || ends_with(name, ".hpp")) {
      out->push_back(path);
    }
  }
#else
  (void)dir;
  (void)out;
#endif
}

/// Repo-relative scope of a path: "src", "bench", "tests", or "".
std::string scope_of(const std::string& rel) {
  if (starts_with(rel, "src/") || rel.find("/src/") != std::string::npos) {
    return "src";
  }
  if (starts_with(rel, "bench/") ||
      rel.find("/bench/") != std::string::npos) {
    return "bench";
  }
  if (starts_with(rel, "tests/") ||
      rel.find("/tests/") != std::string::npos) {
    return "tests";
  }
  return "";
}

int usage() {
  std::fprintf(
      stderr,
      "usage: detlint --root <repo-root>\n"
      "       detlint [--scope src|bench|tests] [--r6-spec <scenario.h> "
      "--r6-canon <spec_canon.cc>] <file>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root, forced_scope, r6_spec, r6_canon;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "detlint: %s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--root") {
      root = next("--root");
    } else if (a == "--scope") {
      forced_scope = next("--scope");
    } else if (a == "--r6-spec") {
      r6_spec = next("--r6-spec");
    } else if (a == "--r6-canon") {
      r6_canon = next("--r6-canon");
    } else if (a == "--help" || a == "-h") {
      return usage();
    } else if (starts_with(a, "--")) {
      return usage();
    } else {
      files.push_back(a);
    }
  }
  if (root.empty() && files.empty() && (r6_spec.empty() || r6_canon.empty())) {
    return usage();
  }

  std::size_t root_strip = 0;
  if (!root.empty()) {
    for (const char* sub : {"/src", "/bench", "/tests"}) {
      list_sources(root + sub, &files);
    }
    root_strip = root.size() + (ends_with(root, "/") ? 0 : 1);
    if (r6_spec.empty()) r6_spec = root + "/src/exp/scenario.h";
    if (r6_canon.empty()) r6_canon = root + "/src/exp/spec_canon.cc";
  }

  std::vector<Finding> findings;
  std::size_t suppressed = 0;
  const FileScan* spec_scan = nullptr;
  const FileScan* canon_scan = nullptr;
  // Owns every scan; a deque keeps the pointers handed out stable.
  std::deque<FileScan> scans;

  auto scan_one = [&](const std::string& path) -> FileScan* {
    std::string content;
    if (!read_file(path, &content)) {
      findings.push_back({path, 0, "io", "cannot read file"});
      return nullptr;
    }
    FileScan* scan = &scans.emplace_back();
    scan->rel = path.size() > root_strip && root_strip > 0
                    ? path.substr(root_strip)
                    : path;
    lex_file(content, *scan);
    return scan;
  };

  for (const std::string& path : files) {
    FileScan* scan = scan_one(path);
    if (scan == nullptr) continue;
    std::string scope =
        forced_scope.empty() ? scope_of(scan->rel) : forced_scope;
    const bool r1 = scope == "src";
    const bool r2 = scope == "src";
    // R7 exempts the one sanctioned stdout writer (exp/summary.cc is the
    // layer every bench prints its golden rows through).
    const bool r7 = scope == "src" && !ends_with(scan->rel, "exp/summary.cc");
    if (path == r6_spec) spec_scan = scan;
    if (path == r6_canon) canon_scan = scan;
    Linter linter(*scan, scope);
    std::vector<Finding> fs = linter.run(r1, r2, r7);
    // Apply allow pragmas: a pragma on line L (with a reason) suppresses
    // same-rule findings on L and L+1.
    for (Finding& f : fs) {
      bool allowed = false;
      if (f.rule != "pragma") {
        for (int l : {f.line, f.line - 1}) {
          auto it = scan->allows.find(l);
          if (it != scan->allows.end() &&
              (it->second.rules.count(f.rule) ||
               it->second.rules.count("*"))) {
            allowed = true;
            break;
          }
        }
      }
      if (allowed) {
        ++suppressed;
      } else {
        findings.push_back(std::move(f));
      }
    }
  }

  // R6 needs both files; load them directly if they were not in the scan
  // set (explicit-file mode with --r6-spec/--r6-canon).
  if (spec_scan == nullptr && !r6_spec.empty()) {
    std::string content;
    if (read_file(r6_spec, &content)) {
      FileScan* scan = &scans.emplace_back();
      scan->rel = r6_spec;
      lex_file(content, *scan);
      spec_scan = scan;
    }
  }
  if (canon_scan == nullptr && !r6_canon.empty()) {
    std::string content;
    if (read_file(r6_canon, &content)) {
      FileScan* scan = &scans.emplace_back();
      scan->rel = r6_canon;
      lex_file(content, *scan);
      canon_scan = scan;
    }
  }
  if (spec_scan != nullptr && canon_scan != nullptr) {
    std::vector<Finding> r6;
    rule6(*spec_scan, *canon_scan, &r6);
    for (Finding& f : r6) {
      bool allowed = false;
      auto it = spec_scan->allows.find(f.line);
      auto it2 = spec_scan->allows.find(f.line - 1);
      for (auto* a : {it != spec_scan->allows.end() ? &it->second : nullptr,
                      it2 != spec_scan->allows.end() ? &it2->second
                                                     : nullptr}) {
        if (a != nullptr && (a->rules.count("R6") || a->rules.count("*"))) {
          allowed = true;
        }
      }
      if (allowed) {
        ++suppressed;
      } else {
        findings.push_back(std::move(f));
      }
    }
  }

  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule && a.msg == b.msg;
                             }),
                 findings.end());
  for (const Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.msg.c_str());
  }
  std::fprintf(stderr, "detlint: %zu finding(s), %zu suppressed, %zu file(s)\n",
               findings.size(), suppressed, files.size());
  return findings.empty() ? 0 : 1;
}
