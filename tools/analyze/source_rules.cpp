// Source rules RQS001–RQS007 on the token stream.
//
// What the token level buys over line-regex matching:
//   - banned names inside block comments and string literals never match
//     (a line regex only strips `//` comments);
//   - `using std::mt19937;` / `using Engine = std::mt19937;` and
//     `using namespace std;` are resolved, so an unqualified alias of a
//     banned name is still caught (the regexes anchor on `std::`);
//   - preprocessor lines are opaque, so `#include <thread>` is not a use
//     of `thread`.
//
// The rule→exemption table mirrors the shell script byte for byte; the
// shell script stays in the tree as the portable fallback and is
// regression-tested against the same fixtures (--self-test).
#include <array>
#include <functional>
#include <set>

#include "analyzer.hpp"

namespace rqsim::analyze {

namespace {

bool path_contains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

bool is_exempt(const std::string& path, const std::vector<std::string>& needles) {
  for (const std::string& needle : needles) {
    if (path_contains(path, needle)) return true;
  }
  return false;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == Tok::kIdent && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == Tok::kPunct && t.text == text;
}

struct Ctx {
  const LexedFile& file;
  std::vector<Diagnostic>& out;

  void report(const std::string& rule, int line, const std::string& message,
              const std::string& hint) {
    if (file.suppressions.allows(line, rule)) return;
    out.push_back(Diagnostic{file.path, line, rule, message, hint});
  }
};

// Track `using namespace std;`, `using std::X;`, `using Y = std::X;` and
// `typedef std::X Y;` so unqualified aliases of banned std names resolve.
// `banned` maps the std-name (e.g. "mt19937") to itself; `aliases` collects
// every local name that means one of them.
struct AliasScanner {
  std::set<std::string> banned;
  bool using_namespace_std = false;
  std::set<std::string> aliases;  // local spellings of a banned name

  void scan(const std::vector<Token>& toks) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (is_ident(toks[i], "using")) {
        scan_using(toks, i);
      } else if (is_ident(toks[i], "typedef")) {
        scan_typedef(toks, i);
      }
    }
  }

  bool names_banned(const std::string& name) const {
    if (aliases.count(name)) return true;
    return using_namespace_std && banned.count(name);
  }

 private:
  void scan_using(const std::vector<Token>& toks, std::size_t i) {
    // using namespace std ;
    if (i + 2 < toks.size() && is_ident(toks[i + 1], "namespace") &&
        is_ident(toks[i + 2], "std")) {
      using_namespace_std = true;
      return;
    }
    // using std :: NAME ;
    if (i + 3 < toks.size() && is_ident(toks[i + 1], "std") &&
        is_punct(toks[i + 2], "::") && toks[i + 3].kind == Tok::kIdent &&
        banned.count(toks[i + 3].text)) {
      aliases.insert(toks[i + 3].text);
      return;
    }
    // using ALIAS = std :: NAME ;  (possibly with template args we ignore)
    if (i + 5 < toks.size() && toks[i + 1].kind == Tok::kIdent &&
        is_punct(toks[i + 2], "=") && is_ident(toks[i + 3], "std") &&
        is_punct(toks[i + 4], "::") && toks[i + 5].kind == Tok::kIdent &&
        banned.count(toks[i + 5].text)) {
      aliases.insert(toks[i + 1].text);
    }
  }

  void scan_typedef(const std::vector<Token>& toks, std::size_t i) {
    // typedef std :: NAME ALIAS ;
    if (i + 4 < toks.size() && is_ident(toks[i + 1], "std") &&
        is_punct(toks[i + 2], "::") && toks[i + 3].kind == Tok::kIdent &&
        banned.count(toks[i + 3].text) && toks[i + 4].kind == Tok::kIdent) {
      aliases.insert(toks[i + 4].text);
    }
  }
};

// ------------------------------------------------------------------ RQS001

void rule_raw_alloc(Ctx& ctx) {
  // bench/ is exempt from RQS001–RQS003; only RQS004–RQS006 extend to the
  // bench drivers.
  static const std::vector<std::string> kExempt = {"sim/buffer_pool.", "bench/"};
  if (is_exempt(ctx.file.path, kExempt)) return;
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_ident(toks[i], "new")) {
      // Collect the new-type-id window and look for amplitude types.
      for (std::size_t j = i + 1; j < toks.size() && j < i + 10; ++j) {
        const Token& t = toks[j];
        if (t.kind == Tok::kPunct &&
            (t.text == ";" || t.text == ")" || t.text == "{")) {
          break;
        }
        if (t.kind == Tok::kIdent &&
            (t.text == "amp_t" || t.text == "complex" ||
             t.text.rfind("Amp", 0) == 0)) {
          ctx.report("RQS001", toks[i].line,
                     "raw state-buffer allocation (`new " + t.text +
                         "...`) outside StateBufferPool",
                     "acquire the buffer from sim/buffer_pool.hpp "
                     "(StateBufferPool::acquire / acquire_copy / CowState)");
          break;
        }
      }
      continue;
    }
    if (toks[i].kind == Tok::kIdent &&
        (toks[i].text == "malloc" || toks[i].text == "calloc" ||
         toks[i].text == "realloc") &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      // Skip member spellings (x.malloc(...)) — not the libc allocator.
      if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
        continue;
      }
      ctx.report("RQS001", toks[i].line,
                 "raw `" + toks[i].text + "` call outside StateBufferPool",
                 "state buffers must come from sim/buffer_pool.hpp so "
                 "checkpoints recycle memory");
    }
  }
}

// ------------------------------------------------------------------ RQS002

void rule_rng(Ctx& ctx) {
  static const std::vector<std::string> kExempt = {"common/rng.", "bench/"};
  if (is_exempt(ctx.file.path, kExempt)) return;
  static const std::set<std::string> kStdRng = {
      "mt19937",     "mt19937_64", "minstd_rand", "minstd_rand0",
      "random_device", "rand",     "srand",       "ranlux24",
      "ranlux48",    "knuth_b",   "default_random_engine"};
  static const std::set<std::string> kBareRng = {"drand48", "erand48",
                                                 "lrand48", "mrand48",
                                                 "srand48", "rand_r"};
  AliasScanner aliases;
  aliases.banned = kStdRng;
  aliases.scan(ctx.file.tokens);

  const auto& toks = ctx.file.tokens;
  const auto report = [&](std::size_t i, const std::string& what) {
    ctx.report("RQS002", toks[i].line,
               "RNG construction (`" + what + "`) outside common/rng",
               "route randomness through rqsim::Rng so trial streams stay "
               "seeded and reproducible");
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    const bool qualified_std =
        i >= 2 && is_ident(toks[i - 2], "std") && is_punct(toks[i - 1], "::");
    if (kStdRng.count(t.text)) {
      if (qualified_std) {
        report(i, "std::" + t.text);
      } else if (i == 0 || !is_punct(toks[i - 1], "::")) {
        // Unqualified: only when an alias / using-directive makes it mean
        // the std name (never for e.g. a member named `rand`).
        if (aliases.names_banned(t.text) &&
            !(i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")))) {
          report(i, t.text);
        }
      }
      continue;
    }
    if (aliases.aliases.count(t.text) && !qualified_std &&
        (i == 0 || !is_punct(toks[i - 1], "::")) &&
        !(i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")))) {
      // A local alias (`using Engine = std::mt19937;`) being used.
      if (i + 1 < toks.size() && !is_punct(toks[i + 1], "=")) {
        report(i, t.text);
      }
      continue;
    }
    if (kBareRng.count(t.text) && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(") &&
        !(i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")))) {
      report(i, t.text);
    }
  }
}

// ------------------------------------------------------------------ RQS003

void rule_thread(Ctx& ctx) {
  static const std::vector<std::string> kExempt = {
      "sched/tree_exec.cpp", "service/", "router/", "bench/"};
  if (is_exempt(ctx.file.path, kExempt)) return;
  static const std::set<std::string> kThreadTypes = {"thread", "jthread"};
  AliasScanner aliases;
  aliases.banned = kThreadTypes;
  aliases.scan(ctx.file.tokens);
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent || !(kThreadTypes.count(t.text) || aliases.aliases.count(t.text))) {
      continue;
    }
    const bool qualified_std =
        i >= 2 && is_ident(toks[i - 2], "std") && is_punct(toks[i - 1], "::");
    const bool aliased = aliases.names_banned(t.text) || aliases.aliases.count(t.text);
    if (!qualified_std && !aliased) continue;
    if (!qualified_std && i > 0 &&
        (is_punct(toks[i - 1], "::") || is_punct(toks[i - 1], ".") ||
         is_punct(toks[i - 1], "->"))) {
      continue;  // this_thread::..., member named thread
    }
    // `std::thread::id` and `std::this_thread` are observers, not spawns.
    if (i + 2 < toks.size() && is_punct(toks[i + 1], "::") &&
        (is_ident(toks[i + 2], "id") || is_ident(toks[i + 2], "hardware_concurrency"))) {
      continue;
    }
    if (i >= 2 && is_ident(toks[i - 2], "this_thread")) continue;
    ctx.report("RQS003", t.line,
               "std::thread use outside the designated execution engines",
               "spawn through the tree executor or the service worker "
               "pool — ad-hoc threads bypass MSV "
               "reservations and per-trial-seed determinism");
  }
}

// ------------------------------------------------------------------ RQS004

void rule_clock(Ctx& ctx) {
  static const std::vector<std::string> kExempt = {"telemetry/", "common/"};
  if (is_exempt(ctx.file.path, kExempt)) return;
  for (const Token& t : ctx.file.tokens) {
    if (t.kind == Tok::kIdent &&
        (t.text == "steady_clock" || t.text == "high_resolution_clock")) {
      ctx.report("RQS004", t.line,
                 "monotonic clock use (`" + t.text + "`) outside telemetry",
                 "take timings from telemetry/clock.hpp (Stopwatch, "
                 "clock_now) or a trace span so they reach the telemetry "
                 "output");
    }
  }
}

// ------------------------------------------------------------------ RQS005

void rule_deep_copy(Ctx& ctx) {
  static const std::vector<std::string> kExempt = {
      "sim/buffer_pool.", "obs/pauli_string.cpp", "dm/density_matrix.cpp"};
  if (is_exempt(ctx.file.path, kExempt)) return;
  const auto& toks = ctx.file.tokens;
  // StateVector NAME = <lvalue-ish expr> ;   — copy-init from an existing
  // vector. A constructor call (`StateVector sv(n)`) or a call expression
  // on the right (`= pool.acquire(...)`) is fine.
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!is_ident(toks[i], "StateVector")) continue;
    if (i > 0 && is_punct(toks[i - 1], "::")) continue;  // qualified member
    std::size_t j = i + 1;
    if (toks[j].kind == Tok::kPunct && toks[j].text == "&") continue;  // ref
    if (toks[j].kind != Tok::kIdent) continue;
    ++j;
    if (j >= toks.size() || !is_punct(toks[j], "=")) continue;
    ++j;
    // Walk the initializer; flag iff it is a bare lvalue chain.
    bool lvalue_chain = true;
    bool any_tokens = false;
    int brackets = 0;
    for (; j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.kind == Tok::kPunct && t.text == ";" && brackets == 0) break;
      any_tokens = true;
      if (t.kind == Tok::kPunct) {
        if (t.text == "[") { ++brackets; continue; }
        if (t.text == "]") { --brackets; continue; }
        if (t.text == "." || t.text == "->" || t.text == "::" ||
            t.text == "*") {
          continue;
        }
        lvalue_chain = false;
        continue;
      }
      if (t.kind == Tok::kIdent || t.kind == Tok::kNumber) continue;
      lvalue_chain = false;
    }
    if (any_tokens && lvalue_chain) {
      ctx.report("RQS005", toks[i].line,
                 "StateVector deep copy outside StateBufferPool/CowState",
                 "a checkpoint copy is a 2^n memcpy — use "
                 "StateBufferPool::acquire_copy or CowState (fork defers "
                 "the copy to first write)");
    }
  }
}

// ------------------------------------------------------------------ RQS006

void rule_socket(Ctx& ctx) {
  static const std::vector<std::string> kExempt = {"service/", "router/"};
  if (is_exempt(ctx.file.path, kExempt)) return;
  static const std::set<std::string> kSyscalls = {"socket", "connect",
                                                  "accept", "bind", "listen"};
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_punct(toks[i], "::")) continue;
    // Global-namespace qualifier: `::` not preceded by an identifier or a
    // closing template angle.
    if (i > 0 && (toks[i - 1].kind == Tok::kIdent || is_punct(toks[i - 1], ">"))) {
      continue;
    }
    if (toks[i + 1].kind == Tok::kIdent && kSyscalls.count(toks[i + 1].text) &&
        is_punct(toks[i + 2], "(")) {
      ctx.report("RQS006", toks[i].line,
                 "raw socket syscall (`::" + toks[i + 1].text +
                     "`) outside service/ and router/",
                 "go through service/socket_util.hpp so the connection gets "
                 "bounded-line framing, timeouts, and retry policy");
    }
  }
}

// ------------------------------------------------------------------ RQS007

void rule_print(Ctx& ctx) {
  // Direct terminal output belongs to the CLI, report, and bench layers
  // (tools/ sits outside the scanned tree entirely); everything else must
  // surface information through telemetry counters, trace spans, or
  // returned results so the service and router stay silent on stdio.
  // snprintf/vsnprintf format into a caller buffer without printing and
  // stay allowed everywhere.
  static const std::vector<std::string> kExempt = {"cli/", "report/", "bench/"};
  if (is_exempt(ctx.file.path, kExempt)) return;
  static const std::set<std::string> kPrintCalls = {
      "printf", "fprintf", "puts", "fputs", "vprintf", "vfprintf"};
  static const std::set<std::string> kStreams = {"cout", "cerr", "clog"};
  AliasScanner aliases;
  aliases.banned = kStreams;
  aliases.scan(ctx.file.tokens);
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    const bool member =
        i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    const bool qualified_std =
        i >= 2 && is_ident(toks[i - 2], "std") && is_punct(toks[i - 1], "::");
    // `Sink::printf` / `sink.printf(...)` is someone's member, not libc;
    // `::printf` and the unqualified spelling are.
    const bool foreign_qualified = !qualified_std && i >= 2 &&
                                   is_punct(toks[i - 1], "::") &&
                                   toks[i - 2].kind == Tok::kIdent;
    // `void printf(const char*)` — a preceding type name means this is a
    // declaration of someone's own function, not a call (`return printf(`
    // is still a call).
    const bool declaration = !qualified_std && i > 0 &&
                             toks[i - 1].kind == Tok::kIdent &&
                             toks[i - 1].text != "return";
    if (kPrintCalls.count(t.text) && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(") && !member && !foreign_qualified &&
        !declaration) {
      ctx.report("RQS007", t.line,
                 "direct terminal output (`" + t.text +
                     "`) outside cli/, report/, and tools/",
                 "record the value in telemetry (Counter/Histogram), a trace "
                 "span, or return it to the caller — services must stay "
                 "silent on stdio");
      continue;
    }
    if (kStreams.count(t.text) &&
        (qualified_std ||
         (aliases.names_banned(t.text) && !member &&
          (i == 0 || !is_punct(toks[i - 1], "::"))))) {
      ctx.report("RQS007", t.line,
                 "direct terminal output (`std::" + t.text +
                     "`) outside cli/, report/, and tools/",
                 "record the value in telemetry (Counter/Histogram), a trace "
                 "span, or return it to the caller — services must stay "
                 "silent on stdio");
    }
  }
}

}  // namespace

void run_source_rules(const LexedFile& file, std::vector<Diagnostic>& out) {
  Ctx ctx{file, out};
  rule_raw_alloc(ctx);
  rule_rng(ctx);
  rule_thread(ctx);
  rule_clock(ctx);
  rule_deep_copy(ctx);
  rule_socket(ctx);
  rule_print(ctx);
}

}  // namespace rqsim::analyze
