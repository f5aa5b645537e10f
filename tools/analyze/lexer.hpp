// Token-level C++ lexer for rqsim-analyze.
//
// Source rules RQS001–RQS007 match tokens, not text. Line regexes would
// leave three false-negative/false-positive classes: block comments, string
// literals (a banned identifier mentioned inside either is not a call
// site), and qualified aliases (`using std::mt19937;` hides the `std::` a
// regex anchors on). This lexer eliminates all three by producing a real
// token stream: comments and literals become their own token kinds (or are
// dropped), so the rule passes only ever match code.
//
// Scope: a scanner, not a parser. It understands
//   - `//` line comments and `/* */` block comments,
//   - string literals with escapes, raw strings R"delim(...)delim",
//     char literals, and encoding prefixes (u8, L, ...),
//   - preprocessor lines (collapsed to one kPreproc token, including
//     backslash continuations, so `#include <thread>` never looks like a
//     use of `thread`),
//   - identifiers, numbers, and punctuation (multi-char operators that
//     matter to the passes — `::`, `->`, `==`, `!=` — are fused).
// Anything structural (declarations, scopes, call sites) is recovered by
// the individual passes on top of this stream.
//
// Suppressions: a comment of the form
//     // rqsim-analyze: allow(RQS001) reason...
//     // rqsim-analyze: allow(RQS101,RQS102) reason...
// is collected into a SuppressionIndex. The allowance applies to the line
// the comment starts on and to the following line, so both trailing
// comments and comment-above-the-statement styles work. A rule list of
// `*` allows every rule. The reason text is mandatory by convention
// (reviewed, not enforced).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace rqsim::analyze {

enum class Tok {
  kIdent,
  kNumber,
  kString,   // text is the literal's *contents* (prefix/quotes stripped)
  kChar,
  kPunct,
  kPreproc,  // one token per preprocessor logical line, text = full line
};

struct Token {
  Tok kind = Tok::kPunct;
  std::string text;
  int line = 0;
};

class SuppressionIndex {
 public:
  void add(int line, const std::set<std::string>& rules) {
    allow_[line].insert(rules.begin(), rules.end());
  }

  /// True if `rule` is suppressed at `line` (annotation on the same line or
  /// the line directly above).
  bool allows(int line, const std::string& rule) const {
    for (int probe : {line, line - 1}) {
      auto it = allow_.find(probe);
      if (it == allow_.end()) continue;
      if (it->second.count("*") || it->second.count(rule)) return true;
    }
    return false;
  }

  bool empty() const { return allow_.empty(); }

 private:
  std::map<int, std::set<std::string>> allow_;
};

struct LexedFile {
  std::string path;  // as handed to the lexer; passes match rules on this
  std::vector<Token> tokens;
  SuppressionIndex suppressions;
};

/// Lex an in-memory buffer (used by the fixture tests).
LexedFile lex_source(const std::string& path, const std::string& text);

/// Read `path` from disk and lex it. Throws std::runtime_error on IO error.
LexedFile lex_file(const std::string& path);

}  // namespace rqsim::analyze
