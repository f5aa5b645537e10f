// rqsim-analyze: the in-tree static analyzer behind the `analyze` ctest.
//
// Three analysis families (rule catalog in DESIGN.md §12):
//
//   Source rules (token level, so comments, string literals and aliases
//   are handled; see lexer.hpp):
//     RQS001  raw state-buffer allocation outside sim/buffer_pool
//     RQS002  RNG construction outside common/rng (incl. using-aliases)
//     RQS003  std::thread outside the designated execution engines
//     RQS004  monotonic clock use outside telemetry/ and common/
//     RQS005  StateVector deep copy outside StateBufferPool/CowState
//     RQS006  raw socket syscall outside service/ and router/
//     RQS007  direct terminal output (printf family, std::cout/cerr/clog)
//             outside cli/, report/, and tools/ (bench/ is exempt too)
//
//   Concurrency pass (mutex acquisition sites + approximate intra-TU call
//   graph over src/service, src/router, src/sched, src/telemetry):
//     RQS101  lock-order inversion cycle (incl. self-deadlock re-lock)
//     RQS102  blocking call while holding a mutex
//     RQS103  condition_variable::wait guarded by a foreign mutex
//
//   Protocol exhaustiveness (service/protocol.* verb tables vs. the two
//   dispatchers, and Json field discipline in the handlers):
//     RQS201  declared protocol verb not dispatched
//     RQS202  Json::at(key) without a prior has(key) presence check
//
// Every diagnostic carries file:line, the rule id, and a fix hint, and can
// be silenced in place with `// rqsim-analyze: allow(<rule>) <reason>`
// (lexer.hpp documents the annotation grammar).
#pragma once

#include <string>
#include <vector>

#include "lexer.hpp"

namespace rqsim::analyze {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;     // e.g. "RQS001"
  std::string message;  // one line, what is wrong
  std::string hint;     // one line, how to fix it
};

/// "file:line: [RQS001] message" plus an indented hint line.
std::string render(const Diagnostic& diag);

/// One mutex the concurrency pass saw: declaration and acquisition counts,
/// for the --locks coverage report and the coverage test.
struct MutexInfo {
  std::string name;  // canonical (Class::member, file:member, or global)
  std::string declared_at;  // "file:line" of the std::mutex member, if seen
  int acquisitions = 0;
};

// ---------------------------------------------------------------- passes

/// Token-level source rules RQS001–RQS007 over one file. The rule→exempt-
/// path table lives in source_rules.cpp.
void run_source_rules(const LexedFile& file, std::vector<Diagnostic>& out);

/// Lock-order / blocking-under-lock / foreign-cv pass over a set of files.
/// Each file is treated as its own translation unit for the call graph;
/// mutex identities unify across TUs via Class::member canonical names.
/// `inventory`, when non-null, receives every mutex seen (declared or
/// acquired) for coverage reporting.
void run_concurrency_pass(const std::vector<LexedFile>& files,
                          std::vector<Diagnostic>& out,
                          std::vector<MutexInfo>* inventory);

/// Protocol-exhaustiveness pass. `verbs_header` declares the
/// kServiceVerbs / kRouterVerbs tables (service/protocol.hpp);
/// `service_dispatch` and `router_dispatch` are the two files whose
/// `op == "..."` comparisons must cover them. `handler_files` get the
/// RQS202 Json-presence check.
void run_protocol_pass(const LexedFile& verbs_header,
                       const LexedFile& service_dispatch,
                       const LexedFile& router_dispatch,
                       const std::vector<LexedFile>& handler_files,
                       std::vector<Diagnostic>& out);

// ----------------------------------------------------------- whole-tree run

struct AnalyzerConfig {
  std::string root = ".";  // repo root (contains src/)
  bool want_inventory = false;
};

struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;
  std::vector<MutexInfo> inventory;
  int files_scanned = 0;
};

/// Run all passes over the tree rooted at config.root (src/ + bench/ for
/// the source rules, the concurrency dirs, and the protocol files).
/// Throws std::runtime_error if the tree does not look like the rqsim
/// repo (missing src/service/protocol.hpp).
AnalysisResult run_analysis(const AnalyzerConfig& config);

}  // namespace rqsim::analyze
