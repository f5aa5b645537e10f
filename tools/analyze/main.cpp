// rqsim-analyze CLI.
//
//   rqsim-analyze --root <repo-root> [--locks] [--list-rules]
//
// Exit codes: 0 = clean, 1 = diagnostics reported, 2 = usage / IO error.
// Registered as the `analyze` ctest (tier-1); scripts/lint.sh runs the same
// binary from the build tree.
#include <cstring>
#include <iostream>
#include <string>

#include "analyzer.hpp"

namespace {

void print_rules() {
  std::cout <<
      "RQS001  raw state-buffer allocation outside sim/buffer_pool\n"
      "RQS002  RNG construction outside common/rng (incl. using-aliases)\n"
      "RQS003  std::thread outside the designated execution engines\n"
      "RQS004  monotonic clock use outside telemetry/ and common/\n"
      "RQS005  StateVector deep copy outside StateBufferPool/CowState\n"
      "RQS006  raw socket syscall outside service/ and router/\n"
      "RQS101  lock-order inversion cycle (incl. re-lock of a held mutex)\n"
      "RQS102  blocking call while holding a mutex\n"
      "RQS103  condition_variable::wait while holding another mutex\n"
      "RQS201  declared protocol verb not dispatched\n"
      "RQS202  Json::at(key) without a prior has(key) presence check\n"
      "\nSuppress in place with: // rqsim-analyze: allow(<rule>) <reason>\n";
}

}  // namespace

int main(int argc, char** argv) {
  rqsim::analyze::AnalyzerConfig config;
  bool want_locks = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      config.root = argv[++i];
    } else if (arg == "--locks") {
      want_locks = true;
      config.want_inventory = true;
    } else if (arg == "--list-rules") {
      print_rules();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: rqsim-analyze --root <repo-root> [--locks] "
                   "[--list-rules]\n";
      return 0;
    } else {
      std::cerr << "rqsim-analyze: unknown argument " << arg << "\n";
      return 2;
    }
  }

  try {
    const rqsim::analyze::AnalysisResult result =
        rqsim::analyze::run_analysis(config);
    for (const auto& diag : result.diagnostics) {
      std::cout << rqsim::analyze::render(diag) << "\n";
    }
    if (want_locks) {
      std::cout << "-- mutex coverage (" << result.inventory.size()
                << " declared in the concurrency dirs) --\n";
      for (const auto& info : result.inventory) {
        std::cout << "  " << info.name << "  declared " << info.declared_at
                  << "  acquisitions " << info.acquisitions << "\n";
      }
    }
    std::cout << "rqsim-analyze: " << result.files_scanned
              << " files scanned, " << result.diagnostics.size()
              << " diagnostic(s)\n";
    return result.diagnostics.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
