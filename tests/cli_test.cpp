#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/cli.hpp"

namespace rqsim {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> args) {
  args.insert(args.begin(), "rqsim");
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

TEST(Cli, HelpAndNoArgs) {
  const CliResult help = run({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage: rqsim"), std::string::npos);
  const CliResult none = run({});
  EXPECT_EQ(none.code, 1);
  EXPECT_NE(none.out.find("usage: rqsim"), std::string::npos);
}

TEST(Cli, UnknownCommand) {
  const CliResult result = run({"frobnicate"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, RunNamedCircuitOnYorktown) {
  const CliResult result =
      run({"run", "--circuit", "bv4", "--trials", "512", "--seed", "3"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("transpiled onto ibmq_yorktown"), std::string::npos);
  EXPECT_NE(result.out.find("normalized compute"), std::string::npos);
  EXPECT_NE(result.out.find("top outcomes:"), std::string::npos);
  // BV secret 0b101 should dominate.
  EXPECT_NE(result.out.find("|101>"), std::string::npos);
}

TEST(Cli, AnalyzeLargeCircuitWithoutStatevector) {
  const CliResult result =
      run({"analyze", "--circuit", "qv:24:5", "--device", "artificial", "--rate",
           "1e-3", "--trials", "2000", "--no-transpile"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("ops executed"), std::string::npos);
  EXPECT_EQ(result.out.find("top outcomes"), std::string::npos);
}

TEST(Cli, ModesAndBudget) {
  for (const char* mode : {"baseline", "cached", "unordered"}) {
    const CliResult result = run({"analyze", "--circuit", "qft4", "--mode", mode,
                                  "--trials", "256", "--max-states", "4"});
    EXPECT_EQ(result.code, 0) << mode << ": " << result.err;
  }
}

TEST(Cli, ParallelRun) {
  const CliResult result = run({"run", "--circuit", "ghz:4", "--device", "ideal",
                                "--no-transpile", "--trials", "1000", "--threads",
                                "3"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("top outcomes:"), std::string::npos);
}

TEST(Cli, FramesAtOneThreadMatchTwoThreads) {
  // --frames used to be dropped silently at one thread.
  std::string csv[2];
  for (int i = 0; i < 2; ++i) {
    const std::string threads = i == 0 ? "1" : "2";
    csv[i] = testing::TempDir() + "rqsim_cli_frames_t" + threads + ".csv";
    const CliResult result =
        run({"run", "--circuit", "ghz:5", "--device", "artificial", "--qubits", "5",
             "--rate", "0.02", "--no-transpile", "--trials", "2000", "--seed", "11",
             "--threads", threads, "--frames", "--csv", csv[i]});
    ASSERT_EQ(result.code, 0) << result.err;
    const std::size_t at = result.out.find("frame trials      : ");
    ASSERT_NE(at, std::string::npos) << "threads " << threads << "\n" << result.out;
    EXPECT_GT(std::stoull(result.out.substr(at + 20)), 0u) << "threads " << threads;
  }
  auto slurp = [](const std::string& path) {
    std::ifstream file(path);
    std::stringstream text;
    text << file.rdbuf();
    return text.str();
  };
  const std::string one = slurp(csv[0]);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, slurp(csv[1]));
  std::remove(csv[0].c_str());
  std::remove(csv[1].c_str());
}

/// The number printed after `label` in `text`.
std::uint64_t printed_count(const std::string& text, const std::string& label) {
  const std::size_t at = text.find(label);
  EXPECT_NE(at, std::string::npos) << label << " missing from:\n" << text;
  return at == std::string::npos ? 0 : std::stoull(text.substr(at + label.size()));
}

TEST(Cli, VerifyProvesTheTreeRunExecutes) {
  // verify builds the tree `run` executes, --frames and --max-states
  // included, so the proven op count is the executed one.
  for (const bool frames : {false, true}) {
    for (const std::string budget : {"0", "3"}) {
      std::vector<std::string> flags = {"--circuit",    "qft5", "--device", "yorktown",
                                        "--trials",     "2048", "--seed",   "9",
                                        "--max-states", budget};
      if (frames) {
        flags.push_back("--frames");
      }
      std::vector<std::string> verify_args = {"verify"};
      verify_args.insert(verify_args.end(), flags.begin(), flags.end());
      std::vector<std::string> run_args = {"run"};
      run_args.insert(run_args.end(), flags.begin(), flags.end());
      const CliResult proof = run(verify_args);
      const CliResult executed = run(run_args);
      ASSERT_EQ(proof.code, 0) << proof.err << proof.out;
      ASSERT_EQ(executed.code, 0) << executed.err;
      EXPECT_NE(proof.out.find("plan proof: OK"), std::string::npos) << proof.out;
      EXPECT_EQ(printed_count(proof.out, "cached ops        : "),
                printed_count(executed.out, "ops executed        : "))
          << "frames=" << frames << " max_states=" << budget;
      EXPECT_EQ(proof.out.find("frame trials") != std::string::npos, frames);
    }
  }
}

TEST(Cli, TranspileEmitsQasm) {
  const CliResult result = run({"transpile", "--circuit", "grover"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(result.out.find("cx q["), std::string::npos);
}

TEST(Cli, SuiteListsAllBenchmarks) {
  const CliResult result = run({"suite"});
  EXPECT_EQ(result.code, 0);
  for (const char* name : {"rb", "grover", "wstate", "qv_n5d5"}) {
    EXPECT_NE(result.out.find(name), std::string::npos) << name;
  }
}

TEST(Cli, QasmInputRoundTrip) {
  const std::string path = "/tmp/rqsim_cli_test.qasm";
  {
    std::ofstream file(path);
    file << "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
            "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n";
  }
  const CliResult result =
      run({"run", "--qasm", path, "--trials", "512", "--device", "ideal",
           "--no-transpile"});
  std::remove(path.c_str());
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("|00>"), std::string::npos);
  EXPECT_NE(result.out.find("|11>"), std::string::npos);
}

TEST(Cli, CsvOutput) {
  const std::string path = "/tmp/rqsim_cli_hist.csv";
  const CliResult result = run({"run", "--circuit", "ghz:3", "--device", "ideal",
                                "--no-transpile", "--trials", "256", "--csv", path});
  EXPECT_EQ(result.code, 0) << result.err;
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string header;
  std::getline(file, header);
  EXPECT_EQ(header, "outcome,count");
  std::remove(path.c_str());
}

TEST(Cli, ErrorsAreReported) {
  EXPECT_EQ(run({"run"}).code, 1);  // no circuit
  EXPECT_NE(run({"run"}).err.find("--circuit or --qasm"), std::string::npos);
  EXPECT_EQ(run({"run", "--circuit", "nope"}).code, 1);
  EXPECT_EQ(run({"run", "--circuit", "qft4", "--mode", "warp"}).code, 1);
  EXPECT_EQ(run({"run", "--circuit", "qft4", "--trials"}).code, 1);  // missing value
  EXPECT_EQ(run({"run", "--circuit", "qft4", "--trials", "abc"}).code, 1);
  EXPECT_EQ(run({"run", "--circuit", "qft4", "--bogus", "1"}).code, 1);
  EXPECT_EQ(run({"run", "--qasm", "/nonexistent.qasm"}).code, 1);
  // Circuit larger than the device.
  EXPECT_EQ(run({"run", "--circuit", "ghz:8"}).code, 1);
}

TEST(Cli, RunRejectsThreadCountsAboveTheBound) {
  // Four trials: the executor never starts more threads than trials, so a
  // missing bound could not start 1025 threads here either.
  const CliResult result =
      run({"run", "--circuit", "qft4", "--trials", "4", "--threads", "1025"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("num_threads 1025 exceeds the supported maximum of 1024"),
            std::string::npos)
      << result.err;
  EXPECT_EQ(result.out.find("ops executed"), std::string::npos);
}

TEST(Cli, EnumerateCommand) {
  const CliResult result =
      run({"enumerate", "--circuit", "bv4", "--max-errors", "1"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("covered probability mass"), std::string::npos);
  EXPECT_NE(result.out.find("TVD bound"), std::string::npos);
}

TEST(Cli, AnalyzeRejectsFrames) {
  // analyze counts the unframed schedule; verify --frames proves the framed
  // tree's count instead of silently reporting the wrong one.
  const CliResult result = run({"analyze", "--circuit", "qft5", "--device", "yorktown",
                                "--trials", "256", "--frames"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("rqsim verify --frames"), std::string::npos) << result.err;
}

TEST(Cli, EnumerateRejectsFlagsItWouldIgnore) {
  const std::vector<std::vector<std::string>> rejected = {
      {"--threads", "4"}, {"--threads", "0"}, {"--max-states", "2"}, {"--frames"}};
  for (const std::vector<std::string>& flags : rejected) {
    std::vector<std::string> args = {"enumerate", "--circuit", "bv4", "--max-errors", "1"};
    args.insert(args.end(), flags.begin(), flags.end());
    const CliResult result = run(args);
    EXPECT_EQ(result.code, 1) << flags[0];
    EXPECT_NE(result.err.find(flags[0]), std::string::npos) << result.err;
  }
  const CliResult defaults = run({"enumerate", "--circuit", "bv4", "--max-errors", "1",
                                  "--threads", "1", "--max-states", "0"});
  EXPECT_EQ(defaults.code, 0) << defaults.err;
}

TEST(Cli, DeviceCsvFlag) {
  const std::string path = "/tmp/rqsim_cli_device.csv";
  {
    std::ofstream file(path);
    file << "qubit,0,1e-3,1e-2\nqubit,1,1e-3,1e-2\nedge,0,1,1e-2\n";
  }
  const CliResult result = run({"run", "--circuit", "ghz:2", "--device-csv", path,
                                "--trials", "256"});
  std::remove(path.c_str());
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("top outcomes:"), std::string::npos);
}

TEST(Cli, DirectedYorktownDevice) {
  const CliResult result = run({"run", "--circuit", "bv4", "--device",
                                "yorktown-directed", "--trials", "256"});
  EXPECT_EQ(result.code, 0) << result.err;
}

TEST(Cli, ScaleFlagChangesSavings) {
  const CliResult low = run({"analyze", "--circuit", "qft4", "--scale", "0.1",
                             "--trials", "1024", "--seed", "5"});
  const CliResult high = run({"analyze", "--circuit", "qft4", "--scale", "3.0",
                              "--trials", "1024", "--seed", "5"});
  EXPECT_EQ(low.code, 0);
  EXPECT_EQ(high.code, 0);
  auto extract = [](const std::string& text) {
    const std::size_t pos = text.find("normalized compute  : ");
    return std::stod(text.substr(pos + 22));
  };
  EXPECT_LT(extract(low.out), extract(high.out));
}

}  // namespace
}  // namespace rqsim
