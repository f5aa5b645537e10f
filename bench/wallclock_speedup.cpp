// Wall-clock validation (beyond the paper's op-count metric): baseline vs
// reordered+cached statevector execution of the same noisy workloads. The
// measured speedup should track 1 / normalized-computation to within the
// overhead of state copies.
//
// The parallel benchmarks run the work-stealing prefix-tree executor at
// several thread counts (zero redundant prefix ops at any count). The
// deterministic op-count, copy-on-write and frame-collapse assertions live
// in tests/parallel_test.cpp and tests/frame_test.cpp.
//
// End-to-end wall times on a multi-core host come from perfbench
// (perfbench/README.md), whose qft18_t4 and table1_bulk workloads run 4
// threads.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_circuits/suite.hpp"
#include "noise/devices.hpp"
#include "sched/runner.hpp"

namespace {

using namespace rqsim;

const std::vector<BenchmarkEntry>& table1_suite() {
  static const auto suite = make_table1_suite(yorktown_device());
  return suite;
}

const BenchmarkEntry& suite_entry(std::size_t index) {
  return table1_suite()[index];
}

void run_mode(benchmark::State& state, ExecutionMode mode, bool fuse_gates = false) {
  const auto& entry = suite_entry(static_cast<std::size_t>(state.range(0)));
  const DeviceModel dev = yorktown_device();
  NoisyRunConfig config;
  config.num_trials = 512;
  config.seed = 7;
  config.mode = mode;
  config.fuse_gates = fuse_gates;
  opcount_t ops = 0;
  for (auto _ : state) {
    const NoisyRunResult result = run_noisy(entry.compiled, dev.noise, config);
    ops = result.ops;
    benchmark::DoNotOptimize(result.histogram);
  }
  state.SetLabel(entry.name);
  state.counters["matvec_ops"] = static_cast<double>(ops);
}

void BM_Baseline(benchmark::State& state) {
  run_mode(state, ExecutionMode::kBaseline);
}

void BM_CachedReordered(benchmark::State& state) {
  run_mode(state, ExecutionMode::kCachedReordered);
}

// Same schedule with the gate-fusion pass on: checkpoint advances apply
// fused segments (epsilon-equivalent to the unfused kernels).
void BM_CachedReorderedFused(benchmark::State& state) {
  run_mode(state, ExecutionMode::kCachedReordered, /*fuse_gates=*/true);
}

// range(0) = suite index, range(1) = threads.
void BM_CachedParallel(benchmark::State& state) {
  const auto& entry = suite_entry(static_cast<std::size_t>(state.range(0)));
  const DeviceModel dev = yorktown_device();
  NoisyRunConfig config;
  config.num_trials = 512;
  config.seed = 7;
  config.num_threads = static_cast<std::size_t>(state.range(1));
  NoisyRunResult result;
  for (auto _ : state) {
    result = run_noisy(entry.compiled, dev.noise, config);
    benchmark::DoNotOptimize(result.histogram);
  }
  state.SetLabel(entry.name);
  state.counters["matvec_ops"] = static_cast<double>(result.ops);
  state.counters["fork_copies"] = static_cast<double>(result.fork_copies);
}

// Index into the Table I suite: 1=grover, 7=qft5, 11=qv_n5d5.
BENCHMARK(BM_Baseline)->Arg(1)->Arg(7)->Arg(11)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedReordered)->Arg(1)->Arg(7)->Arg(11)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedReorderedFused)->Arg(1)->Arg(7)->Arg(11)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedParallel)
    ->Args({11, 2})
    ->Args({11, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main so `--json <path>` (or `--json=<path>`) writes the machine-
// readable run next to the console report — shorthand for google benchmark's
// --benchmark_out=<path> --benchmark_out_format=json pair, kept stable here
// so calling scripts don't depend on gbench flag spellings.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string path;
    if (arg == "--json" && i + 1 < argc) {
      path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      args.push_back(arg);
      continue;
    }
    if (path.empty()) {
      std::fprintf(stderr, "--json requires a file path\n");
      return 1;
    }
    args.push_back("--benchmark_out=" + path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& arg : args) {
    argv2.push_back(arg.data());
  }
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
