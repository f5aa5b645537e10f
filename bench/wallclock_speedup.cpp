// Wall-clock validation (beyond the paper's op-count metric): baseline vs
// reordered+cached statevector execution of the same noisy workloads. The
// measured speedup should track 1 / normalized-computation to within the
// overhead of state copies.
//
// The parallel benchmarks run the work-stealing prefix-tree executor at
// several thread counts (zero redundant prefix ops at any count). Beyond
// the gbench registrations, one driver flag makes this file the parallel
// perf gate:
//
//   --parallel-check         fast assertion mode for ctest (perf_smoke):
//                            exits nonzero unless the tree's op counts at
//                            2 and 4 threads equal the sequential
//                            schedule's (analyze_noisy) and its histograms
//                            equal the baseline loop's bitwise, the whole
//                            Table I suite materializes strictly fewer CoW
//                            copies than it forks, frame-mode matvec_ops
//                            never exceed tree-mode's (>= 25% below on
//                            ghz / bv / rb), and a budgeted ghz run routes
//                            every refused fork through uncomputation with
//                            zero inline fallbacks.
//
// End-to-end wall times on a multi-core host come from perfbench
// (perfbench/README.md), whose qft18_t4 and table1_bulk workloads run 4
// threads.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_circuits/ghz.hpp"
#include "bench_circuits/suite.hpp"
#include "noise/devices.hpp"
#include "sched/runner.hpp"
#include "transpile/decompose.hpp"

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

// ---------------------------------------------------------------------------
// Parallel check driver (no gbench involvement).

int run_parallel_check() {
  const DeviceModel dev = yorktown_device();
  const BenchmarkEntry& entry = suite_entry(11);  // qv_n5d5
  NoisyRunConfig config;
  config.num_trials = 512;
  config.seed = 7;
  // References: the sequential schedule's op count (count-only walker) and
  // the per-trial baseline loop's histogram.
  const NoisyRunResult counted = analyze_noisy(entry.compiled, dev.noise, config);
  NoisyRunConfig baseline_config = config;
  baseline_config.mode = ExecutionMode::kBaseline;
  const NoisyRunResult baseline = run_noisy(entry.compiled, dev.noise, baseline_config);
  int failures = 0;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    config.num_threads = threads;
    const NoisyRunResult tree = run_noisy(entry.compiled, dev.noise, config);
    if (tree.ops != counted.ops) {
      std::fprintf(stderr, "FAIL: tree ops %llu != sequential ops %llu at %zu threads\n",
                   static_cast<unsigned long long>(tree.ops),
                   static_cast<unsigned long long>(counted.ops), threads);
      ++failures;
    }
    if (tree.histogram != baseline.histogram) {
      std::fprintf(stderr, "FAIL: tree histogram diverges from baseline at %zu threads\n",
                   threads);
      ++failures;
    }
    std::printf("%zu threads: tree %llu ops == sequential, histogram == baseline\n",
                threads, static_cast<unsigned long long>(tree.ops));
  }
  // Suite-wide CoW effectiveness gate: across all 12 Table I circuits, the
  // tree executor must materialize strictly fewer checkpoint copies than
  // the schedule forks — i.e. at least one fork was served by a refcount
  // bump whose buffer never got copied. If the copy-on-write path silently
  // regressed to copy-per-fork, the two totals would be equal.
  std::uint64_t suite_forks = 0;
  std::uint64_t suite_materializations = 0;
  for (const BenchmarkEntry& e : table1_suite()) {
    NoisyRunConfig config;
    config.num_trials = 512;
    config.seed = 7;
    config.num_threads = 4;
    const NoisyRunResult r = run_noisy(e.compiled, dev.noise, config);
    suite_forks += r.fork_copies;
    suite_materializations += r.telemetry.cow_materializations;

    // Pauli-frame gate, per Table I entry: frame mode never does more
    // matvec work than the tree executor, stays bitwise, and cuts >= 25%
    // on the Clifford-dominated entries (rb, bv4, bv5).
    NoisyRunConfig framed_config = config;
    framed_config.frame_collapse = true;
    const NoisyRunResult framed = run_noisy(e.compiled, dev.noise, framed_config);
    if (framed.ops > r.ops) {
      std::fprintf(stderr, "FAIL: %s frame ops %llu above tree ops %llu\n",
                   e.name.c_str(), static_cast<unsigned long long>(framed.ops),
                   static_cast<unsigned long long>(r.ops));
      ++failures;
    }
    if (framed.histogram != r.histogram) {
      std::fprintf(stderr, "FAIL: %s frame histogram diverges from tree mode\n",
                   e.name.c_str());
      ++failures;
    }
    const bool clifford_dominated =
        e.name == "rb" || e.name == "bv4" || e.name == "bv5";
    if (clifford_dominated && framed.ops * 4 > r.ops * 3) {
      std::fprintf(stderr,
                   "FAIL: %s frame ops %llu not >=25%% below tree ops %llu\n",
                   e.name.c_str(), static_cast<unsigned long long>(framed.ops),
                   static_cast<unsigned long long>(r.ops));
      ++failures;
    }
  }
  if (suite_materializations >= suite_forks) {
    std::fprintf(stderr,
                 "FAIL: Table I suite materialized %llu CoW copies for %llu "
                 "forks (copy-on-write is not eliding any copies)\n",
                 static_cast<unsigned long long>(suite_materializations),
                 static_cast<unsigned long long>(suite_forks));
    ++failures;
  } else {
    std::printf("Table I suite: %llu forks, %llu materialized copies\n",
                static_cast<unsigned long long>(suite_forks),
                static_cast<unsigned long long>(suite_materializations));
  }
  // GHZ gate (Clifford-only downstream paths): frame mode must cut >= 25%
  // of the tree executor's matvec ops bitwise-identically, and under a
  // tight MSV budget every refused fork must route through uncomputation —
  // inline_fallbacks stays 0.
  {
    const Circuit ghz = decompose_to_cx_basis(make_ghz(10));
    const NoiseModel ghz_noise = NoiseModel::uniform(10, 0.02, 0.08, 0.02);
    NoisyRunConfig config;
    config.num_trials = 512;
    config.seed = 7;
    config.num_threads = 4;
    const NoisyRunResult tree = run_noisy(ghz, ghz_noise, config);
    NoisyRunConfig framed_config = config;
    framed_config.frame_collapse = true;
    const NoisyRunResult framed = run_noisy(ghz, ghz_noise, framed_config);
    if (framed.histogram != tree.histogram || framed.ops * 4 > tree.ops * 3) {
      std::fprintf(stderr,
                   "FAIL: ghz frame mode not bitwise or not >=25%% below tree "
                   "(%llu vs %llu ops)\n",
                   static_cast<unsigned long long>(framed.ops),
                   static_cast<unsigned long long>(tree.ops));
      ++failures;
    }
    NoisyRunConfig budget_config = config;
    budget_config.max_states = 2;
    const NoisyRunResult budget = run_noisy(ghz, ghz_noise, budget_config);
    if (budget.histogram != tree.histogram ||
        budget.telemetry.uncomputations == 0 ||
        budget.telemetry.inline_fallbacks != 0) {
      std::fprintf(stderr,
                   "FAIL: ghz budget run not routed through uncomputation "
                   "(%llu uncomputations, %llu inline fallbacks)\n",
                   static_cast<unsigned long long>(budget.telemetry.uncomputations),
                   static_cast<unsigned long long>(budget.telemetry.inline_fallbacks));
      ++failures;
    } else {
      std::printf("ghz: frame ops %llu vs tree %llu; budget run uncomputed %llu "
                  "refusals, 0 inline fallbacks\n",
                  static_cast<unsigned long long>(framed.ops),
                  static_cast<unsigned long long>(tree.ops),
                  static_cast<unsigned long long>(budget.telemetry.uncomputations));
    }
  }
  if (failures == 0) {
    std::printf("parallel check: OK\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

// Custom main so `--json <path>` (or `--json=<path>`) writes the machine-
// readable run next to the console report — shorthand for google benchmark's
// --benchmark_out=<path> --benchmark_out_format=json pair, kept stable here
// so driver scripts don't depend on gbench flag spellings. `--parallel-check`
// runs the parallel check driver instead of gbench.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string path;
    if (arg == "--parallel-check") {
      return run_parallel_check();
    }
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
