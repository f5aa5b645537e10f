// Wall-clock validation (beyond the paper's op-count metric): baseline vs
// reordered+cached statevector execution of the same noisy workloads. The
// measured speedup should track 1 / normalized-computation to within the
// overhead of state copies.
//
// The parallel benchmarks run the work-stealing prefix-tree executor at
// several thread counts (zero redundant prefix ops at any count). Beyond
// the gbench registrations, two driver flags make this file the parallel
// perf gate:
//
//   --parallel-json <path>   sweep tree and frames (Pauli-frame collapse)
//                            modes over thread counts on three Table I
//                            circuits plus 20–24 qubit bv / ghz / grover
//                            instances — ghz additionally at a tight MSV
//                            budget to record uncompute routing — and
//                            write the machine-readable rows (ops, fork
//                            copies, CoW materializations,
//                            frame_collapsed_trials, frame_ops,
//                            uncomputations, wall ms, speedup_vs_1t), then
//                            exit.
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
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_circuits/bv.hpp"
#include "bench_circuits/ghz.hpp"
#include "bench_circuits/grover.hpp"
#include "bench_circuits/suite.hpp"
#include "noise/devices.hpp"
#include "sched/runner.hpp"
#include "telemetry/clock.hpp"
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
// Parallel-mode sweep / check drivers (no gbench involvement).

struct SweepPoint {
  std::string circuit;
  std::string mode;
  unsigned qubits = 0;
  std::size_t trials = 0;
  std::size_t threads = 0;
  opcount_t ops = 0;
  std::uint64_t fork_copies = 0;
  std::uint64_t cow_materializations = 0;
  double wall_ms = 0.0;
  /// wall_ms of the same circuit+mode at 1 thread divided by this point's
  /// wall_ms — derived after the sweep; 1.0 for the 1-thread rows.
  double speedup_vs_1t = 1.0;
  // Scheduling/occupancy telemetry (NoisyRunResult::telemetry).
  std::uint64_t steals = 0;
  std::uint64_t inline_fallbacks = 0;
  std::uint64_t pool_reuses = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_prewarmed = 0;
  std::size_t peak_live_states = 0;
  // Pauli-frame collapse + uncompute routing (frames / budget rows).
  std::uint64_t frame_collapsed_trials = 0;
  std::uint64_t frame_ops = 0;
  std::uint64_t uncomputations = 0;
};

/// One circuit of the parallel sweep. The Table I entries run the paper's
/// 512-trial configuration; the 20–24 qubit entries scale trials and
/// repetitions down with the amplitude-vector size (one gate op sweeps 2^n
/// amplitudes) so the sweep stays inside a CI budget.
struct SweepCase {
  std::string name;
  unsigned qubits = 0;
  Circuit compiled;
  NoiseModel noise;
  std::size_t trials = 512;
  int reps = 3;
  std::vector<std::size_t> threads;
};

std::vector<SweepCase> make_sweep_cases() {
  std::vector<SweepCase> cases;
  const DeviceModel dev = yorktown_device();
  for (const std::size_t index : {std::size_t{1}, std::size_t{7}, std::size_t{11}}) {
    const BenchmarkEntry& entry = suite_entry(index);
    cases.push_back({entry.name, entry.compiled.num_qubits(), entry.compiled,
                     dev.noise, 512, 3, {1, 2, 4, 8}});
  }
  // 20–24 qubit scale: uniform noise with per-circuit rates tuned so a
  // trial carries ~1 injected error on average (deeper circuits get lower
  // rates), which keeps the prefix trees realistically branchy without
  // degenerating into per-trial replays.
  const auto big = [&cases](std::string name, Circuit logical, double rate,
                            std::size_t trials, int reps,
                            std::vector<std::size_t> threads) {
    Circuit compiled = decompose_to_cx_basis(logical);
    const unsigned n = compiled.num_qubits();
    cases.push_back({std::move(name), n, std::move(compiled),
                     NoiseModel::uniform(n, rate, 4 * rate, 0.02), trials, reps,
                     std::move(threads)});
  };
  big("bv20", make_bv(19, 0x5A5A5u), 0.01, 24, 2, {1, 2, 4});
  big("ghz20", make_ghz(20), 0.02, 24, 2, {1, 2, 4});
  big("grover20", make_grover(20, 0x2B5u), 0.001, 24, 2, {1, 2, 4});
  big("bv24", make_bv(23, 0x35A5A5u), 0.008, 8, 1, {1, 4});
  big("ghz24", make_ghz(24), 0.02, 8, 1, {1, 4});
  big("grover24", make_grover(24, 0xAB5u), 0.001, 8, 1, {1, 4});
  return cases;
}

NoisyRunResult timed_parallel(const Circuit& circuit, const NoiseModel& noise,
                              std::size_t threads, double& best_ms,
                              std::size_t trials, int reps, bool frames,
                              std::size_t max_states) {
  NoisyRunConfig config;
  config.num_trials = trials;
  config.seed = 7;
  config.num_threads = threads;
  config.frame_collapse = frames;
  config.max_states = max_states;
  NoisyRunResult result;
  best_ms = 0.0;
  // Best of `reps` damps scheduler noise (the sweep runs on shared CI
  // machines; op counts are deterministic, only the clock needs repeats).
  // Timing comes from the telemetry clock (telemetry/clock.hpp), the
  // project's single source of monotonic time (analyzer rule RQS004).
  for (int rep = 0; rep < reps; ++rep) {
    const telemetry::Stopwatch stopwatch;
    result = run_noisy(circuit, noise, config);
    const double ms = stopwatch.elapsed_ms();
    if (rep == 0 || ms < best_ms) {
      best_ms = ms;
    }
  }
  return result;
}

struct SweepMode {
  const char* name;
  bool frames;
  std::size_t max_states;  // 0 = unlimited
};

SweepPoint run_sweep_point(const SweepCase& c, const SweepMode& m,
                           std::size_t threads) {
  SweepPoint point;
  point.circuit = c.name;
  point.mode = m.name;
  point.qubits = c.qubits;
  point.trials = c.trials;
  point.threads = threads;
  const NoisyRunResult result =
      timed_parallel(c.compiled, c.noise, threads, point.wall_ms, c.trials, c.reps,
                     m.frames, m.max_states);
  point.ops = result.ops;
  point.fork_copies = result.fork_copies;
  point.cow_materializations = result.telemetry.cow_materializations;
  point.steals = result.telemetry.steals;
  point.inline_fallbacks = result.telemetry.inline_fallbacks;
  point.pool_reuses = result.telemetry.pool_reuses;
  point.pool_allocs = result.telemetry.pool_allocs;
  point.pool_prewarmed = result.telemetry.pool_prewarmed;
  point.peak_live_states = result.telemetry.peak_live_states;
  point.frame_collapsed_trials = result.telemetry.frame_collapsed_trials;
  point.frame_ops = result.telemetry.frame_ops;
  point.uncomputations = result.telemetry.uncomputations;
  std::printf("%-10s %2uq %-12s %zu threads: %llu ops, %llu forks, "
              "%llu cow copies, %llu fallbacks, %llu framed, "
              "%llu uncomputed, %.2f ms\n",
              point.circuit.c_str(), point.qubits, point.mode.c_str(), threads,
              static_cast<unsigned long long>(point.ops),
              static_cast<unsigned long long>(point.fork_copies),
              static_cast<unsigned long long>(point.cow_materializations),
              static_cast<unsigned long long>(point.inline_fallbacks),
              static_cast<unsigned long long>(point.frame_collapsed_trials),
              static_cast<unsigned long long>(point.uncomputations),
              point.wall_ms);
  return point;
}

int run_parallel_sweep(const std::string& path) {
  const SweepMode modes[] = {
      {"tree", /*frames=*/false, 0},
      {"frames", /*frames=*/true, 0},
  };
  // Budget rows: a tight MSV budget on the Clifford-only ghz instances,
  // where every refused fork must route through uncomputation instead of
  // an inline fallback (the uncomputations column records the routing).
  const SweepMode budget_mode = {"tree_budget2", /*frames=*/false, 2};
  std::vector<SweepPoint> points;
  for (const SweepCase& c : make_sweep_cases()) {
    for (const SweepMode& m : modes) {
      for (const std::size_t threads : c.threads) {
        points.push_back(run_sweep_point(c, m, threads));
      }
    }
    if (c.name.rfind("ghz", 0) == 0) {
      for (const std::size_t threads : c.threads) {
        points.push_back(run_sweep_point(c, budget_mode, threads));
      }
    }
  }
  // Derive speedup_vs_1t against the same circuit+mode single-thread row.
  for (SweepPoint& p : points) {
    for (const SweepPoint& base : points) {
      if (base.circuit == p.circuit && base.mode == p.mode &&
          base.threads == 1 && p.wall_ms > 0.0) {
        p.speedup_vs_1t = base.wall_ms / p.wall_ms;
        break;
      }
    }
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n  \"benchmark\": \"parallel_modes\",\n"
      << "  \"seed\": 7,\n  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    out << "    {\"circuit\": \"" << p.circuit << "\", \"qubits\": " << p.qubits
        << ", \"mode\": \"" << p.mode
        << "\", \"trials\": " << p.trials
        << ", \"threads\": " << p.threads << ", \"matvec_ops\": " << p.ops
        << ", \"fork_copies\": " << p.fork_copies
        << ", \"cow_materializations\": " << p.cow_materializations
        << ", \"steals\": " << p.steals
        << ", \"inline_fallbacks\": " << p.inline_fallbacks
        << ", \"pool_reuses\": " << p.pool_reuses
        << ", \"pool_allocs\": " << p.pool_allocs
        << ", \"pool_prewarmed\": " << p.pool_prewarmed
        << ", \"peak_live_states\": " << p.peak_live_states
        << ", \"frame_collapsed_trials\": " << p.frame_collapsed_trials
        << ", \"frame_ops\": " << p.frame_ops
        << ", \"uncomputations\": " << p.uncomputations
        << ", \"wall_ms\": " << p.wall_ms
        << ", \"speedup_vs_1t\": " << p.speedup_vs_1t << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("parallel sweep written to %s\n", path.c_str());
  return 0;
}

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
// so driver scripts don't depend on gbench flag spellings. `--parallel-json`
// and `--parallel-check` run the parallel sweep / check drivers instead of
// gbench.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string path;
    if (arg == "--parallel-check") {
      return run_parallel_check();
    }
    if (arg == "--parallel-json" && i + 1 < argc) {
      return run_parallel_sweep(argv[i + 1]);
    }
    if (arg.rfind("--parallel-json=", 0) == 0) {
      return run_parallel_sweep(arg.substr(16));
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
