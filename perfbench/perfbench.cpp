// rqsim_perfbench — the library-side half of the benchmark (perfbench/run.py
// drives it). Every subcommand reads its inputs from a JSON file and prints
// one JSON object on stdout:
//
//   rqsim_perfbench copybw <array_mib> <reps>
//       single-thread memcpy bandwidth over two arrays of <array_mib> MiB
//   rqsim_perfbench oracle <runs.json>
//       exact noisy outcome distribution (dm/) of each run's circuit
//   rqsim_perfbench trace <runs.json> <chrome_trace_out.json>
//       the layer pass: the public calls `rqsim run` makes, run three times
//       (untraced warm-up, traced with one span per call, untraced)
//   rqsim_perfbench load <socket_path> <load.json>
//       closed-loop JSONL clients against a running `rqsim serve`
//
// A run (runs.json "runs" entries, load.json jobs) names a workload the way
// `rqsim run` does: {"circuit", "device", "qubits", "rate", "no_transpile",
// "trials", "seed", "threads", "frames"}.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dm/density_matrix.hpp"
#include "sched/order.hpp"
#include "sched/plan.hpp"
#include "sched/runner.hpp"
#include "sched/tree.hpp"
#include "sched/tree_exec.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/socket_util.hpp"
#include "service/workload.hpp"
#include "trial/generator.hpp"
#include "trial/stats.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Json read_json_file(const std::string& path) {
  std::ifstream file(path);
  RQSIM_CHECK(static_cast<bool>(file), "perfbench: cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return Json::parse(buffer.str());
}

struct RunSpec {
  std::string name;
  WorkloadSpec workload;
  std::size_t trials = 0;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  bool frames = false;
  std::string tenant;
};

RunSpec run_from_json(const Json& json) {
  RunSpec run;
  run.workload.circuit_spec = json.at("circuit").as_string();
  run.workload.device = json.get_string("device", "yorktown");
  run.workload.device_qubits = static_cast<unsigned>(json.get_u64("qubits", 0));
  run.workload.device_rate = json.get_number("rate", 1e-3);
  run.workload.no_transpile = json.get_bool("no_transpile", false);
  run.name = json.get_string("name", run.workload.circuit_spec);
  run.trials = json.at("trials").as_u64();
  run.seed = json.at("seed").as_u64();
  run.threads = json.get_u64("threads", 1);
  run.frames = json.get_bool("frames", false);
  run.tenant = json.get_string("tenant", "");
  return run;
}

std::vector<RunSpec> runs_from_file(const std::string& path) {
  const Json doc = read_json_file(path);
  std::vector<RunSpec> runs;
  for (const Json& entry : doc.at("runs").as_array()) {
    runs.push_back(run_from_json(entry));
  }
  return runs;
}

Json histogram_to_json(const OutcomeHistogram& histogram, std::size_t num_measured) {
  Json json = Json::object();
  for (const auto& [outcome, count] : histogram) {
    json.set(to_bitstring(outcome, static_cast<unsigned>(num_measured)), Json(count));
  }
  return json;
}

// ---------------------------------------------------------------------------
// copybw

int cmd_copybw(std::size_t array_mib, int reps) {
  const std::size_t bytes = array_mib << 20;
  // Value-initialization writes every page, so the timed copies never fault.
  std::vector<unsigned char> src(bytes, 1);
  std::vector<unsigned char> dst(bytes, 0);
  std::vector<double> gbps;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), bytes);
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    // A copy reads and writes every byte once.
    gbps.push_back(2.0 * static_cast<double>(bytes) / seconds / 1e9);
    // Make each copy's source depend on the last one, so no copy is dead.
    src[static_cast<std::size_t>(r) % bytes] ^= dst[bytes - 1];
  }
  std::sort(gbps.begin(), gbps.end());
  Json out = Json::object();
  out.set("copy_gbps", Json(gbps[gbps.size() / 2]));
  std::cout << out.dump() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// oracle

int cmd_oracle(const std::string& runs_path) {
  Json out = Json::object();
  for (const RunSpec& run : runs_from_file(runs_path)) {
    const Workload workload = build_workload(run.workload);
    const std::vector<double> probs = exact_noisy_distribution(workload.circuit, workload.noise);
    Json dist = Json::object();
    for (std::uint64_t outcome = 0; outcome < probs.size(); ++outcome) {
      dist.set(to_bitstring(outcome, static_cast<unsigned>(workload.circuit.num_measured())),
               Json(probs[outcome]));
    }
    out.set(run.name, std::move(dist));
  }
  std::cout << out.dump() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// trace

/// In-memory span recorder: name, start, end and parent per span, written
/// out as a Chrome trace when the pass ends. A null Tracer* means untraced.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };

  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now_us(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }
  const std::vector<Span>& spans() const { return spans_; }

  void write_chrome_trace(const std::string& path) const {
    Json events = Json::array();
    for (const Span& span : spans_) {
      Json event = Json::object();
      event.set("name", Json(span.name));
      event.set("ph", Json("X"));
      event.set("ts", Json(span.start_us));
      event.set("dur", Json(span.end_us - span.start_us));
      event.set("pid", Json(1));
      event.set("tid", Json(1));
      Json args = Json::object();
      args.set("parent", Json(span.parent < 0 ? std::string()
                                              : spans_[static_cast<std::size_t>(span.parent)].name));
      event.set("args", std::move(args));
      events.push_back(std::move(event));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream file(path);
    RQSIM_CHECK(static_cast<bool>(file), "perfbench: cannot write " + path);
    file << doc.dump() << "\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Run `fn` inside a span named `name` under `parent` and store the span's
/// duration in `ms`; with a null `tracer` just run `fn`. Returns fn's result.
template <class Fn>
auto layer(Tracer* tracer, int parent, const char* name, double& ms, Fn&& fn) {
  if (tracer == nullptr) {
    return fn();
  }
  const int id = tracer->open(name, parent);
  struct Closer {
    Tracer* tracer;
    int id;
    double& ms;
    ~Closer() {
      tracer->close(id);
      const Tracer::Span& span = tracer->spans()[static_cast<std::size_t>(id)];
      ms = (span.end_us - span.start_us) / 1000.0;
    }
  } closer{tracer, id, ms};
  return fn();
}

/// Delegating sink that times every callback, summed across workers.
class TimingSink : public TreeTrialSink {
 public:
  explicit TimingSink(TreeTrialSink& inner) : inner_(inner) {}

  void on_finish_group(std::size_t node, std::size_t first_trial, std::size_t count,
                       const StateVector& state,
                       const std::vector<double>* probs) override {
    const auto t0 = Clock::now();
    inner_.on_finish_group(node, first_trial, count, state, probs);
    add(t0);
  }

  void on_finish_frames(std::size_t node, const std::vector<FrameTrial>& frames,
                        const StateVector& state,
                        const std::vector<double>* probs) override {
    const auto t0 = Clock::now();
    inner_.on_finish_frames(node, frames, state, probs);
    add(t0);
  }

  double ms() const { return static_cast<double>(ns_.load()) / 1e6; }

 private:
  void add(Clock::time_point t0) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    ns_.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
  }

  TreeTrialSink& inner_;
  std::atomic<std::uint64_t> ns_{0};
};

/// One run of the prefix-tree pipeline, call by call: what `rqsim run`
/// executes with more than one thread (sched/parallel.cpp tree mode). At
/// one thread `rqsim run` still takes run_noisy and its checkpoint stack,
/// whose histograms this pipeline reproduces bitwise. Returns the run's
/// counts, histogram and layer times.
Json run_pipeline(const RunSpec& run, Tracer* tracer, int parent) {
  double prepare_ms = 0, context_ms = 0, generate_ms = 0, reorder_ms = 0, build_ms = 0,
         verify_ms = 0, exec_ms = 0, reduce_ms = 0, account_ms = 0, sink_ms = 0;
  const int run_span = tracer != nullptr ? tracer->open("run:" + run.name, parent) : -1;

  const Workload workload =
      layer(tracer, run_span, "circuit.prepare", prepare_ms,
            [&] { return build_workload(run.workload); });
  const Circuit& circuit = workload.circuit;
  const CircuitContext ctx = layer(tracer, run_span, "sched.context", context_ms,
                                   [&] { return CircuitContext(circuit); });
  std::vector<Trial> trials = layer(tracer, run_span, "trial.generate", generate_ms, [&] {
    Rng rng(run.seed);
    std::vector<Trial> generated =
        generate_trials(circuit, ctx.layering, workload.noise, run.trials, rng);
    assign_measurement_seeds(generated, rng);
    return generated;
  });
  layer(tracer, run_span, "order.reorder", reorder_ms, [&] {
    reorder_trials(trials);
    return 0;
  });

  ScheduleOptions options;
  options.frame_collapse = run.frames && workload.noise.all_channels_pauli();
  const ExecTree tree = layer(tracer, run_span, "tree.build", build_ms,
                              [&] { return build_exec_tree(ctx, trials, options); });
  const PlanProof proof = layer(tracer, run_span, "verify.tree_plan", verify_ms, [&] {
    return PlanVerifier(ctx, options).verify_tree_plan(trials, tree);
  });

  TreeExecConfig exec_config;
  exec_config.num_threads =
      std::max<std::size_t>(1, std::min(run.threads, trials.empty() ? 1 : trials.size()));
  SampledTrialSink sampled(ctx, trials, nullptr);
  TreeExecStats stats;
  if (tracer != nullptr) {
    TimingSink sink(sampled);
    stats = layer(tracer, run_span, "exec.run", exec_ms,
                  [&] { return execute_tree(ctx, tree, trials, exec_config, sink); });
    sink_ms = sink.ms();
  } else {
    stats = execute_tree(ctx, tree, trials, exec_config, sampled);
  }
  const OutcomeHistogram histogram = layer(tracer, run_span, "sample.reduce", reduce_ms,
                                           [&] { return sampled.take_histogram(); });
  opcount_t baseline_ops = 0;
  const TrialSetStats trial_stats = layer(tracer, run_span, "sched.account", account_ms, [&] {
    baseline_ops = baseline_op_count(ctx, trials);
    return compute_trial_stats(trials);
  });
  if (tracer != nullptr) {
    tracer->close(run_span);
  }

  Json out = Json::object();
  out.set("name", Json(run.name));
  out.set("qubits", Json(static_cast<std::uint64_t>(circuit.num_qubits())));
  out.set("trials", Json(static_cast<std::uint64_t>(trials.size())));
  out.set("histogram", histogram_to_json(histogram, circuit.num_measured()));
  out.set("verify_ok", Json(proof.ok));
  out.set("verify_diagnostic", Json(proof.diagnostic));
  Json counts = Json::object();
  counts.set("tree.nodes", Json(static_cast<std::uint64_t>(tree.nodes.size())));
  counts.set("tree.planned_ops", Json(static_cast<std::uint64_t>(tree.planned_ops)));
  counts.set("tree.frame_collapsed_trials", Json(tree.frame_collapsed_trials));
  counts.set("exec.matvec_ops", Json(static_cast<std::uint64_t>(stats.ops)));
  counts.set("sched.msv", Json(static_cast<std::uint64_t>(tree.peak_demand)));
  counts.set("sched.baseline_ops", Json(static_cast<std::uint64_t>(baseline_ops)));
  counts.set("trial.errors", Json(static_cast<std::uint64_t>(trial_stats.total_errors)));
  out.set("counts", std::move(counts));
  Json exec = Json::object();
  exec.set("cow_materializations", Json(stats.cow_materializations));
  exec.set("steals", Json(stats.steals));
  exec.set("pool_allocs", Json(stats.pool_allocs));
  exec.set("peak_live_states", Json(static_cast<std::uint64_t>(stats.max_live_states)));
  out.set("exec", std::move(exec));
  Json times = Json::object();
  times.set("circuit.prepare", Json(prepare_ms));
  times.set("sched.context", Json(context_ms));
  times.set("trial.generate", Json(generate_ms));
  times.set("order.reorder", Json(reorder_ms));
  times.set("tree.build", Json(build_ms));
  times.set("verify.tree_plan", Json(verify_ms));
  times.set("exec.run", Json(exec_ms));
  times.set("sample.sink", Json(sink_ms));
  times.set("sample.reduce", Json(reduce_ms));
  times.set("sched.account", Json(account_ms));
  out.set("ms", std::move(times));
  return out;
}

Json run_pass(const std::vector<RunSpec>& runs, Tracer* tracer) {
  const int root = tracer != nullptr ? tracer->open("pass", -1) : -1;
  const auto t0 = Clock::now();
  Json results = Json::array();
  for (const RunSpec& run : runs) {
    results.push_back(run_pipeline(run, tracer, root));
  }
  const double wall_ms = ms_between(t0, Clock::now());
  if (tracer != nullptr) {
    tracer->close(root);
  }
  Json out = Json::object();
  out.set("wall_ms", Json(wall_ms));
  out.set("runs", std::move(results));
  return out;
}

int cmd_trace(const std::string& runs_path, const std::string& trace_path) {
  const std::vector<RunSpec> runs = runs_from_file(runs_path);
  // An untraced warm-up pass first (allocator and page-cache state), then
  // the traced pass and the untraced pass it is compared with.
  Json warmup = run_pass(runs, nullptr);
  Tracer tracer;
  Json traced = run_pass(runs, &tracer);
  Json untraced = run_pass(runs, nullptr);
  tracer.write_chrome_trace(trace_path);

  // Self-attribution: the pass span's time not covered by any layer span
  // (the children of the per-run spans).
  const std::vector<Tracer::Span>& spans = tracer.spans();
  double pass_us = 0.0;
  double layer_us = 0.0;
  for (const Tracer::Span& span : spans) {
    if (span.parent < 0) {
      pass_us += span.end_us - span.start_us;
    } else if (spans[static_cast<std::size_t>(span.parent)].parent >= 0) {
      layer_us += span.end_us - span.start_us;
    }
  }
  Json out = Json::object();
  out.set("warmup", std::move(warmup));
  out.set("traced", std::move(traced));
  out.set("untraced", std::move(untraced));
  out.set("spans", Json(static_cast<std::uint64_t>(spans.size())));
  out.set("unattributed_frac", Json(pass_us > 0 ? 1.0 - layer_us / pass_us : 0.0));
  std::cout << out.dump() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// load

struct JobRecord {
  bool ok = false;
  std::string error;
  double latency_ms = 0.0;     // submit sent -> wait answered
  double submit_rtt_ms = 0.0;  // submit sent -> submit answered
  double decode_ms = 0.0;      // Json::parse of the wait answer
  std::size_t result_bytes = 0;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  std::uint64_t batch_size = 0;
  std::uint64_t histogram_total = 0;
  Json histogram;
};

/// Every this-many-th job (in client order) is re-run solo and compared.
constexpr std::size_t kSoloCheckEvery = 16;

/// One JSONL connection: send a line, read the answer line.
class Connection {
 public:
  explicit Connection(const std::string& socket_path)
      : fd_(connect_unix_fd(socket_path, 5000)) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string round_trip(const std::string& request) {
    write_all(fd_, request + "\n");
    std::string line;
    const ReadLineStatus status = read_line_bounded(fd_, buffer_, line, kMaxResponseLineBytes);
    RQSIM_CHECK(status == ReadLineStatus::kLine, "perfbench: service connection lost");
    return line;
  }

 private:
  int fd_;
  std::string buffer_;
};

JobRecord run_job(Connection& conn, const RunSpec& run) {
  JobRecord record;
  SubmitParams params;
  params.trials = run.trials;
  params.seed = run.seed;
  params.threads = run.threads;
  params.frames = run.frames;
  params.tenant = run.tenant;
  const std::string submit = make_submit_request(run.workload, params).dump();

  const auto t0 = Clock::now();
  const Json submitted = Json::parse(conn.round_trip(submit));
  record.submit_rtt_ms = ms_between(t0, Clock::now());
  if (!submitted.get_bool("ok", false)) {
    record.error = submitted.get_string("error", "submit rejected");
    record.latency_ms = ms_between(t0, Clock::now());
    return record;
  }
  Json wait = Json::object();
  wait.set("op", Json("wait"));
  wait.set("job", Json(submitted.at("job").as_u64()));
  const std::string answer = conn.round_trip(wait.dump());
  const auto t1 = Clock::now();
  record.latency_ms = ms_between(t0, t1);
  const Json done = Json::parse(answer);
  record.decode_ms = ms_between(t1, Clock::now());
  record.result_bytes = answer.size();
  if (!done.get_bool("ok", false) || done.get_string("state", "") != "done" ||
      !done.has("result")) {
    record.error = done.get_string("detail", done.get_string("state", "failed"));
    return record;
  }
  const Json& result = done.at("result");
  record.queue_ms = result.get_number("queue_ms", 0.0);
  record.exec_ms = result.get_number("exec_ms", 0.0);
  record.batch_size = result.get_u64("batch_size", 1);
  if (result.has("histogram")) {
    record.histogram = result.at("histogram");
    for (const auto& [bits, count] : record.histogram.as_object()) {
      record.histogram_total += count.as_u64();
    }
  }
  record.ok = record.histogram_total == run.trials;
  if (!record.ok) {
    record.error = "histogram sums to " + std::to_string(record.histogram_total);
  }
  return record;
}

/// The same single-threaded job run alone, in process.
OutcomeHistogram solo_histogram(const RunSpec& run) {
  RQSIM_CHECK(run.threads <= 1, "perfbench: solo checks cover single-threaded jobs");
  const Workload workload = build_workload(run.workload);
  NoisyRunConfig config;
  config.num_trials = run.trials;
  config.seed = run.seed;
  return run_noisy(workload.circuit, workload.noise, config).histogram;
}

bool histogram_equals(const Json& remote, const OutcomeHistogram& local) {
  const Json::Object& entries = remote.as_object();
  if (entries.size() != local.size()) {
    return false;
  }
  for (const auto& [bits, count] : entries) {
    const auto it = local.find(from_bitstring(bits));
    if (it == local.end() || it->second != count.as_u64()) {
      return false;
    }
  }
  return true;
}

int cmd_load(const std::string& socket_path, const std::string& load_path) {
  const Json spec = read_json_file(load_path);
  std::vector<std::vector<RunSpec>> clients;
  for (const Json& client : spec.at("clients").as_array()) {
    std::vector<RunSpec> jobs;
    for (const Json& job : client.as_array()) {
      jobs.push_back(run_from_json(job));
    }
    clients.push_back(std::move(jobs));
  }

  std::vector<std::vector<JobRecord>> records(clients.size());
  std::vector<std::string> client_errors(clients.size());
  const auto t0 = Clock::now();
  {
    // jthreads join when the scope ends, on the exception path too.
    std::vector<std::jthread> threads;
    threads.reserve(clients.size());
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          Connection conn(socket_path);
          for (const RunSpec& run : clients[c]) {
            records[c].push_back(run_job(conn, run));
          }
        } catch (const std::exception& e) {
          client_errors[c] = e.what();
        }
      });
    }
  }
  const double wall_ms = ms_between(t0, Clock::now());

  Json stats;
  {
    Connection conn(socket_path);
    stats = Json::parse(conn.round_trip("{\"op\":\"stats\"}")).at("stats");
  }

  // Bitwise gate, outside the timed window: every kSoloCheckEvery-th job,
  // merged or not, must equal a solo in-process run with the same seed.
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  Json jobs = Json::array();
  std::size_t index = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (std::size_t k = 0; k < records[c].size(); ++k, ++index) {
      const JobRecord& r = records[c][k];
      if (r.ok && index % kSoloCheckEvery == 0) {
        ++checked;
        if (!histogram_equals(r.histogram, solo_histogram(clients[c][k]))) {
          ++mismatched;
        }
      }
      Json job = Json::object();
      job.set("ok", Json(r.ok));
      if (!r.ok) {
        job.set("error", Json(r.error));
      }
      job.set("latency_ms", Json(r.latency_ms));
      job.set("submit_rtt_ms", Json(r.submit_rtt_ms));
      job.set("decode_ms", Json(r.decode_ms));
      job.set("result_bytes", Json(static_cast<std::uint64_t>(r.result_bytes)));
      job.set("queue_ms", Json(r.queue_ms));
      job.set("exec_ms", Json(r.exec_ms));
      job.set("batch_size", Json(r.batch_size));
      jobs.push_back(std::move(job));
    }
  }
  std::uint64_t attempted = 0;
  Json errors = Json::array();
  for (std::size_t c = 0; c < clients.size(); ++c) {
    attempted += clients[c].size();
    if (!client_errors[c].empty()) {
      errors.push_back(Json(client_errors[c]));
    }
  }

  Json out = Json::object();
  out.set("wall_ms", Json(wall_ms));
  out.set("attempted", Json(attempted));
  out.set("jobs", std::move(jobs));
  out.set("client_errors", std::move(errors));
  out.set("solo_checked", Json(checked));
  out.set("solo_mismatched", Json(mismatched));
  out.set("stats", std::move(stats));
  std::cout << out.dump() << "\n";
  return 0;
}

int usage() {
  std::cerr << "usage: rqsim_perfbench copybw <array_mib> <reps>\n"
               "       rqsim_perfbench oracle <runs.json>\n"
               "       rqsim_perfbench trace <runs.json> <trace_out.json>\n"
               "       rqsim_perfbench load <socket_path> <load.json>\n";
  return 2;
}

}  // namespace
}  // namespace rqsim

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 3 && args[0] == "copybw") {
      return rqsim::cmd_copybw(std::stoull(args[1]), std::stoi(args[2]));
    }
    if (args.size() == 2 && args[0] == "oracle") {
      return rqsim::cmd_oracle(args[1]);
    }
    if (args.size() == 3 && args[0] == "trace") {
      return rqsim::cmd_trace(args[1], args[2]);
    }
    if (args.size() == 3 && args[0] == "load") {
      return rqsim::cmd_load(args[1], args[2]);
    }
  } catch (const std::exception& e) {
    std::cerr << "rqsim_perfbench: " << e.what() << "\n";
    return 1;
  }
  return rqsim::usage();
}
