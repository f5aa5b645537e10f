#include "cli/cli.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <thread>

#include "bench_circuits/factory.hpp"
#include "bench_circuits/suite.hpp"
#include "circuit/qasm.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "noise/calibration.hpp"
#include "noise/devices.hpp"
#include "report/csv.hpp"
#include "report/prom.hpp"
#include "report/table.hpp"
#include "report/trace_merge.hpp"
#include "router/router.hpp"
#include "sched/enumerate.hpp"
#include "sched/runner.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/workload.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {

namespace {

struct CliOptions {
  std::string circuit_spec;   // --circuit
  std::string qasm_path;      // --qasm
  std::string device = "yorktown";
  std::string device_csv;            // --device-csv
  unsigned device_qubits = 0;     // --qubits (artificial/ideal)
  double device_rate = 1e-3;      // --rate (artificial)
  double noise_scale = 1.0;       // --scale
  std::size_t trials = 1024;      // --trials
  std::uint64_t seed = 1;         // --seed
  std::string mode = "cached";    // --mode baseline|cached|unordered
  std::size_t threads = 1;        // --threads
  std::size_t max_states = 0;     // --max-states
  std::size_t top = 16;           // --top (histogram rows)
  std::size_t max_errors = 2;     // --max-errors (enumerate)
  std::string csv_path;           // --csv
  std::string trace_out;          // --trace-out (Chrome trace JSON)
  bool no_transpile = false;      // --no-transpile
  bool frames = false;            // --frames (Pauli-frame subtree collapse)

  // Service verbs (serve / submit / status / shutdown).
  std::string socket_path;        // --socket (unix-domain endpoint)
  int port = -1;                  // --port (TCP on 127.0.0.1; 0 = ephemeral)
  std::size_t workers = 2;        // --workers (serve)
  std::size_t queue_cap = 256;    // --queue-cap (serve)
  std::size_t batch = 8;          // --batch (serve: max jobs per merged batch)
  std::uint64_t job = 0;          // --job (status)
  bool wait = false;              // --wait (submit/status: block until done)
  bool analyze = false;           // --analyze (submit: accounting-only job)
  std::string priority = "normal";  // --priority low|normal|high (submit)

  // Fleet router verbs (route / drain / undrain) and submit --tenant.
  std::string tenant;                  // --tenant (submit: fair-share identity)
  std::vector<std::string> backends;   // --backend, repeatable (route; drain target)
  std::size_t capacity = 0;            // --capacity (route: fleet in-flight cap)
  std::size_t quota = 0;               // --quota (route: per-tenant in-flight cap)
  std::vector<std::string> weights;    // --weight tenant=w, repeatable (route)
  int health_interval_ms = 500;        // --health-interval (route)

  // Observability verbs (stats --prom / top / trace-merge).
  bool prom = false;           // --prom (stats: Prometheus text exposition)
  int interval_ms = 1000;      // --interval (top: refresh period, ms)
  std::size_t iterations = 0;  // --iterations (top: frame count, 0 = forever)
};

[[noreturn]] void usage_error(const std::string& message) {
  throw Error("cli: " + message + " (see 'rqsim help')");
}

std::uint64_t parse_u64_flag(const std::string& value, const std::string& flag) {
  // strtoull silently wraps negative input ("-5" becomes 2^64 - 5); reject
  // it before the resulting huge count reaches an allocation.
  if (!value.empty() && (value[0] == '-' || value[0] == '+')) {
    usage_error("value '" + value + "' for " + flag + " must be a plain "
                "non-negative integer");
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == value.c_str()) {
    usage_error("bad value '" + value + "' for " + flag);
  }
  return parsed;
}

double parse_double_flag(const std::string& value, const std::string& flag) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    usage_error("bad value '" + value + "' for " + flag);
  }
  return parsed;
}

CliOptions parse_options(const std::vector<std::string>& args, std::size_t begin) {
  CliOptions options;
  for (std::size_t i = begin; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        usage_error("missing value for " + flag);
      }
      return args[++i];
    };
    if (flag == "--circuit") {
      options.circuit_spec = value();
    } else if (flag == "--qasm") {
      options.qasm_path = value();
    } else if (flag == "--device") {
      options.device = value();
    } else if (flag == "--device-csv") {
      options.device_csv = value();
    } else if (flag == "--qubits") {
      options.device_qubits = static_cast<unsigned>(parse_u64_flag(value(), flag));
    } else if (flag == "--rate") {
      options.device_rate = parse_double_flag(value(), flag);
    } else if (flag == "--scale") {
      options.noise_scale = parse_double_flag(value(), flag);
    } else if (flag == "--trials") {
      options.trials = parse_u64_flag(value(), flag);
    } else if (flag == "--seed") {
      options.seed = parse_u64_flag(value(), flag);
    } else if (flag == "--mode") {
      options.mode = value();
    } else if (flag == "--threads") {
      options.threads = parse_u64_flag(value(), flag);
    } else if (flag == "--max-states") {
      options.max_states = parse_u64_flag(value(), flag);
    } else if (flag == "--top") {
      options.top = parse_u64_flag(value(), flag);
    } else if (flag == "--max-errors") {
      options.max_errors = parse_u64_flag(value(), flag);
    } else if (flag == "--csv") {
      options.csv_path = value();
    } else if (flag == "--trace-out") {
      options.trace_out = value();
    } else if (flag == "--no-transpile") {
      options.no_transpile = true;
    } else if (flag == "--frames") {
      options.frames = true;
    } else if (flag == "--socket") {
      options.socket_path = value();
    } else if (flag == "--port") {
      options.port = static_cast<int>(parse_u64_flag(value(), flag));
    } else if (flag == "--workers") {
      options.workers = parse_u64_flag(value(), flag);
    } else if (flag == "--queue-cap") {
      options.queue_cap = parse_u64_flag(value(), flag);
    } else if (flag == "--batch") {
      options.batch = parse_u64_flag(value(), flag);
    } else if (flag == "--job") {
      options.job = parse_u64_flag(value(), flag);
    } else if (flag == "--wait") {
      options.wait = true;
    } else if (flag == "--analyze") {
      options.analyze = true;
    } else if (flag == "--priority") {
      options.priority = value();
    } else if (flag == "--tenant") {
      options.tenant = value();
    } else if (flag == "--backend") {
      options.backends.push_back(value());
    } else if (flag == "--capacity") {
      options.capacity = parse_u64_flag(value(), flag);
    } else if (flag == "--quota") {
      options.quota = parse_u64_flag(value(), flag);
    } else if (flag == "--weight") {
      options.weights.push_back(value());
    } else if (flag == "--health-interval") {
      options.health_interval_ms = static_cast<int>(parse_u64_flag(value(), flag));
    } else if (flag == "--prom") {
      options.prom = true;
    } else if (flag == "--interval") {
      options.interval_ms = static_cast<int>(parse_u64_flag(value(), flag));
    } else if (flag == "--iterations") {
      options.iterations = parse_u64_flag(value(), flag);
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  return options;
}

// The workload the flags describe, as `submit` sends it: --qasm reads its
// file into the spec.
WorkloadSpec workload_spec(const CliOptions& options) {
  WorkloadSpec spec;
  if (!options.qasm_path.empty()) {
    std::ifstream file(options.qasm_path);
    if (!file) {
      usage_error("cannot open QASM file '" + options.qasm_path + "'");
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    spec.qasm = buffer.str();
  } else if (!options.circuit_spec.empty()) {
    spec.circuit_spec = options.circuit_spec;
  } else {
    usage_error("one of --circuit or --qasm is required");
  }
  spec.device = options.device;
  spec.device_qubits = options.device_qubits;
  spec.device_rate = options.device_rate;
  spec.noise_scale = options.noise_scale;
  spec.no_transpile = options.no_transpile;
  return spec;
}

// Resolve the flags' workload through build_workload's steps
// (service/workload.hpp), with --device-csv in place of a named device and
// the CLI's own error messages. The run verbs pass `transpile_log` for the
// "transpiled onto" line.
Workload load_workload(const CliOptions& options, std::ostream* transpile_log) {
  const WorkloadSpec spec = workload_spec(options);
  const Circuit logical = workload_circuit(spec);
  std::optional<DeviceModel> device;
  if (!options.device_csv.empty()) {
    device = load_calibration_csv(options.device_csv);
  } else {
    device = named_device(spec, logical.num_qubits());
    if (!device) {
      usage_error("unknown device '" + options.device + "' (" + kDeviceNames + ")");
    }
  }
  RQSIM_CHECK(fits_device(logical, *device, spec),
              "cli: circuit has more qubits than the device; use --qubits or "
              "--no-transpile with an ideal/artificial device");
  Workload workload = prepare_workload(logical, std::move(*device), spec);
  if (transpile_log != nullptr && !spec.no_transpile) {
    *transpile_log << "transpiled onto " << workload.device_name << ": "
                   << workload.circuit.num_gates() << " gates, "
                   << workload.swaps_inserted << " SWAPs inserted\n";
  }
  return workload;
}

ExecutionMode parse_mode(const std::string& mode) {
  if (mode == "baseline") {
    return ExecutionMode::kBaseline;
  }
  if (mode == "cached") {
    return ExecutionMode::kCachedReordered;
  }
  if (mode == "unordered") {
    return ExecutionMode::kCachedUnordered;
  }
  usage_error("unknown mode '" + mode + "' (baseline | cached | unordered)");
}

void print_result(const NoisyRunResult& result, std::size_t num_measured,
                  const CliOptions& options, std::ostream& out) {
  out << "ops executed        : " << result.ops << "\n";
  out << "baseline ops        : " << result.baseline_ops << "\n";
  out << "normalized compute  : " << format_double(result.normalized_computation, 4)
      << "  (" << format_double(100.0 * (1.0 - result.normalized_computation), 1)
      << "% saved)\n";
  out << "maintained states   : " << result.max_live_states << "\n";
  out << "mean errors/trial   : " << format_double(result.trial_stats.mean_errors, 3)
      << "\n";
  if (!result.histogram.empty()) {
    // Sort outcomes by count, print the top-k.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> rows(result.histogram.begin(),
                                                              result.histogram.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    out << "top outcomes:\n";
    for (std::size_t i = 0; i < rows.size() && i < options.top; ++i) {
      out << "  |" << to_bitstring(rows[i].first, static_cast<unsigned>(num_measured))
          << ">  " << rows[i].second << "\n";
    }
  }
  if (!options.csv_path.empty()) {
    std::vector<std::vector<std::string>> csv_rows;
    for (const auto& [outcome, count] : result.histogram) {
      csv_rows.push_back({to_bitstring(outcome, static_cast<unsigned>(num_measured)),
                          std::to_string(count)});
    }
    write_csv_file(options.csv_path, {"outcome", "count"}, csv_rows);
    out << "histogram written to " << options.csv_path << "\n";
  }
  if (result.telemetry.measured) {
    const TelemetrySummary& telem = result.telemetry;
    out << "telemetry:\n";
    out << "  measured ops      : " << telem.measured_ops << "\n";
    out << "  cache hit ratio   : " << format_double(telem.prefix_cache_hit_ratio, 4)
        << "  (" << telem.ops_saved_vs_baseline << " ops saved vs baseline)\n";
    out << "  wall time         : " << format_double(telem.wall_ms, 1) << " ms\n";
    out << "  pool reuse/alloc  : " << telem.pool_reuses << " / " << telem.pool_allocs
        << "\n";
    if (telem.steals > 0 || telem.inline_fallbacks > 0) {
      out << "  steals/fallbacks  : " << telem.steals << " / "
          << telem.inline_fallbacks << "\n";
    }
    if (telem.frame_collapsed_trials > 0) {
      out << "  frame trials      : " << telem.frame_collapsed_trials << "  ("
          << telem.frame_ops << " frame ops)\n";
    }
  }
}

int cmd_run(const std::vector<std::string>& args, std::ostream& out, bool analyze_only) {
  const CliOptions options = parse_options(args, 2);
  const Workload workload = load_workload(options, &out);
  const Circuit& circuit = workload.circuit;

  if (!options.trace_out.empty()) {
    if (!telemetry::compiled()) {
      usage_error("--trace-out requires a build with RQSIM_TELEMETRY=ON");
    }
    telemetry::set_thread_lane("cli.main");
    telemetry::start_tracing();
  }

  NoisyRunConfig config;
  config.num_trials = options.trials;
  config.seed = options.seed;
  config.mode = parse_mode(options.mode);
  config.max_states = options.max_states;
  config.num_threads = options.threads;
  config.frame_collapse = options.frames;
  const NoisyRunResult result = analyze_only ? analyze_noisy(circuit, workload.noise, config)
                                             : run_noisy(circuit, workload.noise, config);
  if (!options.trace_out.empty()) {
    telemetry::stop_tracing();
    const long events = telemetry::export_trace(options.trace_out);
    if (events < 0) {
      throw Error("cli: cannot write trace file '" + options.trace_out + "'");
    }
    out << "trace written to " << options.trace_out << " (" << events
        << " events";
    if (telemetry::trace_dropped_events() > 0) {
      out << ", " << telemetry::trace_dropped_events() << " dropped";
    }
    out << ")\n";
  }
  print_result(result, circuit.num_measured(), options, out);
  return 0;
}

int cmd_enumerate(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  if (options.threads != 1 || options.max_states != 0 || options.frames) {
    usage_error("enumerate runs on one thread without a state budget or frames; "
                "drop --threads, --max-states and --frames");
  }
  const Workload workload = load_workload(options, &out);
  const Circuit& circuit = workload.circuit;

  const TruncatedDistribution t =
      truncated_exact_distribution(circuit, workload.noise, options.max_errors);
  out << "configurations (<= " << options.max_errors
      << " errors): " << t.num_configurations << "\n";
  out << "covered probability mass : " << format_double(t.covered_mass, 6)
      << "  (TVD bound " << format_double(1.0 - t.covered_mass, 6) << ")\n";
  out << "ops with prefix sharing  : " << t.ops << " vs " << t.baseline_ops
      << " unshared\n";
  out << "maintained states        : " << t.max_live_states << "\n";
  out << "exact truncated distribution (renormalized):\n";
  for (std::uint64_t outcome = 0; outcome < t.probabilities.size(); ++outcome) {
    const double p = t.probabilities[outcome] / t.covered_mass;
    if (p > 1e-6) {
      out << "  |"
          << to_bitstring(outcome, static_cast<unsigned>(circuit.num_measured()))
          << ">  " << format_double(p, 6) << "\n";
    }
  }
  if (!options.csv_path.empty()) {
    std::vector<std::vector<std::string>> rows;
    for (std::uint64_t outcome = 0; outcome < t.probabilities.size(); ++outcome) {
      rows.push_back(
          {to_bitstring(outcome, static_cast<unsigned>(circuit.num_measured())),
           format_double(t.probabilities[outcome] / t.covered_mass, 9)});
    }
    write_csv_file(options.csv_path, {"outcome", "probability"}, rows);
    out << "distribution written to " << options.csv_path << "\n";
  }
  return 0;
}

// Static schedule verification: generate, order and build the prefix tree
// exactly as `run` would with the same flags (--frames and --max-states
// included), prove it without executing it, and print the proof artifacts.
int cmd_verify(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  const Workload workload = load_workload(options, &out);
  const Circuit& circuit = workload.circuit;

  NoisyRunConfig config;
  config.num_trials = options.trials;
  config.seed = options.seed;
  config.max_states = options.max_states;
  config.frame_collapse = options.frames;
  const PlanProof proof = prove_noisy(circuit, workload.noise, config);
  out << format_proof(proof);
  return proof.ok ? 0 : 1;
}

int cmd_transpile(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  out << to_qasm(load_workload(options, nullptr).circuit);
  return 0;
}

int cmd_suite(std::ostream& out) {
  TextTable table({"Name", "Qubit#", "Single#", "CNOT#", "Measure#"});
  for (const BenchmarkEntry& entry : make_table1_suite(yorktown_device())) {
    table.add_row({entry.name, std::to_string(entry.compiled.num_qubits()),
                   std::to_string(entry.compiled.count_single_qubit_gates()),
                   std::to_string(entry.compiled.count_kind(GateKind::CX)),
                   std::to_string(entry.compiled.num_measured())});
  }
  out << table.render();
  return 0;
}

// --------------------------------------------------------------------------
// Service verbs: serve runs the JSONL server in-process; submit / status /
// shutdown are thin protocol clients (service/protocol.hpp documents the
// wire format).

std::string service_endpoint(const CliOptions& options) {
  if (!options.socket_path.empty()) {
    return "unix:" + options.socket_path;
  }
  if (options.port >= 0) {
    return "tcp:127.0.0.1:" + std::to_string(options.port);
  }
  usage_error("service commands need --socket <path> or --port <n>");
}

int cmd_serve(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  if (options.socket_path.empty() && options.port < 0) {
    usage_error("serve needs --socket <path> or --port <n>");
  }
  ServerConfig config;
  config.unix_path = options.socket_path;
  config.tcp_port = options.port >= 0 ? options.port : 0;
  config.service.num_workers = std::max<std::size_t>(1, options.workers);
  config.service.queue_capacity = options.queue_cap;
  config.service.max_batch_jobs = options.batch;
  const ServiceConfig service_config = config.service;
  SimServer server(std::move(config));
  out << "rqsim service listening on " << server.endpoint() << " ("
      << service_config.num_workers << " workers, queue "
      << service_config.queue_capacity << ", batch "
      << service_config.max_batch_jobs << ")\n";
  out.flush();
  server.run();
  const ServiceStats stats = server.service().stats();
  out << "rqsim service stopped: " << stats.completed << " completed, "
      << stats.failed << " failed, " << stats.cancelled << " cancelled, "
      << stats.merged_batches << " merged batches\n";
  return 0;
}

[[noreturn]] void remote_error(const Json& response) {
  throw Error("service: " + response.get_string("error", "error") + " — " +
              response.get_string("detail", "(no detail)"));
}

void print_remote_result(const Json& result, const CliOptions& options,
                         std::ostream& out) {
  out << "ops executed        : " << static_cast<std::uint64_t>(result.get_number("ops", 0))
      << "\n";
  out << "baseline ops        : "
      << static_cast<std::uint64_t>(result.get_number("baseline_ops", 0)) << "\n";
  out << "normalized compute  : "
      << format_double(result.get_number("normalized_computation", 1.0), 4) << "\n";
  out << "maintained states   : "
      << static_cast<std::uint64_t>(result.get_number("max_live_states", 0)) << "\n";
  const std::uint64_t batch_size =
      static_cast<std::uint64_t>(result.get_number("batch_size", 1));
  out << "batch               : " << batch_size << " job(s)";
  if (batch_size > 1) {
    out << ", merged ops " << static_cast<std::uint64_t>(result.get_number("batch_ops", 0))
        << " vs solo " << static_cast<std::uint64_t>(result.get_number("solo_ops", 0));
  }
  out << "\n";
  out << "queue/exec time     : " << format_double(result.get_number("queue_ms", 0.0), 1)
      << " ms / " << format_double(result.get_number("exec_ms", 0.0), 1) << " ms\n";
  if (result.has("histogram")) {
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    for (const auto& [bits, count] : result.at("histogram").as_object()) {
      rows.emplace_back(bits, count.as_u64());
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    out << "top outcomes:\n";
    for (std::size_t i = 0; i < rows.size() && i < options.top; ++i) {
      out << "  |" << rows[i].first << ">  " << rows[i].second << "\n";
    }
    if (!options.csv_path.empty()) {
      std::vector<std::vector<std::string>> csv_rows;
      for (const auto& [bits, count] : rows) {
        csv_rows.push_back({bits, std::to_string(count)});
      }
      write_csv_file(options.csv_path, {"outcome", "count"}, csv_rows);
      out << "histogram written to " << options.csv_path << "\n";
    }
  }
}

void print_remote_status(const Json& response, const CliOptions& options,
                         std::ostream& out) {
  const std::uint64_t job = response.at("job").as_u64();
  const std::string state = response.get_string("state", "unknown");
  out << "job " << job << ": " << state << "\n";
  if (response.has("result")) {
    print_remote_result(response.at("result"), options, out);
  } else if (response.has("detail")) {
    out << "detail: " << response.get_string("detail", "") << "\n";
  }
}

int cmd_submit(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  const WorkloadSpec workload = workload_spec(options);

  SubmitParams params;
  params.trials = options.trials;
  params.seed = options.seed;
  params.mode = options.mode;
  params.max_states = options.max_states;
  params.threads = options.threads;
  params.priority = options.priority;
  params.analyze = options.analyze;
  params.frames = options.frames;
  params.tenant = options.tenant;

  ServiceClient client = ServiceClient::connect(service_endpoint(options));
  const Json response = client.request(make_submit_request(workload, params));
  if (!response.get_bool("ok", false)) {
    remote_error(response);
  }
  const std::uint64_t job = response.at("job").as_u64();
  out << "submitted job " << job;
  if (response.has("trace_id")) {
    out << " (trace " << response.get_string("trace_id", "") << ")";
  }
  out << "\n";
  if (options.wait) {
    Json wait_request = Json::object();
    wait_request.set("op", Json("wait"));
    wait_request.set("job", Json(job));
    const Json done = client.request(wait_request);
    if (!done.get_bool("ok", false)) {
      remote_error(done);
    }
    print_remote_status(done, options, out);
  }
  return 0;
}

// One "p50/p90/p99" cell from a latency-histogram json (µs values).
std::string quantile_cell(const Json& hist) {
  return format_double(hist.get_number("p50", 0.0), 0) + "/" +
         format_double(hist.get_number("p90", 0.0), 0) + "/" +
         format_double(hist.get_number("p99", 0.0), 0);
}

// Human-readable SLO rendering: per-tenant latency quantiles and the
// slowest jobs with their trace ids (joinable against a merged trace).
void print_slo(const Json& slo, std::ostream& out) {
  const auto print_tenant = [&out](const std::string& label, const Json& t) {
    if (!t.is_object() || !t.has("e2e_us")) {
      return;
    }
    out << "  " << label << ": e2e " << quantile_cell(t.at("e2e_us"));
    if (t.has("queue_us")) {
      out << "  queue " << quantile_cell(t.at("queue_us"));
    }
    if (t.has("exec_us")) {
      out << "  exec " << quantile_cell(t.at("exec_us"));
    }
    out << "  (n=" << t.at("e2e_us").get_u64("count", 0) << ")\n";
  };
  out << "slo latency us (p50/p90/p99):\n";
  if (slo.has("tenants") && slo.at("tenants").is_object()) {
    for (const auto& [tenant, t] : slo.at("tenants").as_object()) {
      print_tenant("tenant " + (tenant.empty() ? "(anonymous)" : tenant), t);
    }
  }
  if (slo.has("total")) {
    print_tenant("total", slo.at("total"));
    const Json& total = slo.at("total");
    if (total.is_object() && total.has("exemplars") &&
        total.at("exemplars").is_array() &&
        !total.at("exemplars").as_array().empty()) {
      out << "slowest jobs:\n";
      for (const Json& ex : total.at("exemplars").as_array()) {
        out << "  job " << ex.get_u64("job", 0) << "  trace "
            << ex.get_string("trace_id", "-") << "  e2e "
            << ex.get_u64("e2e_us", 0) << " us\n";
      }
    }
  }
}

int cmd_status(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  ServiceClient client = ServiceClient::connect(service_endpoint(options));
  if (options.job == 0) {
    // No --job: print the service-wide counters instead.
    const Json response = client.request(Json::parse("{\"op\":\"stats\"}"));
    if (!response.get_bool("ok", false)) {
      remote_error(response);
    }
    if (response.has("build")) {
      const Json& build = response.at("build");
      out << "build " << build.get_string("version", "?") << ", up "
          << format_double(build.get_number("uptime_ms", 0.0) / 1000.0, 1)
          << " s\n";
    }
    const Json& stats = response.at("stats");
    out << "service stats:\n";
    for (const auto& [key, value] : stats.as_object()) {
      out << "  " << key << ": " << value.dump() << "\n";
    }
    if (response.has("slo")) {
      print_slo(response.at("slo"), out);
    }
    return 0;
  }
  Json request = Json::object();
  request.set("op", Json(options.wait ? "wait" : "status"));
  request.set("job", Json(options.job));
  const Json response = client.request(request);
  if (!response.get_bool("ok", false)) {
    remote_error(response);
  }
  print_remote_status(response, options, out);
  return 0;
}

// Live metrics snapshot from a running service, as one JSON line: the
// service counters plus the full telemetry registry (protocol `stats` op),
// the SLO quantile layer, and build identity. --prom renders the same
// response as Prometheus text exposition instead.
int cmd_stats(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  ServiceClient client = ServiceClient::connect(service_endpoint(options));
  const Json response = client.request(Json::parse("{\"op\":\"stats\"}"));
  if (!response.get_bool("ok", false)) {
    remote_error(response);
  }
  if (options.prom) {
    out << stats_to_prometheus(response);
    return 0;
  }
  Json snapshot = Json::object();
  snapshot.set("stats", response.at("stats"));
  if (response.has("telemetry")) {
    snapshot.set("telemetry", response.at("telemetry"));
  }
  if (response.has("slo")) {
    snapshot.set("slo", response.at("slo"));
  }
  if (response.has("build")) {
    snapshot.set("build", response.at("build"));
  }
  if (response.has("fleet")) {
    // The endpoint is a fleet router: include the per-backend / per-tenant
    // breakdown and the cross-tenant merge hit rate.
    snapshot.set("fleet", response.at("fleet"));
  }
  out << snapshot.dump() << "\n";
  return 0;
}

// Render one `rqsim top` frame from a stats response. `jobs_per_s` is the
// completed-job rate measured between refreshes (0 on the first frame).
void print_top_frame(const Json& response, double jobs_per_s,
                     std::ostream& out) {
  out << "rqsim top";
  if (response.has("build")) {
    const Json& build = response.at("build");
    out << " — " << build.get_string("version", "?") << ", up "
        << format_double(build.get_number("uptime_ms", 0.0) / 1000.0, 1)
        << " s";
  }
  out << "    " << format_double(jobs_per_s, 1) << " jobs/s\n";

  const Json& stats = response.at("stats");
  out << "jobs: " << stats.get_u64("completed", 0) << " done, "
      << stats.get_u64("failed", 0) << " failed, "
      << stats.get_u64("queued_now", 0) << " queued, "
      << stats.get_u64("running_now", 0) << " running"
      << "    batches: " << stats.get_u64("merged_batches", 0) << " merged ("
      << stats.get_u64("merged_jobs", 0) << " jobs)\n";

  if (response.has("telemetry") && response.at("telemetry").is_object()) {
    const Json& telemetry = response.at("telemetry");
    const double acquires = telemetry.get_number("buffer_pool.acquires", 0.0);
    const double hits = telemetry.get_number("buffer_pool.shard_hits", 0.0) +
                        telemetry.get_number("buffer_pool.global_hits", 0.0);
    const double tasks = telemetry.get_number("tree_exec.tasks", 0.0);
    const double collapsed =
        telemetry.get_number("sim.frame_collapsed_trials", 0.0);
    out << "cache: buffer-pool hit "
        << format_double(acquires > 0 ? 100.0 * hits / acquires : 0.0, 1)
        << "%    frames: " << format_double(collapsed, 0)
        << " trials collapsed"
        << (tasks > 0 ? " (" + format_double(100.0 * collapsed /
                                                 (collapsed + tasks), 1) +
                            "% of tree work)"
                      : "")
        << "\n";
  }

  if (response.has("fleet") && response.at("fleet").is_object()) {
    const Json& fleet = response.at("fleet");
    if (fleet.has("backends") && fleet.at("backends").is_array()) {
      out << "backends:\n";
      out << "  endpoint                        state     queue  inflight"
             "  e2e p99 us  version\n";
      for (const Json& backend : fleet.at("backends").as_array()) {
        std::string endpoint = backend.get_string("endpoint", "?");
        endpoint.resize(30, ' ');
        std::string state = backend.get_string("state", "?");
        if (backend.get_bool("draining", false)) {
          state += "*";
        }
        state.resize(8, ' ');
        out << "  " << endpoint << "  " << state << "  "
            << backend.get_u64("queued_now", 0) << "      "
            << backend.get_u64("inflight", 0) << "         "
            << format_double(backend.get_number("e2e_p99_us", 0.0), 0)
            << "        " << backend.get_string("version", "-") << "\n";
      }
    }
    if (fleet.has("tenants") && fleet.at("tenants").is_object() &&
        !fleet.at("tenants").as_object().empty()) {
      out << "tenants (fair-share occupancy):\n";
      for (const auto& [tenant, entry] : fleet.at("tenants").as_object()) {
        out << "  " << tenant << ": " << entry.get_u64("inflight", 0)
            << " in flight, " << entry.get_u64("admitted", 0) << " admitted, "
            << entry.get_u64("rejected", 0) << " rejected (weight "
            << format_double(entry.get_number("weight", 1.0), 1) << ")\n";
      }
    }
    out << "cross-tenant merge hit rate: "
        << format_double(
               100.0 * fleet.get_number("cross_tenant_merge_hit_rate", 0.0), 1)
        << "%\n";
  }

  if (response.has("slo")) {
    print_slo(response.at("slo"), out);
  }
}

// Refreshing terminal view over the stats fan-out: throughput, queue
// depths, cache-hit / frame-collapse rates, tenant occupancy and tail
// latency. --interval sets the refresh period; --iterations bounds the
// frame count (0 = run until interrupted; each frame repaints in place).
int cmd_top(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  ServiceClient client = ServiceClient::connect(service_endpoint(options));
  std::uint64_t prev_completed = 0;
  telemetry::TimePoint prev_time = telemetry::clock_now();
  for (std::size_t frame = 0;
       options.iterations == 0 || frame < options.iterations; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(1, options.interval_ms)));
    }
    const Json response = client.request(Json::parse("{\"op\":\"stats\"}"));
    if (!response.get_bool("ok", false)) {
      remote_error(response);
    }
    const std::uint64_t completed =
        response.at("stats").get_u64("completed", 0);
    const telemetry::TimePoint now = telemetry::clock_now();
    const double elapsed_s = telemetry::ms_between(prev_time, now) / 1000.0;
    const double jobs_per_s =
        frame > 0 && elapsed_s > 0 && completed >= prev_completed
            ? static_cast<double>(completed - prev_completed) / elapsed_s
            : 0.0;
    prev_completed = completed;
    prev_time = now;
    if (frame > 0) {
      out << "\x1b[H\x1b[2J";  // cursor home + clear screen: repaint in place
    }
    print_top_frame(response, jobs_per_s, out);
    out.flush();
  }
  return 0;
}

// --------------------------------------------------------------------------
// Distributed-trace verbs (telemetry/trace.hpp, report/trace_merge.hpp).

// Send a `trace` start/stop to a service or router; the router fans the
// action out to every backend so the whole fleet records one trace window.
int cmd_trace_toggle(const std::vector<std::string>& args, std::ostream& out,
                     const char* action) {
  const CliOptions options = parse_options(args, 2);
  ServiceClient client = ServiceClient::connect(service_endpoint(options));
  Json request = Json::object();
  request.set("op", Json("trace"));
  request.set("action", Json(std::string(action)));
  const Json response = client.request(request);
  if (!response.get_bool("ok", false)) {
    remote_error(response);
  }
  out << "tracing " << (response.get_bool("tracing", false) ? "started"
                                                            : "stopped");
  if (response.has("backends")) {
    out << " on router + " << response.get_u64("backends", 0) << " backend(s)";
  }
  out << "\n";
  return 0;
}

// Collect per-process trace buffers (router: every backend plus itself,
// skew-corrected; single service: its own buffer) and stitch them into one
// Chrome-trace file with a lane per process.
int cmd_trace_merge(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  ServiceClient client = ServiceClient::connect(service_endpoint(options));
  Json request = Json::object();
  request.set("op", Json("trace"));
  request.set("action", Json("collect"));
  const Json response = client.request(request);
  if (!response.get_bool("ok", false)) {
    remote_error(response);
  }
  Json merged;
  if (response.has("processes")) {
    merged = merge_collect_response(response);
  } else {
    // Single-service endpoint: wrap its lone buffer as a one-process doc so
    // the output is the same merged shape either way.
    TraceProcessDoc doc;
    doc.name = "service";
    if (response.has("trace")) {
      doc.trace = response.at("trace");
    }
    doc.epoch_us = response.get_number("epoch_us", 0.0);
    merged = merge_traces({doc});
  }
  const std::size_t events =
      merged.at("traceEvents").as_array().size();
  if (options.trace_out.empty()) {
    out << merged.dump() << "\n";
    return 0;
  }
  std::ofstream file(options.trace_out);
  if (!file) {
    usage_error("cannot open trace output file '" + options.trace_out + "'");
  }
  file << merged.dump() << "\n";
  out << "merged trace: " << events << " events written to "
      << options.trace_out << "\n";
  return 0;
}

// --------------------------------------------------------------------------
// Fleet router verbs (router/router.hpp documents the semantics).

int cmd_route(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  if (options.socket_path.empty() && options.port < 0) {
    usage_error("route needs --socket <path> or --port <n> for the front");
  }
  if (options.backends.empty()) {
    usage_error("route needs at least one --backend <endpoint>");
  }
  RouterConfig config;
  config.unix_path = options.socket_path;
  config.tcp_port = options.port >= 0 ? options.port : 0;
  config.backends = options.backends;
  config.health.interval_ms = options.health_interval_ms;
  config.admission.fleet_capacity = options.capacity;
  config.admission.tenant_quota = options.quota;
  for (const std::string& entry : options.weights) {
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      usage_error("--weight expects tenant=weight, got '" + entry + "'");
    }
    config.admission.weights[entry.substr(0, eq)] =
        parse_double_flag(entry.substr(eq + 1), "--weight");
  }
  FleetRouter router(std::move(config));
  out << "rqsim fleet router listening on " << router.endpoint() << " ("
      << options.backends.size() << " backends";
  if (options.capacity > 0) {
    out << ", capacity " << options.capacity;
  }
  if (options.quota > 0) {
    out << ", quota " << options.quota;
  }
  out << ")\n";
  out.flush();
  router.run();
  out << "rqsim fleet router stopped\n";
  return 0;
}

int cmd_drain(const std::vector<std::string>& args, std::ostream& out,
              bool draining) {
  const CliOptions options = parse_options(args, 2);
  if (options.backends.size() != 1) {
    usage_error("drain/undrain needs exactly one --backend <endpoint>");
  }
  ServiceClient client = ServiceClient::connect(service_endpoint(options));
  Json request = Json::object();
  request.set("op", Json(draining ? "drain" : "undrain"));
  request.set("backend", Json(options.backends.front()));
  const Json response = client.request(request);
  if (!response.get_bool("ok", false)) {
    remote_error(response);
  }
  out << "backend " << options.backends.front()
      << (draining ? " draining" : " undrained");
  if (response.has("inflight")) {
    out << " (" << response.get_u64("inflight", 0) << " in flight)";
  }
  out << "\n";
  return 0;
}

int cmd_shutdown(const std::vector<std::string>& args, std::ostream& out) {
  const CliOptions options = parse_options(args, 2);
  ServiceClient client = ServiceClient::connect(service_endpoint(options));
  Json request = Json::object();
  request.set("op", Json("shutdown"));
  const Json response = client.request(request);
  if (!response.get_bool("ok", false)) {
    remote_error(response);
  }
  out << "service shutting down\n";
  return 0;
}

void print_usage(std::ostream& out) {
  out << "rqsim — accelerated noisy quantum-circuit simulation\n\n"
         "usage: rqsim <command> [flags]\n\n"
         "commands:\n"
         "  run        noisy Monte Carlo simulation (statevector)\n"
         "  analyze    op/MSV accounting only (any qubit count)\n"
         "  enumerate  exact truncated error-configuration enumeration\n"
         "  verify     statically prove the prefix tree `run` executes\n"
         "  transpile  compile a circuit onto a device, print QASM\n"
         "  suite      show the built-in benchmark suite\n"
         "  serve      run the simulation service (JSONL over a socket)\n"
         "  submit     send a job to a running service\n"
         "  status     poll (or --wait for) a job; without --job, service stats\n"
         "  stats      metrics snapshot of a running service as one JSON line\n"
         "             (--prom: Prometheus text exposition instead)\n"
         "  top        refreshing terminal view over the stats fan-out\n"
         "  shutdown   stop a running service (or fleet router)\n"
         "  route      run the fleet router in front of N backend services\n"
         "  drain      stop routing new jobs to a backend (undrain reverses)\n"
         "  trace-start  start distributed tracing (router: whole fleet)\n"
         "  trace-stop   stop distributed tracing\n"
         "  trace-merge  collect per-process buffers, stitch one Chrome trace\n"
         "               (clock-skew corrected; --trace-out <file>, else stdout)\n"
         "  help       this text\n\n"
         "flags:\n"
         "  --circuit <spec>      named circuit (see below)\n"
         "  --qasm <file>         OpenQASM 2.0 input\n"
         "  --device <name>       yorktown | yorktown-directed | artificial | ideal\n"
         "  --device-csv <file>   calibration CSV (see noise/calibration.hpp)\n"
         "  --qubits <n>          device size for artificial/ideal\n"
         "  --rate <p>            single-qubit error rate for artificial (default 1e-3)\n"
         "  --scale <f>           scale every noise rate by f\n"
         "  --trials <n>          Monte Carlo trials (default 1024)\n"
         "  --seed <n>            RNG seed (default 1)\n"
         "  --mode <m>            baseline | cached | unordered (default cached)\n"
         "  --threads <n>         run/submit: prefix-tree workers (default 1;\n"
         "                        results are bitwise identical at every count)\n"
         "  --max-states <n>      MSV budget (0 = unlimited)\n"
         "  --frames              Pauli-frame subtree collapse (cached runs:\n"
         "                        Clifford-propagatable trials finish as tracked\n"
         "                        frames, bitwise-identical, fewer matvec ops;\n"
         "                        analyze rejects it: prove the count with verify)\n"
         "  --top <k>             histogram rows to print (default 16)\n"
         "  --max-errors <k>      enumeration truncation order (default 2)\n"
         "  --csv <file>          write the outcome histogram as CSV\n"
         "  --trace-out <file>    run: write a Chrome trace (Perfetto-loadable)\n"
         "  --no-transpile        skip routing (all-to-all connectivity)\n\n"
         "service flags:\n"
         "  --socket <path>       unix-domain socket endpoint\n"
         "  --port <n>            TCP endpoint on 127.0.0.1 (serve: 0 = ephemeral)\n"
         "  --workers <n>         serve: worker threads (default 2)\n"
         "  --queue-cap <n>       serve: bounded queue capacity (default 256)\n"
         "  --batch <n>           serve: max jobs per merged batch (default 8)\n"
         "  --job <id>            status: job to query\n"
         "  --wait                submit/status: block until the job is done\n"
         "  --analyze             submit: accounting-only job (any qubit count)\n"
         "  --priority <p>        submit: low | normal | high (default normal)\n"
         "  --tenant <name>       submit: fair-share identity at the router\n"
         "  --prom                stats: Prometheus text format (scrapable)\n"
         "  --interval <ms>       top: refresh period (default 1000)\n"
         "  --iterations <n>      top: frames to draw (default 0 = forever)\n\n"
         "fleet router flags (route / drain / undrain):\n"
         "  --backend <ep>        backend endpoint (unix:/path or host:port);\n"
         "                        repeat for each backend. drain: the target\n"
         "  --capacity <n>        fleet-wide in-flight job cap (0 = unlimited)\n"
         "  --quota <n>           per-tenant in-flight job cap (0 = none)\n"
         "  --weight <t=w>        fair-share weight for tenant t (default 1.0)\n"
         "  --health-interval <ms> backend health-check period (default 500)\n\n"
         "circuits:\n";
  for (const std::string& line : named_circuit_help()) {
    out << "  " << line << "\n";
  }
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  try {
    if (args.size() < 2 || args[1] == "help" || args[1] == "--help") {
      print_usage(out);
      return args.size() < 2 ? 1 : 0;
    }
    const std::string& command = args[1];
    if (command == "run") {
      return cmd_run(args, out, /*analyze_only=*/false);
    }
    if (command == "analyze") {
      return cmd_run(args, out, /*analyze_only=*/true);
    }
    if (command == "enumerate") {
      return cmd_enumerate(args, out);
    }
    if (command == "verify") {
      return cmd_verify(args, out);
    }
    if (command == "transpile") {
      return cmd_transpile(args, out);
    }
    if (command == "suite") {
      return cmd_suite(out);
    }
    if (command == "serve") {
      return cmd_serve(args, out);
    }
    if (command == "submit") {
      return cmd_submit(args, out);
    }
    if (command == "status") {
      return cmd_status(args, out);
    }
    if (command == "stats") {
      return cmd_stats(args, out);
    }
    if (command == "top") {
      return cmd_top(args, out);
    }
    if (command == "trace-start") {
      return cmd_trace_toggle(args, out, "start");
    }
    if (command == "trace-stop") {
      return cmd_trace_toggle(args, out, "stop");
    }
    if (command == "trace-merge") {
      return cmd_trace_merge(args, out);
    }
    if (command == "shutdown") {
      return cmd_shutdown(args, out);
    }
    if (command == "route") {
      return cmd_route(args, out);
    }
    if (command == "drain") {
      return cmd_drain(args, out, /*draining=*/true);
    }
    if (command == "undrain") {
      return cmd_drain(args, out, /*draining=*/false);
    }
    err << "rqsim: unknown command '" << command << "' (see 'rqsim help')\n";
    return 1;
  } catch (const Error& e) {
    err << "rqsim: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace rqsim
