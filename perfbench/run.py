#!/usr/bin/env python3
"""rqsim benchmark: one workload run, end to end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the shipped `rqsim` CLI
and the `rqsim_perfbench` helper from src/ into .bench_build/ (CMake), later
calls only re-check the build. Workloads, metrics and the layer map are
documented in perfbench/README.md.

--trace 0 measures the end-to-end metrics through the shipped binary: `rqsim
run` invocations for the batch workloads, `rqsim serve` plus closed-loop
JSONL clients for service_mix. --trace 1 runs the separate traced layer pass
and reports the per-layer metrics. Both check the outputs.

stdout: one JSON line with the host fingerprint and run details, then, as
the last line, {"correct", "attempted", "failed", "metrics"}. Diagnostics
go to stderr. Exits non-zero without a result when the program cannot be
built; a measurement that breaks off still prints a result, with
"correct": false.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import socket
import statistics
import subprocess
import sys
import time

BUILD = ".bench_build"
RQSIM = os.path.join(BUILD, "rqsim", "rqsim")
HELPER = os.path.join(BUILD, "rqsim_perfbench")
WORK = os.path.join(BUILD, "work")
SOCKET = os.path.join(WORK, "svc.sock")

TABLE1 = ["rb", "grover", "wstate", "7x1mod15", "bv4", "bv5",
          "qft4", "qft5", "qv_n5d2", "qv_n5d3", "qv_n5d4", "qv_n5d5"]

SETUP_BURST_S = 0.25      # set-up repeated before every measured pass, at least
SETUP_BURST_MIN = 3       # this long and this many times; setup_s is the median
MIN_PASSES = 3            # measured passes per run, at least
SERVICE_CLIENTS = 4       # closed-loop connections for service_mix
SERVICE_JOBS_PER_CLIENT = 256  # 1024 jobs a pass: >= 10 samples beyond p99
SERVICE_TRIALS = 2048
FAILED_LATENCY_MS = 1e9   # a failed request misses every latency limit
ORACLE_FALSE_ALARM = 1e-6  # family-wise, per table1_bulk run


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def derive(seed, *parts):
    """Sub-seed for one input, a pure function of the benchmark seed."""
    text = "/".join(str(p) for p in (seed,) + parts)
    return 1 + int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") % (2**31 - 1)


# --------------------------------------------------------------------------
# Workloads. A run is one `rqsim run` invocation (or one service job).

def batch_runs(workload, seed, pass_index):
    """The invocations of one pass; every pass draws fresh inputs."""
    if workload == "table1_bulk":
        return [{"name": c, "circuit": c, "device": "yorktown", "trials": 262144,
                 "seed": derive(seed, pass_index, c), "threads": 4, "frames": True}
                for c in TABLE1]
    if workload == "qft18_t4":
        return [{"name": "qft18", "circuit": "qft:18", "device": "artificial",
                 "qubits": 18, "rate": 1e-3, "no_transpile": True, "trials": 128,
                 "seed": derive(seed, pass_index, "qft18"), "threads": 4}]
    if workload == "qv24_t1":
        circuit = "qv:24:1:%d" % derive(seed, pass_index, "qv24", "circuit")
        return [{"name": "qv24", "circuit": circuit, "device": "ideal", "qubits": 24,
                 "no_transpile": True, "trials": 4,
                 "seed": derive(seed, pass_index, "qv24"), "threads": 1}]
    return None


def service_jobs(seed, pass_index):
    """Per client, the closed-loop job sequence of one service_mix pass."""
    classes = ["qft5", "qv_n5d5"]
    return [[{"name": classes[(c + k) % 2], "circuit": classes[(c + k) % 2],
              "device": "yorktown", "trials": SERVICE_TRIALS,
              "seed": derive(seed, "svc", pass_index, c, k), "threads": 1,
              "tenant": "tenant%d" % c}
             for k in range(SERVICE_JOBS_PER_CLIENT)]
            for c in range(SERVICE_CLIENTS)]


WORKLOADS = ["table1_bulk", "qft18_t4", "qv24_t1", "service_mix"]


# --------------------------------------------------------------------------
# Processes

def spawn_wait(args):
    """Run to completion; (seconds, peak RSS MiB, exit code, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, err.decode(errors="replace")


def helper(*args):
    out = subprocess.run([HELPER] + [str(a) for a in args], stdout=subprocess.PIPE,
                         check=True).stdout
    return json.loads(out)


def write_json(name, value):
    path = os.path.join(WORK, name)
    with open(path, "w") as f:
        json.dump(value, f)
    return path


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("perfbench: no rqsim sources (src/) under", os.getcwd())
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "rqsim_cli",
                    "rqsim_perfbench"], stdout=sys.stderr, check=True)
    os.makedirs(WORK, exist_ok=True)


# --------------------------------------------------------------------------
# Host fingerprint

def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def parse_size(text):
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def cpu_steal():
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    fields = [int(x) for x in read_text("/proc/stat").splitlines()[0].split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def host_fingerprint():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read_text(os.path.join(base, entry, "level"))
        kind = read_text(os.path.join(base, entry, "type"))
        if kind in ("Unified", "Data"):
            caches["L%s" % level] = parse_size(read_text(os.path.join(base, entry, "size")))
    model, flags = "", []
    for line in read_text("/proc/cpuinfo").splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and not model:
            model = value.strip()
        if key.strip() == "flags" and not flags:
            flags = sorted(f for f in value.split()
                           if f.startswith(("avx", "amx", "fma", "sse4", "bmi")))
    llc = caches.get("L3") or caches.get("L2") or (32 << 20)
    # Each array at least 4x the last-level cache, so the copy streams DRAM.
    array_mib = max(64, 4 * llc >> 20)
    copy = helper("copybw", array_mib, 5)
    return {"cpu": model, "cores": len(os.sched_getaffinity(0)), "isa": flags,
            "l2_bytes": caches.get("L2", 0), "l3_bytes": caches.get("L3", 0),
            "copy_array_mib": array_mib, "copy_arrays": 2,
            "copy_gbps": copy["copy_gbps"]}


# --------------------------------------------------------------------------
# Statistics

def percentile(values, q):
    """Linear-interpolated percentile; infinite samples (failures) propagate."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(data[hi]):
        return math.inf
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def finite(value):
    return FAILED_LATENCY_MS if math.isinf(value) else value


def metric(value, unit):
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# Batch workloads (`rqsim run`)

def cli_args(run, trials=None, csv_path=None):
    args = [RQSIM, "run", "--circuit", run["circuit"], "--device", run["device"],
            "--trials", str(run["trials"] if trials is None else trials),
            "--seed", str(run["seed"]), "--threads", str(run["threads"]), "--top", "0"]
    if run.get("qubits"):
        args += ["--qubits", str(run["qubits"])]
    if run["device"] == "artificial":
        args += ["--rate", repr(run["rate"])]
    if run.get("no_transpile"):
        args.append("--no-transpile")
    if run.get("frames"):
        args.append("--frames")
    if csv_path:
        args += ["--csv", csv_path]
    return args


def read_histogram(path):
    with open(path, newline="") as f:
        return {row["outcome"]: int(row["count"]) for row in csv.DictReader(f)}


def cli_pass(runs, problems, trials=None, with_csv=True):
    """One pass over the workload's invocations. Returns per-invocation
    (seconds, rss_mib, ok) and the histograms read back from --csv."""
    results, histograms = [], {}
    for i, run in enumerate(runs):
        csv_path = os.path.join(WORK, "hist%d.csv" % i) if with_csv else None
        if csv_path and os.path.exists(csv_path):
            os.remove(csv_path)
        seconds, rss, code, err = spawn_wait(cli_args(run, trials, csv_path))
        ok = code == 0
        if not ok:
            problems.append("%s: rqsim run exited %d: %s" % (run["name"], code, err.strip()))
        elif csv_path:
            hist = read_histogram(csv_path)
            if sum(hist.values()) != run["trials"]:
                problems.append("%s: histogram sums to %d, not %d"
                                % (run["name"], sum(hist.values()), run["trials"]))
                ok = False
            histograms[run["name"]] = hist
        results.append((seconds, rss, ok))
    return results, histograms


def bernstein_check(runs, histograms, exact, problems):
    """table1_bulk histograms against the exact density-matrix distribution.
    Per outcome, Bernstein's inequality bounds |count - N p| with a fixed
    false-alarm rate; the union over all outcomes keeps it family-wise.
    Returns the largest deviation as a fraction of its bound."""
    cells = sum(len(exact[run["name"]]) for run in runs)
    log_term = math.log(2.0 * cells / ORACLE_FALSE_ALARM)
    worst = 0.0
    for run in runs:
        n = run["trials"]
        hist = histograms.get(run["name"], {})
        for outcome, p in exact[run["name"]].items():
            bound = math.sqrt(2.0 * n * p * (1.0 - p) * log_term) + 2.0 * log_term / 3.0
            dev = abs(hist.get(outcome, 0) - n * p)
            worst = max(worst, dev / bound)
            if dev > bound:
                problems.append("%s |%s>: count %d vs exact %.1f exceeds bound %.1f"
                                % (run["name"], outcome, hist.get(outcome, 0), n * p, bound))
        for outcome in hist:
            if outcome not in exact[run["name"]]:
                problems.append("%s: outcome %s outside the exact support"
                                % (run["name"], outcome))
    return worst


def setup_burst(index, one_setup, samples):
    """Set up repeatedly, for SETUP_BURST_S and SETUP_BURST_MIN times at least.
    one_setup(index) returns the seconds of one set-up of pass `index`."""
    start = time.perf_counter()
    count = 0
    while count < SETUP_BURST_MIN or time.perf_counter() - start < SETUP_BURST_S:
        samples.append(one_setup(index))
        count += 1


def measure_window(seconds, one_pass, one_setup):
    """Pass 0 warms up (checked, not timed); passes 1, 2, ... are measured
    while another pass still fits in `seconds`, and at least MIN_PASSES run.
    Each pass returns (wall seconds, peak RSS MiB, request latencies in ms).
    A burst of set-ups precedes every measured pass, outside its timing, so
    the setup_s median spans the whole run rather than one moment of it."""
    one_pass(0)
    passes, setup = [], []
    steal0 = cpu_steal()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (time.perf_counter() - start) * (
            len(passes) + 1) / len(passes) <= seconds:
        setup_burst(len(passes) + 1, one_setup, setup)
        passes.append(one_pass(len(passes) + 1))
    steal1 = cpu_steal()
    # Every metric but setup_s is the median over passes of its per-pass
    # value, so one pass disturbed by the host moves no figure.
    walls = [p[0] for p in passes]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "peak_rss_mib": metric(statistics.median(p[1] for p in passes), "MiB"),
        "jobs_per_s": metric(statistics.median(len(p[2]) / p[0] for p in passes), "1/s"),
        "latency_p50_ms": metric(finite(statistics.median(
            percentile(p[2], 0.50) for p in passes)), "ms"),
        "latency_p99_ms": metric(finite(statistics.median(
            percentile(p[2], 0.99) for p in passes)), "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    # Share of CPU time the hypervisor gave to other guests during the window:
    # the usual cause when a whole run reads slow.
    steal = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    return metrics, {"passes": len(passes), "requests_per_pass": len(passes[0][2]),
                     "wall_samples": walls, "host_steal_frac": steal,
                     "setup_count": len(setup),
                     "setup_quartiles": statistics.quantiles(setup, n=4)}


def measure_batch(workload, seed, seconds, problems, info):
    def one_setup(index):
        results, _ = cli_pass(batch_runs(workload, seed, index), problems, trials=0,
                              with_csv=False)
        return sum(r[0] for r in results)

    exact = None
    if workload == "table1_bulk":
        # The exact distribution depends on the circuit only, not the seed.
        exact = helper("oracle", write_json("oracle.json",
                                            {"runs": batch_runs(workload, seed, 0)}))
    counts = {"attempted": 0, "failed": 0, "oracle_worst": 0.0}

    def one_pass(index):
        runs = batch_runs(workload, seed, index)
        results, histograms = cli_pass(runs, problems)
        counts["attempted"] += len(results)
        counts["failed"] += sum(1 for r in results if not r[2])
        if exact is not None:
            counts["oracle_worst"] = max(counts["oracle_worst"],
                                         bernstein_check(runs, histograms, exact, problems))
        return (sum(r[0] for r in results), max(r[1] for r in results),
                [r[0] * 1000.0 if r[2] else math.inf for r in results])

    metrics, window = measure_window(seconds, one_pass, one_setup)
    info.update(window)
    if exact is not None:
        info["oracle_worst_dev_over_bound"] = counts["oracle_worst"]
    return metrics, counts["attempted"], counts["failed"]


# --------------------------------------------------------------------------
# Service (`rqsim serve` + JSONL clients)

def ping(path):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(5.0)
        s.connect(path)
        s.sendall(b'{"op":"ping"}\n')
        return json.loads(s.makefile().readline()).get("ok", False)


class Server:
    """`rqsim serve` on a Unix socket. setup_s is spawn to first ping."""

    def __init__(self):
        if os.path.exists(SOCKET):
            os.remove(SOCKET)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [RQSIM, "serve", "--socket", SOCKET, "--workers", "2", "--batch", "8"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        while True:
            try:
                if ping(SOCKET):
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() - t0 > 30:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("rqsim serve did not answer ping")
            # Short polls: the server starts in about 2 ms.
            time.sleep(0.0001)
        self.setup_s = time.perf_counter() - t0

    def stop(self):
        """Shut down and reap; returns (exit code, peak RSS MiB)."""
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(5.0)
                s.connect(SOCKET)
                s.sendall(b'{"op":"shutdown"}\n')
                s.makefile().readline()
        except OSError:
            self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, usage.ru_maxrss / 1024.0


def run_service(clients, problems):
    """Start a server, drive the clients' jobs, stop it. Returns
    (load report, server peak RSS MiB)."""
    server = Server()
    try:
        load = helper("load", SOCKET, write_json("load.json", {"clients": clients}))
    finally:
        code, rss = server.stop()
    if code != 0:
        problems.append("rqsim serve exited %d" % code)
    for err in load["client_errors"]:
        problems.append("client: " + err)
    for job in load["jobs"]:
        if not job["ok"]:
            problems.append("job failed: " + job.get("error", "?"))
    if load["solo_mismatched"]:
        problems.append("%d of %d sampled jobs differ from a solo run"
                        % (load["solo_mismatched"], load["solo_checked"]))
    if len(load["jobs"]) != load["attempted"]:
        problems.append("%d jobs answered of %d attempted"
                        % (len(load["jobs"]), load["attempted"]))
    return load, rss


def measure_service(seed, seconds, problems, info):
    def one_setup(_index):
        server = Server()
        server.stop()
        return server.setup_s

    counts = {"attempted": 0, "failed": 0, "solo_checked": 0}

    def one_pass(index):
        load, peak = run_service(service_jobs(seed, index), problems)
        counts["attempted"] += load["attempted"]
        counts["failed"] += load["attempted"] - sum(1 for j in load["jobs"] if j["ok"])
        counts["solo_checked"] += load["solo_checked"]
        # Failed and unanswered jobs stay in the samples as misses.
        latencies = [j["latency_ms"] if j["ok"] else math.inf for j in load["jobs"]]
        latencies += [math.inf] * (load["attempted"] - len(load["jobs"]))
        return load["wall_ms"] / 1000.0, peak, latencies

    metrics, window = measure_window(seconds, one_pass, one_setup)
    info.update(window, solo_checked=counts["solo_checked"])
    return metrics, counts["attempted"], counts["failed"]


# --------------------------------------------------------------------------
# Traced layer pass

DETERMINISTIC = ["exec.matvec_ops", "tree.nodes", "tree.planned_ops",
                 "tree.frame_collapsed_trials"]


def layer_metrics(trace, host):
    """Per-layer metrics of the traced pass, summed over its runs."""
    runs = trace["traced"]["runs"]

    def total_ms(name):
        return sum(r["ms"][name] for r in runs)

    def total(name):
        return sum(r["counts"][name] for r in runs)

    exec_ms = total_ms("exec.run")
    ops = total("exec.matvec_ops")
    # Computed bytes: every matvec op and every CoW materialization reads
    # and writes one whole state (2^n amplitudes x 16 B).
    computed_gb = sum((r["counts"]["exec.matvec_ops"] + r["exec"]["cow_materializations"])
                      * (2 ** r["qubits"]) * 16 * 2 for r in runs) / 1e9
    gbps = computed_gb / (exec_ms / 1000.0)
    m = {
        "circuit.prepare_ms": metric(total_ms("circuit.prepare"), "ms"),
        "sched.context_ms": metric(total_ms("sched.context"), "ms"),
        "trial.generate_ms": metric(total_ms("trial.generate"), "ms"),
        "trial.errors_per_trial": metric(total("trial.errors") / sum(r["trials"] for r in runs),
                                         "count"),
        "order.reorder_ms": metric(total_ms("order.reorder"), "ms"),
        "tree.build_ms": metric(total_ms("tree.build"), "ms"),
        "tree.nodes": metric(total("tree.nodes"), "count"),
        "tree.planned_ops": metric(total("tree.planned_ops"), "count"),
        "tree.frame_collapsed_trials": metric(total("tree.frame_collapsed_trials"), "count"),
        "sched.normalized_computation": metric(total("tree.planned_ops")
                                               / total("sched.baseline_ops"), "ratio"),
        "sched.msv": metric(max(r["counts"]["sched.msv"] for r in runs), "count"),
        "sched.account_ms": metric(total_ms("sched.account"), "ms"),
        "verify.tree_plan_ms": metric(total_ms("verify.tree_plan"), "ms"),
        "exec.run_ms": metric(exec_ms, "ms"),
        "exec.matvec_ops": metric(ops, "count"),
        "exec.cow_materializations": metric(sum(r["exec"]["cow_materializations"]
                                                for r in runs), "count"),
        "exec.steals": metric(sum(r["exec"]["steals"] for r in runs), "count"),
        "exec.pool_allocs": metric(sum(r["exec"]["pool_allocs"] for r in runs), "count"),
        "exec.peak_live_states": metric(max(r["exec"]["peak_live_states"] for r in runs),
                                        "count"),
        "sim.ms_per_op": metric(exec_ms / max(ops, 1), "ms"),
        "sim.computed_gb": metric(computed_gb, "GB"),
        "sim.computed_gbps": metric(gbps, "GB/s"),
        "host.copy_gbps": metric(host["copy_gbps"], "GB/s"),
        "sim.bw_fraction": metric(gbps / host["copy_gbps"], "ratio"),
        "sample.sink_ms": metric(total_ms("sample.sink"), "ms"),
        "sample.reduce_ms": metric(total_ms("sample.reduce"), "ms"),
        "trace.unattributed_frac": metric(trace["unattributed_frac"], "ratio"),
        "trace.overhead_frac": metric(trace["traced"]["wall_ms"]
                                      / trace["untraced"]["wall_ms"] - 1.0, "ratio"),
    }
    return m


def service_layer_metrics(load):
    jobs = [j for j in load["jobs"] if j["ok"]]
    stats = load["stats"]
    solo = stats.get("merged_solo_ops", 0)
    return {
        "service.submit_rtt_ms_p50": metric(percentile([j["submit_rtt_ms"] for j in jobs], 0.5),
                                            "ms"),
        "service.queue_ms_p50": metric(percentile([j["queue_ms"] for j in jobs], 0.5), "ms"),
        "service.exec_ms_p50": metric(percentile([j["exec_ms"] for j in jobs], 0.5), "ms"),
        "service.batch_size_mean": metric(statistics.mean(j["batch_size"] for j in jobs),
                                          "count"),
        "service.merge_saved_frac": metric((solo - stats.get("merged_batch_ops", 0)) / solo
                                           if solo else 0.0, "ratio"),
        "proto.result_decode_ms_p50": metric(percentile([j["decode_ms"] for j in jobs], 0.5),
                                             "ms"),
        "proto.result_bytes_mean": metric(statistics.mean(j["result_bytes"] for j in jobs),
                                          "B"),
    }


def check_trace(trace, problems):
    """Gates on the traced pass: plan proof, executed == planned ops, and
    deterministic counts and histograms equal across the three passes."""
    passes = [trace["warmup"], trace["traced"], trace["untraced"]]
    for run in trace["traced"]["runs"]:
        if not run["verify_ok"]:
            problems.append("%s: verify_tree_plan failed: %s"
                            % (run["name"], run["verify_diagnostic"]))
        if run["counts"]["exec.matvec_ops"] != run["counts"]["tree.planned_ops"]:
            problems.append("%s: executed %d ops, planned %d" % (
                run["name"], run["counts"]["exec.matvec_ops"], run["counts"]["tree.planned_ops"]))
        if sum(run["histogram"].values()) != run["trials"]:
            problems.append("%s: traced histogram does not sum to the trials" % run["name"])
    for p in passes[1:]:
        for a, b in zip(passes[0]["runs"], p["runs"]):
            for key in DETERMINISTIC:
                if a["counts"][key] != b["counts"][key]:
                    problems.append("%s: %s not deterministic (%d vs %d)"
                                    % (a["name"], key, a["counts"][key], b["counts"][key]))
            if a["histogram"] != b["histogram"]:
                problems.append("%s: histogram differs between traced passes" % a["name"])


def measure_trace(workload, seed, problems, info, host):
    runs = batch_runs(workload, seed, 0)
    if runs is None:
        # service_mix: the trial/tree/exec layers on the first 64 jobs of
        # pass 0, each through the tree executor on its own. The service
        # runs unmerged jobs through run_noisy, whose histograms the
        # one-thread tree reproduces bitwise.
        clients = service_jobs(seed, 0)
        runs = [clients[c][k] for k in range(16) for c in range(SERVICE_CLIENTS)]
    trace_path = os.path.join(BUILD, "traces", "%s-seed%d.json" % (workload, seed))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    trace = helper("trace", write_json("trace_runs.json", {"runs": runs}), trace_path)
    check_trace(trace, problems)
    metrics = layer_metrics(trace, host)
    attempted, failed = 3 * len(runs), 0

    if workload != "service_mix":
        # The untraced CLI run on the same seed must match the traced pass.
        results, cli_hist = cli_pass(runs, problems)
        attempted += len(results)
        failed += sum(1 for r in results if not r[2])
        for run in trace["traced"]["runs"]:
            if cli_hist.get(run["name"]) != run["histogram"]:
                problems.append("%s: CLI --csv histogram differs from the traced pass"
                                % run["name"])
    # The service and protocol layers, on every workload so that every traced
    # result carries every per-layer metric: pass 0 of service_mix.
    load, _ = run_service(service_jobs(seed, 0), problems)
    attempted += load["attempted"]
    metrics.update(service_layer_metrics(load))
    info.update({"trace_file": trace_path, "spans": trace["spans"],
                 "deterministic_counts": {k: metrics[k]["value"] for k in DETERMINISTIC}})
    failed += load["attempted"] - sum(1 for j in load["jobs"] if j["ok"])
    return metrics, attempted, failed


# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        sys.exit(2)

    problems, info = [], {"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace}
    host = {}
    try:
        host = host_fingerprint()
        if args.trace:
            metrics, attempted, failed = measure_trace(args.workload, args.seed, problems,
                                                       info, host)
        elif args.workload == "service_mix":
            metrics, attempted, failed = measure_service(args.seed, args.seconds,
                                                         problems, info)
        else:
            metrics, attempted, failed = measure_batch(args.workload, args.seed,
                                                       args.seconds, problems, info)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        # A crashed helper or server still yields a (failed) result.
        problems.append("measurement aborted: %r" % e)
        metrics, attempted, failed = {}, 1, 1
    for problem in problems:
        log("perfbench: FAIL:", problem)
    info["problems"] = len(problems)
    print(json.dumps({"host": host, "run": info}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
