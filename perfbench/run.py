#!/usr/bin/env python3
"""Simulator benchmark: host speed and simulated results of the PANIC
simulator on three traffic shapes, end to end and per layer.

    python3 perfbench/run.py --workload bulk_line_rate --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  Each invocation:

  1. builds perfbench_sim (perfbench/CMakeLists.txt, Release) into
     $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench;
  2. generates the workload's scenario from --seed (perfbench/workloads.py)
     and writes it, with every result, under <build dir>/results/;
  3. runs the untimed correctness controls, one process each: a prefix of
     the scenario under the dense kernel and twice under the event kernel
     (result JSON identical outside the "runner" line, queue audit on), and
     the saturated hot-path shape, which the steady-state gate must reject;
  4. times set-up in 14 extra processes spread over the invocation, and
     runs the measured window in one process (ledger, credit/audit and
     steady-state gates included);
  5. with --trace 1, also times each layer and runs the traced window in
     its own process for the per-tenant latency decomposition.

The last stdout line is the result object: {"correct", "attempted",
"failed", "metrics"}; end-to-end metrics with --trace 0, per-layer metrics
with --trace 1.  The exit code is nonzero when any check fails.

`--emit-benchmark-json` prints the BENCHMARK.json this directory defines;
`--sweep <workload>` re-runs the offered-rate sweep that chose the rates.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from workloads import TRACED_CYCLES, WORKLOADS  # noqa: E402

# Set-up is timed in this many processes (one of them the measuring one),
# spread over the invocation so one slow stretch of the host does not
# cover them all.  setup_s is their fastest, the uncontended set-up time as
# ns_per_cycle is the uncontended cycle cost: set-up is almost all
# simulated warmup, and their median followed the host's load, moving by
# 0.32 between two sets of ten identical runs on a shared 4-vCPU Xeon
# host, where the fastest moved 0.22.
SETUP_RUNS = 15
PROCESS_TIMEOUT_S = 170
# The checked-in saturated hot-path shape, which overloads the NIC: its
# eth1 and rmt0 staging grow linearly, so the steady-state gate must reject
# it.  It runs for SATURATED_CYCLES under the event kernel (its `threads`
# line only matters to the parallel kernel).
SATURATED_SCENARIO = os.path.join("bench", "bench_hotpath_saturated.scenario")
SATURATED_CYCLES = 500000


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_metric_docs():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures (once) and builds perfbench_sim; returns its path."""
    src_root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(src_root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_sim")


def run_sim(binary, args, ok_codes=(0,)):
    """Runs one perfbench_sim process; returns (exit code, stdout)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: perfbench_sim " + " ".join(args))
    if p.returncode not in ok_codes:
        sys.stderr.write(p.stderr)
    return p.returncode, p.stdout


def last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else {}


def without_runner(result_json):
    return "".join(ln for ln in result_json.splitlines(True)
                   if '"runner"' not in ln)


def run_key(binary, scenario_text):
    """Names a run's results directory.  The same program on the same
    scenario must print the same result JSON, so an earlier result is only
    compared with when both are unchanged."""
    h = hashlib.sha256(scenario_text.encode())
    with open(binary, "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:12]


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def machine_fingerprint(compiler, build_type):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "compiler": compiler, "build_type": build_type}


def controls(binary, w, scenario_path, outdir):
    """Untimed correctness controls; returns a list of failures."""
    failures = []
    prefix = ["--budget", str(w.prefix_cycles), "--audit"]
    runs = []
    for mode in ("dense", "event", "event"):
        code, out = run_sim(binary, ["result", scenario_path, "--mode", mode]
                            + prefix)
        if code != 0:
            failures.append("prefix run (%s) exited %d" % (mode, code))
        runs.append(without_runner(out))
    write(os.path.join(outdir, "prefix_dense.json"), runs[0])
    write(os.path.join(outdir, "prefix_event.json"), runs[1])
    if runs[0] != runs[1]:
        failures.append("dense and event prefix results differ")
    if runs[1] != runs[2]:
        failures.append("two event runs of one seed differ")

    control_path = os.path.join(os.path.dirname(HERE), SATURATED_SCENARIO)
    if not os.path.isfile(control_path):
        return failures + ["steady-state control %s not found" %
                           SATURATED_SCENARIO]
    code, out = run_sim(binary, ["measure", control_path, "--chunks", "50",
                                 "--budget", str(SATURATED_CYCLES)],
                        ok_codes=(3,))
    if code != 3:
        failures.append("steady-state gate did not reject the saturated "
                        "hot-path shape (exit %d)" % code)
    else:
        write(os.path.join(outdir, "saturated_control.json"), out)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--emit-benchmark-json", action="store_true")
    ap.add_argument("--sweep", choices=sorted(WORKLOADS))
    args = ap.parse_args()

    docs = load_metric_docs()
    if args.emit_benchmark_json:
        print(json.dumps(benchmark_json(docs, args.seconds), indent=2))
        return 0
    binary = build()
    if args.sweep:
        return sweep(binary, WORKLOADS[args.sweep])
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return measure(binary, WORKLOADS[args.workload], args, docs)


def measure(binary, w, args, docs):
    chunks, budget = w.window_cycles(args.seconds)
    text = w.scenario(args.seed, budget)
    outdir = os.path.join(build_dir(), "results", w.name, "seed%d-s%d-%s" % (
        args.seed, args.seconds, run_key(binary, text)))
    os.makedirs(outdir, exist_ok=True)
    scenario_path = os.path.join(outdir, "run.scenario")
    write(scenario_path, text)

    setups = []
    failures = []

    def time_setups(count):
        for _ in range(count):
            code, out = run_sim(binary, ["setup", scenario_path])
            if code != 0:
                failures.append("setup process exited %d" % code)
            else:
                setups.append(last_json(out)["setup_s"])

    extra = SETUP_RUNS - 1
    time_setups(extra // 3)
    failures += controls(binary, w, scenario_path, outdir)
    time_setups(extra // 3)

    result_path = os.path.join(outdir, "result.json")
    previous = None
    if os.path.isfile(result_path):
        with open(result_path) as f:
            previous = without_runner(f.read())
    cmd = ["measure", scenario_path, "--chunks", str(chunks),
           "--result-out", result_path,
           "--chunks-out", os.path.join(outdir, "chunks.json")]
    if args.trace:
        cmd.append("--layers")
    code, out = run_sim(binary, cmd, ok_codes=(0, 2, 3))
    if code not in (0, 2, 3) or not out.strip():
        fail("measure process exited %d" % code)
    m = last_json(out)
    write(os.path.join(outdir, "measure.json"), json.dumps(m, indent=1))
    failures += m["failures"]
    if not m["steady"]:
        failures += ["steady-state gate: " + r for r in m["steady_reasons"]]
    with open(result_path) as f:
        current = without_runner(f.read())
    if previous is not None and previous != current:
        failures.append("result JSON differs from an earlier run of this seed")

    e2e = m["end_to_end"]
    setups.append(e2e["setup_s"])
    time_setups(extra - 2 * (extra // 3))
    e2e["setup_s"] = min(setups)

    if args.trace:
        values = dict(m["per_layer"])
        values["host.setup_s_median"] = statistics.median(setups)
        traced_path = os.path.join(outdir, "traced.scenario")
        traced_chunks = w.window_chunks(TRACED_CYCLES)
        write(traced_path,
              w.scenario(args.seed, traced_chunks * w.chunk_cycles()))
        code, out = run_sim(binary, [
            "traced", traced_path, "--chunks", str(traced_chunks),
            "--spans-out", os.path.join(outdir, "host_spans.json")],
            ok_codes=(0, 2))
        t = last_json(out) if out.strip() else {}
        write(os.path.join(outdir, "traced.json"), json.dumps(t, indent=1))
        if code != 0 or not t.get("correct"):
            failures.append("traced run failed its checks: %s" % {
                k: t.get(k) for k in ("tracer_dropped", "sum_mismatches",
                                      "missing_ingress", "broken_chains",
                                      "bad_steps",
                                      "order_violations", "unknown_tenant",
                                      "delivered_traced")})
        values.update(t.get("lat", {}))
        # The traced window is the measured window's first traced_chunks
        # chunks (same seed, same chunk size): compare total wall time per
        # cycle over the same cycles.
        with open(os.path.join(outdir, "chunks.json")) as f:
            untraced = statistics.mean(json.load(f)[:traced_chunks])
        values["trace.overhead_frac"] = (
            t.get("traced_ns_per_cycle", 0.0) / untraced - 1.0)
        wanted = docs["per_layer"]
    else:
        values = e2e
        wanted = docs["end_to_end"]

    metrics = {}
    for d in wanted:
        if d["name"] not in values:
            failures.append("metric %s not measured" % d["name"])
            continue
        metrics[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}

    machine = machine_fingerprint(m["machine"]["compiler"],
                                  m["machine"]["build_type"])
    summary = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "window_cycles": budget, "chunks": chunks,
        "ns_per_cycle_p99_percentile": e2e["ns_per_cycle_p99_percentile"],
        "setup_runs_s": setups, "machine": machine,
        "failures": failures, "metrics": metrics,
        "replay": "panic_run " + scenario_path,
    }
    write(os.path.join(outdir, "summary.json"), json.dumps(summary, indent=1))
    print("perfbench: %s seed %d: %d cycles in %d chunks, ns_per_cycle_p99 "
          "is p%.1f; machine %s; results in %s" % (
              w.name, args.seed, budget, chunks,
              e2e["ns_per_cycle_p99_percentile"], json.dumps(machine),
              outdir))
    for f in failures:
        print("perfbench: FAIL " + f)

    correct = not failures
    attempted = max(1, int(m["frames_offered"]))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": int(m["frames_failed"]) if correct else attempted,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def sweep(binary, w):
    """Varies each rate knob from x1.3 to x0.8 of its chosen gap (the
    others fixed), runs a window of about 2M cycles in period-aligned
    chunks at each point and prints the steady-state verdicts the chosen
    rates came from."""
    outdir = os.path.join(build_dir(), "sweep", w.name)
    os.makedirs(outdir, exist_ok=True)
    for knob, base in sorted(w.rates.items()):
        for factor in (1.3, 1.15, 1.0, 0.95, 0.9, 0.85, 0.8):
            gap = max(1, int(round(base * factor)))
            rates = {knob: gap}
            chunks = w.window_chunks(2000000, rates)
            path = os.path.join(outdir, "%s_%d.scenario" % (knob, gap))
            write(path, w.scenario(1, chunks * w.chunk_cycles(rates), rates))
            code, out = run_sim(binary, ["measure", path, "--chunks",
                                         str(chunks)],
                                ok_codes=(0, 2, 3))
            m = last_json(out) if out.strip() else {}
            print("%s %s=%d: exit %d steady=%s failed=%s %s" % (
                w.name, knob, gap, code, m.get("steady"),
                m.get("frames_failed"), "; ".join(m.get("steady_reasons",
                                                        [])[:2])))
    return 0


def benchmark_json(docs, seconds):
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": seconds,
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in docs["workloads"]],
        "end_to_end": [{k: d[k] for k in ("name", "unit", "better", "bound")}
                       for d in docs["end_to_end"]],
        "per_layer": [{k: d[k] for k in ("name", "unit", "better")}
                      for d in docs["per_layer"]],
    }


if __name__ == "__main__":
    sys.exit(main())
