#!/usr/bin/env python3
"""One-command end-to-end benchmark of mann.

    python3 bench/e2e/run.py [--seed N] [--seconds S] [--traced]
    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --compare A.json B.json

Run from anywhere; paths resolve against the repository holding this
file. The runner builds build-e2e/ from bench/e2e/CMakeLists.txt (which
pulls in the library with add_subdirectory), trains the 20-task suite
into build-e2e/suite once (deterministic, untimed), runs the generator
self-test, then runs each workload in fresh driver processes, one after
another, until they have taken S seconds (at least 3 processes; see
run_workload). Without --workload every workload runs.

Host times are process CPU seconds at a reference host speed: every
timed rep runs on one host thread, and the driver scales each ~50 ms of
it by the speed a fixed probe measures around it (host_clock.hpp). The
unscaled CPU and wall numbers are printed beside them and kept in the
results JSON.

It prints every metric with its unit, median, quartiles and sample
count, the requests sent, succeeded and failed, and the paper reference
lines; writes the results to build-e2e/results/; and, with --workload,
ends with one JSON line: {"correct", "attempted", "failed", "metrics"},
the end-to-end metrics with --trace 0 and the per-layer ones with
--trace 1. --trace 1 (or --traced) adds one traced process per workload
whose spans feed the per-layer metrics and the ledgers; end-to-end
numbers always come from the untraced processes.

--compare applies each metric's bound from BENCHMARK.json per workload,
prints "unresolved" where a metric's quartile spread is wider than its
bound, and fails on a regression beyond a bound or any change of
sim_digest.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledger  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(REPO, "build-e2e")
DRIVER = os.path.join(BUILD, "mann_e2e")
SUITE = os.path.join(BUILD, "suite")
RESULTS = os.path.join(BUILD, "results")
MIN_PROCESSES = 3
WORKLOAD_TIMEOUT_S = 150  # a run must end within 180 s

# Simulated numbers that exist on one workload only, so they cannot be
# BENCHMARK.json end-to-end metrics (those are reported on every
# workload). They are deterministic for a seed: any change is a change.
WORKLOAD_METRICS = {
    "paper_table1": [
        {"name": "efficiency_vs_gpu", "unit": "x", "better": "higher",
         "bound": 0.0},
        {"name": "efficiency_vs_gpu_ith", "unit": "x", "better": "higher",
         "bound": 0.0},
        {"name": "ith_time_saving", "unit": "fraction", "better": "higher",
         "bound": 0.0},
    ],
    "serve_mix20": [
        {"name": "sim_capacity_sps", "unit": "stories/s", "better": "higher",
         "bound": 0.0},
    ],
}

# Per-layer metrics read from the traced process's spans: span name whose
# self time per rep it is.
SPAN_METRICS = {
    "accel.run_s": "accel.run",
    "serve.submit_s": "serve.submit",
    "serve.step_s": "serve.step",
    "serve.poll_s": "serve.poll",
    "serve.finalize_s": "serve.finalize",
    "cluster.submit_s": "cluster.submit",
    "cluster.step_s": "cluster.step",
    "cluster.finalize_s": "cluster.finalize",
}

PAPER_REFERENCE = """\
paper reference lines (informational, not gated):
  efficiency_vs_gpu      {eff:8.2f}x  paper ~125x  ({eff_err:+.0%})
  efficiency_vs_gpu_ith  {eff_ith:8.2f}x  paper ~140x  ({eff_ith_err:+.0%})
  ith_time_saving        {saving:8.2%}   paper 6-18%  (at 100 MHz; {low:.1%} \
at 25 MHz)
  The serving and cluster model has no hardware reference, so no error is
  claimed for the serve_* and cluster_* workloads."""


def load_benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout kills its whole process group
    (make and the compilers under cmake too) and fails."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{' '.join(cmd[:2])} timed out")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "mann_e2e",
                      "-j", "4"])
        for cmd in steps:
            if run_group(cmd, 450, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail(f"build failed ({' '.join(cmd[:2])}); see {log_path}")


def prepare(seed):
    """Trains the suite if needed and self-tests the generator."""
    if run_group([DRIVER, "--train-suite", "--suite-dir", SUITE], 250):
        fail("training the suite failed")
    test = subprocess.run([DRIVER, "--selftest", "--seed", str(seed)],
                          capture_output=True, text=True, timeout=60)
    lines = test.stdout.splitlines()
    bad = [line for line in lines if " ok " not in line]
    print(f"generator selftest (seed {seed}): {len(lines) - len(bad)} of "
          f"{len(lines)} checks ok")
    for line in bad:
        print("  " + line)
    return test.returncode == 0


def run_driver(args, deadline):
    """One driver process; returns its result object (or a failure) with
    the process's wall time under "wall"."""
    started = time.time()
    try:
        proc = subprocess.run([DRIVER] + args, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": ["driver timed out"], "reps": [],
                "wall": time.time() - started}
    try:
        result = json.loads(proc.stdout)
    except json.JSONDecodeError:
        result = {"ok": False, "reps": [],
                  "errors": [f"driver exit {proc.returncode}: "
                             f"{proc.stderr.strip()[-300:]}"]}
    result["ok"] = result.get("ok", False) and proc.returncode == 0
    result["wall"] = time.time() - started
    return result


def summary(values):
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def spread(s):
    """Quartile distance as a share of the median."""
    return abs(s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def run_workload(name, seed, seconds, traced, layer_names):
    """Fresh driver processes, one after another, until they have taken
    `seconds` of wall time (and at least MIN_PROCESSES). Each sets up and
    runs a cold and a warm rep, so every process adds one sample to each
    of setup_s, cold_host_sps and host_sps, and a workload with short reps
    gets the most samples. Returns the aggregated result and the traced
    process's span ledger."""
    deadline = time.time() + WORKLOAD_TIMEOUT_S
    base = ["--workload", name, "--seed", str(seed), "--suite-dir", SUITE]
    procs = []
    while (len(procs) < MIN_PROCESSES or
           sum(p["wall"] for p in procs) < seconds):
        # The parallel reference and the capacity ladder are untimed and
        # deterministic, so the first process runs them for the whole set.
        extra = ["--reference"] if not procs else []
        if not procs and name == "serve_mix20":
            extra.append("--capacity")
        procs.append(run_driver(base + ["--reps", "2"] + extra, deadline))
        if not procs[-1].get("reps"):
            break
    traced_proc = None
    spans = None
    if traced:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces", f"{name}-{seed}.json")
        # A cold and two warm reps: enough for per-layer times and the
        # tracing overhead, small enough to keep the span file in bounds.
        traced_proc = run_driver(base + ["--reps", "3",
                                         "--trace-out", trace_path], deadline)
        with open(trace_path.replace(".json", ".driver.json"), "w") as f:
            json.dump(traced_proc, f)
        if traced_proc.get("ok"):
            spans = ledger.self_times(trace_path)
    return aggregate(name, seed, procs, traced_proc, spans,
                     layer_names), spans


def aggregate(name, seed, procs, traced_proc, spans, layer_names):
    errors = []
    for i, p in enumerate(procs + ([traced_proc] if traced_proc else [])):
        errors += [f"process {i}: {e}" for e in p.get("errors", [])]
        if not p.get("ok"):
            errors.append(f"process {i} failed")
    reps = [r for p in procs for r in p.get("reps", [])]
    digests = {r["digest"] for r in reps}
    if traced_proc:
        digests |= {r["digest"] for r in traced_proc.get("reps", [])}
    if len(digests) > 1:
        errors.append(f"sim_digest differs across processes: {sorted(digests)}")
    if procs and procs[0].get("reference") == "DIVERGED":
        errors.append("parallel reference diverged")

    warm = [r for p in procs for r in p.get("reps", [])[1:]]
    cold = [p["reps"][0] for p in procs if p.get("reps")]
    sim = reps[0]["sim"] if reps else {}
    metrics = {
        "host_sps": summary([r["completed"] / r["scaled_s"] for r in warm]),
        "cold_host_sps": summary([r["completed"] / r["scaled_s"]
                                  for r in cold]),
        "setup_s": summary([p.get("setup_s") for p in procs]),
        "peak_rss_mb": summary([p.get("peak_rss_mb") for p in procs]),
    }
    unscaled = {
        f"host_sps_{clock}": summary([r["completed"] / r[f"{clock}_s"]
                                      for r in warm])
        for clock in ("cpu", "wall")
    }
    for key, value in sim.items():
        metrics[key] = summary([value])
    capacity = procs[0].get("capacity") if procs else None
    if capacity:
        metrics["sim_capacity_sps"] = summary([capacity["sim_capacity_sps"]])

    result = {
        "workload": name, "seed": seed, "correct": not errors,
        "errors": errors, "sim_digest": sorted(digests)[0] if digests else "",
        "reference": procs[0].get("reference") if procs else "",
        "threads": max([p.get("threads", 0) for p in procs] or [0]),
        "attempted": sum(r["offered"] for r in reps),
        "succeeded": sum(r["completed"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "reps": len(reps), "metrics": metrics, "unscaled": unscaled,
        "capacity": capacity,
    }
    if spans:
        result["per_layer"] = per_layer(procs, traced_proc, spans,
                                        layer_names)
    return result


def per_layer(procs, traced_proc, spans, names):
    """Per-layer metrics: counts from the untraced processes' warm reps,
    set-up timers from their set-up, host times from the traced spans.
    Speculation happens on the parallel path only, so its counts come from
    the parallel reference. A layer the workload does not exercise reads 0."""
    layers = dict.fromkeys(names, 0.0)
    warm = [r for p in procs for r in p.get("reps", [])[1:]]
    for key in (warm[0]["layers"] if warm else {}):
        layers[key] = statistics.median(r["layers"][key] for r in warm)
    reference = procs[0].get("reference_layers", {}) if procs else {}
    for key in ("serve.spec.useful_frac", "serve.spec.wasted"):
        layers[key] = reference.get(key, 0.0)
    for key in ("runtime.suite_load_s", "accel.compile_s"):
        layers[key] = statistics.median(
            p["setup_layers"].get(key, 0.0) for p in procs)
    builds = [r["build_s"] for p in procs for r in p.get("reps", [])]
    is_cluster = any("cluster.build_s" in p.get("setup_layers", {})
                     for p in procs)
    is_serve = any("serve.build_s" in p.get("setup_layers", {})
                   for p in procs)
    layers["serve.build_s"] = statistics.median(builds) if is_serve else 0.0
    layers["cluster.build_s"] = (statistics.median(builds) if is_cluster
                                 else 0.0)

    for key, span in SPAN_METRICS.items():
        layers[key] = ledger.per_rep_median(spans, span)
    offered = warm[0]["offered"] if warm else 0
    host = sum(layers[k] for k in ("serve.submit_s", "serve.step_s",
                                   "serve.poll_s", "serve.finalize_s"))
    layers["serve.us_per_request"] = host / offered * 1e6 if host else 0.0
    steps = layers["cluster.steps"]
    layers["cluster.us_per_step"] = (layers["cluster.step_s"] / steps * 1e6
                                     if steps else 0.0)
    cycles = layers["accel.sim_cycles"]
    layers["accel.ns_per_sim_cycle"] = (layers["accel.run_s"] / cycles * 1e9
                                        if cycles else 0.0)

    traced_warm = [r["scaled_s"] for r in traced_proc.get("reps", [])[1:]]
    untraced_warm = [r["scaled_s"] for r in warm]
    layers["trace.overhead_frac"] = (
        statistics.median(traced_warm) / statistics.median(untraced_warm) - 1
        if traced_warm and untraced_warm else 0.0)
    return layers


def fmt(value):
    if value is None:
        return "-"
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.4g}" if abs(value) < 1 else f"{value:,.2f}"
    return f"{value:.4g}"


def print_workload(res, bench, spans):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for m in WORKLOAD_METRICS.get(res["workload"], []):
        units[m["name"]] = m["unit"]
    print(f"\n== {res['workload']}  seed {res['seed']}  "
          f"({'correct' if res['correct'] else 'INCORRECT'}; "
          f"sim_digest {res['sim_digest']}; parallel reference "
          f"{res['reference']}; timed threads {res['threads']})")
    print(f"   requests sent {res['attempted']}, succeeded "
          f"{res['succeeded']}, shed {res['attempted'] - res['succeeded'] - res['failed']}, "
          f"failed {res['failed']} over {res['reps']} reps")
    print(f"   {'metric':<24} {'unit':<10} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>4}")
    for name, unit in units.items():
        s = res["metrics"].get(name)
        if s is None:
            continue
        print(f"   {name:<24} {unit:<10} {fmt(s['median']):>14} "
              f"{fmt(s['q1']):>14} {fmt(s['q3']):>14} {s['n']:>4}")
    failed = res["metrics"].get("served_frac")
    if failed:
        print(f"   failed_frac = 1 - served_frac = "
              f"{1 - failed['median']:.4g}; latency samples per rep: "
              f"{res['metrics']['sim_latency_samples']['median']:.0f}")
    cpu, wall = res["unscaled"]["host_sps_cpu"], res["unscaled"]["host_sps_wall"]
    if cpu and wall:
        print(f"   host_sps unscaled: {fmt(cpu['median'])} per CPU second "
              f"[{fmt(cpu['q1'])}-{fmt(cpu['q3'])}], {fmt(wall['median'])} "
              f"per wall second [{fmt(wall['q1'])}-{fmt(wall['q3'])}]")
    for e in res["errors"][:10]:
        print(f"   ERROR {e}")
    if res["workload"] == "paper_table1" and res["metrics"]:
        m = {k: v["median"] for k, v in res["metrics"].items()}
        print(PAPER_REFERENCE.format(
            eff=m["efficiency_vs_gpu"], eff_err=m["efficiency_vs_gpu"] / 125 - 1,
            eff_ith=m["efficiency_vs_gpu_ith"],
            eff_ith_err=m["efficiency_vs_gpu_ith"] / 140 - 1,
            saving=m["ith_time_saving"], low=m["ith_time_saving_25mhz"]))
    if res.get("capacity"):
        rungs = ", ".join(
            f"{r['rate_sps']:,.0f}/s p99 {r['sim_p99_ms']:.2f} ms "
            f"{'pass' if r['pass'] else 'fail'}"
            for r in res["capacity"]["rungs"])
        print(f"   capacity ladder: {rungs}")
    if spans:
        layers = res["per_layer"]
        print(f"   per-layer ({len(layers)} values; traced run overhead "
              f"{layers['trace.overhead_frac']:+.1%}):")
        for name in sorted(layers):
            print(f"     {name:<32} {fmt(layers[name]):>14}")
        ledger.print_host_ledger(spans)
        ledger.print_device_ledger(layers)


def result_line(res, bench, trace):
    spec = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for m in spec:
        if trace:
            value = res.get("per_layer", {}).get(m["name"])
        else:
            s = res["metrics"].get(m["name"])
            value = s["median"] if s else None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({"correct": res["correct"],
                       "attempted": max(res["attempted"], 1),
                       "failed": res["failed"], "metrics": metrics})


def compare(path_a, path_b, bench):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    bad = 0
    print(f"compare {path_a} -> {path_b}")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"\n{name}: missing from {path_b}")
            bad += 1
            continue
        same_digest = wa["sim_digest"] == wb["sim_digest"]
        print(f"\n{name}: sim_digest {wa['sim_digest']} -> {wb['sim_digest']}"
              f" {'identical' if same_digest else 'CHANGED'}")
        bad += 0 if same_digest and wa["correct"] and wb["correct"] else 1
        print(f"  {'metric':<24} {'A median':>14} {'B median':>14} "
              f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"] + WORKLOAD_METRICS.get(name, []):
            sa, sb = wa["metrics"].get(m["name"]), wb["metrics"].get(m["name"])
            if not sa or not sb:
                continue
            change = (sb["median"] - sa["median"]) / abs(sa["median"]) \
                if sa["median"] else 0.0
            worse = -change if m["better"] == "higher" else change
            wide = max(spread(sa), spread(sb))
            if wide > m["bound"]:
                b_wins = (min(sb["samples"]) > max(sa["samples"])
                          if m["better"] == "higher"
                          else max(sb["samples"]) < min(sa["samples"]))
                verdict = "better" if b_wins else "unresolved"
            elif sb["median"] == sa["median"]:
                verdict = "unchanged"
            elif worse > m["bound"]:
                verdict = "WORSE"
                bad += 1
            elif worse < -m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"  {m['name']:<24} {fmt(sa['median']):>14} "
                  f"{fmt(sb['median']):>14} {change:>+8.2%} {wide:>7.1%} "
                  f"{m['bound']:>6.0%}  {verdict}")
    print(f"\ncompare: {'FAIL' if bad else 'PASS'}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--out", help="results JSON path")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    bench = load_benchmark()
    if args.compare:
        return compare(args.compare[0], args.compare[1], bench)
    traced = args.traced or args.trace == 1
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload and args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {', '.join(names)}")

    build()
    generator_ok = prepare(args.seed)
    started = time.time()
    results = {"schema": 1, "seed": args.seed, "seconds": seconds,
               "host_cores": os.cpu_count(), "workloads": {}}
    for name in [args.workload] if args.workload else names:
        res, spans = run_workload(name, args.seed, seconds, traced,
                                  [m["name"] for m in bench["per_layer"]])
        if not generator_ok:
            res["correct"] = False
            res["errors"].append("generator selftest failed")
        if traced and not spans:
            res["correct"] = False
            res["errors"].append("the traced process failed")
        results["workloads"][name] = res
        print_workload(res, bench, spans)
    print(f"\nwall {time.time() - started:.1f} s")

    os.makedirs(RESULTS, exist_ok=True)
    out = args.out or os.path.join(
        RESULTS, f"{args.workload or 'all'}-{args.seed}.json")
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"results: {out}")
    correct = all(r["correct"] for r in results["workloads"].values())
    if args.workload:
        print(result_line(results["workloads"][args.workload], bench, traced))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
