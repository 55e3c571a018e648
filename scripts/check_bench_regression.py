#!/usr/bin/env python3
"""Gate a BENCH_serve.json run against the checked-in baseline.

Usage: check_bench_regression.py CURRENT BASELINE
           [--threshold 0.20] [--energy-threshold 0.20]
           [--min-wall-speedup 1.2]

Fails (exit 1) when:
  * simulated throughput regressed by more than --threshold,
  * simulated energy-per-inference grew by more than --energy-threshold
    (the paper's headline claim is energy efficiency; a PR that makes
    every inference cost more joules is a regression even at equal
    throughput),
  * simulated accuracy dropped (bit-stable given the seed, so any drop
    is a real behaviour change),
  * the simulated deadline hit-rate dropped by more than a point (so a
    scheduling regression that preserves throughput but tanks SLOs
    still fails),
  * the multi-tenant QoS leg regressed: the conforming-tenant deadline
    hit-rate dropped by more than a point, the Jain fairness index
    dropped by more than 0.05, or the per-tenant outcome diverged
    across worker counts (worker_identical == false),
  * the parallel leg's simulated report diverged from the sequential
    path (reports_identical == false),
  * --min-wall-speedup is given and the host wall_speedup fell below it
    (wall_speedup scores the bench's warm replay through an in-process
    cycle cache the run's cold leg filled; replay is cache-bound rather
    than core-count-bound, so this is stable even on small shared
    runners),
  * the cycle-cache hit rate fell more than 10 points (absolute) below
    the baseline's — the signature of a speculation/placement
    regression, and near-deterministic because the lookup keys are
    simulated state,
  * the cluster sweep (schema >= 5) broke its contract: the cluster-of-1
    run diverged from the bare Server, the routing trade holds in
    neither direction (power-of-two must win p99 queue wait or
    consistent-hash affinity must win warm-dispatch rate), the
    power-of-two leg's Jain fairness fell below the floor, the
    autoscaled fleet stopped beating the fixed one on J/inference, or
    any simulated cluster count drifted from the baseline (the whole
    block is deterministic, so drift means the routing or lockstep
    changed),
  * the fleet-threading contract (schema >= 6) broke: the cluster.host
    block is missing, or the N-thread fleet run's simulated reports
    diverged from the 1-thread run (always a hard failure — that is
    the determinism contract), or — only on hosts with >= 4 cores
    running >= 4 fleet threads — the fleet wall stopped beating the
    1-thread wall (wall_ratio <= 1.0),
  * any field this script gates on is missing from either file. A
    missing host block used to read as zeros via .get() defaults and
    silently passed; now it fails loudly with the field name.

The `simulated` and `multitenant` blocks are deterministic given the
seed. Host wall numbers are machine-dependent: wall times and speedup
print informationally unless --min-wall-speedup opts the speedup into
gating (and the cluster wall_ratio self-gates only on capable hosts).
host.cold_wall_speedup, when present (the cold leg of the same run),
prints as a soft report line so warm-replay ratchets don't hide
cold-path regressions.
"""

import argparse
import json
import sys


# Cycle-cache hit rate may drop at most this much (absolute) vs baseline.
HIT_RATE_DROP_LIMIT = 0.10

# The power-of-two-choices leg exists to balance load; its Jain fairness
# over per-instance completed counts must stay near-perfect.
P2C_FAIRNESS_FLOOR = 0.95


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def require(obj, key, context, failures):
    """Fetch a gated field, recording a loud failure when it is absent.

    Returns None on a miss — callers must skip the comparison, not treat
    the value as zero (the old .get(..., 0) defaults made a missing host
    block look like a perfect score).
    """
    if obj is None:
        return None
    if key not in obj:
        failures.append(
            f"required field '{context}.{key}' missing — schema too old or "
            f"the bench run was truncated; regenerate with "
            f"scripts/update_bench_baseline.sh")
        return None
    return obj[key]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="maximum tolerated fractional throughput drop")
    parser.add_argument("--energy-threshold", type=float, default=0.20,
                        help="maximum tolerated fractional growth of "
                             "energy-per-inference")
    parser.add_argument("--min-wall-speedup", type=float, default=None,
                        help="hard-gate host.wall_speedup at this floor "
                             "(omit to keep wall numbers informational)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)

    failures = []

    # Simulated numbers only compare on the identical workload; refuse to
    # gate across differing bench configurations.
    for key in ("schema", "tasks", "requests", "devices", "max_batch",
                "scheduler_policy", "eviction_policy", "seed"):
        if current.get(key) != baseline.get(key):
            failures.append(
                f"workload mismatch on '{key}': current "
                f"{current.get(key)!r} vs baseline {baseline.get(key)!r} "
                f"(regenerate with scripts/update_bench_baseline.sh)")

    cur_sim = current["simulated"]
    base_sim = baseline["simulated"]

    cur_tp = cur_sim["throughput_stories_per_second"]
    base_tp = base_sim["throughput_stories_per_second"]
    drop = (base_tp - cur_tp) / base_tp if base_tp > 0 else 0.0
    print(f"throughput: {cur_tp:.0f} stories/s vs baseline {base_tp:.0f} "
          f"({-drop:+.1%})")
    if drop > args.threshold:
        failures.append(
            f"throughput regressed {drop:.1%} (> {args.threshold:.0%})")

    cur_energy = cur_sim.get("energy_per_inference_joules")
    base_energy = base_sim.get("energy_per_inference_joules")
    if cur_energy is None or base_energy is None:
        failures.append("energy_per_inference_joules missing (schema < 2? "
                        "regenerate with scripts/update_bench_baseline.sh)")
    elif base_energy <= 0:
        # A zero baseline would make the growth ratio meaningless and
        # silently disable this gate; it can only come from a broken run.
        failures.append(
            f"baseline energy_per_inference_joules is {base_energy!r} — "
            "regenerate with scripts/update_bench_baseline.sh")
    else:
        growth = (cur_energy - base_energy) / base_energy
        print(f"energy/inference: {cur_energy * 1e3:.4f} mJ vs baseline "
              f"{base_energy * 1e3:.4f} mJ ({growth:+.1%})")
        if growth > args.energy_threshold:
            failures.append(
                f"energy per inference grew {growth:.1%} "
                f"(> {args.energy_threshold:.0%})")

    cur_acc = cur_sim["accuracy"]
    base_acc = base_sim["accuracy"]
    print(f"accuracy: {cur_acc:.6f} vs baseline {base_acc:.6f}")
    if cur_acc < base_acc - 1e-9:
        failures.append(f"accuracy dropped {base_acc:.6f} -> {cur_acc:.6f}")

    cur_hit = cur_sim.get("deadline_hit_rate")
    base_hit = base_sim.get("deadline_hit_rate")
    if cur_hit is not None and base_hit is not None:
        print(f"deadline hit rate: {cur_hit:.1%} vs baseline {base_hit:.1%}")
        if cur_hit < base_hit - 0.01:
            failures.append(
                f"deadline hit rate dropped {base_hit:.1%} -> {cur_hit:.1%}")

    for key in ("p50_ms", "p99_ms"):
        print(f"{key}: {cur_sim[key]:.3f} vs baseline {base_sim[key]:.3f}")

    # Multi-tenant QoS gates (schema >= 3): the adversarial-tenant leg's
    # conforming hit-rate and fairness are deterministic, so any drop is
    # a real isolation regression.
    cur_mt = current.get("multitenant")
    base_mt = baseline.get("multitenant")
    if cur_mt is None or base_mt is None:
        failures.append("multitenant block missing (schema < 3? regenerate "
                        "with scripts/update_bench_baseline.sh)")
    else:
        cur_conf = cur_mt["conforming_hit_rate"]
        base_conf = base_mt["conforming_hit_rate"]
        print(f"conforming-tenant hit rate: {cur_conf:.1%} vs baseline "
              f"{base_conf:.1%}")
        if cur_conf < base_conf - 0.01:
            failures.append(f"conforming-tenant hit rate dropped "
                            f"{base_conf:.1%} -> {cur_conf:.1%}")
        cur_fair = cur_mt["fairness_index"]
        base_fair = base_mt["fairness_index"]
        print(f"fairness index: {cur_fair:.3f} vs baseline {base_fair:.3f}")
        if cur_fair < base_fair - 0.05:
            failures.append(f"fairness index dropped {base_fair:.3f} -> "
                            f"{cur_fair:.3f}")
        if cur_mt.get("worker_identical") is False:
            failures.append("multi-tenant leg diverged across worker counts")

    # Host block: every gated field must be present — a missing block or
    # key is a truncated/old-schema run, not a perfect score.
    host = current.get("host")
    if host is None:
        failures.append(
            "host block missing from the current run — the bench was "
            "truncated or ran --parallel off; the perf gate needs the "
            "parallel leg")
        host = {}
    if require(host, "reports_identical", "host", failures) is False:
        failures.append("parallel leg diverged from the sequential path")
    seq_wall = require(host, "sequential_wall_seconds", "host", failures)
    par_wall = require(host, "parallel_wall_seconds", "host", failures)
    speedup = require(host, "wall_speedup", "host", failures)
    workers = require(host, "workers", "host", failures)
    if None not in (seq_wall, par_wall, speedup, workers):
        gated = args.min_wall_speedup is not None
        print(f"host wall: sequential {seq_wall:.3f}s, parallel "
              f"{par_wall:.3f}s (wall_speedup {speedup:.2f}x, "
              f"{workers} workers) "
              f"[{'gated' if gated else 'informational'}]")
        if gated and speedup < args.min_wall_speedup:
            failures.append(
                f"wall_speedup {speedup:.2f}x below the "
                f"{args.min_wall_speedup:.2f}x floor — the parallel+cache "
                f"path lost its advantage over sequential simulation")
    cold_speedup = host.get("cold_wall_speedup") if host else None
    if cold_speedup is not None:
        # Soft report: the speedup earned before the cache was warm.
        # Never gated — cold walls are the noisiest numbers on a shared
        # runner — but always visible so a cold-path collapse is spotted
        # in the log even while the warm ratchet stays green.
        print(f"cold wall_speedup: {cold_speedup:.2f}x "
              f"[informational, cold leg of the same run]")

    cache = host.get("cache") if host else None
    if cache is None:
        failures.append("host.cache block missing — regenerate with "
                        "scripts/update_bench_baseline.sh")
    else:
        hit_rate = require(cache, "hit_rate", "host.cache", failures)
        hits = require(cache, "hits", "host.cache", failures)
        waits = require(cache, "waits", "host.cache", failures)
        misses = require(cache, "misses", "host.cache", failures)
        base_cache = baseline.get("host", {}).get("cache")
        base_hit_rate = require(base_cache, "hit_rate", "baseline.host.cache",
                                failures) if base_cache is not None else None
        if base_cache is None:
            failures.append("baseline host.cache block missing — regenerate "
                            "with scripts/update_bench_baseline.sh")
        if None not in (hit_rate, hits, waits, misses):
            print(f"cycle cache: hit rate {hit_rate:.1%} "
                  f"({hits} hits / {waits} waits / {misses} misses)")
        if None not in (hit_rate, base_hit_rate):
            drop = base_hit_rate - hit_rate
            print(f"cycle cache hit-rate vs baseline: {base_hit_rate:.1%} "
                  f"-> {hit_rate:.1%} ({-drop:+.1%} absolute)")
            if drop > HIT_RATE_DROP_LIMIT:
                failures.append(
                    f"cycle-cache hit rate dropped {drop:.1%} (absolute) vs "
                    f"baseline (> {HIT_RATE_DROP_LIMIT:.0%}) — speculation "
                    f"or placement is mispredicting the warm/cold variant")

    # Speculation scoring (schema >= 4): deterministic, so its presence
    # is required once both files speak schema 4.
    if current.get("schema", 0) >= 4:
        spec = host.get("speculation") if host else None
        if spec is None:
            failures.append("host.speculation block missing from a "
                            "schema-4 run")
        else:
            speculated = require(spec, "speculated", "host.speculation",
                                 failures)
            useful = require(spec, "useful", "host.speculation", failures)
            wasted = require(spec, "wasted", "host.speculation", failures)
            if None not in (speculated, useful, wasted):
                rate = useful / speculated if speculated else 1.0
                print(f"speculation: {speculated} speculated, {useful} "
                      f"useful, {wasted} wasted ({rate:.1%} useful)")
    # Cluster routing-tier gates (schema >= 5): every number in the
    # block is simulated, so these are contract checks, not budgets.
    if current.get("schema", 0) >= 5:
        cluster = current.get("cluster")
        if cluster is None:
            failures.append(
                "cluster block missing from a schema-5 run — the perf job "
                "must pass --cluster-trace to serve_throughput")
        else:
            if require(cluster, "single_equivalent", "cluster",
                       failures) is False:
                failures.append(
                    "cluster-of-1 diverged from the bare Server — the "
                    "lockstep/routing tier changed the simulated timeline")
            p2c_wins = require(cluster, "p2c_wins_queue_wait", "cluster",
                               failures)
            aff_wins = require(cluster, "affinity_wins_warm_dispatch",
                               "cluster", failures)
            if None not in (p2c_wins, aff_wins):
                print(f"cluster routing trade: p2c wins queue wait: "
                      f"{p2c_wins}; affinity wins warm dispatch: {aff_wins}")
                if not (p2c_wins or aff_wins):
                    failures.append(
                        "cluster routing trade holds in neither direction "
                        "(p2c lost p99 queue wait AND affinity lost "
                        "warm-dispatch rate)")
            p2c = cluster.get("power_of_two")
            autoscaled = cluster.get("autoscaled")
            if p2c is None or autoscaled is None:
                failures.append("cluster.power_of_two / cluster.autoscaled "
                                "leg missing")
            else:
                fairness = require(p2c, "instance_fairness",
                                   "cluster.power_of_two", failures)
                if fairness is not None:
                    print(f"cluster p2c fairness: {fairness:.4f} "
                          f"(floor {P2C_FAIRNESS_FLOOR})")
                    if fairness < P2C_FAIRNESS_FLOOR:
                        failures.append(
                            f"power-of-two instance fairness {fairness:.4f} "
                            f"below the {P2C_FAIRNESS_FLOOR} floor")
                fixed_j = require(p2c, "energy_per_inference_joules",
                                  "cluster.power_of_two", failures)
                scaled_j = require(autoscaled, "energy_per_inference_joules",
                                   "cluster.autoscaled", failures)
                downs = require(autoscaled, "scale_downs",
                                "cluster.autoscaled", failures)
                if None not in (fixed_j, scaled_j, downs):
                    print(f"cluster energy: autoscaled "
                          f"{scaled_j * 1e3:.4f} mJ/inf vs fixed "
                          f"{fixed_j * 1e3:.4f} mJ/inf "
                          f"({downs} scale-downs)")
                    if scaled_j >= fixed_j:
                        failures.append(
                            "autoscaled fleet no longer beats the fixed "
                            "fleet on energy per inference")
                    if downs < 1:
                        failures.append(
                            "autoscaler never parked an instance on the "
                            "diurnal trace — the trough detection broke")
            # Cross-run determinism: the simulated counts must replay
            # bit-for-bit against the baseline's cluster block.
            base_cluster = baseline.get("cluster")
            if base_cluster is None:
                failures.append("baseline cluster block missing — "
                                "regenerate with "
                                "scripts/update_bench_baseline.sh")
            else:
                for leg in ("task_affinity", "power_of_two", "tenant_spill",
                            "autoscaled"):
                    for field in ("completed", "router_shed",
                                  "makespan_cycles", "scale_downs"):
                        cur_v = cluster.get(leg, {}).get(field)
                        base_v = base_cluster.get(leg, {}).get(field)
                        if cur_v != base_v:
                            failures.append(
                                f"cluster.{leg}.{field} drifted from the "
                                f"baseline: {cur_v!r} vs {base_v!r} — "
                                f"simulated routing is no longer "
                                f"deterministic across runs")
            # Fleet threading (schema >= 6): simulated identity across
            # thread counts is the determinism contract and always
            # gates; the wall ratio only gates where the host can
            # actually win (>= 4 cores driving >= 4 threads).
            if current.get("schema", 0) >= 6:
                chost = cluster.get("host")
                if chost is None:
                    failures.append(
                        "cluster.host block missing from a schema-6 run — "
                        "the bench no longer measures fleet threading")
                else:
                    threads = require(chost, "fleet_threads",
                                      "cluster.host", failures)
                    cores = require(chost, "host_cores", "cluster.host",
                                    failures)
                    ratio = require(chost, "wall_ratio", "cluster.host",
                                    failures)
                    identical = require(chost, "simulated_reports_identical",
                                        "cluster.host", failures)
                    if threads is not None and threads >= 2:
                        if identical is False:
                            failures.append(
                                "fleet run diverged across fleet-thread "
                                "counts — host parallelism leaked into "
                                "the simulated timeline")
                        if None not in (cores, ratio):
                            gate_wall = cores >= 4 and threads >= 4
                            print(f"cluster fleet wall: 1 thread "
                                  f"{chost.get('wall_seconds_1thread', 0):.3f}s"
                                  f" vs {threads} threads "
                                  f"{chost.get('wall_seconds_fleet', 0):.3f}s "
                                  f"-> {ratio:.2f}x on {cores} cores "
                                  f"[{'gated' if gate_wall else 'informational'}]")
                            if gate_wall and ratio <= 1.0:
                                failures.append(
                                    f"fleet wall ratio {ratio:.2f}x <= 1.0 "
                                    f"on a {cores}-core host — "
                                    f"{threads} fleet threads no longer "
                                    f"beat sequential stepping")
                    elif threads is not None:
                        print("cluster fleet wall: comparison skipped "
                              "(--fleet-threads < 2)")

    # The obs trace-export leg (--trace): wall overhead is machine noise,
    # but simulated identity under tracing is deterministic and gates.
    trace = host.get("trace")
    if trace:
        print(f"obs trace: {trace.get('events', 0)} events, recording "
              f"overhead {trace.get('overhead', 1.0):.2f}x wall "
              f"[informational]")
        if trace.get("identical") is False:
            failures.append("traced run diverged from the untraced run")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("PASS: within regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
