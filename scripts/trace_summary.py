#!/usr/bin/env python3
"""Summarize a mann::obs Chrome trace-event JSON export.

Usage: trace_summary.py TRACE.json [--tenant-histograms]

Accepts the object form written by obs::write_chrome_trace() (a
"traceEvents" array plus the non-standard "mannMetrics" block) or a bare
event array. Validates the per-request lifecycle spans first — every
async begin ("b") must be closed by a matching end ("e") with the same
(name, id) at a timestamp no earlier than the begin — and exits 1 on a
malformed trace, so CI can use it as a well-formedness smoke test.

Then reports:
  * per-stage latency breakdown (request / queued / pending / service
    span durations: count, mean, p50, p95, p99, max in simulated ms),
  * shed accounting (frontend "shed" instants by ShedReason),
  * cache attribution (host-domain dispatch "cache" instants and worker
    "speculate" spans by outcome, misses broken down per task),
  * cache-segment contention (sharded cycle-cache runs only): per-segment
    hit/wait/miss/contended counts from the embedded mannMetrics
    "accel.cycle_cache.segment.<i>.*" counters, with the lock-contention
    share per segment — how evenly the story-digest hash spreads load
    across the segment locks,
  * per-tenant queue-wait histograms (--tenant-histograms, or always
    when the trace names more than one tenant),
  * per-instance routing (cluster traces only): requests routed and
    queue-wait percentiles per server instance, joined from the router's
    "route" instants (tid = 300 + instance, args.id = request id) to the
    request lifecycle spans — and exits 1 if a routed request has no
    lifecycle span at all (a router/instance bookkeeping bug),
  * the embedded mannMetrics counters/histograms when present.

Stdlib only; no third-party imports.
"""

import argparse
import collections
import json
import math
import sys


STAGES = ("request", "queued", "pending", "service")


def load_events(path):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if isinstance(data, list):
        return data, {}
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("no traceEvents array")
        return events, data
    raise ValueError("trace is neither an object nor an array")


def validate_spans(events):
    """Pairs async begins/ends; returns ({(name, id): (begin, end)}, errors)."""
    open_spans = {}
    spans = {}
    errors = []
    for e in events:
        ph = e.get("ph")
        if ph not in ("b", "e"):
            continue
        key = (e.get("name"), e.get("id"))
        if None in key:
            errors.append(f"async event missing name/id: {e}")
            continue
        if ph == "b":
            if key in open_spans:
                errors.append(f"span {key} begun twice")
            open_spans[key] = e
        else:
            begin = open_spans.pop(key, None)
            if begin is None:
                errors.append(f"end without begin for span {key}")
                continue
            if e["ts"] < begin["ts"]:
                errors.append(
                    f"span {key} ends at {e['ts']} before its begin "
                    f"{begin['ts']}")
                continue
            spans[key] = (begin, e)
    for key in open_spans:
        errors.append(f"span {key} never closed")
    return spans, errors


def percentile(sorted_values, q):
    """Nearest rank: the value at 1-based rank ceil(q*n), the rule
    serve::ServingMetrics and cluster::Cluster report by."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def print_stage_stats(spans):
    print("per-stage latency (simulated ms):")
    print(f"  {'stage':<10} {'count':>7} {'mean':>9} {'p50':>9} "
          f"{'p95':>9} {'p99':>9} {'max':>9}")
    for stage in STAGES:
        durations = sorted(
            (end["ts"] - begin["ts"]) / 1e3
            for (name, _), (begin, end) in spans.items()
            if name == stage)
        if not durations:
            print(f"  {stage:<10} {0:>7}")
            continue
        mean = sum(durations) / len(durations)
        print(f"  {stage:<10} {len(durations):>7} {mean:>9.3f} "
              f"{percentile(durations, 0.50):>9.3f} "
              f"{percentile(durations, 0.95):>9.3f} "
              f"{percentile(durations, 0.99):>9.3f} "
              f"{durations[-1]:>9.3f}")


def print_sheds(events):
    sheds = collections.Counter(
        e.get("args", {}).get("detail", "?")
        for e in events
        if e.get("ph") == "i" and e.get("name") == "shed")
    if sheds:
        total = sum(sheds.values())
        reasons = ", ".join(f"{k}={v}" for k, v in sorted(sheds.items()))
        print(f"\nsheds: {total} ({reasons})")


def print_cache_attribution(events):
    """Host-domain dispatch/speculation outcomes, wasted work per task."""
    outcomes = collections.Counter()
    miss_tasks = collections.Counter()
    wasted_tasks = collections.Counter()
    for e in events:
        name = e.get("name")
        if name in ("cache", "speculation") and e.get("ph") == "i":
            pass
        elif name == "speculate" and e.get("ph") == "X":
            pass
        else:
            continue
        args = e.get("args", {})
        outcome = args.get("detail", "?")
        outcomes[f"{name}:{outcome}"] += 1
        if outcome == "miss" and args.get("task") is not None:
            miss_tasks[args["task"]] += 1
        if (name == "speculation" and outcome == "wasted"
                and args.get("task") is not None):
            wasted_tasks[args["task"]] += 1
    if not outcomes:
        print("\ncache attribution: no host-domain cache events "
              "(no cycle cache, or recording never enabled)")
        return
    print("\ncache attribution (host-domain dispatch + speculation):")
    for key, count in sorted(outcomes.items()):
        print(f"  {key:<20} {count}")
    if miss_tasks:
        ranked = ", ".join(
            f"task {t}: {n}" for t, n in miss_tasks.most_common(8))
        print(f"  misses by task: {ranked}")
    if wasted_tasks:
        ranked = ", ".join(
            f"task {t}: {n}" for t, n in wasted_tasks.most_common(8))
        print(f"  wasted speculation by task: {ranked}")


def print_cache_segments(top):
    """Per-segment contention attribution for the sharded cycle cache.

    The cache registers one counter quartet per lock segment only when
    sharded (segments > 1), so a silent absence here just means the run
    used a single-segment cache. `contended` counts try-lock failures —
    acquisitions that had to sleep on another thread's segment lock —
    which is the number the segment-count knob exists to shrink.
    """
    counters = top.get("mannMetrics", {}).get("counters", {})
    prefix = "accel.cycle_cache.segment."
    segments = collections.defaultdict(dict)
    for name, value in counters.items():
        if not name.startswith(prefix):
            continue
        index, _, field = name[len(prefix):].partition(".")
        if index.isdigit() and field:
            segments[int(index)][field] = value
    if not segments:
        return
    total_ops = sum(
        s.get("hits", 0) + s.get("waits", 0) + s.get("misses", 0)
        for s in segments.values())
    total_contended = sum(s.get("contended", 0) for s in segments.values())
    print(f"\ncycle-cache segment contention ({len(segments)} segments, "
          f"{total_contended} contended acquisitions / {total_ops} lookups):")
    print(f"  {'segment':<8} {'hits':>8} {'waits':>7} {'misses':>8} "
          f"{'contended':>10} {'share':>7}")
    for index in sorted(segments):
        s = segments[index]
        ops = s.get("hits", 0) + s.get("waits", 0) + s.get("misses", 0)
        share = ops / total_ops if total_ops else 0.0
        print(f"  {index:<8} {s.get('hits', 0):>8} {s.get('waits', 0):>7} "
              f"{s.get('misses', 0):>8} {s.get('contended', 0):>10} "
              f"{share:>6.1%}")


def log2_histogram(values_ms):
    """Text histogram over power-of-two millisecond buckets."""
    buckets = collections.Counter()
    for v in values_ms:
        bucket = 0
        upper = 0.001  # sub-microsecond floor
        while v > upper and bucket < 40:
            bucket += 1
            upper *= 2
        buckets[bucket] += 1
    peak = max(buckets.values())
    lines = []
    for bucket in sorted(buckets):
        upper = 0.001 * (2 ** bucket)
        bar = "#" * max(1, round(buckets[bucket] * 40 / peak))
        lines.append(f"    <= {upper:10.3f} ms  {buckets[bucket]:>6}  {bar}")
    return lines


def print_tenant_queue_waits(spans, force):
    waits = collections.defaultdict(list)
    for (name, _), (begin, end) in spans.items():
        if name != "queued":
            continue
        tenant = begin.get("args", {}).get("tenant", 0)
        waits[tenant].append((end["ts"] - begin["ts"]) / 1e3)
    if not waits or (len(waits) < 2 and not force):
        return
    print("\nper-tenant queue-wait histograms (simulated ms):")
    for tenant in sorted(waits):
        values = sorted(waits[tenant])
        mean = sum(values) / len(values)
        print(f"  tenant {tenant}: {len(values)} waits, mean {mean:.3f} ms, "
              f"p99 {percentile(values, 0.99):.3f} ms")
        for line in log2_histogram(values):
            print(line)


INSTANCE_TID_BASE = 300  # obs::kTrackInstanceBase: route lane per instance


def print_instances(events, spans):
    """Cluster router attribution; returns the number of lost requests.

    Routing decisions are "route" instants on a per-instance lane
    carrying the assigned request id. Joining on that id (never on
    ordering — post-drain flushes legitimately reach back in time) gives
    per-instance routed counts and queue-wait spreads. A route whose id
    has no "request" lifecycle span was dropped between router and
    instance, which the simulation never does — report and fail.
    """
    routes = []
    for e in events:
        if e.get("ph") != "i" or e.get("name") != "route":
            continue
        tid = e.get("tid", 0)
        if tid < INSTANCE_TID_BASE:
            continue
        routes.append((tid - INSTANCE_TID_BASE, e.get("args", {}).get("id")))
    if not routes:
        return 0  # bare-server trace: no cluster section
    counts = collections.Counter()
    waits = collections.defaultdict(list)
    lost = []
    for instance, rid in routes:
        counts[instance] += 1
        if rid is None or ("request", rid) not in spans:
            lost.append((instance, rid))
            continue
        queued = spans.get(("queued", rid))
        if queued is not None:
            begin, end = queued
            waits[instance].append((end["ts"] - begin["ts"]) / 1e3)
    router_sheds = sum(
        1 for e in events
        if e.get("ph") == "i" and e.get("name") == "router_shed")
    print("\nper-instance routing (cluster):")
    print(f"  {'instance':<9} {'routed':>7} {'queued':>7} {'qw mean':>9} "
          f"{'qw p50':>9} {'qw p99':>9} {'qw max':>9}")
    for instance in sorted(counts):
        values = sorted(waits.get(instance, []))
        if not values:
            print(f"  {instance:<9} {counts[instance]:>7} {0:>7}")
            continue
        mean = sum(values) / len(values)
        print(f"  {instance:<9} {counts[instance]:>7} {len(values):>7} "
              f"{mean:>9.3f} {percentile(values, 0.50):>9.3f} "
              f"{percentile(values, 0.99):>9.3f} {values[-1]:>9.3f}")
    if router_sheds:
        print(f"  router sheds: {router_sheds}")
    for instance, rid in lost[:20]:
        print(f"FAIL: request {rid} routed to instance {instance} but has "
              f"no lifecycle span", file=sys.stderr)
    if len(lost) > 20:
        print(f"FAIL: ... and {len(lost) - 20} more", file=sys.stderr)
    return len(lost)


def print_metrics(top):
    metrics = top.get("mannMetrics")
    if not metrics:
        return
    counters = metrics.get("counters", {})
    if counters:
        print("\nmetrics counters:")
        for name, value in sorted(counters.items()):
            print(f"  {name:<40} {value}")
    gauges = metrics.get("gauges", {})
    if gauges:
        print("\nmetrics gauges:")
        for name, value in sorted(gauges.items()):
            print(f"  {name:<40} {value}")
    histograms = metrics.get("histograms", {})
    if histograms:
        print("\nmetrics histograms:")
        for name, h in sorted(histograms.items()):
            print(f"  {name:<40} count={h.get('count', 0)} "
                  f"mean={h.get('mean', 0):.1f} p50={h.get('p50', 0):.0f} "
                  f"p99={h.get('p99', 0):.0f} max={h.get('max', 0)}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("trace")
    parser.add_argument("--tenant-histograms", action="store_true",
                        help="print queue-wait histograms even for a "
                             "single-tenant trace")
    args = parser.parse_args()

    try:
        events, top = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"FAIL: cannot load {args.trace}: {err}", file=sys.stderr)
        return 1

    spans, errors = validate_spans(events)
    if errors:
        for error in errors[:20]:
            print(f"FAIL: {error}", file=sys.stderr)
        if len(errors) > 20:
            print(f"FAIL: ... and {len(errors) - 20} more", file=sys.stderr)
        return 1

    requests = sum(1 for (name, _) in spans if name == "request")
    print(f"{args.trace}: {len(events)} events, {len(spans)} closed spans, "
          f"{requests} request lifecycles — well-formed")
    if requests == 0:
        # A trace whose recording was never enabled (a daemon run with
        # --trace-json and no `trace on`) is valid but has nothing to
        # summarize; still exit 0.
        print("no request spans recorded (recording never enabled, e.g. "
              "mann_served --trace-json without `trace on`)")
        print_metrics(top)
        return 0

    print_stage_stats(spans)
    print_sheds(events)
    print_cache_attribution(events)
    print_cache_segments(top)
    print_tenant_queue_waits(spans, args.tenant_histograms)
    lost = print_instances(events, spans)
    print_metrics(top)
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
