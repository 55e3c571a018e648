#!/usr/bin/env python3
"""Host and device ledgers of one traced benchmark process.

    python3 bench/e2e/ledger.py TRACE.json [DRIVER.json]

TRACE.json is the Chrome trace the driver writes with --trace-out: one
span per call the driver makes into a layer ("serve.step", "accel.run",
...), each with its parent and its rep. A span's self time is its
duration minus the part its child spans cover; a layer's self time is the
sum over its spans (the layer is the name's prefix). The host ledger
prints each span name's self time per warm rep and its share of the rep's
wall; the "rep" span's own self time is the driver's uncovered overhead.
The host clock's probes (host_clock.hpp, "bench.probe" spans) are not
the program's time: they are printed apart and left out of coverage.

DRIVER.json is the driver's result line for the same process. It adds
the device ledger: per accelerator module, the share of simulated cycles
busy and stalled (measured on paper_table1), and where the energy went.
"""

import json
import statistics
import sys


def read_spans(path):
    """Yields the span events of a driver trace. The driver writes one
    event per line, so a trace of a million spans streams in small
    memory instead of being loaded whole."""
    with open(path) as f:
        for line in f:
            line = line.lstrip(",")
            if line.startswith('{"name"'):
                yield json.loads(line)


def self_times(path):
    """{rep: {"wall": s, "probe": s, "spans": {name: {"self": s, "calls": n}}}}.

    "wall" is the duration of the rep's timed section (the "rep" span) and
    "probe" the host clock's probe time inside it. Set-up spans carry rep
    -1 and no wall. A span's duration is added to its name's bucket and
    subtracted from its parent's, which leaves every bucket holding self
    time (parents precede their children).
    """
    reps = {}
    bucket_of = {}  # span index -> the bucket its self time lands in
    name_of = {}  # span index -> its name
    for e in read_spans(path):
        args = e["args"]
        rep = reps.setdefault(args["rep"],
                              {"wall": 0.0, "probe": 0.0, "spans": {}})
        entry = rep["spans"].setdefault(e["name"], {"self": 0.0, "calls": 0})
        dur = e["dur"] / 1e6
        entry["self"] += dur
        entry["calls"] += 1
        if e["name"] == "rep":
            rep["wall"] += dur
        bucket_of[args["index"]] = entry
        name_of[args["index"]] = e["name"]
        if args["parent"] >= 0:
            bucket_of[args["parent"]]["self"] -= dur
            if e["name"] == "bench.probe" and name_of[args["parent"]] == "rep":
                rep["probe"] += dur
    return reps


def warm_reps(reps):
    """Rep ids after the cold rep (all reps if there is only one)."""
    ids = sorted(r for r in reps if r >= 0)
    return ids[1:] if len(ids) > 1 else ids


def per_rep_median(reps, name, field="self"):
    """Median over warm reps of a span name's self time (or call count)."""
    values = [reps[r]["spans"].get(name, {}).get(field, 0.0)
              for r in warm_reps(reps)]
    return statistics.median(values) if values else 0.0


def coverage(reps):
    """Per warm rep, the share of the rep's wall, less the probe's, that
    its layer spans cover."""
    shares = []
    for r in warm_reps(reps):
        timed = reps[r]["wall"] - reps[r]["probe"]
        if timed > 0:
            shares.append(1.0 - reps[r]["spans"]["rep"]["self"] / timed)
    return shares


def print_host_ledger(reps, out=sys.stdout):
    ids = warm_reps(reps)
    if not ids:
        print("host ledger: no traced reps", file=out)
        return
    wall = statistics.median(reps[r]["wall"] for r in ids)
    names = sorted({n for r in ids for n in reps[r]["spans"]} -
                   {"bench.probe"},
                   key=lambda n: -per_rep_median(reps, n))
    print(f"host ledger: self time per warm rep (median of {len(ids)}), "
          f"rep wall {wall:.4f} s", file=out)
    print(f"  {'layer':<8} {'span':<22} {'calls':>8} {'self s':>10} "
          f"{'share':>7}", file=out)
    for name in names:
        layer = name.split(".")[0] if "." in name else "driver"
        label = "rep (uncovered)" if name == "rep" else name
        self_s = per_rep_median(reps, name)
        calls = per_rep_median(reps, name, "calls")
        print(f"  {layer:<8} {label:<22} {calls:>8.0f} {self_s:>10.4f} "
              f"{self_s / wall:>7.1%}", file=out)
    probe = statistics.median(reps[r]["probe"] for r in ids)
    print(f"  host clock probes inside the rep: {probe:.4f} s "
          f"({probe / wall:.1%})", file=out)
    cov = coverage(reps)
    print(f"  layer spans cover {min(cov):.1%} of the rep wall less the "
          f"probe at worst (median {statistics.median(cov):.1%})", file=out)


MODULES = ["host_link", "control", "input_write", "read", "mem", "output"]


def print_device_ledger(layers, out=sys.stdout):
    if not layers.get("accel.run_calls"):
        print("device ledger: per-module cycles are measured on "
              "paper_table1 only", file=out)
    else:
        print("device ledger: share of simulated cycles at 100 MHz, plain",
              file=out)
        print(f"  {'module':<12} {'busy':>7} {'stalled':>8}", file=out)
        for m in MODULES:
            print(f"  {m.upper():<12} {layers[f'accel.{m}.busy_frac']:>7.1%} "
                  f"{layers[f'accel.{m}.stall_frac']:>8.1%}", file=out)
        print(f"  host link active {layers['accel.link_active_frac']:.1%} of "
              f"cycles; {layers['accel.ops_per_story']:.0f} datapath ops "
              f"per story", file=out)
    if "power.static_frac" in layers:
        print("  energy: static+clock {:.1%}, dynamic {:.2%}, link {:.1%}"
              .format(layers["power.static_frac"],
                      layers["power.dynamic_frac"],
                      layers["power.link_frac"]), file=out)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print_host_ledger(self_times(argv[1]))
    if len(argv) == 3:
        with open(argv[2]) as f:
            driver = json.load(f)
        reps = driver["reps"]
        print_device_ledger(reps[-1]["layers"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
