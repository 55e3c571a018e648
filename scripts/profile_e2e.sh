#!/usr/bin/env bash
# Profiles one bench/e2e workload: where its host CPU time goes, by
# function.
#
#   scripts/profile_e2e.sh WORKLOAD [REPS]     (REPS defaults to 20)
#
# Builds a Release driver with debug info from bench/e2e into build-prof/
# (bench/e2e itself is not edited), then runs it at seed 2019 on the suite
# in build-e2e/suite (or mann_bench_cache/) under scripts/profile_sampler.cpp,
# an LD_PRELOAD sampler that records the call stack on every 1 ms of the
# process's CPU time (ITIMER_PROF). Each sampled instruction goes through
# `addr2line -f -i`, which names its inline chain: the outermost function
# (the one compiled out of line) and the innermost inline frame. A third
# table names the innermost frame's caller, as function @ file:line: the
# frame it was inlined into, at the line where it was, or for an out-of-line
# function (libc's too) the next frame up the stack at its call. So a
# kernel inlined into several steps of one flattened function (fx_dot in
# READ's, MEM's and OUTPUT's loops) is split by the step that called it.
# Samples with HostClock::Probe on their stack (the benchmark's host-speed
# probe) are left out, and each table gives its shares of the rest. x86-64
# Linux with GCC or Clang, binutils' addr2line and python3.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 WORKLOAD [REPS]" >&2
  exit 2
fi
workload=$1
reps=${2:-20}
cd "$(dirname "$0")/.."

cmake -S bench/e2e -B build-prof -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-g > /dev/null
cmake --build build-prof --target mann_e2e -j "$(nproc)" > /dev/null
"${CXX:-c++}" -O2 -g -shared -fPIC -o build-prof/profile_sampler.so \
  scripts/profile_sampler.cpp -ldl

suite=build-e2e/suite
[[ -d $suite ]] || suite=mann_bench_cache
samples=build-prof/profile-$workload.txt
MANN_PROFILE_OUT=$samples LD_PRELOAD=$PWD/build-prof/profile_sampler.so \
  ./build-prof/mann_e2e --workload "$workload" --seed 2019 --reps "$reps" \
  --suite-dir "$suite" > /dev/null

python3 - "$samples" build-prof/mann_e2e <<'EOF'
import collections
import os
import subprocess
import sys

samples_path, driver = sys.argv[1], sys.argv[2]
samples = []
with open(samples_path) as f:
    for line in f:
        if not line.startswith("#"):
            samples.append([a.rsplit(":", 1) for a in line.split()])

# Every address in the driver, through one addr2line call: its inline
# chain, innermost function first, each as (function, file:line). The
# line of an inlined function's caller is where it was inlined.
driver_name = os.path.basename(driver)
addresses = sorted({off for s in samples for mod, off in s
                    if os.path.basename(mod) == driver_name})
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", driver],
                     input="\n".join(addresses), capture_output=True,
                     text=True, check=True).stdout.splitlines()
chains = {}
current = None
lines = iter(out)
for text in lines:
    if text.startswith("0x"):
        current = chains.setdefault(hex(int(text, 16)), [])
    else:
        where = next(lines, "??:0").split(" (discriminator")[0]
        current.append((text, where))

def chain(mod, off):
    if os.path.basename(mod) != driver_name:
        return [("[" + os.path.basename(mod) + "]", "")]
    return chains.get(hex(int(off, 16))) or [("??", "")]

def in_probe(sample):
    return any("HostClock::Probe" in fn or "HostClock::probe" in fn
               for mod, off in sample for fn, _ in chain(mod, off))

def caller(sample):
    inner = chain(*sample[0])
    if len(inner) > 1:
        fn, where = inner[1]
    elif len(sample) > 1:
        fn, where = chain(*sample[1])[0]
    else:
        return "(no caller)"
    return f"{fn[:80]} @ {os.path.basename(where) or '?'}"

kept = [s for s in samples if s and not in_probe(s)]
print(f"{samples_path}: {len(samples)} samples, {len(samples) - len(kept)} "
      f"inside HostClock::Probe, {len(kept)} counted")
for title, pick in (("outermost function", lambda s: chain(*s[0])[-1][0]),
                    ("innermost inline frame", lambda s: chain(*s[0])[0][0]),
                    ("caller of the innermost inline frame", caller)):
    counts = collections.Counter(pick(s) for s in kept)
    print(f"\nby {title}:")
    for fn, n in counts.most_common(25):
        print(f"  {100.0 * n / max(len(kept), 1):5.1f}%  {n:6d}  {fn[:110]}")
EOF
