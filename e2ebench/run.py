#!/usr/bin/env python3
"""End-to-end benchmark of the replicated key-value store: P-SMR vs SMR.

Builds the program from the checkout's sources (into .bench_build/), runs
one process per leg (P-SMR with 4 worker groups, then the SMR baseline, or
the other way round) and prints every metric by name, with its unit and
sample count.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

  python3 e2ebench/run.py --workload read --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --repeat 10 --seeds 1,101 [--workload mixed]
  python3 e2ebench/run.py --selftest
  python3 e2ebench/run.py --repro-admit

See e2ebench/README.md for the workloads, the metrics and what each
per-layer metric should move.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
EXE = os.path.join(BUILD, "psmr_e2e")
WORKLOADS = ("read", "mixed", "read-sync", "read-open")
LEGS = ("psmr", "smr")
# One leg must end well inside the 180 s a whole run may take: set-up,
# warm-up, the measured interval, the abandonment deadline and the checks.
LEG_TIMEOUT_S = 75
# A leg started right after another one runs measurably slower on a shared
# virtual machine (CPU per command up to 2x for its whole life); a pause
# before each leg lets the host settle.
COOLDOWN_S = 6


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def catalog():
    """Metric names, units and bounds, from BENCHMARK.json at the root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def build():
    """Configures once and builds; the build is a no-op when up to date."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("e2ebench: no program sources (src/) in this checkout")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)


def run_leg(leg, workload, seed, seconds, trace, extra=()):
    """Runs one leg process; returns (exit code, parsed last line, stderr)."""
    cmd = [EXE, "--leg", leg, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=LEG_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"leg {leg} did not finish in {LEG_TIMEOUT_S} s"
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result, p.stderr


def metrics_setup(legs):
    """setup_s: both legs' set-up times (each the median of its repeats)."""
    return sum(legs[l]["setup_s"] for l in LEGS)


def run_once(workload, seed, seconds, trace):
    """One run of a workload: both legs.  Returns the final JSON object and
    every figure the legs reported, by name."""
    end_to_end, per_layer = catalog()
    order = LEGS if seed % 2 == 0 else LEGS[::-1]
    legs = {}
    for leg in order:
        time.sleep(COOLDOWN_S)
        code, result, err = run_leg(leg, workload, seed, seconds, trace)
        if err.strip():
            log(err.rstrip())
        if code != 0 or result is None:
            raise SystemExit(f"e2ebench: workload {workload}, leg {leg} "
                             f"failed (exit {code})")
        legs[leg] = result
        log(f"[{workload} seed {seed}] {leg}: attempted {result['attempted']} "
            f"failed {result['failed']} latency samples {result['samples']} "
            f"kcps {result['kcps']:.2f} setup {result['setup_s']:.3f} s "
            f"(median of {result['setup_runs']})")
    wanted = per_layer if trace else end_to_end
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name == "setup_s":
            value = metrics_setup(legs)
        else:
            leg, _, inner = name.partition(".")
            value = legs[leg]["metrics"][inner]
        metrics[name] = {"value": value, "unit": m["unit"]}
    # Every figure the legs report is printed; the JSON line carries the
    # ones BENCHMARK.json lists for this mode.
    units = {m["name"]: m["unit"] for m in end_to_end + per_layer}
    figures = {"setup_s": metrics_setup(legs)}
    print(f"{workload:9s} {'setup_s':36s} {figures['setup_s']:14.4f} s")
    for leg in LEGS:
        for inner, value in legs[leg]["metrics"].items():
            name = f"{leg}.{inner}"
            figures[name] = value
            gate = "gated" if name in metrics and not trace else ""
            print(f"{workload:9s} {name:36s} {value:14.4f} "
                  f"{units.get(name, ''):10s} "
                  f"samples {legs[leg]['samples']} {gate}")
    result = {
        "correct": all(legs[l]["correct"] for l in LEGS),
        "attempted": sum(legs[l]["attempted"] for l in LEGS),
        "failed": sum(legs[l]["failed"] for l in LEGS),
        "metrics": metrics,
    }
    return result, figures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(workloads, seed_bases, n, seconds, trace):
    """Runs each workload n times per seed base, seeds base..base+n-1, so
    consecutive runs alternate which leg goes first.  Prints each metric's
    median and quartiles, its spread (Q3-Q1 over the median) against a
    third of its bound, and how far the second set's median moved from the
    first's."""
    end_to_end, per_layer = catalog()
    bounds = {m["name"]: m.get("bound") for m in end_to_end + per_layer}
    for w in workloads:
        sets = []
        for base in seed_bases:
            runs = [run_once(w, base + i, seconds, trace) for i in range(n)]
            sets.append(runs)
        print(f"\n== {w}: {n} runs per set, seed bases {seed_bases}")
        for si, runs in enumerate(sets):
            shares = sorted({r["failed"] / r["attempted"] for r, _ in runs})
            print(f"set {si}: failed share per run {shares}")
        names = list(sets[0][0][1])
        print(f"{'metric':30s} {'set':>3s} {'Q1':>12s} {'median':>12s} "
              f"{'Q3':>12s} {'spread':>8s} {'bound/3':>8s} {'shift':>8s}")
        for name in names:
            first_median = None
            for si, runs in enumerate(sets):
                q1, med, q3 = quartiles([f[name] for _, f in runs])
                spread = (q3 - q1) / med if med else 0.0
                b = bounds.get(name)
                shift = ""
                if first_median is None:
                    first_median = med
                elif first_median:
                    shift = f"{(med - first_median) / first_median:+8.3f}"
                flag = ""
                if b is not None and spread > b / 3:
                    flag = "  WIDE" if name != "setup_s" else ""
                print(f"{name:30s} {si:3d} {q1:12.4f} {med:12.4f} {q3:12.4f} "
                      f"{spread:8.3f} {b / 3 if b else 0:8.3f} {shift:>8s}"
                      f"{flag}")


def selftest():
    """Deliberately wrong expectations must make a leg fail its checks."""
    cases = [
        ("read", "smr", ["--inject", "flip-read"], False),
        ("mixed", "psmr", ["--inject", "flip-read"], False),
        ("mixed", "smr", ["--inject", "skip-update"], False),
        ("mixed", "psmr", [], True),
    ]
    ok = True
    for workload, leg, extra, should_pass in cases:
        code, result, err = run_leg(leg, workload, 1, 1, 0, extra)
        passed = code == 0 and result is not None and result["correct"]
        named = f"workload={workload} leg={leg}" in (err or "")
        good = passed if should_pass else (not passed and named)
        ok &= good
        verdict = "as expected" if good else "UNEXPECTED"
        print(f"selftest {workload} {leg} {' '.join(extra) or '(no inject)'}: "
              f"exit {code}, {'passed' if passed else 'failed'} — {verdict}")
        for line in (err or "").splitlines():
            if "CHECK FAILED" in line:
                print("  " + line)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="runs per seed set (repeat mode)")
    ap.add_argument("--seeds", default="1,101",
                    help="repeat mode: comma-separated seed bases, one set each")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--repro-admit", action="store_true")
    args = ap.parse_args()
    try:
        build()
    except subprocess.CalledProcessError as e:
        raise SystemExit(f"e2ebench: build failed: {e}")
    if args.selftest:
        return selftest()
    if args.repro_admit:
        return subprocess.run([EXE, "--repro-admit", "--seconds", "3"],
                              timeout=LEG_TIMEOUT_S).returncode
    if args.repeat:
        bases = [int(s) for s in args.seeds.split(",")]
        repeat(args.workload or list(WORKLOADS), bases, args.repeat,
               args.seconds, args.trace)
        return 0
    if not args.workload or len(args.workload) != 1:
        raise SystemExit("e2ebench: give exactly one --workload")
    result, _ = run_once(args.workload[0], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
