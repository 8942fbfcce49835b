#!/usr/bin/env python3
"""Records the benchmark's baseline: two sets of ten runs per workload.

    python3 atlasbench/spread.py

Every run is one `run_benchmark.sh --workload W --seed N --trace 0` of
BENCHMARK.json's run_seconds, with a fresh seed (seeds 1-10 for the first
set, 11-20 for the second); runs of the workloads are interleaved so drift
of the host spreads over all of them. For each set, workload and end-to-end
metric it records the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, and it checks that every spread stays below a
third of the metric's bound in BENCHMARK.json and that the second set's
median is within the bound of the first set's. Writes
atlasbench/results/BENCH_atlas.json; exits 1 when a run fails or a check
does not hold.
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "results", "BENCH_atlas.json")
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = ["bash", os.path.join(HERE, "run_benchmark.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return result


def host():
    def sh(*args):
        try:
            return subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True).stdout.strip()
        except OSError:
            return ""
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f
                          if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "kernel": platform.release(), "git_sha": sh("git", "rev-parse", "HEAD") or "unknown",
            "git_dirty": bool(sh("git", "status", "--porcelain"))}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    seed = 1
    for s in range(SETS):
        values = {w: {m: [] for m in metrics} for w in workloads}
        seeds = []
        for _ in range(RUNS):
            seeds.append(seed)
            for w in workloads:
                res = run_once(w, seed, seconds)
                if set(res["metrics"]) != set(metrics):
                    raise RuntimeError(f"{w}: reported {sorted(res['metrics'])}")
                for m in metrics:
                    values[w][m].append(res["metrics"][m]["value"])
                print(f"set {s + 1} seed {seed} {w}: " + " ".join(
                    f"{m}={res['metrics'][m]['value']:.4g}" for m in metrics), flush=True)
            seed += 1
        sets.append({"seeds": seeds, "workloads": {
            w: {m: summarize(values[w][m]) for m in metrics} for w in workloads}})

    ok = True
    print(f"\n{'workload':18} {'metric':18} " +
          " ".join(f"{'median' + str(i + 1):>11} {'spread' + str(i + 1):>8}"
                   for i in range(len(sets))) + "  bound   checks")
    for w in workloads:
        for m, spec in metrics.items():
            bound = spec["bound"]
            first = sets[0]["workloads"][w][m]
            notes = []
            for i, st in enumerate(sets):
                cur = st["workloads"][w][m]
                if cur["spread"] > bound / 3:
                    notes.append(f"spread{i + 1}>bound/3")
                worse = (first["median"] - cur["median"] if spec["better"] == "higher"
                         else cur["median"] - first["median"])
                if worse > bound * first["median"]:
                    notes.append(f"median{i + 1} off by more than the bound")
            ok = ok and not notes
            print(f"{w:18} {m:18} " + " ".join(
                f"{st['workloads'][w][m]['median']:11.5g} {st['workloads'][w][m]['spread']:8.2%}"
                for st in sets) + f"  {bound:5.2f}   {'ok' if not notes else ', '.join(notes)}")

    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump({"benchmark": "atlasbench", "run_seconds": seconds,
                   "recorded": time.strftime("%Y-%m-%d"), "host": host(),
                   "bounds": {m: metrics[m]["bound"] for m in metrics},
                   "checks_passed": ok, "sets": sets}, f, indent=1)
        f.write("\n")
    print(f"\nwrote {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
