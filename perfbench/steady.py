#!/usr/bin/env python3
"""Steadiness check: two sets of runs of every workload, and the
spreads and shifts that set the bounds in ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --out .bench_work/steady.json

A set is ``--runs`` rounds; round ``i`` runs every workload once at seed
``i`` (seeds 1, 2, ...), alternating the workload order between rounds.
The second set repeats the same seeds after the first has ended.  For
every end-to-end metric of every workload it prints, per set, the
median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and the spread ``(q3 - q1) / median``; then the shift of the
second set's median against the first's.  A metric's suggested bound is
the smallest multiple of 0.05 that is at least three times its largest
spread (``setup_s`` excepted) and twice its largest shift on any
workload; above 0.25 it is marked.  It also checks that the share of
failed operations is identical in every run of a workload.

The result is recorded with a host fingerprint per set: core count,
Python and numpy versions, fsync latency quantiles and a host-speed
probe, measured before the set's first run, and the share of busy CPU
time spent on cpu1 during the set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"


def _cpu_busy() -> dict[str, int]:
    """Busy (user + nice + system) ticks per cpu from /proc/stat."""
    busy = {}
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields[0].startswith("cpu") and fields[0] != "cpu":
                    busy[fields[0]] = sum(int(value) for value in fields[1:4])
    except OSError:
        pass
    return busy


def _fsync_latency(samples: int = 300) -> tuple[float, float]:
    """p50 and p99 of append+fsync of one 512-byte record, in ms."""
    path = WORKDIR / f"fsync-probe-{os.getpid()}"
    times = []
    try:
        with open(path, "ab") as handle:
            for _ in range(samples):
                start = time.perf_counter()
                handle.write(b"x" * 512)
                handle.flush()
                os.fsync(handle.fileno())
                times.append((time.perf_counter() - start) * 1e3)
    finally:
        path.unlink(missing_ok=True)
    cuts = statistics.quantiles(times, n=100)
    return cuts[49], cuts[98]


def _speed_probe(seconds: float = 3.0) -> dict:
    """A fixed pure-Python loop timed repeatedly: best time and the
    median's slowdown against it."""
    def work():
        total = 0
        for value in range(20000):
            total += value * value
        return total

    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    best = min(times)
    return {"loop_best_ms": best * 1e3,
            "median_over_best": statistics.median(times) / best}


def fingerprint() -> dict:
    import numpy

    fsync_p50, fsync_p99 = _fsync_latency()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fsync_p50_ms": fsync_p50,
        "fsync_p99_ms": fsync_p99,
        "speed": _speed_probe(),
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    result["seed"] = seed
    return result


def run_set(names: list[str], rounds: int, seconds: int, label: str) -> dict:
    host = fingerprint()
    print(f"{label} host: " + json.dumps(host), flush=True)
    busy_before = _cpu_busy()
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(rounds):
        order = names if index % 2 == 0 else names[::-1]
        for name in order:
            result = run_once(name, index + 1, seconds)
            runs[name].append(result)
            print(f"{label} {name} seed {result['seed']}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ) + f" (correct={result['correct']}, failed "
                f"{result['failed']}/{result['attempted']}, "
                f"{result['wall_s']:.1f}s)", flush=True)
    delta = {cpu: ticks - busy_before.get(cpu, 0)
             for cpu, ticks in _cpu_busy().items()}
    total = sum(delta.values())
    host["cpu1_busy_share"] = delta.get("cpu1", 0) / total if total else None
    return {"host": host, "runs": runs}


def quartiles(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median}
    return summary


def suggest(metric: str, spread: float, shift: float) -> float:
    """Smallest multiple of 0.05 at least ``3 * spread`` (not for
    ``setup_s``, whose spread is not bounded) and ``2 * shift``; may
    exceed the 0.25 cap, which the caller marks."""
    need = max(0.0 if metric == "setup_s" else 3 * spread, 2 * shift)
    return round(max(1, math.ceil(round(need / 0.05, 6))) * 0.05, 2)


def compare(sets: list[dict], bounds: dict) -> dict:
    """Per-workload quartiles of both sets and their shift, and each
    metric's suggested bound; prints them as it goes."""
    report = {"summary": {}, "bounds": {}}
    worst = {name: [0.0, 0.0] for name in bounds}
    for name in sets[0]["runs"]:
        a, b = (quartiles(s["runs"][name]) for s in sets)
        shares = {run["failed"] / run["attempted"]
                  for s in sets for run in s["runs"][name]}
        correct = all(run["correct"] for s in sets for run in s["runs"][name])
        print(f"\n{name}: correct={correct}, failed shares {sorted(shares)}")
        rows = {}
        for metric in a:
            shift = b[metric]["median"] / a[metric]["median"] - 1
            spread = max(a[metric]["spread"], b[metric]["spread"])
            worst[metric][0] = max(worst[metric][0], spread)
            worst[metric][1] = max(worst[metric][1], abs(shift))
            rows[metric] = {"A": a[metric], "B": b[metric], "shift": shift}
            print(f"  {metric:14s} A median {a[metric]['median']:10.5g} spread "
                  f"{a[metric]['spread']:6.2%} | B median {b[metric]['median']:10.5g}"
                  f" spread {b[metric]['spread']:6.2%} | shift {shift:+6.2%} | "
                  f"spread/bound {spread / bounds[metric]:.2f}")
        report["summary"][name] = {"correct": correct,
                                   "failed_shares": sorted(shares), "metrics": rows}
    print("\nbounds (largest spread, largest shift -> suggested; in BENCHMARK.json):")
    for metric, (spread, shift) in worst.items():
        suggested = suggest(metric, spread, shift)
        report["bounds"][metric] = {"spread": spread, "shift": shift,
                                    "suggested": suggested, "set": bounds[metric]}
        print(f"  {metric:14s} {spread:6.2%} {shift:6.2%} -> {suggested:.2f}"
              f"{' (over the 0.25 cap)' if suggested > 0.25 else ''}; "
              f"set {bounds[metric]}")
    return report


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="rounds per set (seeds 1..runs)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the result as JSON to this file")
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    WORKDIR.mkdir(exist_ok=True)
    sets = [run_set(names, args.runs, args.seconds, label) for label in ("A", "B")]
    report = {"seconds": args.seconds, "seeds": list(range(1, args.runs + 1)),
              "sets": sets, **compare(sets, bounds)}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
