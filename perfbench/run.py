#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the iTag reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads: ``campaign`` (Algorithm 1 through ``AllocationEngine``),
``system-durable`` (``ITagSystem`` tasks in a data directory at
``fsync="always"``) and ``provider-monitor`` (the Fig. 3-8 screens over
an in-memory system, with a task committed after every cycle of reads).

A run replays the workload's seeded inputs, set-up included, until
``--seconds`` have passed (at least ``MIN_REPLAYS`` times).  Host speed
drifts by up to ~1.8x in phases of seconds, so wall times are scaled to
reference speed: a fixed piece of interpreter work (``speed_probe``)
runs before every ``SEGMENT`` operations and after the last, and each
operation's time is multiplied by ``REFERENCE_PROBE_S`` over the mean
of the two probes around it.  Each segment's and each operation's
time is then the mean of its two fastest replays (see ``end_to_end``):

- ``ops_per_s``: operations over the summed segment times;
- ``op_p50_ms`` / ``op_p99_ms``: quantiles over the operations;
- ``setup_s``: the sum over set-up phases of each phase's median replay.

With ``--trace 1`` the run alternates untraced and traced replays and
prints the per-layer metrics instead (see ``tracing.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"

#: consecutive operations between two speed probes
SEGMENT = 10
#: the speed probe's time on the reference host in its fast state
REFERENCE_PROBE_S = 95e-6
#: replays per run at least, whatever ``--seconds`` says
MIN_REPLAYS = 3


def to_reference(before: float, after: float) -> float:
    """Factor that scales a wall time to reference host speed: the
    reference probe time over the mean of the probes on either side."""
    return 2 * REFERENCE_PROBE_S / (before + after)


class Phases:
    """Set-up phase timer: ``with phases("generate"): ...``; ``scaled``
    holds each phase's time at reference speed."""

    def __init__(self) -> None:
        self.scaled: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        before = speed_probe()
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            scale = to_reference(before, speed_probe())
            self.scaled[name] = self.scaled.get(name, 0.0) + elapsed * scale


class Recorder:
    """Times each measured operation: ``rec(kind, fn, *args)``."""

    def __init__(self, tracer=None) -> None:
        self.kinds: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probes: list[float] = []
        self.tracer = tracer

    def __call__(self, kind: str, fn, *args):
        if len(self.kinds) % SEGMENT == 0:
            self.probes.append(speed_probe())
        if self.tracer is not None:
            self.tracer.op = len(self.kinds)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.kinds.append(kind)
            self.starts.append(start)
            self.ends.append(end)
            if self.tracer is not None:
                self.tracer.op = None

    def finish(self) -> None:
        self.probes.append(speed_probe())

    def scale(self, segment: int) -> float:
        return to_reference(self.probes[segment], self.probes[segment + 1])

    @property
    def measured_s(self) -> float:
        return self.ends[-1] - self.starts[0]


def _probe_work() -> int:
    table = {}
    total = 0
    for value in range(800):
        table[value % 97] = table.get(value % 97, 0) + value
        total += value * value
    return total + len(table)


def speed_probe() -> float:
    """Fastest of four runs of a fixed piece of interpreter work."""
    best = float("inf")
    for _ in range(4):
        start = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - start)
    return best


def _store_counters(workload) -> dict:
    """WAL, plan-cache and lock-manager counters of the workload's
    database."""
    system = getattr(workload, "system", None)
    if system is None:
        return {}
    database = system.database
    locks = database.lock_manager.stats()
    counters = {
        "hits": 0,
        "misses": 0,
        "escalations": locks["escalations"],
        "lock_aborts": locks["victims"] + locks["timeouts"],
    }
    for name in database.table_names():
        stats = database.table(name).plan_cache.stats()
        counters["hits"] += stats["hits"]
        counters["misses"] += stats["misses"]
    wal = database.wal
    if wal is not None:
        stats = wal.stats()
        counters["lsn"] = stats["lsn"]
        counters["syncs"] = stats["sync_count"]
    return counters


def replay_once(workload_cls, seed: int, tracer=None, workloads_module=None) -> dict:
    """One replay of the workload from its seed.  Returns its recorder
    (``rec``), scaled set-up phases (``setup``), deterministic outputs,
    failed checks (``errors``), operation tally (``ops``) and store
    counter deltas (``extra``)."""
    workload = workload_cls(seed, str(WORKDIR))
    phases = Phases()
    rec = Recorder(tracer)
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install(workloads_module)
        try:
            workload.setup(phases)
            before = _store_counters(workload)
            workload.measure(rec)
            rec.finish()
            after = _store_counters(workload)
        finally:
            if tracer is not None:
                tracer.uninstall()
        extra = {
            key: after[key] - before[key] for key in after
        }
        outputs = workload.outputs()
        errors = workload.check()
    finally:
        workload.close()
    return {"rec": rec, "setup": phases.scaled, "outputs": outputs,
            "errors": errors, "ops": workload.ops, "extra": extra}


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------


def _primary(kinds: list[str], primary: str) -> list[int]:
    return [i for i, kind in enumerate(kinds) if kind.split(":", 1)[0] == primary]


def _two_fastest(times) -> float:
    """Mean of the two fastest replays of one piece of work: slowed
    replays drop out, and one lucky probe reading weighs half."""
    first, second = sorted(times)[:2]
    return (first + second) / 2


def end_to_end(replays: list[dict], primary: str) -> dict:
    """End-to-end figures from the scaled times of all replays: each
    segment's and each operation's time is the mean of its two fastest
    replays; throughput is the primary operations over the summed
    segment times, latency quantiles are taken over the operations, and
    set-up is the sum over phases of each phase's median replay."""
    recs = [r["rec"] for r in replays]
    kinds = recs[0].kinds
    n = len(kinds)
    busy = sum(
        _two_fastest(
            rec.scale(j) * (rec.ends[min(first + SEGMENT, n) - 1] - rec.starts[first])
            for rec in recs
        )
        for j, first in enumerate(range(0, n, SEGMENT))
    )
    latencies = [
        _two_fastest(
            rec.scale(i // SEGMENT) * (rec.ends[i] - rec.starts[i]) * 1e3
            for rec in recs
        )
        for i in _primary(kinds, primary)
    ]
    setup = sum(
        statistics.median(r["setup"][phase] for r in replays)
        for phase in replays[0]["setup"]
    )
    return {
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": statistics.median(latencies),
        "op_p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98],
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality_gain": replays[0]["outputs"]["quality_gain"],
        "samples": len(latencies),
        "probe_slowdown": statistics.median(
            p for rec in recs for p in rec.probes
        ) / REFERENCE_PROBE_S,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: the median over traced replays of each
    replay's figure, plus the tracing overhead."""
    from tracing import LAYERS, SCREENS, summarize

    figures: dict[str, list[float]] = {}

    def add(name, value):
        figures.setdefault(name, []).append(value)

    for replay in traced:
        extra, outputs, rec = replay["extra"], replay["outputs"], replay["rec"]
        summary = summarize(extra.pop("spans"))
        counts = extra.pop("counts")
        measured, setup = summary["measured"], summary["setup"]
        elapsed = rec.measured_s
        tasks = sum(1 for kind in rec.kinds if kind == "task")
        reads = sum(1 for kind in rec.kinds if kind.startswith("read:"))
        commits = measured["store.commit"][0]

        def mean_us(name, table=measured, scale=1e6):
            calls, seconds, _rows = table[name]
            return seconds / calls * scale if calls else 0.0

        def share(name):
            return measured[name][1] / elapsed

        def per(value, base):
            return value / base if base else 0.0

        add("datasets.generate_s", setup["datasets.generate"][1])
        add("taggers.free_choice_us", mean_us("taggers.free_choice", setup))
        add("taggers.tag_us", mean_us("taggers.tag"))
        add("quality.observe_us", mean_us("quality.observe"))
        add("quality.scores_per_task", per(measured["quality.score"][0], tasks))
        add("quality.average_us", mean_us("quality.average"))
        add("quality.average_calls_per_task",
            per(measured["quality.average"][0], tasks))
        add("strategies.choose_us", mean_us("strategies.choose"))
        add("strategies.choose_share", share("strategies.choose"))
        add("strategies.fp_tasks", counts.get("strategies.fp_tasks", 0))
        add("strategies.mu_tasks", counts.get("strategies.mu_tasks", 0))
        add("crowd.execute_us", mean_us("crowd.execute"))
        add("crowd.approve_us", mean_us("crowd.approve"))
        add("crowd.pay_us", mean_us("crowd.pay"))
        add("crowd.approved_tasks", counts.get("crowd.approved_tasks", 0))
        add("system.sim_us", mean_us("system.sim"))
        add("system.sim_share", share("system.sim"))
        add("system.txn_us", mean_us("store.txn"))
        add("system.txn_share", share("store.txn"))
        for screen in SCREENS.values():
            add(f"system.screen_{screen}_ms",
                mean_us(f"system.screen_{screen}", scale=1e3))
        add("store.commit_us", mean_us("store.commit"))
        add("store.fsync_us", mean_us("store.fsync"))
        add("store.fsyncs_per_commit", per(extra.get("syncs", 0), commits))
        add("store.wal_records_per_task", per(extra.get("lsn", 0), tasks))
        add("store.wal_bytes_per_task",
            per(outputs.get("wal_bytes", 0), tasks))
        add("store.disk_mb", outputs.get("disk_bytes", 0) / 2**20)
        checkpoints = outputs.get("checkpoints", [])
        add("store.checkpoint_ms", mean_us("store.checkpoint", scale=1e3))
        add("store.checkpoint_bytes",
            per(sum(c[0] for c in checkpoints), len(checkpoints)))
        add("store.tables_rewritten",
            per(sum(c[1] for c in checkpoints), len(checkpoints)))
        queries = measured["store.query"]
        add("store.query_us", mean_us("store.query"))
        add("store.queries_per_read", per(extra["queries_in_reads"], reads))
        add("store.rows_per_query", per(queries[2], queries[0]))
        add("store.view_us", mean_us("store.view"))
        add("store.plan_cache_hits", extra.get("hits", 0))
        add("store.plan_cache_misses", extra.get("misses", 0))
        add("store.lock_escalations", extra.get("escalations", 0))
        add("store.lock_aborts", extra.get("lock_aborts", 0))
        add("analysis.render_us", per(measured["analysis.render"][1] * 1e6, reads))
        for layer in LAYERS:
            add(f"{layer}.self_share", summary["layer_self"][layer] / elapsed)

    metrics = {name: statistics.median(values) for name, values in figures.items()}
    traced_s = min(r["rec"].measured_s for r in traced)
    untraced_s = min(r["rec"].measured_s for r in untraced)
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    return metrics


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        group: {metric["name"]: metric["unit"] for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    }
    WORKDIR.mkdir(exist_ok=True)

    tracer = Tracer() if args.trace else None
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = perf_counter() + args.seconds
    while (
        len(untraced) < MIN_REPLAYS
        or (args.trace and len(traced) < MIN_REPLAYS)
        or perf_counter() < deadline
    ):
        use_tracer = tracer is not None and len(traced) < len(untraced)
        replay = replay_once(
            workload_cls, args.seed,
            tracer if use_tracer else None, workloads,
        )
        if use_tracer:
            replay["extra"]["spans"] = tracer.spans
            replay["extra"]["counts"] = dict(tracer.counts)
            replay["extra"]["queries_in_reads"] = _count_queries_in_reads(
                tracer.spans, replay["rec"].kinds
            )
            traced.append(replay)
        else:
            untraced.append(replay)
        gc.collect()

    replays = untraced + traced
    errors = [error for replay in replays for error in replay["errors"]]
    reference = replays[0]
    for replay in replays[1:]:
        if replay["rec"].kinds != reference["rec"].kinds:
            errors.append("operation sequence differs between replays of one seed")
            break
        if replay["outputs"] != reference["outputs"]:
            errors.append(
                f"outputs differ between replays of one seed: "
                f"{replay['outputs']} != {reference['outputs']}"
            )
            break
    kinds = reference["ops"].attempted
    attempted = {k: sum(r["ops"].attempted[k] for r in replays) for k in kinds}
    failed = {k: sum(r["ops"].failed[k] for r in replays) for k in kinds}

    figures = end_to_end(untraced, workload_cls.primary)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced"
          f" + {len(traced)} traced replays, {figures['samples']} "
          f"{workload_cls.primary}s per replay")
    print("operations: " + ", ".join(
        f"{kind} {attempted[kind]} attempted / {failed[kind]} failed"
        for kind in attempted if attempted[kind]
    ))
    for kind, failure in reference["ops"].first_failure.items():
        print(f"first failed {kind}: {failure}")
    print("outputs: " + json.dumps(reference["outputs"], sort_keys=True))
    print(f"host speed: the median probe took {figures['probe_slowdown']:.2f}x "
          f"its reference time")
    for error in errors[:20]:
        print("CHECK FAILED: " + error)

    if args.trace:
        metrics = per_layer(traced, untraced)
        spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(str(spans_path))
        print(f"spans of the last traced replay: {spans_path}")
        print(f"tracing overhead: {metrics['trace.overhead']:+.1%} of the "
              f"untraced measured time")
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in units["per_layer"].items()}
    else:
        result = {name: {"value": figures[name], "unit": unit}
                  for name, unit in units["end_to_end"].items()}
    for name, entry in result.items():
        print(f"  {name:34s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": result,
    }))
    _tidy()
    return 0


def _count_queries_in_reads(spans: list[list], kinds: list[str]) -> int:
    return sum(
        1 for span in spans
        if span[0] == "store.query" and span[4] is not None
        and kinds[span[4]].startswith("read:")
    )


def _tidy() -> None:
    """Leave only span files in the work directory."""
    if not WORKDIR.is_dir():
        return
    for path in WORKDIR.iterdir():
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and exit non-zero, no result line
        traceback.print_exc()
        _tidy()
        sys.exit(1)
