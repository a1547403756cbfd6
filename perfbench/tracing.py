"""Spans around calls into the program's layers, patched in at run time.

The traced mode wraps public functions of each layer — the program
itself carries no instrumentation.  A span records its name, start,
end, parent span and the id of the benchmark operation it ran under
(``None`` during set-up).  Spans stay in memory and are written out
when the run ends.  A layer's self time is the time of its spans minus
the time covered by their child spans.

Span names start with the layer they are charged to: ``datasets``,
``taggers``, ``quality``, ``strategies``, ``crowd``, ``system``,
``store`` or ``analysis``.
"""

from __future__ import annotations

import csv
import functools
import os
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "datasets", "taggers", "quality", "strategies",
    "crowd", "system", "store", "analysis",
)

SCREENS = {
    "main_provider_screen": "console",
    "project_details_screen": "details",
    "resource_details_screen": "resource",
    "tagger_projects_screen": "tagger",
    "tagging_screen": "tagging",
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: one list per span: [name, start, end, parent, op, rows]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, 0])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def close(self, index: int, rows: int = 0) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = rows
        self._stack.pop()

    def count(self, name: str) -> None:
        if self.op is not None:
            self.counts[name] += 1

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.op = None
        self.counts = defaultdict(int)

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "start", "end", "parent", "op", "rows"])
            writer.writerows(self.spans)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _replace(self, owner, attr: str, replacement) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Span ``owner.attr`` as ``name``; ``after(result, args)``
        returns the row count to store (and may count events)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            rows = 0
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    rows = after(result, args)
                return result
            finally:
                tracer.close(index, rows)

        self._replace(owner, attr, wrapper)

    def install(self, workloads_module) -> None:
        """Patch the layer entry points used by the workloads."""
        from repro.crowd.approval import AgreementApprovalPolicy
        from repro.crowd.payments import PaymentLedger
        from repro.crowd.platform import CrowdPlatform
        from repro.quality.estimator import QualityBoard
        from repro.quality.stability import make_estimator
        from repro.store import Database
        from repro.store.query import JoinQuery, Query
        from repro.store.transaction import Transaction
        from repro.strategies import AllocationEngine, HybridFpMu
        from repro.system import ITagSystem, monitor
        from repro.system.quality_manager import QualityManager
        from repro.taggers.behavior import PostGenerator
        from repro.taggers.population import TaggerPopulation

        self.wrap(workloads_module, "make_delicious_like", "datasets.generate")
        self.wrap(TaggerPopulation, "free_choice", "taggers.free_choice")
        self.wrap(TaggerPopulation, "tag_resource", "taggers.tag")
        self.wrap(PostGenerator, "generate", "taggers.post")
        self.wrap(QualityBoard, "observe", "quality.observe")
        self.wrap(QualityBoard, "average_quality", "quality.average")
        self.wrap(type(make_estimator()), "quality", "quality.score")
        self.wrap(AllocationEngine, "step", "strategies.step")

        def choose_phase(result, args):
            strategy = args[0]
            self.count(
                "strategies.mu_tasks" if strategy.in_mu_phase
                else "strategies.fp_tasks"
            )
            return 0

        self.wrap(HybridFpMu, "choose", "strategies.choose", choose_phase)
        self.wrap(CrowdPlatform, "execute", "crowd.execute")

        def approval(result, args):
            if result:
                self.count("crowd.approved_tasks")
            return 0

        self.wrap(AgreementApprovalPolicy, "should_approve", "crowd.approve", approval)
        self.wrap(PaymentLedger, "pay_task", "crowd.pay")
        self.wrap(ITagSystem, "run_project", "system.run_project")
        self.wrap(ITagSystem, "open_projects", "system.open_projects")
        self.wrap(QualityManager, "run_one_task", "system.sim")
        for function, screen in SCREENS.items():
            self.wrap(monitor, function, "system.screen_" + screen)
        self.wrap(monitor, "render_table", "analysis.render")
        self.wrap(monitor, "line_plot", "analysis.render")
        self._wrap_transaction(Database)
        self.wrap(Transaction, "commit", "store.commit")
        self.wrap(Database, "checkpoint", "store.checkpoint")
        self.wrap(Database, "read_view", "store.view")
        self.wrap(os, "fsync", "store.fsync")

        def one_row(result, args):
            return 1

        self.wrap(Query, "all", "store.query", lambda result, args: len(result))
        self.wrap(Query, "first", "store.query",
                  lambda result, args: int(result is not None))
        self.wrap(Query, "count", "store.query", one_row)
        self.wrap(Query, "exists", "store.query", one_row)
        self._wrap_join_iter(JoinQuery)

    def _wrap_transaction(self, database_cls) -> None:
        original = database_cls.transaction
        tracer = self

        class _Block:
            """The ``with db.transaction():`` block as one span."""

            def __init__(self, txn):
                self._txn = txn
                self._index = -1

            def __enter__(self):
                self._index = tracer.open("store.txn")
                return self._txn.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._txn.__exit__(*exc)
                finally:
                    tracer.close(self._index)

            def __getattr__(self, attr):
                return getattr(self._txn, attr)

        @functools.wraps(original)
        def transaction(db):
            return _Block(original(db))

        self._replace(database_cls, "transaction", transaction)

    def _wrap_join_iter(self, join_cls) -> None:
        """A join's rows are produced while it is iterated, so the span
        drains the iterator and hands back the materialized rows."""
        original = join_cls.__iter__
        tracer = self

        @functools.wraps(original)
        def iterate(query):
            index = tracer.open("store.query")
            rows = []
            try:
                rows = list(original(query))
                return iter(rows)
            finally:
                tracer.close(index, len(rows))

        self._replace(join_cls, "__iter__", iterate)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# ----------------------------------------------------------------------
# per-layer figures of one traced replay
# ----------------------------------------------------------------------


def summarize(spans: list[list]) -> dict:
    """Per span name over the measured phase: calls, inclusive seconds,
    rows; per layer: self seconds.  Set-up spans (op None) are kept
    apart under ``setup``."""
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    measured = defaultdict(lambda: [0, 0.0, 0])
    setup = defaultdict(lambda: [0, 0.0, 0])
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for index, (name, start, end, _parent, op, rows) in enumerate(spans):
        entry = (setup if op is None else measured)[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += rows
        if op is not None:
            layer_self[name.split(".", 1)[0]] += end - start - child_time[index]
    return {"measured": measured, "setup": setup, "layer_self": layer_self}
