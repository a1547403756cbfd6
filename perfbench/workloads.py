"""The three benchmark workloads over the paper's two end-to-end paths.

Each workload is built fresh for every replay from ``seed`` alone, so a
replay repeats the same operations on the same inputs:

- ``setup(phases)`` does everything before the measured phase, one
  named phase at a time;
- ``measure(rec)`` runs the measured operations through ``rec``, which
  times each one;
- ``outputs()`` returns the deterministic results of the replay
  (quality, counts, bytes); every replay of one seed must return the
  same dict;
- ``check()`` compares the program's outputs with computations of the
  benchmark's own and returns the failures found;
- ``close()`` releases files and the data directory.

Everything runs in one process on one thread: the durable workload uses
``fsync="always"``, so it starts no WAL flusher thread.
"""

from __future__ import annotations

import math
import os
import shutil
from collections import Counter

import numpy as np

from repro.config import DatasetConfig
from repro.datasets import make_delicious_like
from repro.errors import LedgerError
from repro.quality.estimator import QualityBoard
from repro.store import Database, Eq, Query
from repro.strategies import AllocationEngine, HybridFpMu
from repro.system import ITagSystem, monitor
from repro.tagging.corpus import Corpus
from repro.tagging.post import Post
from repro.tagging.resource import TaggedResource

# ----------------------------------------------------------------------
# input make-up (README "Workloads and inputs" lists the same numbers)
# ----------------------------------------------------------------------

#: campaign: m resources, each seeded with MIN_POSTS directed posts plus
#: FREE_POSTS preferential-attachment posts; BUDGET tasks of FP-MU
CAMPAIGN_M = 1200
CAMPAIGN_MIN_POSTS = 4
CAMPAIGN_FREE_POSTS = 1200
CAMPAIGN_BUDGET = 2400

#: system-durable: (m, initial posts, budget) per provider project.
#: Long campaigns start from the provider's own posts and see
#: rejections; top-ups start from untagged resources with a budget of at
#: most 4 tasks per resource, so FP never lifts a resource past the
#: approval policy's benefit-of-doubt threshold and every post is
#: approved.  Top-up batches come from TOPUP_SEED, not from the run's
#: seed, so the fault their completion hits does not depend on it.
DURABLE_LONG = ((150, 1200, 500), (150, 1200, 500))
DURABLE_TOPUP = ((100, 0, 200), (120, 0, 300))
DURABLE_CHECKPOINT_EVERY = 400
TOPUP_SEED = 1001

#: provider-monitor: (m, initial posts, budget) per project, tasks run
#: during set-up, and the read mix served per write
MONITOR_PROJECTS = ((300, 900, 3000), (300, 900, 3000))
MONITOR_PREPOPULATE = 800
#: one cycle: these reads in this order, then one tagging task.  By
#: cost the screens rank tagging < console < tagger < open_projects <
#: resource < details; 8 cheaper reads, 4 open_projects and 8 dearer
#: ones put the cycle's median read in the middle of the snapshot
#: open_projects reads rather than on the edge between two screens.
MONITOR_CYCLE = (
    "details",
    "resource", "console", "tagger", "tagging", "open_projects",
    "resource", "console", "tagger", "resource", "open_projects",
    "resource", "console", "tagger", "tagging", "open_projects",
    "resource", "resource", "open_projects", "resource",
)
MONITOR_CYCLES = 50

PAY_PER_TASK = 0.05


def make_corpus(m: int, posts: int, seed: int, *, offset: int = 0,
                min_posts: int = 0) -> tuple[Corpus, object]:
    """A Delicious-like corpus with resource ids ``offset+1 .. offset+m``.

    Resource ids are global across one deployment, so every project of
    a system gets a disjoint id range.  Returns the corpus and the
    generated dataset (for its noise model and tagger population).
    """
    config = DatasetConfig(
        n_resources=m,
        initial_posts_total=posts + m * min_posts,
        min_initial_posts=min_posts,
    )
    data = make_delicious_like(
        dataset_config=config, master_seed=seed, heldout_fraction=0.0
    )
    corpus = data.dataset.corpus
    if offset:
        corpus = _renumber(corpus, offset)
    return corpus, data.dataset


def _renumber(corpus: Corpus, offset: int) -> Corpus:
    """Copy of ``corpus`` with every resource id shifted by ``offset``."""
    out = Corpus(corpus.vocabulary)
    for resource in corpus:
        new_id = resource.resource_id + offset
        fresh = TaggedResource(
            resource_id=new_id,
            name=f"{resource.name}-{new_id}",
            kind=resource.kind,
            theta=resource.theta,
            popularity=resource.popularity,
        )
        for post in resource.posts:
            fresh.add_post(
                Post(
                    resource_id=new_id,
                    tagger_id=post.tagger_id,
                    tag_ids=post.tag_ids,
                    timestamp=post.timestamp,
                )
            )
        out.add_resource(fresh)
    return out


def _mean_quality(boards) -> float:
    """Resource-weighted observable quality over several projects."""
    total = sum(len(board.corpus) * board.average_quality() for board in boards)
    return total / sum(len(board.corpus) for board in boards)


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


class Outcome:
    """Operation tally by type: attempted, failed and the first failure
    of each type."""

    TYPES = ("task", "completion", "checkpoint", "read")

    def __init__(self) -> None:
        self.attempted = dict.fromkeys(self.TYPES, 0)
        self.failed = dict.fromkeys(self.TYPES, 0)
        self.first_failure: dict[str, str] = {}

    def add(self, kind: str, error=None) -> None:
        """Count one operation of ``kind``; it failed iff ``error`` (an
        exception or a message) is not None."""
        self.attempted[kind] += 1
        if error is not None:
            self.failed[kind] += 1
            self.first_failure.setdefault(kind, repr(error))


def attempt(fn, *args):
    """``(fn(*args), None)``, or ``(None, exc)`` when it raises: a
    failing operation is counted, it does not end the run."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        return None, exc


# ----------------------------------------------------------------------
# campaign: Algorithm 1 through AllocationEngine, no store
# ----------------------------------------------------------------------


class Campaign:
    name = "campaign"
    primary = "task"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.ops = Outcome()

    def setup(self, phases) -> None:
        with phases("generate"):
            self.corpus, dataset = make_corpus(
                CAMPAIGN_M, CAMPAIGN_FREE_POSTS, self.seed,
                min_posts=CAMPAIGN_MIN_POSTS,
            )
        with phases("engine"):
            self.initial_posts = self.corpus.post_counts()
            self.strategy = HybridFpMu()
            self.engine = AllocationEngine(
                self.corpus,
                dataset.population,
                self.strategy,
                budget=CAMPAIGN_BUDGET,
                rng=np.random.default_rng(self.seed),
            )
            self.quality_before = self.engine.board.average_quality()

    def measure(self, rec) -> None:
        step = self.engine.step
        self.mu_first_task = None
        for index in range(CAMPAIGN_BUDGET):
            done, error = rec("task", attempt, step, 1)
            if error is None and done != 1:
                error = f"step(1) ran {done} tasks"
            self.ops.add("task", error)
            if self.mu_first_task is None and self.strategy.in_mu_phase:
                self.mu_first_task = index
        self.quality_after = self.engine.board.average_quality()

    def outputs(self) -> dict:
        return {
            "quality_gain": self.quality_after - self.quality_before,
            "mu_first_task": self.mu_first_task,
            "posts": self.corpus.total_posts(),
        }

    def check(self) -> list[str]:
        errors = []
        result = self.engine.run()
        allocation = result.allocation
        spent = sum(allocation.values())
        if spent != CAMPAIGN_BUDGET or result.budget_spent != CAMPAIGN_BUDGET:
            errors.append(
                f"campaign: allocation sums to {spent}, engine spent "
                f"{result.budget_spent}, budget {CAMPAIGN_BUDGET}"
            )
        for resource in self.corpus:
            added = resource.n_posts - self.initial_posts[resource.resource_id]
            if added != allocation[resource.resource_id]:
                errors.append(
                    f"campaign: resource {resource.resource_id} gained {added} "
                    f"posts but was allocated {allocation[resource.resource_id]}"
                )
                break
        fresh = QualityBoard(self.corpus).average_quality()
        if not math.isclose(fresh, self.quality_after, rel_tol=0, abs_tol=1e-12):
            errors.append(
                f"campaign: engine quality {self.quality_after!r} != "
                f"recomputed {fresh!r}"
            )
        if not self.quality_after - self.quality_before > 0:
            errors.append("campaign: quality_gain is not positive")
        if self.mu_first_task is None:
            errors.append("campaign: FP-MU never reached its MU phase")
        return errors

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# system-durable: ITagSystem tasks in a data directory, fsync=always
# ----------------------------------------------------------------------


class _Project:
    def __init__(self, pid, provider, corpus, budget, initial_posts):
        self.pid = pid
        self.provider = provider
        self.corpus = corpus
        self.budget = budget
        self.initial_posts = initial_posts
        self.attempts = 0
        self.tasks = 0  # committed
        self.approved = 0
        self.completed = False


def _build_projects(system, specs, *, phases):
    """Register one provider per project, upload a corpus with its own
    id range and start each project; ``specs`` holds (m, initial posts,
    budget, corpus seed) per project."""
    projects, datasets = [], []
    offset = 0
    with phases("generate"):
        for m, posts, _budget, corpus_seed in specs:
            datasets.append(make_corpus(m, posts, corpus_seed, offset=offset))
            offset += m
    with phases("upload"):
        for index, ((corpus, _dataset), spec) in enumerate(zip(datasets, specs)):
            provider = system.register_provider(f"provider-{index + 1}")
            pid = system.create_project(
                provider, f"project-{index + 1}", budget=spec[2],
                pay_per_task=PAY_PER_TASK, strategy="fp-mu", platform="mturk",
            )
            initial = corpus.total_posts()
            system.upload_resources(pid, corpus)
            projects.append(_Project(pid, provider, corpus, spec[2], initial))
    with phases("start"):
        for project, (_corpus, dataset) in zip(projects, datasets):
            system.start_project(project.pid, noise_model=dataset.noise_model)
    return projects


def _run_task(system, project_id) -> bool:
    """One task; returns whether its post was approved."""
    return system.run_project(project_id, tasks=1)[0].approved


class SystemDurable:
    name = "system-durable"
    primary = "task"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.data_dir = os.path.join(workdir, f"durable-{os.getpid()}")
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.ops = Outcome()
        self.system = None

    def setup(self, phases) -> None:
        with phases("open"):
            self.system = ITagSystem(
                master_seed=self.seed, data_dir=self.data_dir, fsync="always"
            )
        specs = [
            (*spec, self.seed + 1000 * index)
            for index, spec in enumerate(DURABLE_LONG)
        ] + [(*spec, TOPUP_SEED + index) for index, spec in enumerate(DURABLE_TOPUP)]
        self.projects = _build_projects(self.system, specs, phases=phases)
        with phases("checkpoint"):
            self.system.checkpoint()
        self.boards = [
            self.system.quality.runtime(p.pid).board for p in self.projects
        ]
        self.quality_before = _mean_quality(self.boards)

    def measure(self, rec) -> None:
        system = self.system
        wal = system.database.wal
        self.wal_bytes = 0
        self.checkpoints = []
        since_checkpoint = wal.total_bytes()
        running = list(self.projects)
        tasks = 0
        while running:
            for project in list(running):
                approved, error = rec("task", attempt, _run_task, system, project.pid)
                project.attempts += 1
                last = project.attempts == project.budget
                committed = error is None or (
                    system.projects.get(project.pid)["budget_spent"] > project.tasks
                )
                if error is not None:
                    # the post landed in the live corpus iff approved
                    approved = committed and (
                        project.corpus.total_posts()
                        > project.initial_posts + project.approved
                    )
                if committed:
                    project.tasks += 1
                    project.approved += approved
                tasks += 1
                # an error after the last task's commit is its project's
                # completion failing, not the task
                self.ops.add("task", None if committed and last else error)
                if last:
                    self.ops.add("completion", error)
                    project.completed = error is None
                    running.remove(project)
                if tasks % DURABLE_CHECKPOINT_EVERY == 0:
                    self.wal_bytes += wal.total_bytes() - since_checkpoint
                    stats, error = rec("checkpoint", attempt, system.checkpoint)
                    self.ops.add("checkpoint", error)
                    if error is None:
                        self.checkpoints.append(
                            (stats["bytes_written"], stats["tables_rewritten"])
                        )
                    since_checkpoint = wal.total_bytes()
        # the tasks after the last checkpoint stay in the WAL, so the
        # recovery check replays them
        self.wal_bytes += wal.total_bytes() - since_checkpoint
        self.tasks = tasks
        self.quality_after = _mean_quality(self.boards)
        self.disk_bytes = _dir_bytes(self.data_dir)

    def outputs(self) -> dict:
        return {
            "quality_gain": self.quality_after - self.quality_before,
            "tasks": self.tasks,
            "approved": sum(p.approved for p in self.projects),
            "wal_bytes": self.wal_bytes,
            "disk_bytes": self.disk_bytes,
            "checkpoints": list(self.checkpoints),
        }

    def check(self) -> list[str]:
        errors = []
        system = self.system
        try:
            system.ledger.verify_conservation()
        except LedgerError as exc:
            errors.append(f"system-durable: {exc}")
        system.close()
        recovered = Database.open(self.data_dir, fsync="never")
        try:
            recovered.verify()
            errors.extend(self._check_tables(recovered))
        except Exception as exc:  # noqa: BLE001 - reported as a check failure
            errors.append(f"system-durable: recovered database: {exc!r}")
        finally:
            recovered.close()
        return errors

    def _check_tables(self, db) -> list[str]:
        errors = []
        projects = db.table("projects")
        notifications = db.table("notifications")
        posts = db.table("posts")
        resources = db.table("resources")
        for project in self.projects:
            row = projects.get(project.pid)
            if row["budget_spent"] != project.tasks:
                errors.append(
                    f"project {project.pid}: recovered budget_spent "
                    f"{row['budget_spent']}, {project.tasks} tasks committed"
                )
            kinds = Counter(
                r["kind"]
                for r in Query(notifications)
                .where(Eq("recipient_id", project.provider))
                .all()
            )
            if kinds["post_approved"] != project.approved or (
                kinds["post_approved"] + kinds["post_rejected"] != project.tasks
            ):
                errors.append(
                    f"project {project.pid}: notifications {dict(kinds)} vs "
                    f"{project.approved} approved of {project.tasks} tasks"
                )
            if kinds["budget_exhausted"] != int(project.completed):
                errors.append(
                    f"project {project.pid}: {kinds['budget_exhausted']} "
                    f"completion notices, completion ok={project.completed}"
                )
            resource_rows = (
                Query(resources).where(Eq("project_id", project.pid)).all()
            )
            n_posts = sum(r["n_posts"] for r in resource_rows)
            post_rows = sum(
                Query(posts).where(Eq("resource_id", r["id"])).count()
                for r in resource_rows
            )
            expected = project.initial_posts + project.approved
            if n_posts != expected or post_rows != expected:
                errors.append(
                    f"project {project.pid}: n_posts sum {n_posts}, post rows "
                    f"{post_rows}, expected {expected}"
                )
        return errors

    def close(self) -> None:
        if self.system is not None:
            self.system.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# provider-monitor: Fig. 3-8 screens over an in-memory system
# ----------------------------------------------------------------------


class ProviderMonitor:
    name = "provider-monitor"
    primary = "read"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.ops = Outcome()

    def setup(self, phases) -> None:
        with phases("open"):
            self.system = ITagSystem(master_seed=self.seed)
        specs = [
            (*spec, self.seed + 1000 * index)
            for index, spec in enumerate(MONITOR_PROJECTS)
        ]
        self.projects = _build_projects(self.system, specs, phases=phases)
        self.boards = [
            self.system.quality.runtime(p.pid).board for p in self.projects
        ]
        self.quality_before = _mean_quality(self.boards)
        with phases("prepopulate"):
            for index in range(MONITOR_PREPOPULATE):
                project = self.projects[index % len(self.projects)]
                self.system.run_project(project.pid, tasks=1)
                project.tasks += 1
        rng = np.random.default_rng(self.seed)
        self.targets = []
        for cycle in range(MONITOR_CYCLES):
            project = self.projects[cycle % len(self.projects)]
            ids = project.corpus.resource_ids()
            self.targets.append(
                (project, [int(rid) for rid in rng.choice(ids, size=4)])
            )

    def _read(self, kind, project, resource_id):
        system = self.system
        if kind == "details":
            return monitor.project_details_screen(system, project.pid)
        if kind == "resource":
            return monitor.resource_details_screen(system, project.pid, resource_id)
        if kind == "console":
            return monitor.main_provider_screen(system, project.provider)
        if kind == "tagger":
            return monitor.tagger_projects_screen(system)
        if kind == "tagging":
            return monitor.tagging_screen(system, project.pid, resource_id)
        return system.open_projects(view=system.read_view())

    def measure(self, rec) -> None:
        system = self.system
        self.read_counts = Counter()
        self.checked = set()
        for project, resource_ids in self.targets:
            picks = iter(resource_ids * 3)
            for kind in MONITOR_CYCLE:
                resource_id = next(picks) if kind in ("resource", "tagging") else None
                _screen, error = rec(
                    "read:" + kind, attempt, self._read, kind, project, resource_id
                )
                self.ops.add("read", error)
                self.read_counts[kind] += 1
                if resource_id is not None:
                    self.checked.add((project.pid, resource_id))
            _done, error = rec("task", attempt, system.run_project, project.pid, 1)
            project.tasks += error is None
            self.ops.add("task", error)
        self.quality_after = _mean_quality(self.boards)

    def outputs(self) -> dict:
        return {
            "quality_gain": self.quality_after - self.quality_before,
            "reads": dict(self.read_counts),
            "tasks": sum(p.tasks for p in self.projects),
            "posts": sum(p.corpus.total_posts() for p in self.projects),
        }

    def check(self) -> list[str]:
        errors = []
        system = self.system
        for pid, resource_id in sorted(self.checked):
            corpus = system.corpus_of(pid)
            resource = corpus.resource(resource_id)
            vocabulary = corpus.vocabulary
            expected = Counter(
                vocabulary.tag_of(tag_id)
                for post in resource.posts
                for tag_id in post.tag_ids
            )
            top = system.tag_manager_of(pid).top_tags(resource_id, 10**9)
            counts = [count for _tag, count in top]
            if dict(top) != dict(expected) or counts != sorted(counts, reverse=True):
                errors.append(
                    f"resource {resource_id}: top_tags differ from the corpus"
                )
            row = system.resources.get(resource_id)
            joined = system.resources.posts_with_taggers(resource_id)
            if not len(joined) == row["n_posts"] == resource.n_posts:
                errors.append(
                    f"resource {resource_id}: posts_with_taggers "
                    f"{len(joined)} rows, n_posts {row['n_posts']}, corpus "
                    f"{resource.n_posts}"
                )
        running = {
            p.pid for p in self.projects
            if system.projects.get(p.pid)["state"] == "running"
        }
        listed = {entry["project_id"] for entry in system.open_projects()}
        viewed = {
            entry["project_id"]
            for entry in system.open_projects(view=system.read_view())
        }
        if not listed == viewed == running or len(running) != len(self.projects):
            errors.append(
                f"open_projects {sorted(listed)} / view {sorted(viewed)} != "
                f"running {sorted(running)}"
            )
        return errors

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Campaign, SystemDurable, ProviderMonitor)}
