"""The multi-process batch-checking pipeline.

``check_many`` turns "check these N modules" into a first-class
workload: files are dealt round-robin to ``jobs`` forked workers, each
worker threads **one** :class:`~repro.logic.prove.Logic` through its
whole chunk (the long-lived-service shape the incremental engine is
built for), and the parent merges per-worker
:class:`~repro.logic.prove.EngineStats` (exact aggregate hit rates)
and persistent-cache deltas.  Verdicts come back in input order and
are bit-identical to sequential checking — worker engines share
nothing, and the cache-transparency property tests pin that a shared
engine cannot change any verdict.

With ``jobs=1`` the same code path runs in-process (no fork, no
pickling), so the CLI's single-process behaviour — including the
process-wide shared engine and its ``--stats`` counters — is
unchanged.

Fork is the only start method used: workers inherit the parsed module
cache and warm intern tables for free.  Platforms without fork fall
back to in-process execution with identical results.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..checker.check import Checker
from ..checker.errors import CheckError
from ..logic.prove import EngineStats, Logic
from ..syntax.parser import ParseError, parse_program
from ..tr.pretty import pretty_type
from .cache import ProofCache

__all__ = [
    "FileVerdict",
    "BatchReport",
    "check_many",
    "check_one",
    "effective_jobs",
    "fork_map",
    "logic_config_key",
]


def logic_config_key(logic: Logic) -> str:
    """The cache namespace of an engine configuration.

    Delegates to :meth:`Logic.config_key`: two engines share persistent
    entries only when nothing that can influence a verdict differs.
    """
    return logic.config_key()


@dataclass(frozen=True)
class FileVerdict:
    """One module's outcome, independent of which worker produced it."""

    path: str
    ok: bool
    error: str = ""
    #: definition name → pretty-printed type (for ``--verbose``)
    types: Dict[str, str] = field(default_factory=dict)
    from_cache: bool = False


def effective_jobs(jobs: int) -> int:
    """Clamp an over-subscribed ``--jobs`` to the machine's core count.

    Forking more workers than cores only adds scheduler churn and
    memory; single-core boxes silently ran 4-way "parallel" batches
    slower than sequential ones.  The degradation is recorded on the
    report (``jobs_requested`` vs ``jobs``) so callers can surface it.
    """
    return max(1, min(jobs, os.cpu_count() or 1))


@dataclass
class BatchReport:
    """What ``check_many`` measured."""

    verdicts: List[FileVerdict]
    stats: EngineStats
    jobs: int
    cache_entries_written: int = 0
    #: what the caller asked for before the core-count clamp
    jobs_requested: int = 0

    def __post_init__(self) -> None:
        if not self.jobs_requested:
            self.jobs_requested = self.jobs

    @property
    def jobs_degraded(self) -> bool:
        return self.jobs_requested > self.jobs

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    @property
    def failures(self) -> List[FileVerdict]:
        return [verdict for verdict in self.verdicts if not verdict.ok]


# ----------------------------------------------------------------------
# one module
# ----------------------------------------------------------------------
def check_one(
    checker: Checker, path: str, cache: Optional[ProofCache] = None
) -> FileVerdict:
    """Check one module with the given (chunk-shared) checker."""
    try:
        source = Path(path).read_text()
    except OSError as exc:
        return FileVerdict(path, False, f"cannot read: {exc}")
    program_key = None
    if cache is not None:
        program_key = cache.program_key(source)
        stored = cache.get_program(program_key)
        if stored is not None:
            ok, error, types = stored
            return FileVerdict(path, ok, error, types, from_cache=True)
    try:
        program = parse_program(source)
        types = checker.check_program(program)
    except (ParseError, CheckError) as exc:
        verdict = FileVerdict(path, False, str(exc))
    else:
        verdict = FileVerdict(
            path, True, "", {name: pretty_type(ty) for name, ty in types.items()}
        )
    if cache is not None and program_key is not None:
        cache.put_program(program_key, verdict.ok, verdict.error, verdict.types)
    return verdict


# ----------------------------------------------------------------------
# chunk execution (one worker)
# ----------------------------------------------------------------------
def _run_chunk(
    args: Tuple[Sequence[Tuple[int, str]], Optional[str]],
) -> Tuple[List[Tuple[int, FileVerdict]], EngineStats, Dict[str, object]]:
    chunk, cache_dir = args
    logic = Logic()
    cache: Optional[ProofCache] = None
    if cache_dir is not None:
        cache = ProofCache(cache_dir, logic_config_key(logic))
        logic.attach_persistent_cache(cache)
    checker = Checker(logic=logic)
    results = [(index, check_one(checker, path, cache)) for index, path in chunk]
    delta = cache.delta() if cache is not None else {}
    return results, logic.stats, delta


def fork_map(
    function: Callable, tasks: Sequence, processes: int
) -> Optional[list]:
    """``Pool.map`` over forked workers; None if it cannot complete.

    The one place the package forks.  ``Pool.map`` blocks forever when
    a worker dies mid-task (an OOM kill, a segfault): Pool's supervisor
    quietly replaces the dead worker, but the replacement never
    inherits the lost task.  So this maps with ``map_async`` and
    between polls compares the live worker PIDs with the set the pool
    started with; any change means the map can no longer finish, and
    the pool is torn down.  None — also returned where ``fork`` is
    unavailable — tells the caller to run the tasks in-process, which
    is always sound: tasks are idempotent and nothing from a broken
    pool was merged.  A task exception propagates as ``pool.map``'s
    would.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return None
    with ctx.Pool(processes=processes) as pool:
        started = {worker.pid for worker in pool._pool}
        result = pool.map_async(function, tasks)
        while not result.ready():
            if {w.pid for w in pool._pool if w.is_alive()} != started:
                return None
            result.wait(0.05)
        return result.get()


def _deal_chunks(
    indexed: Sequence[Tuple[int, str]], jobs: int
) -> List[List[Tuple[int, str]]]:
    chunks: List[List[Tuple[int, str]]] = [[] for _ in range(jobs)]
    for position, item in enumerate(indexed):
        chunks[position % jobs].append(item)
    return [chunk for chunk in chunks if chunk]


def _merge_outcomes(
    indexed: Sequence[Tuple[int, str]],
    outcomes,
    cache_dir: Optional[str],
    jobs: int,
) -> BatchReport:
    ordered: List[Optional[FileVerdict]] = [None] * len(indexed)
    stats = EngineStats()
    written = 0
    parent_cache: Optional[ProofCache] = None
    if cache_dir is not None:
        # Worker deltas carry fully-namespaced keys, so the parent's
        # own config namespace is irrelevant for absorb + flush.
        parent_cache = ProofCache(cache_dir)
    for results, worker_stats, delta in outcomes:
        for index, verdict in results:
            ordered[index] = verdict
        stats.merge(worker_stats)
        if parent_cache is not None:
            parent_cache.absorb(delta)
    if parent_cache is not None:
        written = parent_cache.flush()
    verdicts = [verdict for verdict in ordered if verdict is not None]
    return BatchReport(verdicts, stats, jobs=jobs, cache_entries_written=written)


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
def _check_in_process(
    indexed: Sequence[Tuple[int, str]], cache_dir: Optional[str], engine: Logic
) -> BatchReport:
    cache: Optional[ProofCache] = None
    if cache_dir is not None:
        cache = ProofCache(cache_dir, logic_config_key(engine))
        engine.attach_persistent_cache(cache)
    try:
        checker = Checker(logic=engine)
        verdicts = [check_one(checker, path, cache) for _, path in indexed]
        written = cache.flush() if cache is not None else 0
    finally:
        # the engine may be the process-wide shared one: never leave
        # the cache attached past this call, even on an escaping error
        if cache is not None:
            engine.detach_persistent_cache()
    stats = EngineStats().merge(engine.stats)
    return BatchReport(verdicts, stats, jobs=1, cache_entries_written=written)


def check_many(
    paths: Sequence[str],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    logic: Optional[Logic] = None,
) -> BatchReport:
    """Check every module; returns verdicts in input order.

    ``jobs=1`` checks in-process through ``logic`` (default: the
    process-wide shared engine), matching the plain CLI loop exactly.
    ``jobs>1`` deals files round-robin to forked workers, each with its
    own engine and a view of the persistent cache; the parent merges
    stats and flushes the combined cache delta once.  A caller-supplied
    ``logic`` cannot cross the fork boundary (workers need independent
    engines), so supplying one forces the in-process path — a custom
    engine is never silently swapped for the default.  If a worker dies
    mid-batch, the whole batch re-runs in-process.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    requested = jobs
    jobs = effective_jobs(jobs)
    indexed = list(enumerate(paths))
    report: Optional[BatchReport] = None
    if jobs > 1 and logic is None and len(indexed) > 1:
        chunks = _deal_chunks(indexed, jobs)
        outcomes = fork_map(
            _run_chunk, [(chunk, cache_dir) for chunk in chunks], len(chunks)
        )
        if outcomes is not None:
            report = _merge_outcomes(indexed, outcomes, cache_dir, jobs=jobs)
    if report is None:
        if logic is None:
            # A parallel request run in-process (clamped, no fork, or a
            # worker died) emulates the fork path it replaces: a fresh
            # engine, batch-scoped stats — not the process-wide
            # engine's lifetime counters.
            logic = Logic() if requested > 1 else Checker().logic
        report = _check_in_process(indexed, cache_dir, logic)
    report.jobs_requested = requested
    if requested > jobs:
        hits = report.stats.rule_hits
        hits["batch.jobs-degraded"] = hits.get("batch.jobs-degraded", 0) + 1
    return report
