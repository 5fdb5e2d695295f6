"""RTR-003: a dying fork worker must not hang the shared fork map.

On Python 3.11, ``multiprocessing.Pool.map`` never completes if a
worker process dies mid-task — the dead worker's task is silently
lost, so ``repro check --jobs N`` and ``repro fuzz --shards N`` blocked
forever after one OOM kill.  Both fork through
:func:`repro.batch.pipeline.fork_map`, whose liveness watchdog (a
changed worker PID set) gives up on the broken pool; the caller then
re-runs the work in-process with identical results.

The dying worker is injected by monkeypatching the task function with
one that SIGKILLs itself on one task: fork workers inherit the patched
module, so that worker dies exactly the way an OOM kill would while
its siblings finish normally.  Every call runs under a bounded wait,
so a regression fails the test instead of hanging the suite.
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.batch import pipeline
from repro.batch.pipeline import check_many
from repro.fuzz import runner
from repro.fuzz.runner import FuzzConfig, run_fuzz


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


pytestmark = [
    pytest.mark.skipif(
        not _fork_available(), reason="fork start method unavailable"
    ),
    # effective_jobs clamps to the core count: one core never forks
    pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="needs two cores to fork workers"
    ),
]

#: generous for the in-process fallback, far short of "forever"
WAIT_SECONDS = 60.0

_run_chunk = pipeline._run_chunk
_shard_worker = runner._shard_worker


def _die():
    """Simulates an OOM-killed / segfaulted worker: dies mid-task."""
    os.kill(os.getpid(), signal.SIGKILL)


def _chunk_dies_on_first_file(args):
    chunk, _cache_dir = args
    if any(index == 0 for index, _ in chunk):
        _die()
    return _run_chunk(args)


def _shard_zero_dies(args):
    _config, shard = args
    if shard == 0:
        _die()
    return _shard_worker(args)


def _bounded(call):
    """``call()`` on a worker thread; fail (not hang) past the wait."""
    box = {}

    def target():
        try:
            box["value"] = call()
        except BaseException as exc:  # re-raised on the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(WAIT_SECONDS)
    if thread.is_alive():
        pytest.fail(f"still blocked after {WAIT_SECONDS:g}s: a dead fork "
                    "worker hung the map")
    if "error" in box:
        raise box["error"]
    return box["value"]


def _modules(tmp_path, count=4):
    paths = []
    for i in range(count):
        path = tmp_path / f"mod{i}.rkt"
        path.write_text(f"(define x{i} {i})\n")
        paths.append(str(path))
    return paths


def test_map_survives_worker_death(tmp_path, monkeypatch):
    paths = _modules(tmp_path)
    monkeypatch.setattr(pipeline, "_run_chunk", _chunk_dies_on_first_file)
    report = _bounded(lambda: check_many(paths, jobs=2))
    # the batch completed (via the in-process fallback) instead of
    # hanging forever, with full verdicts in input order
    assert report.ok
    assert [v.path for v in report.verdicts] == paths


def test_batch_after_worker_death_forks_again(tmp_path, monkeypatch):
    paths = _modules(tmp_path)
    monkeypatch.setattr(pipeline, "_run_chunk", _chunk_dies_on_first_file)
    _bounded(lambda: check_many(paths, jobs=2))
    monkeypatch.undo()
    # nothing broken outlives the call: the next batch forks afresh
    report = _bounded(lambda: check_many(paths, jobs=2))
    assert report.ok and report.jobs == 2
    assert [v.path for v in report.verdicts] == paths


def test_fuzz_shards_survive_worker_death(monkeypatch):
    config = FuzzConfig(seed=7, count=4, shards=2)
    reference = run_fuzz(config, parallel=False)
    monkeypatch.setattr(runner, "_shard_worker", _shard_zero_dies)
    report = _bounded(lambda: run_fuzz(config, parallel=True))
    # shards are deterministic, so the in-process fallback reproduces
    # the campaign exactly
    assert report.digest() == reference.digest()
    assert report.programs == config.count
