"""One measured pass of an in-process workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass begins with
empty intern tables and a fresh ``Logic``: repeats inside one process
drift (the second ``check_many`` or study pass in a process runs
faster on tables the first one filled).

    python3 perfbench/worker.py '<spec JSON>'

The spec names the pass kind (``study``, ``batch``, or ``setup`` to
measure set-up alone), the workload
seed, the monotonic time the parent spawned this process, whether to
trace, and where to write the result JSON.  Set-up time is measured
from the spawn to the end of ``import repro`` plus engine
construction; input generation comes after it and is not timed.
"""

from __future__ import annotations

import json
import mmap
import resource
import struct
import sys
import time

import spans
from inputs import expected_tier, study_libraries


def engine_stats(stats) -> dict:
    """The per-layer counters the benchmark reads from ``EngineStats``."""
    sessions = stats.session_hits + stats.session_derives + stats.session_builds
    return {
        "prove_calls": stats.prove_calls,
        "prove_hits": stats.prove_hits,
        "subtype_calls": stats.subtype_calls,
        "subtype_hits": stats.subtype_hits,
        "session_hits": stats.session_hits,
        "sessions": sessions,
        "theory_queries": dict(stats.theory_queries),
        "solver_counters": dict(stats.solver_counters),
    }


def run_study(spec: dict, logic, tracer) -> dict:
    """Classify every access site of the seeded §5 corpus."""
    from repro.checker.check import Checker
    from repro.study.casestudy import analyze_instance

    libraries = study_libraries(spec["seed"])
    if tracer is not None:
        spans.install(tracer)
        analyze_instance = sys.modules["repro.study.casestudy"].analyze_instance
    check_s: list = []
    edit_s: list = []
    first = [True]

    class TimedChecker(Checker):
        """Times each checker call; the first call per instance is fresh,
        later ones re-check the same program with one site edited."""

        def check_program(self, program):
            started = time.perf_counter()
            try:
                return super().check_program(program)
            finally:
                elapsed = time.perf_counter() - started
                check_s.append(elapsed)
                if not first[0]:
                    edit_s.append(elapsed)
                first[0] = False

    def factory():
        return TimedChecker(logic=logic)

    instance_s: list = []
    mismatches = 0
    sites = 0
    quota_errors = []
    root = tracer.open("bench.pass") if tracer is not None else None
    started = time.perf_counter()
    for name in sorted(libraries):
        library = libraries[name]
        counts: dict = {}
        for instance in library.programs:
            first[0] = True
            t0 = time.perf_counter()
            observed = analyze_instance(instance, factory)
            instance_s.append(time.perf_counter() - t0)
            for site, tier in enumerate(observed):
                counts[tier] = counts.get(tier, 0) + 1
                if tier != expected_tier(instance, site):
                    mismatches += 1
            sites += len(observed)
        quota = {t: n for t, n in library.profile.tier_ops.items() if n}
        if counts != quota:
            quota_errors.append(f"{name}: observed {counts} != quota {quota}")
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.close(root)
    expected_sites = sum(sum(lib.profile.tier_ops.values()) for lib in libraries.values())
    return {
        "wall_s": wall,
        "attempted": expected_sites,
        "failed": mismatches + abs(expected_sites - sites),
        "errors": quota_errors,
        "sites": sites,
        "files": len(instance_s),
        "requests": len(check_s),
        "instance_s": instance_s,
        "check_s": check_s,
        "edit_s": edit_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stats": engine_stats(logic.stats),
    }


def run_batch(spec: dict, logic, tracer) -> dict:
    """Check the manifest's files cold with ``batch.check_many``."""
    from repro.batch import pipeline

    with open(spec["manifest"], encoding="utf-8") as handle:
        manifest = json.load(handle)
    paths = [entry["path"] for entry in manifest]
    position = {path: i for i, path in enumerate(paths)}
    # per-file check times, written by the forked workers into memory
    # they share with this process (they return nothing else to it)
    shared = mmap.mmap(-1, 8 * len(paths))
    check_one = pipeline.check_one

    def timed_check_one(checker, path, cache=None):
        started = time.perf_counter()
        try:
            return check_one(checker, path, cache)
        finally:
            struct.pack_into("d", shared, 8 * position[path],
                             time.perf_counter() - started)

    pipeline.check_one = timed_check_one
    jobs = spec["jobs"]
    if tracer is not None:
        spans.install(tracer)
    check_many = pipeline.check_many
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    root = tracer.open("bench.pass") if tracer is not None else None
    started = time.perf_counter()
    if jobs == 1:
        report = check_many(paths, jobs=1, logic=logic)
    else:
        report = check_many(paths, jobs=jobs)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.close(root)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    file_s = list(struct.unpack_from(f"{len(paths)}d", shared))
    failed = 0
    errors = []
    for entry, verdict in zip(manifest, report.verdicts):
        if verdict.ok != entry["ok"] or verdict.path != entry["path"]:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{entry['path']}: ok={verdict.ok}, expected {entry['ok']}")
    failed += len(paths) - len(report.verdicts)
    groups: dict = {}
    for entry, seconds in zip(manifest, file_s):
        groups[entry["group"]] = groups.get(entry["group"], 0.0) + seconds
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": wall,
        "jobs": report.jobs,
        "attempted": len(paths),
        "failed": failed,
        "errors": errors,
        "sites": sum(entry["sites"] for entry in manifest),
        "files": len(paths),
        "requests": len(paths),
        "instance_s": list(groups.values()),
        "check_s": file_s,
        "edit_s": [s for entry, s in zip(manifest, file_s) if not entry["ok"]],
        "rss_mb": self_rss + (children.ru_maxrss / 1024 if report.jobs > 1 else 0.0),
        "children_cpu_s": (children.ru_utime + children.ru_stime)
        - (children_before.ru_utime + children_before.ru_stime),
        "stats": engine_stats(report.stats),
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    import repro  # noqa: F401  (the set-up being measured)
    from repro.logic.prove import Logic

    logic = Logic()
    setup_s = time.monotonic() - spec["spawned"]
    tracer = spans.Tracer() if spec.get("trace") else None
    if spec["kind"] == "setup":
        result = {}
    else:
        run = {"study": run_study, "batch": run_batch}[spec["kind"]]
        result = run(spec, logic, tracer)
    result["setup_s"] = setup_s
    if tracer is not None:
        threads = tracer.threads()
        result["layers"] = spans.summarize(threads)
        tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
