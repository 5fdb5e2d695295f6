"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Run from anywhere; paths resolve against the checkout that holds this
file.  It needs ``src/repro`` beside it and exits with code 2 without
a result when that is missing.

Workloads (why each was chosen is in ``BENCHMARK.json``):

``vector_study``  the paper's §5 vector-access study, 1085 sites;
``corpus_batch``  generated programs plus all their mutants through
                  ``batch.check_many(jobs=nproc)``;
``daemon_edit``   ``nproc`` closed-loop editor clients against
                  ``repro serve --lanes nproc``.

A run repeats whole passes until ``--seconds`` is spent (at least one).
Every pass runs in a fresh process (a fresh daemon for
``daemon_edit``), so no pass inherits another's intern tables or
engine caches.  Every metric is a median over passes: throughputs, peak
RSS and set-up time directly, and each latency percentile is taken within
a pass (which runs a whole input set) and then its median over the
passes, so a pass that a slow spell of the host slowed down does not
move it.  Every answer
is checked against a known answer (see ``inputs.py``); a mismatch, a
failed or refused request counts in ``failed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the
tracing overhead (traced minus untraced pass) and the self-time check.
The last line of standard output is one JSON object; the lines before
it are a readable summary.  Everything a run writes goes under
``--out`` (default ``.perfbench-out`` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("vector_study", "corpus_batch", "daemon_edit")

#: corpus_batch size: generated programs per pass (each brings ~6 mutants)
BATCH_PROGRAMS = 600
#: daemon_edit size: modules per pass, shared out across the clients;
#: each pass edits a set of its own, so a run samples several sets
EDIT_MODULES = 260
#: set-up measurements per run on top of each pass's own
SETUP_PROBES = 5
#: a worker or daemon pass that takes longer than this has hung
PASS_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def beyond(samples: List[float], q: float) -> int:
    """How many samples lie beyond the nearest-rank percentile ``q``."""
    rank = max(1, -(-len(samples) * q // 100))
    return len(samples) - int(rank)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class Run:
    """One invocation: its seed, output directory and child environment."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.jobs = nproc()
        self.dir = Path(args.out) / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        )
        self.dir.mkdir(parents=True, exist_ok=True)
        paths = [str(ROOT / "src"), str(HERE)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.started = time.monotonic()
        self.passes = 0

    def repeat(self, one_group: Callable[[], None]) -> None:
        """Run groups of passes until the next would overrun ``--seconds``."""
        while True:
            began = time.monotonic()
            one_group()
            took = time.monotonic() - began
            if time.monotonic() - self.started + took > self.seconds:
                return

    def worker(self, kind: str, trace: bool = False, **extra) -> Dict:
        """One in-process pass in a fresh interpreter (``worker.py``)."""
        self.passes += 1
        tag = f"{kind}-{self.passes}"
        spec = {
            "kind": kind, "seed": self.seed, "trace": trace,
            "result": str(self.dir / f"{tag}.json"),
            "spans": str(self.dir / f"{tag}.spans.gz"),
            **extra,
        }
        spec["spawned"] = time.monotonic()
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=self.env, check=True, timeout=PASS_TIMEOUT_S,
        )
        with open(spec["result"], encoding="utf-8") as handle:
            return json.load(handle)


def setup_probes(run: Run) -> List[float]:
    """Cold starts alone: a fresh worker, or a daemon up to its first ping."""
    if run.workload != "daemon_edit":
        return [run.worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    import editloop

    samples = []
    for _ in range(SETUP_PROBES):
        run.passes += 1
        sock = os.path.relpath(run.dir / f"d{run.passes}.sock", ROOT)
        proc, seconds = editloop.start_daemon(run.jobs, sock, str(run.dir), run.env)
        editloop.stop_daemon(proc, sock)
        samples.append(seconds)
    return samples


def batch_pass(run: Run, manifest: str, jobs: int, trace: bool = False) -> Dict:
    return run.worker("batch", trace=trace, manifest=manifest, jobs=jobs)


def edit_pass(run: Run, modules, trace: bool = False) -> Dict:
    """One daemon pass, reshaped to the in-process pass record."""
    import editloop

    run.passes += 1
    trace_file = str(run.dir / f"daemon-{run.passes}.trace.json") if trace else None
    # relative to the checkout (the working directory), which keeps the
    # socket path under the unix-socket length limit
    sock = os.path.relpath(run.dir / f"d{run.passes}.sock", ROOT)
    raw = editloop.run_pass(modules, run.jobs, sock, str(run.dir), run.env, trace_file)
    with open(run.dir / f"daemon-{run.passes}.json", "w", encoding="utf-8") as handle:
        json.dump(raw, handle)
    rows = [row for client in raw["rows"] for row in client]
    checks = [row for row in rows if row["kind"] in ("fresh", "resubmit", "edit", "revert")]
    lanes = {row["lane"] for client in raw["rows"] for row in client[:1]}
    result = {
        "setup_s": raw["setup_s"],
        "wall_s": raw["wall_s"],
        "rss_mb": raw["rss_mb"],
        "attempted": len(rows),
        "failed": sum(1 for row in rows if not row["good"]),
        "errors": [row["error"] for row in rows if "error" in row][:5],
        "sites": sum(row["sites"] for row in checks),
        "files": len(checks),
        "requests": len(rows),
        "instance_s": [],
        "check_s": [row["s"] for row in checks],
        "edit_s": [row["s"] for row in checks if row["kind"] in ("edit", "revert")],
        "resubmit_s": [row["s"] for row in checks if row["kind"] == "resubmit"],
        "ping_s": [row["s"] for row in rows if row["kind"] == "ping"],
        "server": raw["stats"],
    }
    for client in raw["rows"]:
        cycle = 0.0
        for row in client:
            cycle += row["s"]
            if row["kind"] == "ping":
                result["instance_s"].append(cycle)
                cycle = 0.0
    if len(lanes) != run.jobs:
        result["errors"].append(f"{run.jobs} clients shared {len(lanes)} lanes")
    if trace_file is not None:
        with open(trace_file, encoding="utf-8") as handle:
            traced = json.load(handle)
        result["layers"] = traced["layers"]
        # client latency minus the same request's check_text span
        result["outside_s"] = [
            row["s"] - traced["requests"][f"{row['lane']}:{row['seq']}"]
            for row in checks
            if f"{row['lane']}:{row['seq']}" in traced["requests"]
        ]
    return result


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(
    passes: List[Dict], setups: List[float]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Metric values and the sample count behind each."""
    def rate(key):
        return statistics.median(p[key] / p["wall_s"] for p in passes)

    setups = setups + [p["setup_s"] for p in passes]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "sites_per_s": rate("sites"), "files_per_s": rate("files"),
        "requests_per_s": rate("requests"),
    }
    counts = {name: len(passes) for name in values}
    counts["setup_s"] = len(setups)
    for name, key, qs in (
        ("instance_ms", "instance_s", (50, 95)),
        ("check_ms", "check_s", (50, 99)),
        ("edit_ms", "edit_s", (50, 95)),
        ("resubmit_ms", "resubmit_s", (50, 95)),
    ):
        per_pass = [[s * 1000 for s in p[key]] for p in passes if p.get(key)]
        if not per_pass:
            continue
        fewest = min(per_pass, key=len)
        for q in qs:
            values[f"{name}.p{q}"] = statistics.median(
                percentile(samples, q) for samples in per_pass)
            counts[f"{name}.p{q}"] = len(fewest)
            if q != 50 and beyond(fewest, q) < 10:
                print(f"warning: {name}.p{q} has only {beyond(fewest, q)} "
                      "samples beyond it in a pass", file=sys.stderr)
    return values, counts


def engine_layers(stats: Dict) -> Dict[str, float]:
    """Per-layer counters from an ``EngineStats`` record."""
    queries = stats["theory_queries"]
    solver = stats["solver_counters"]
    return {
        "logic.prove_hit_ratio": ratio(stats["prove_hits"], stats["prove_calls"]),
        "logic.subtype_hit_ratio": ratio(stats["subtype_hits"], stats["subtype_calls"]),
        "logic.session_hit_ratio": ratio(stats["session_hits"], stats["sessions"]),
        "theories.queries.linear-arithmetic": queries.get("linear-arithmetic", 0),
        "theories.queries.bitvectors": queries.get("bitvectors", 0),
        "solvers.simplex.pivots": solver.get("simplex.pivots", 0),
        "solvers.cdcl.propagations": solver.get("cdcl.propagations", 0),
        "solvers.cdcl.conflicts": solver.get("cdcl.conflicts", 0),
    }


def traced_layers(untraced: Dict, traced: Dict, in_process: bool = True) -> Dict[str, float]:
    """Span and counter metrics of one traced pass, with its overhead.

    Checks the trace: the self times must add up to the root spans and,
    for an in-process pass, the root span must cover the pass wall.
    """
    layers = traced["layers"]
    roots, selves = layers["trace.root_s"], layers["trace.self_sum_s"]
    if abs(selves - roots) > 0.01 * roots:
        traced["errors"].append(f"self times add up to {selves}s, roots {roots}s")
    if in_process and abs(roots - traced["wall_s"]) > 0.01 * traced["wall_s"]:
        traced["errors"].append(f"root spans {roots}s, pass {traced['wall_s']}s")
    out = {name: value for name, value in layers.items() if "." in name}
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    out["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] - 1
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.root_s"] = layers["trace.root_s"]
    out["trace.self_sum_s"] = layers["trace.self_sum_s"]
    return out


def daemon_layers(untraced: Dict, traced: Dict) -> Dict[str, float]:
    out = traced_layers(untraced, traced, in_process=False)
    server = traced["server"]
    out.update(engine_layers({
        **server["engine"],
        "sessions": sum(server["engine"][k] for k in
                        ("session_hits", "session_derives", "session_builds")),
    }))
    lanes = server["server"]["lanes"]
    batcher = server["server"]["goal_batcher"]
    robust = server["server"]["robustness"]
    outside = [s * 1000 for s in traced["outside_s"]]
    out.update({
        "server.ping_ms.p50": percentile(traced["ping_s"], 50) * 1000,
        "server.outside_engine_ms.p50": percentile(outside, 50),
        "server.outside_engine_ms.p95": percentile(outside, 95),
        "server.resubmit_ms.p50": percentile(traced["resubmit_s"], 50) * 1000,
        "server.resubmit_ms.p95": percentile(traced["resubmit_s"], 95) * 1000,
        "server.lane_utilization": statistics.mean(l["utilization"] for l in lanes),
        "server.batcher_merge_ratio": ratio(batcher["merged"], batcher["submissions"]),
        "server.shed": robust.get("shed_overloaded", 0),
        "server.deadline_exceeded": robust.get("deadline_exceeded", 0),
    })
    return out


def import_ms(run: Run, times: int = 5) -> float:
    """Median cold ``import repro.__main__`` in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import repro.__main__; "
             "print(time.perf_counter() - t)")
    samples = []
    for _ in range(times):
        done = subprocess.run([sys.executable, "-c", probe], env=run.env, check=True,
                              capture_output=True, text=True, timeout=60)
        samples.append(float(done.stdout) * 1000)
    return statistics.median(samples)


def median_layers(groups: List[Dict[str, float]]) -> Dict[str, float]:
    names = {name for group in groups for name in group}
    return {name: statistics.median(g.get(name, 0) for g in groups) for name in names}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def vector_study(run: Run) -> Tuple[List[Dict], Dict]:
    passes: List[Dict] = []
    layers: List[Dict] = []
    if not run.trace:
        run.repeat(lambda: passes.append(run.worker("study")))
        return passes, {}

    def pair():
        untraced, traced = run.worker("study"), run.worker("study", trace=True)
        passes.extend((untraced, traced))
        group = traced_layers(untraced, traced)
        group.update(engine_layers(traced["stats"]))
        layers.append(group)

    run.repeat(pair)
    return passes, median_layers(layers)


def corpus_batch(run: Run) -> Tuple[List[Dict], Dict]:
    import inputs

    manifest = inputs.write_corpus(run.seed, BATCH_PROGRAMS, str(run.dir / "corpus"))
    passes: List[Dict] = []
    layers: List[Dict] = []
    if not run.trace:
        run.repeat(lambda: passes.append(batch_pass(run, manifest, run.jobs)))
        return passes, {}

    def triple():
        # parent side of the fork run, the same files at jobs=1, and a
        # traced jobs=1 pass: fork children do not hand spans back
        forked = batch_pass(run, manifest, run.jobs)
        serial = batch_pass(run, manifest, 1)
        traced = batch_pass(run, manifest, 1, trace=True)
        passes.extend((forked, serial, traced))
        group = traced_layers(serial, traced)
        group.update(engine_layers(traced["stats"]))
        queries = sum(forked["stats"]["theory_queries"].values())
        group.update({
            "batch.wall_s": forked["wall_s"],
            "batch.children_cpu_s": forked["children_cpu_s"],
            "batch.parallel_efficiency": ratio(
                forked["children_cpu_s"], forked["wall_s"] * forked["jobs"]),
            "batch.duplicate_work_ratio": ratio(
                queries, sum(serial["stats"]["theory_queries"].values())),
        })
        layers.append(group)

    run.repeat(triple)
    return passes, median_layers(layers)


def daemon_edit(run: Run) -> Tuple[List[Dict], Dict]:
    import inputs

    passes: List[Dict] = []
    layers: List[Dict] = []
    if not run.trace:
        run.repeat(lambda: passes.append(edit_pass(
            run, inputs.edit_modules(run.seed, EDIT_MODULES, len(passes)))))
        return passes, {}

    # one set for every traced pair, so that the counts repeat exactly
    modules = inputs.edit_modules(run.seed, EDIT_MODULES)

    def pair():
        untraced, traced = edit_pass(run, modules), edit_pass(run, modules, trace=True)
        passes.extend((untraced, traced))
        layers.append(daemon_layers(untraced, traced))

    run.repeat(pair)
    return passes, median_layers(layers)


RUNNERS = {
    "vector_study": vector_study,
    "corpus_batch": corpus_batch,
    "daemon_edit": daemon_edit,
}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2016,
                        help="workload seed (2016 by default; 7 is held out "
                             "for checking claims)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench-out"),
                        help="directory for everything the run writes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    # the input generators (corpus, fuzz) run here, in the load generator
    sys.path.insert(0, str(ROOT / "src"))
    run = Run(args)
    setups = [] if args.trace else setup_probes(run)
    passes, layers = RUNNERS[args.workload](run)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    if args.trace:
        layers["startup.import_ms"] = import_ms(run)
        metrics = {m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in declared}
        counts: Dict[str, int] = {}
    else:
        values, counts = end_to_end(passes, setups)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
        for extra in ("resubmit_ms.p50", "resubmit_ms.p95"):
            if extra in values:
                metrics[extra] = (values[extra], "ms")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={run.jobs} python={platform.python_version()} "
          f"passes={len(passes)}")
    for name, (value, unit) in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:<36} {value:>14.6g} {unit}{n}")
    print(f"  {'error_rate':<36} {ratio(failed, attempted):>14.6g} ratio"
          f"  ({failed} of {attempted})")
    for error in errors[:10]:
        print(f"  error: {error}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name in {m["name"] for m in declared}
        },
    }
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": run.jobs,
        "python": platform.python_version(), "passes": len(passes),
        "error_rate": ratio(failed, attempted), "errors": errors,
        "all_metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "samples": counts,
    }
    with open(run.dir / "result.json", "w", encoding="utf-8") as handle:
        json.dump({**result, "provenance": provenance}, handle, indent=1)
    shutil.rmtree(run.dir / "corpus", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
