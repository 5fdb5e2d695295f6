"""Seeded inputs and their known answers, made on the benchmark side.

Every generator is a pure function of the workload seed, so the same
``--seed`` gives byte-identical inputs.  The known answers come from
how the inputs were built, never from the checker under test:

* study: each access site's tier is the idiom's expected tier, and
  each library's tier totals are its profile's quotas;
* corpus and edit loop: ``fuzz.gen`` programs are well-typed by
  construction and their mutants ill-typed by construction.

``repro`` is imported inside the functions, so that importing this
module adds nothing to a measured set-up.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
from collections import Counter
from typing import Callable, Dict, List

#: vector access call sites, safe and unchecked forms alike
_ACCESS = re.compile(r"\((?:safe-|unsafe-)?vec-(?:ref|set!)[\s)]")


def derive(seed: int, label: str) -> int:
    """A sub-seed for one generator, stable across processes."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).hexdigest()
    return int(digest[:12], 16)


def access_sites(source: str) -> int:
    return len(_ACCESS.findall(source))


def _shape(define) -> tuple:
    """A definition's family and the kinds of mutant it contributes."""
    return (define.family,) + tuple(sorted(kind for kind, _ in define.mutants))


def _any(spec) -> bool:
    return True


@functools.lru_cache(maxsize=None)
def _reference(accept: Callable) -> Counter:
    """Definition shapes in a fixed sample of the generator."""
    from repro.fuzz.gen import generate_program

    reference: Counter = Counter()
    for index in range(3000):
        spec = generate_program(0, index)
        if accept(spec):
            reference.update(_shape(define) for define in spec.defines)
    return reference


def balanced_programs(base: int, count: int, accept: Callable = _any):
    """About ``count`` generated programs with a fixed definition mix.

    ``generate_program`` draws each definition's family (and with it
    the mutants it contributes) at random, so one seed's corpus can
    hold half again as many of the rare mutants that search longest
    (polymorphic ``refinement-unmet``) as another's, and the tail
    latencies then follow the seed more than the code.  Each
    definition shape (family plus mutant kinds) gets a quota: its share
    of a fixed reference sample of the generator, times ``3 * count``
    definitions.  Programs are taken in index order, skipping any that
    would overrun a quota, until every quota is met but a few
    definitions.  ``accept`` filters programs, in the reference sample
    too.
    """
    from repro.fuzz.gen import generate_program

    reference = _reference(accept)
    total = sum(reference.values())
    defines = 3 * count  # generate_program draws 2 to 4 definitions
    quota = {shape: round(defines * n / total) for shape, n in reference.items()}
    missing = sum(quota.values())
    chosen = []
    index = last = 0
    # the last few definitions can be unplaceable (an accepted program
    # needs a shape whose quota is spent), so a long dry run also ends it
    while missing > max(3, defines // 100) and index - last < 5000:
        spec = generate_program(base, index)
        index += 1
        need = Counter(_shape(define) for define in spec.defines)
        if accept(spec) and all(quota.get(s, 0) >= n for s, n in need.items()):
            for shape, n in need.items():
                quota[shape] -= n
            missing -= sum(need.values())
            chosen.append(spec)
            last = index
    return chosen


# ----------------------------------------------------------------------
# vector_study
# ----------------------------------------------------------------------
def study_libraries(seed: int):
    """The §5 corpus (math, pict3d, plot) with per-library seeds."""
    import dataclasses

    from repro.corpus.generator import build_library
    from repro.corpus.profiles import PROFILES

    return {
        name: build_library(
            dataclasses.replace(profile, seed=derive(seed, f"study/{name}"))
        )
        for name, profile in PROFILES.items()
    }


def expected_tier(instance, site: int) -> str:
    """The tier the corpus assigned to one access site."""
    if site < len(instance.expected):
        return instance.expected[site]
    return "beyond-scope"


# ----------------------------------------------------------------------
# corpus_batch
# ----------------------------------------------------------------------
def write_corpus(seed: int, programs: int, directory: str) -> str:
    """Write about ``programs`` balanced programs plus every mutant.

    Returns the manifest path: a JSON list of ``{path, ok, group,
    sites}`` in checking order, where ``ok`` is the known verdict and
    ``group`` the generated program the file belongs to.
    """
    os.makedirs(directory, exist_ok=True)
    manifest: List[Dict[str, object]] = []

    def emit(name: str, source: str, ok: bool, group: int) -> None:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        manifest.append(
            {"path": path, "ok": ok, "group": group, "sites": access_sites(source)}
        )

    for spec in balanced_programs(derive(seed, "corpus"), programs):
        emit(f"p{spec.index}.rtr", spec.source, True, spec.index)
        for k, mutant in enumerate(spec.mutants):
            emit(f"p{spec.index}_m{k}.rtr", mutant.source, False, spec.index)
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest_path


# ----------------------------------------------------------------------
# daemon_edit
# ----------------------------------------------------------------------
def _edit_of(spec):
    """The program's first def-level mutant, if it has one."""
    from repro.fuzz.mutate import DEF_LEVEL_KINDS

    return next((m for m in spec.mutants if m.kind in DEF_LEVEL_KINDS), None)


def edit_modules(seed: int, count: int, part: int = 0) -> List[Dict[str, object]]:
    """About ``count`` balanced modules, each with one def-level mutant.

    A def-level mutant replaces one definition in place, so submitting
    it after the original is a one-definition edit (known reject) and
    submitting the original again is a one-definition revert (known
    accept).  Programs without such a mutant are skipped.  Each ``part``
    is a different set of modules with the same definition mix.
    """
    modules: List[Dict[str, object]] = []
    for spec in balanced_programs(derive(seed, f"daemon/{part}"), count, _edit_of):
        mutant = _edit_of(spec)
        modules.append({
            "name": f"m{spec.index}",
            "source": spec.source,
            "mutant": mutant.source,
            "source_sites": access_sites(spec.source),
            "mutant_sites": access_sites(mutant.source),
        })
    return modules
