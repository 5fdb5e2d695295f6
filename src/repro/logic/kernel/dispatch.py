"""Stage 3 — theory dispatch: every L-Theory consultation is a batch.

The recursive engine asked the environment's theory session one goal
at a time; every atom paid a full session round-trip (memo probe, per-
theory ``accepts`` filtering, context dispatch).  The kernel instead
gathers the theory atoms of each *conjunction* frame — where every
atom must hold, so all will be consulted anyway — and answers them
with **one** :meth:`RegistrySession.entails_batch` call: the
assumption translation (already incremental per session) is shared,
and per-goal overhead collapses into a single dispatch per theory.
Disjunction frames stay lazy, preserving short-circuit evaluation:
their atoms, and any atom outside a frame, are asked as a batch of
one through the same call — there is no separate single-goal path.

Correctness: a goal's answer does not depend on the batch it rides in
(the session memo and every context answer goals independently), so
batching can never change a verdict — it only changes how many times
the session is crossed.  :class:`~repro.logic.prove.EngineStats`
counts ``theory_batches`` (calls with two or more goals) so the
--stats table shows how many round-trips the batching saved.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ...tr.props import TheoryProp
from ..env import Env

__all__ = ["TheoryDispatch"]


class TheoryDispatch:
    """Answers goal atoms with one session batch call."""

    __slots__ = ("logic",)

    def __init__(self, logic) -> None:
        self.logic = logic

    def decide(
        self, env: Env, goals: Sequence[TheoryProp]
    ) -> Dict[TheoryProp, bool]:
        """Answer every goal with one session batch call.

        A lone goal counts as ``dispatch.single``; two or more count as
        ``dispatch.batch`` and one ``theory_batches`` round-trip.
        """
        logic = self.logic
        budget = logic.budget
        if budget is not None:
            # full check before crossing into the session: building a
            # session from scratch (assumption translation, solver
            # asserts) can dwarf a single goal's cost.
            budget.check()
        stats = logic.stats
        stats.theory_goals += len(goals)
        hits = stats.rule_hits
        if len(goals) > 1:
            stats.theory_batches += 1
            hits["dispatch.batch"] = hits.get("dispatch.batch", 0) + 1
        else:
            hits["dispatch.single"] = hits.get("dispatch.single", 0) + 1
        timers = logic.timers
        if timers is None:
            session = logic.theory_session(env)
            return dict(zip(goals, session.entails_batch(goals)))
        started = timers.enter("dispatch")
        try:
            session = logic.theory_session(env)
            return dict(zip(goals, session.entails_batch(goals)))
        finally:
            timers.exit("dispatch", started)
