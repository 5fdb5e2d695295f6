"""The layered proof kernel.

The monolithic recursive prover of :mod:`repro.logic.prove` is
decomposed into three explicit stages, each its own module:

1. :mod:`~repro.logic.kernel.normalize` — **normalization**: prop
   clausification, alias canonicalization and type-fact decomposition.
   Pure single-step rewrite rules (no recursion, no environment
   mutation) that turn an assumed proposition into atomic facts.
2. :mod:`~repro.logic.kernel.saturate` — **saturation**: an iterative
   worklist driver that feeds normalization outputs into a
   :class:`~repro.logic.kernel.facts.FactStore` until a fixed point.
   Replaces the unbounded ``_assimilate``/``_learn_*`` recursion (and
   its threaded ``depth`` parameter) with an explicit queue plus a step
   budget, so arbitrarily deep programs cannot blow the Python stack.
3. :mod:`~repro.logic.kernel.dispatch` — **theory dispatch**: every
   consultation is one ``entails_batch`` call on the theory session;
   a conjunction's atoms share one call instead of N round-trips, and
   a lone atom is a batch of one.

:mod:`~repro.logic.kernel.prover` evaluates the proof judgment Γ ⊢ ψ
itself iteratively (an explicit and/or frame stack over the goal's
propositional structure), so no ``proves``/``subtype`` call path
recurses per proposition; the remaining recursion is bounded by the
search fuel (``max_depth``), never by program size.

:class:`repro.logic.prove.Logic` remains the façade the checker talks
to — it owns the memo tables, statistics and theory sessions, and
drives these stages.
"""

from .dispatch import TheoryDispatch
from .facts import FactStore
from .prover import ProofKernel
from .saturate import Saturator

__all__ = ["FactStore", "ProofKernel", "Saturator", "TheoryDispatch"]
