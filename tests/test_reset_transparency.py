"""Cache lifecycle transparency: reset, live sessions, persistence.

``Logic.reset_caches`` must leave the engine *semantically* fresh:
every verdict after a reset equals what a brand-new engine computes,
theory sessions handed out before the reset can never replay stale
memos, and an attached persistent cache is flushed and re-read rather
than trusted in memory.
"""

import pytest

from repro.batch import ProofCache, logic_config_key
from repro.checker.check import Checker
from repro.checker.errors import CheckError
from repro.fuzz.gen import generate_program
from repro.logic.env import Env
from repro.logic.prove import Logic
from repro.syntax.parser import parse_program
from repro.tr.objects import Var, obj_int
from repro.tr.props import lin_le


def _verdicts(checker: Checker, count: int = 25, seed: int = 5):
    out = []
    for index in range(count):
        spec = generate_program(seed, index)
        program = parse_program(spec.source)
        try:
            types = checker.check_program(program)
            out.append((True, sorted(types)))
        except CheckError as exc:
            out.append((False, str(exc)))
    return out


class TestResetTransparency:
    def test_fresh_and_reset_engines_agree_on_verdicts(self):
        # The satellite property: a reset engine is indistinguishable
        # from a fresh one across a generated corpus.
        warm = Logic()
        _verdicts(Checker(logic=warm))  # populate every cache
        warm.reset_caches()
        reset_verdicts = _verdicts(Checker(logic=warm))
        fresh_verdicts = _verdicts(Checker(logic=Logic()))
        assert reset_verdicts == fresh_verdicts

    def test_reset_clears_every_table(self):
        logic = Logic()
        _verdicts(Checker(logic=logic), count=3)
        assert logic._prove_cache and logic._sessions
        logic.reset_caches()
        assert not logic._prove_cache
        assert not logic._subtype_cache
        assert not logic._lookup_cache
        assert not logic._numeric_cache
        assert not logic._sessions

    def test_live_session_is_invalidated_not_replayed(self):
        logic = Logic()
        x = Var("x")
        env = logic.extend(Env(), lin_le(x, obj_int(5)))
        held = logic.theory_session(env)  # caller keeps the handle
        assert held.entails(lin_le(x, obj_int(6)))
        logic.reset_caches()
        # the held session's memo is gone: answers are recomputed
        assert not held._memo
        # and the engine will not serve the stale handle again
        assert logic.theory_session(env) is not held

    def test_sessions_refresh_across_multiple_resets(self):
        logic = Logic()
        env = logic.extend(Env(), lin_le(Var("x"), obj_int(5)))
        first = logic.theory_session(env)
        logic.reset_caches()
        second = logic.theory_session(env)
        logic.reset_caches()
        third = logic.theory_session(env)
        assert first is not second and second is not third
        # same env, same answers, regardless of generation
        goal = lin_le(Var("x"), obj_int(9))
        assert first.entails(goal) == second.entails(goal) == third.entails(goal)

    def test_epoch_counts_resets(self):
        logic = Logic()
        assert logic.epoch == 0
        logic.reset_caches()
        logic.reset_caches()
        assert logic.epoch == 2

    def test_reset_flushes_and_drops_persistent_handle(self, tmp_path):
        logic = Logic()
        cache = ProofCache(str(tmp_path), logic_config_key(logic))
        logic.attach_persistent_cache(cache)
        env = logic.extend(Env(), lin_le(Var("x"), obj_int(5)))
        assert logic.proves(env, lin_le(Var("x"), obj_int(6)))
        assert cache.delta()  # verdict recorded but unflushed
        logic.reset_caches()
        assert not cache.delta()  # flushed to disk
        reopened = ProofCache(str(tmp_path), logic_config_key(logic))
        assert len(reopened) > 0

    def test_verdicts_identical_with_and_without_persistence(self, tmp_path):
        plain = _verdicts(Checker(logic=Logic()), count=15)
        cached_logic = Logic()
        cache = ProofCache(str(tmp_path), logic_config_key(cached_logic))
        cached_logic.attach_persistent_cache(cache)
        first = _verdicts(Checker(logic=cached_logic), count=15)
        cache.flush()
        # a separate engine reading the persisted verdicts agrees too
        reader_logic = Logic()
        reader_logic.attach_persistent_cache(
            ProofCache(str(tmp_path), logic_config_key(reader_logic))
        )
        second = _verdicts(Checker(logic=reader_logic), count=15)
        assert first == plain
        assert second == plain
        assert reader_logic.stats.persist_hits > 0
