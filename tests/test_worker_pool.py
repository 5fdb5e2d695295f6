"""The resident worker pool the checking daemon fans multi-file checks to.

``WorkerPool`` keeps fork workers alive across batches; its verdicts
must match sequential ``check_many`` whatever the job count.
"""

import pytest

from repro.batch import WorkerPool, check_many
from repro.logic.prove import Logic


class TestWorkerPool:
    def _corpus(self, tmp_path, count=6):
        from repro.fuzz.gen import generate_program

        paths = []
        for index in range(count):
            path = tmp_path / f"prog{index}.rkt"
            path.write_text(generate_program(2016, index).source)
            paths.append(str(path))
        return paths

    def test_jobs1_pool_matches_check_many(self, tmp_path):
        paths = self._corpus(tmp_path)
        with WorkerPool(jobs=1) as pool:
            report = pool.check_many(paths)
        reference = check_many(paths, jobs=1, logic=Logic())
        assert [(v.path, v.ok, v.error) for v in report.verdicts] == [
            (v.path, v.ok, v.error) for v in reference.verdicts
        ]

    def test_resident_pool_reused_across_batches(self, tmp_path):
        paths = self._corpus(tmp_path)
        with WorkerPool(jobs=2) as pool:
            first = pool.check_many(paths)
            resident_pool = pool._pool
            second = pool.check_many(paths)
            assert pool._pool is resident_pool  # no re-fork
            assert pool.batches == 2
        assert [(v.path, v.ok) for v in first.verdicts] == [
            (v.path, v.ok) for v in second.verdicts
        ]

    def test_pool_verdicts_match_sequential(self, tmp_path):
        paths = self._corpus(tmp_path)
        reference = check_many(paths, jobs=1, logic=Logic())
        with WorkerPool(jobs=3) as pool:
            report = pool.check_many(paths)
        assert [(v.path, v.ok, v.error) for v in report.verdicts] == [
            (v.path, v.ok, v.error) for v in reference.verdicts
        ]

    def test_close_is_idempotent(self):
        pool = WorkerPool(jobs=2)
        pool.close()
        pool.close()
        assert not pool.alive

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)
