"""Shared fixtures for the benchmark harness.

The full-scale section 5 study (1085 access sites across the three
synthetic libraries) runs once per session and is shared by every
bench that reports a Figure-9-derived number.

Benches that write a JSON artifact write it into :func:`results_dir`:
a pytest temp dir unless ``--results-dir DIR`` names one, so a plain
test run never rewrites the tracked files under ``benchmark-results/``.
Publish a run with ``--results-dir benchmark-results``.
"""

import pathlib

import pytest

from repro.study.casestudy import run_case_study


def pytest_addoption(parser):
    parser.addoption(
        "--results-dir",
        default=None,
        help="directory the benches write their JSON artifacts to "
        "(default: a fresh pytest temp dir)",
    )


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory):
    """Where the benches write their JSON artifacts."""
    chosen = request.config.getoption("--results-dir", default=None)
    if chosen is None:
        return tmp_path_factory.mktemp("benchmark-results")
    path = pathlib.Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def full_study():
    """The complete §5 case study at the paper's corpus size."""
    return run_case_study(scale=1.0)


@pytest.fixture(scope="session")
def mini_study():
    """A scaled-down study used for repeatable timing measurements."""
    return run_case_study(scale=0.05)
