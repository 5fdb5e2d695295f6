"""RTR-004 (survived-audit): resets racing an in-flight check stream.

The seam under audit: a ``reset`` from one connection interleaved with
another connection's farm-style ``check_text`` stream.  The claimed
protections are the single engine lane (reset is serialized against
every in-flight request) and the epoch guard (stale sessions drop
their module stores before serving again).  The
stress below hammers that seam from both sides and asserts the
invariant the daemon is built on: verdicts under a reset storm are
bit-identical to a reset-free run.

The multi-lane daemon widens the seam — the reset may be served by a
*different* lane than the check stream, with convergence through the
server epoch — so the whole stress runs at both one lane and several.
"""

import threading

import pytest

from repro.fuzz import generate_program
from repro.logic.prove import Logic
from repro.server import CheckingServer, Client, ServerConfig

pytestmark = pytest.mark.slow

SEED = 77
PROGRAMS = 24


@pytest.fixture(params=[1, 4], ids=["lanes1", "lanes4"])
def server(tmp_path, request):
    daemon = CheckingServer(
        ServerConfig(socket_path=str(tmp_path / "race.sock"), lanes=request.param),
        logic=Logic(),
    )
    daemon.start()
    yield daemon
    daemon.stop()


def _verdict(response):
    return (response["ok"], response.get("types"), response.get("error"))


def _check_stream(server, resets_between=0, reset_client=None):
    """Check the generated corpus; optionally storm resets between."""
    verdicts = []
    with Client(socket_path=server.config.socket_path) as client:
        for index in range(PROGRAMS):
            spec = generate_program(SEED, index)
            if reset_client is not None and index % 3 == 0:
                for _ in range(resets_between):
                    reset_client.reset()
            verdicts.append(
                _verdict(client.check_text(f"mod-{index}", spec.source))
            )
    return verdicts


def test_reset_storm_preserves_verdicts(server):
    baseline = _check_stream(server)
    with Client(socket_path=server.config.socket_path) as resetter:
        stormed = _check_stream(server, resets_between=2, reset_client=resetter)
    assert stormed == baseline


def test_concurrent_reset_thread_preserves_verdicts(server):
    """Resets fired from a parallel thread, not between requests."""
    baseline = _check_stream(server)
    stop = threading.Event()
    errors = []

    def storm():
        try:
            with Client(socket_path=server.config.socket_path) as resetter:
                while not stop.is_set():
                    resetter.reset()
        except Exception as exc:  # surfaced below; never swallowed
            errors.append(exc)

    thread = threading.Thread(target=storm, daemon=True)
    thread.start()
    try:
        stormed = _check_stream(server)
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert not errors
    assert stormed == baseline


def test_reset_invalidates_session_cache_but_not_verdicts(server):
    """An unchanged module re-checks cold after reset, same verdict."""
    spec = generate_program(SEED, 0)
    with Client(socket_path=server.config.socket_path) as client:
        first = client.check_text("mod", spec.source)
        cached = client.check_text("mod", spec.source)
        assert cached["cached"] is True
        client.reset()
        after = client.check_text("mod", spec.source)
        # the session store was dropped: a genuine re-check, not a replay
        assert after["cached"] is False
        assert _verdict(after) == _verdict(first)
