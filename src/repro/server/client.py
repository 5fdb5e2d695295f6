"""A small blocking client for the checking daemon.

One connection, one session: the daemon scopes the module store and
the REPL scope to the connection, so a :class:`Client`
*is* a session.  Requests are answered in order; every engine-touching
response carries the per-request ``stats`` delta.

    >>> from repro.server import Client
    >>> with Client(socket_path="/tmp/repro.sock") as client:
    ...     client.check_text("demo", "(define x 1)")["ok"]
    True

Resilience (all opt-in via ``retries``): responses the daemon marks
``retryable`` — ``overloaded`` shed under backpressure,
``deadline_exceeded``/``cancelled`` aborts — are reissued with
exponential backoff plus deterministic jitter, and a broken connection
(daemon restart, dropped socket) is transparently re-dialled before
the retry.  Reconnecting starts a *fresh server session* (module
stores are connection-scoped); verdicts are unaffected — they are
content-addressed — but incremental ``check_text`` state re-warms.
Engine requests accept ``deadline_ms``; :meth:`ping` is the health
probe the daemon answers even when its engine lane is busy.

``repro client`` wraps this for shell scripting; build richer front
ends (editors, watch loops) directly on the class.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence

from .protocol import MessageStream, ProtocolError

__all__ = ["Client", "ServerError"]


class ServerError(Exception):
    """The daemon answered with ``ok: false``.

    The failed response is available as :attr:`response` (``code``
    distinguishes protocol misuse from check/runtime failures;
    :attr:`retryable` marks transient failures safe to reissue).
    """

    def __init__(self, response: Dict[str, Any]):
        self.response = response
        code = response.get("code", "error")
        super().__init__(f"[{code}] {response.get('error', 'request failed')}")

    @property
    def code(self) -> str:
        return str(self.response.get("code", "error"))

    @property
    def retryable(self) -> bool:
        return bool(self.response.get("retryable", False))


class Client:
    """A blocking NDJSON client; one instance per daemon session.

    ``retries=0`` (the default) preserves strict fail-fast semantics;
    ``retries=N`` allows up to N reissues of a request that failed
    retryably or whose connection broke, with exponential backoff
    (``backoff * 2**attempt``, capped at ``max_backoff``) and
    deterministic jitter (seeded by ``jitter_seed``, so tests and
    campaigns replay exactly).
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: Optional[float] = 60.0,
        retries: int = 0,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        jitter_seed: int = 0,
        affinity: Optional[str] = None,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path or port")
        if affinity is not None and (not isinstance(affinity, str) or not affinity):
            raise ValueError("affinity must be a non-empty string")
        #: lane-affinity key sent with every queued request: the daemon
        #: hashes it to a stable lane, so a reconnecting client with the
        #: same key lands back on its warm lane (module caches and all)
        self.affinity = affinity
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._rng = random.Random(jitter_seed)
        #: resilience counters (for campaign reports and curiosity)
        self.retries_total = 0
        self.reconnects_total = 0
        self._stream: Optional[MessageStream] = None
        self._next_id = 0
        self._connect()

    def _connect(self) -> None:
        """Dial the daemon; never leaks the socket on a failed dial."""
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self._timeout)
                sock.connect(self._socket_path)
            except BaseException:
                sock.close()
                raise
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        self._stream = MessageStream(sock)

    def _drop_stream(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def _sleep_before_retry(self, attempt: int) -> None:
        delay = min(self.max_backoff, self.backoff * (2 ** attempt))
        # jitter in [0.5, 1.0) × delay: retries from many clients decorrelate
        time.sleep(delay * (0.5 + 0.5 * self._rng.random()))

    # ------------------------------------------------------------------
    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request and block for its response.

        Raises :class:`ServerError` on an ``ok: false`` response and
        :class:`ProtocolError` if the connection drops mid-response
        (after exhausting ``retries``, when configured).  Fields whose
        value is ``None`` are omitted, so ``deadline_ms=None`` means
        "no deadline".
        """
        payload = {k: v for k, v in fields.items() if v is not None}
        if self.affinity is not None and op != "ping":
            payload.setdefault("affinity", self.affinity)
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retries_total += 1
                self._sleep_before_retry(attempt - 1)
            self._next_id += 1
            message = {"op": op, "id": self._next_id, **payload}
            try:
                if self._stream is None:
                    # broken pipe on a previous attempt (or a failed
                    # initial dial followed by reuse): re-dial
                    self._connect()
                    self.reconnects_total += 1
                self._stream.send(message)
                response = self._stream.receive()
                if response is None:
                    raise ProtocolError("server closed the connection")
            except (OSError, ProtocolError) as exc:
                # the connection is unusable; drop it so the next
                # attempt re-dials a fresh one
                self._drop_stream()
                last_exc = exc
                continue
            if not response.get("ok", False):
                error = ServerError(response)
                if error.retryable and attempt < self.retries:
                    last_exc = error
                    continue
                raise error
            return response
        assert last_exc is not None
        raise last_exc

    # convenience wrappers, one per protocol op -------------------------
    def check(
        self, paths: Sequence[str], deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """Check modules on disk; raises on an ill-typed module.

        Use :meth:`try_check` when a failing verdict is an expected
        outcome rather than an error.
        """
        return self.request("check", paths=list(paths), deadline_ms=deadline_ms)

    def try_check(
        self, paths: Sequence[str], deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """Like :meth:`check` but returns the response even on failure."""
        try:
            return self.check(paths, deadline_ms=deadline_ms)
        except ServerError as exc:
            if "verdicts" in exc.response:
                return exc.response
            raise

    def check_text(
        self, name: str, text: str, deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """Check a named module's source; session-scoped incremental."""
        try:
            return self.request(
                "check_text", name=name, text=text, deadline_ms=deadline_ms
            )
        except ServerError as exc:
            if exc.response.get("code") == "check-error":
                return exc.response
            raise

    def eval(self, expr: str, deadline_ms: Optional[float] = None) -> List[str]:
        """Check + evaluate in this session's scope; returns renderings."""
        return self.request("eval", expr=expr, deadline_ms=deadline_ms)["values"]

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def ping(self) -> Dict[str, Any]:
        """Health probe: answered by the connection thread, never queued."""
        return self.request("ping")

    def reset(self) -> Dict[str, Any]:
        """Drop every engine cache (cold-start the daemon in place)."""
        return self.request("reset")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection; safe to call any number of times."""
        self._drop_stream()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
