"""``ServiceClient`` — the blocking Python client of the job gateway.

A connection carries one request at a time (no multiplexing) and the
client keeps **one** alive between requests: every request checks the
idle connection out, dialling only when there is none (a stream is still
open on it) or a zero-timeout peek shows it readable — the gateway closed
it or restarted.  A streaming handle hands its connection back on the
terminal frame and closes it on ``close()``, an error, or abandonment;
``close()`` on the client (or leaving its ``with`` block) drops the idle
one.  The single retry rule: a *reused* connection that dies before the
reply gets one fresh dial and the request again — except an unkeyed
``submit``, which is not idempotent and raises.  (A connection per
request, the old contract, cost ≈1.2 ms of a 6.5 ms keyed noop job under
the profiler: dial, accept, transport build, two closes.)

A gateway that is gone surfaces as the typed
:class:`~repro.core.errors.GatewayUnavailableError` (never a raw
``ConnectionRefusedError``), carrying the address that went dark.  A
streaming submit with an idempotency ``key`` goes further: if the stream
drops mid-job (the gateway bounced), the handle reconnects with
exponential backoff and full jitter — the retry shape the TCP mesh uses
for rank dials — and re-attaches to the *same* job by key via a ``watch``
frame: a durable gateway's restart is a pause, not a failure.

>>> with ServiceClient("127.0.0.1", port) as client:    # doctest: +SKIP
...     job = client.submit(app="noop", size="1", nprocs=4)
>>> job["state"], job["result"]["S"]                   # doctest: +SKIP
('DONE', 2)
"""

from __future__ import annotations

import random
import socket
import threading
import time
from functools import partial
from typing import Any, Callable

from ..core.errors import (
    AdmissionError,
    BspConfigError,
    BspError,
    BspUsageError,
    GatewayUnavailableError,
    ServiceOverloadError,
)
from .protocol import Connection, ProtocolError

#: Error code → exception raised client-side.  Unknown codes raise the
#: base ``BspError`` so new server-side types degrade gracefully.
_ERROR_TYPES: dict[str, type[BspError]] = {
    "AdmissionError": AdmissionError,
    "BspConfigError": BspConfigError,
    "BspUsageError": BspUsageError,
    "ProtocolError": ProtocolError,
}


def _raise_error(frame: dict[str, Any]) -> None:
    code = frame.get("error", "BspError")
    message = frame.get("message", code)
    if code == "ServiceOverloadError":
        raise ServiceOverloadError(message,
                                   retry_after=frame.get("retry_after"))
    exc_type = _ERROR_TYPES.get(code, BspError)
    raise exc_type(f"{code}: {frame.get('message', '(no message)')}"
                   if exc_type is BspError else message)


class SubmitHandle:
    """A streaming submission in flight: iterate states, or ``wait()``.

    When built with a ``reattach`` callable (submissions carrying an
    idempotency key), a dropped stream is survivable: the handle
    reconnects and resumes watching the same job, counting each recovery
    in ``reconnects``.  Without one, a dropped stream raises.  The
    terminal frame hands the connection back through ``release``.
    """

    def __init__(self, conn: Connection, job: dict[str, Any],
                 release: Callable[[Connection], None],
                 reattach: Callable[[], tuple[Connection,
                                              dict[str, Any]]] | None = None):
        self._conn: Connection | None = conn
        self.job = job
        self._release = release
        self._reattach = reattach
        self.reconnects = 0

    @property
    def job_id(self) -> str:
        return self.job["job_id"]

    def events(self):
        """Yield job snapshots until the terminal one (inclusive)."""
        try:
            while True:
                try:
                    frame = (self._conn.recv_frame()
                             if self._conn is not None else None)
                except OSError:  # reset, timeout, closed under us
                    frame = None
                if frame is None:
                    # The stream died before a terminal state: either the
                    # gateway bounced (re-attach by key, if we can) or
                    # this is a hard error.
                    if self._reattach is None:
                        raise ProtocolError(
                            f"gateway closed the stream for {self.job_id} "
                            "before a terminal state")
                    self.close()
                    self._conn, accepted = self._reattach()
                    self.reconnects += 1
                    self.job = accepted["job"]
                    continue
                if frame.get("type") == "error":
                    _raise_error(frame)
                snapshot = frame["job"]
                self.job = snapshot
                terminal = snapshot["state"] in ("DONE", "FAILED",
                                                 "CANCELLED")
                if terminal:  # nothing follows: the connection is idle
                    conn, self._conn = self._conn, None
                    self._release(conn)
                yield snapshot
                if terminal:
                    return
        finally:
            self.close()

    def wait(self, on_state: Callable[[dict[str, Any]], None] | None = None,
             ) -> dict[str, Any]:
        """Block until terminal; returns the final job snapshot."""
        last = self.job
        for snapshot in self.events():
            last = snapshot
            if on_state is not None:
                on_state(snapshot)
        return last

    def close(self) -> None:
        """Stop watching (the job keeps running server-side)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class ServiceClient:
    """Blocking client for one gateway (host, port).

    Threads sharing a client share its one idle connection; whoever
    finds it checked out dials its own.  ``reconnect_timeout`` bounds how
    long a keyed streaming submit keeps retrying to re-attach after its
    stream drops (exponential backoff with full jitter, capped at 1s).
    """

    def __init__(self, host: str, port: int, *,
                 tenant: str = "default", timeout: float = 120.0,
                 reconnect_timeout: float = 60.0):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self.reconnect_timeout = reconnect_timeout
        self._lock = threading.Lock()
        self._idle: Connection | None = None
        self._closed = False

    def close(self) -> None:
        """Drop the idle connection (and any a handle hands back later)."""
        with self._lock:
            conn, self._idle, self._closed = self._idle, None, True
        if conn is not None:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _connect(self) -> Connection:
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        except OSError as exc:
            raise GatewayUnavailableError(
                self.host, self.port, cause=type(exc).__name__) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return Connection(sock)

    def _checkin(self, conn: Connection) -> None:
        """Keep ``conn`` for the next request (or close it: one is kept)."""
        with self._lock:
            if self._idle is None and not self._closed:
                self._idle = conn
                return
        conn.close()

    def _exchange(self, request: dict[str, Any], *, resend: bool = True,
                  ) -> tuple[Connection, dict[str, Any]]:
        """Send ``request``; returns the connection, still checked out,
        and the first reply frame (error frames raise).  A reused
        connection that dies before the reply was closed behind the stale
        probe's back: one fresh dial, unless ``resend`` is false (an
        unkeyed submit must never be sent twice)."""
        with self._lock:
            conn, self._idle = self._idle, None
        if conn is not None and conn.stale():
            conn.close()
            conn = None
        reused = conn is not None
        while True:
            if conn is None:
                conn = self._connect()
            try:
                conn.send_frame(request)
                frame = conn.recv_frame()
            except ConnectionError:
                frame = None  # reset or broken pipe: as gone as a clean EOF
            except BaseException:
                conn.close()
                raise
            if frame is None:
                conn.close()
                if not (reused and resend):
                    raise GatewayUnavailableError(
                        self.host, self.port,
                        cause="closed the connection before replying")
                conn, reused = None, False
            elif frame.get("type") == "error":
                self._checkin(conn)  # the gateway keeps serving after one
                _raise_error(frame)
            else:
                return conn, frame

    def _reattach(self, *, key: str | None = None,
                  job_id: str | None = None,
                  ) -> tuple[Connection, dict[str, Any]]:
        """Reconnect (backoff + full jitter) and re-open a job's stream.

        The retry shape is the TCP mesh's ``connect_retry``: double the
        delay each miss, sleep a uniformly random fraction of it (full
        jitter, so a fleet of re-attaching clients doesn't stampede the
        freshly restarted gateway), give up past ``reconnect_timeout``
        with the typed :class:`GatewayUnavailableError`.  An error frame
        (the gateway is *up* and rejected us) is not retryable.
        """
        request = {"type": "watch", "stream": True,
                   **({"job_id": job_id} if key is None else {"key": key})}
        deadline = time.monotonic() + self.reconnect_timeout
        delay = 0.05
        while True:
            try:
                return self._exchange(request)
            except (ConnectionError, socket.timeout) as exc:
                if time.monotonic() >= deadline:
                    if isinstance(exc, GatewayUnavailableError):
                        raise
                    raise GatewayUnavailableError(
                        self.host, self.port, cause=type(exc).__name__,
                    ) from exc
                time.sleep(delay * (0.5 + random.random() * 0.5))
                delay = min(delay * 2, 1.0)

    def _roundtrip(self, request: dict[str, Any]) -> dict[str, Any]:
        conn, frame = self._exchange(request)
        self._checkin(conn)
        return frame

    # -- requests -----------------------------------------------------------

    def submit(self, *, app: str, size: str, nprocs: int,
               backend: str = "processes", sync: str = "strict",
               seed: int = 0, retries: int = 0,
               checkpoint_every: int | None = None,
               params: dict[str, Any] | None = None,
               tenant: str | None = None,
               key: str | None = None,
               wait: bool = True,
               on_state: Callable[[dict[str, Any]], None] | None = None,
               ) -> dict[str, Any] | SubmitHandle:
        """Submit one job.

        With ``wait=True`` (default) blocks until the job is terminal and
        returns the final record dict (``on_state`` sees every transition
        on the way).  With ``wait=False`` returns a :class:`SubmitHandle`
        whose ``events()``/``wait()`` the caller drives — or closes, to
        stop watching a job that keeps running server-side.

        ``key`` is an idempotency key: resubmitting the same key returns
        the *same* job (even across restarts of a journalled gateway)
        instead of queuing a duplicate, and arms the handle's automatic
        re-attach — a stream dropped by a gateway bounce reconnects with
        backoff and resumes watching the same job.

        Raises :class:`~repro.core.errors.AdmissionError` when the
        gateway sheds the job at admission (queue full, unknown fleet
        key, tenant over its allowance) — nothing was queued — and
        :class:`~repro.core.errors.ServiceOverloadError` when every pool
        for the fleet key is quarantined (retry after the hint).
        """
        job: dict[str, Any] = {"app": app, "size": str(size),
                               "nprocs": nprocs, "backend": backend,
                               "sync": sync, "seed": seed,
                               "retries": retries,
                               "checkpoint_every": checkpoint_every,
                               "params": params or {}}
        request = {"type": "submit", "tenant": tenant or self.tenant,
                   "stream": True, "job": job}
        if key is not None:
            request["key"] = key
        conn, frame = self._exchange(request, resend=key is not None)
        reattach = (partial(self._reattach, key=key)
                    if key is not None else None)
        handle = SubmitHandle(conn, frame["job"], self._checkin, reattach)
        return handle.wait(on_state) if wait else handle

    def watch(self, *, job_id: str | None = None, key: str | None = None,
              wait: bool = True,
              on_state: Callable[[dict[str, Any]], None] | None = None,
              ) -> dict[str, Any] | SubmitHandle:
        """Attach to an existing job's state stream (by id or key).

        The recovery path for a client that lost its submit stream *and*
        its process: reconnect, name the job, watch it to terminal.  Like
        :meth:`submit`, keyed watches re-attach automatically if the
        stream drops again.
        """
        if job_id is None and key is None:
            raise BspUsageError("watch() needs a job_id or a key")
        conn, frame = self._reattach(key=key, job_id=job_id)
        reattach = partial(self._reattach, key=key, job_id=job_id)
        handle = SubmitHandle(conn, frame["job"], self._checkin, reattach)
        return handle.wait(on_state) if wait else handle

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        """One job record, or ``{"jobs": [...], "total": n}`` for all."""
        request: dict[str, Any] = {"type": "status"}
        if job_id is not None:
            request["job_id"] = job_id
        frame = self._roundtrip(request)
        return frame["job"] if job_id is not None else frame

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a QUEUED job; raises when it already runs or finished."""
        return self._roundtrip({"type": "cancel", "job_id": job_id})["job"]

    def health(self) -> dict[str, Any]:
        """Fleet + scheduler + throughput telemetry (plain JSON data)."""
        return self._roundtrip({"type": "health"})

    def shutdown(self) -> None:
        """Stop the gateway (when it allows remote shutdown)."""
        self._roundtrip({"type": "shutdown"})
