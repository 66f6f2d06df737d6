"""Thread backend — the shared-memory library version (Appendix B.1).

One OS thread per virtual processor, all runnable concurrently, running
the boundary round of every fabric,
:class:`~repro.backends.exchange.LinkChannel`; only the transport is
this fabric's own.  A link is the receiver's inbox, one queue per rank,
and a frame is the sender's bucket *object*: payloads cross by
reference, with no pickle and no copy.  ``elide``, the checkpoint
fence and departures work as on pipes and sockets.

CPython's GIL serializes pure-Python compute, so this backend
demonstrates *semantics* and I/O concurrency rather than compute
speed-up; NumPy kernels do release the GIL and overlap.  Performance
reproduction uses the cost model on simulator-measured (W, H, S) — see
DESIGN.md.
"""

from __future__ import annotations

import threading
import time
from queue import SimpleQueue
from typing import Any, NamedTuple, Sequence

import numpy as np

from ..core.packets import Packet
from .base import Backend, BackendRun, Program, check_sync
from .exchange import LinkChannel
from .frames import TAG_PKT
from .pool import Abort, finish_run, run_rank
from .shm import zerocopy_enabled


class _Item(NamedTuple):
    """One frame on an in-process link: the bucket itself, never
    encoded.  Every run has fresh inboxes, so the run id is constant."""

    tag: int
    step: int
    src: int
    bucket: Sequence[Packet] = ()
    run_id: int = 0

    def packets(self, dst: int) -> Sequence[Packet]:
        return self.bucket


class _ThreadChannel(LinkChannel):
    """The boundary round over in-process queues.

    The hazard of by-reference delivery is the send()→sync() window: a
    program that mutates an array *after* sending it would silently
    change what the receiver gets.  :meth:`prepare_payload` guards that
    window by flipping the array's writeable flag off at send time (an
    attempted mutation then raises ``ValueError`` at the faulty line —
    loud, attributable), and :meth:`_enter` restores it once the program
    is inside ``sync()``.  With ``REPRO_ZEROCOPY=off`` the guard becomes a
    documented *copy-on-send* fallback: every outgoing array is copied
    at send time, restoring full value semantics for programs that
    recycle their send buffers mid-superstep.
    """

    def __init__(self, pid: int, nprocs: int, sync: str,
                 inboxes: Sequence[SimpleQueue], zerocopy: bool):
        super().__init__(pid, nprocs, sync, 0)
        self._inboxes = inboxes
        self._zerocopy = zerocopy
        #: Arrays *this channel* froze at send time, by id — only those
        #: are thawed, so an array the program itself made read-only
        #: stays read-only.
        self._frozen: dict[int, np.ndarray] = {}

    def prepare_payload(self, payload: Any) -> Any:
        """Freeze (zero-copy on) or copy (off) one outgoing array;
        anything else is shared by reference as it is."""
        if isinstance(payload, np.ndarray):
            if not self._zerocopy:
                copy = payload.copy()  # as read-only as what was sent
                copy.flags.writeable = payload.flags.writeable
                return copy
            if payload.flags.writeable and id(payload) not in self._frozen:
                payload.flags.writeable = False
                self._frozen[id(payload)] = payload
        return payload

    # -- the transport LinkChannel calls ------------------------------------

    def _enter(self, step: int, outbox: list[Packet],
               out_links: Sequence[int]) -> None:
        """The send window has closed: thaw before any receiver looks."""
        for arr in self._frozen.values():
            arr.flags.writeable = True
        self._frozen.clear()

    def _send(self, peer: int, step: int, bucket: Sequence[Packet]) -> None:
        self._inboxes[peer].put(_Item(TAG_PKT, step, self._pid, bucket))

    def _signal(self, peer: int, tag: int, step: int) -> None:
        self._inboxes[peer].put(_Item(tag, step, self._pid))

    def _pump(self) -> None:
        self._file(self._inboxes[self._pid].get())

    def _settle(self) -> None:
        pass


class ThreadBackend(Backend):
    """Concurrent threads over by-reference in-process links."""

    name = "threads"

    def run(self, program: Program, nprocs: int, args: Sequence[Any] = (),
            kwargs: dict[str, Any] | None = None, *,
            sync: str = "strict") -> BackendRun:
        self.check_nprocs(nprocs)
        check_sync(sync)
        kwargs = kwargs or {}
        inboxes = [SimpleQueue() for _ in range(nprocs)]
        zerocopy = zerocopy_enabled()
        outcomes: list[tuple | None] = [None] * nprocs

        def rank(pid: int) -> None:
            channel = _ThreadChannel(pid, nprocs, sync, inboxes, zerocopy)
            tag, _, _, a, b = run_rank(channel, pid, nprocs, 0, program,
                                       args, kwargs, (Abort,))
            outcomes[pid] = (tag, a, b)

        threads = [threading.Thread(target=rank, args=(pid,),
                                    name=f"bsp-{pid}", daemon=True)
                   for pid in range(nprocs)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return finish_run(outcomes, time.perf_counter() - t0)
