"""Total-exchange pairing schedules (the TCP version's routing discipline).

The paper's TCP implementation (Appendix B.3) avoids deadlock under
blocking sockets by having "the processors pair off and talk according to a
precomputed p-1 stage total-exchange pattern".  This module computes that
pattern: a decomposition of the complete graph :math:`K_p` into perfect
matchings — the classic round-robin tournament (circle) method.

For even ``p`` there are exactly ``p - 1`` stages and every processor is
busy in every stage; for odd ``p`` there are ``p`` stages and each
processor sits out exactly one (its partner is :data:`IDLE`).

The schedule is used by the process backend to order its sends, and is a
good property-test target: every stage must be a perfect matching, and the
union over stages must cover every unordered pair exactly once.

The module also defines, once for both frame fabrics, what a superstep
boundary *is*: :func:`boundary_links` maps a synchronization mode to the
links a boundary uses, and :class:`LinkChannel` runs the boundary round
over them — a fabric supplies only how a frame crosses a link.  Both
fabrics are streams, one per link, and :class:`StreamLinks` is how a
rank drives them: B.3's "receivers actively empty the pipe", written
once for sockets and pipes alike.
"""

from __future__ import annotations

import itertools
import os
import selectors
from collections import deque
from functools import lru_cache
from typing import Any, Collection, Iterable, Sequence

from .. import faults
from ..core.errors import BspConfigError, PacketError
from ..core.packets import Packet, PacketRuns
from .base import check_pattern_sends
from .frames import TAG_DEAD, TAG_LEFT, TAG_PKT, Frame
from .pool import Abort
from .tcp_wire import FrameDecoder

#: Partner value for a processor idle in a stage (odd ``p`` only).
IDLE = -1


@lru_cache(maxsize=None)
def exchange_schedule(nprocs: int) -> tuple[tuple[int, ...], ...]:
    """Pairing schedule for a total exchange among ``nprocs`` processors.

    Returns ``stages``, where ``stages[s][i]`` is the processor that ``i``
    talks to during stage ``s`` (:data:`IDLE` if ``i`` sits out).  Stage
    count is ``nprocs - 1`` for even ``nprocs``, ``nprocs`` for odd, and
    ``0`` for ``nprocs == 1``.

    Circle method: fix processor ``n-1`` (even case) and rotate the rest.
    """
    if nprocs < 1:
        raise BspConfigError(f"nprocs must be >= 1, got {nprocs}")
    if nprocs == 1:
        return ()
    # Odd p: add a phantom; pairing with the phantom means idle.
    n = nprocs if nprocs % 2 == 0 else nprocs + 1
    phantom = n - 1
    stages: list[tuple[int, ...]] = []
    ring = list(range(n - 1))  # rotating players; player n-1 is fixed
    for _ in range(n - 1):
        partner = [IDLE] * nprocs
        # Fixed player vs ring head.
        a, b = phantom, ring[0]
        if a < nprocs and b < nprocs:
            partner[a], partner[b] = b, a
        elif b < nprocs:
            partner[b] = IDLE
        # Remaining players pair symmetrically around the ring.
        for k in range(1, (n - 1) // 2 + 1):
            a, b = ring[k], ring[-k]
            if a < nprocs and b < nprocs:
                partner[a], partner[b] = b, a
            elif a < nprocs:
                partner[a] = IDLE
            elif b < nprocs:
                partner[b] = IDLE
        stages.append(tuple(partner))
        ring = ring[1:] + ring[:1]  # rotate
    return tuple(stages)


def peer_order(nprocs: int, pid: int) -> list[int]:
    """Peers of ``pid`` in schedule order (its column through the stages).

    This is the order in which a processor should address its per-peer
    communication during a total exchange so that, globally, every stage is
    a set of disjoint pairs — the deadlock-freedom argument of B.3.
    """
    if not 0 <= pid < nprocs:
        raise BspConfigError(f"pid {pid} out of range({nprocs})")
    return [
        stage[pid] for stage in exchange_schedule(nprocs) if stage[pid] != IDLE
    ]


def boundary_links(sync: str, fence: bool, pattern: Any,
                   peers: Sequence[int]
                   ) -> tuple[Sequence[int], Collection[int]]:
    """The superstep boundary contract: ``(out_links, in_links)``.

    A processor sends exactly one frame — its bucket, or an empty final —
    on each out-link, in ``peers`` (schedule) order, and passes once it
    holds exactly one from each live in-link: the all-to-all is the
    barrier (B.2), and link FIFO bounds a neighbour's run-ahead to one
    superstep.  ``strict`` and ``relaxed`` use every peer; ``elide`` with
    a declared :class:`~repro.bsplib.CommPattern` uses ``sends_to`` /
    ``receives_from``, so the boundary costs O(degree) and undeclared
    links carry nothing; a checkpoint ``fence`` uses every peer whatever
    the mode, because a cut needs all processors at the same boundary;
    holding a frame from every peer is that cut.
    """
    if sync == "elide" and pattern is not None and not fence:
        out_links = [q for q in peers if q in pattern.sends_to]
        return out_links, pattern.receives_from
    return peers, peers


class LinkChannel:
    """The boundary round, on every frame fabric.

    Which links a boundary uses is :func:`boundary_links`; what happens
    on them is :meth:`_round`, written once: a frame per live out-link,
    then one from each live in-link.  Inbound frames are filed by
    :meth:`_file` (data by step and source, departures, aborts), and
    :meth:`depart` / :meth:`die` announce a rank's end.

    A fabric subclass supplies only its transport:

    * ``_enter(step, outbox, out_links)`` — heartbeat, boundary fault
      hooks and whatever upkeep the fabric does before a frame goes out;
    * ``_send(peer, step, bucket)`` — put one boundary frame on a link
      without waiting for the peer to read it;
    * ``_signal(peer, tag, step)`` — put one control frame on a link;
    * ``_pump()`` — wait for inbound traffic and :meth:`_file` it;
    * ``_settle()`` — pass only once nothing this boundary sent can
      still alias program memory.
    """

    def __init__(self, pid: int, nprocs: int, sync: str, run_id: int):
        self._pid = pid
        self._nprocs = nprocs
        self._sync = sync
        self._run_id = run_id
        self._pattern = None
        #: One-shot: the next boundary is a checkpoint cut.
        self._fence = False
        self._peers = peer_order(nprocs, pid)
        self._departed: set[int] = set()
        #: Boundary frames by step, then source: a step's keys are the
        #: in-links that have arrived.  Link FIFO bounds a peer's
        #: run-ahead to one step.
        self._data: dict[int, dict[int, list[Packet]]] = {}

    def declare_pattern(self, pattern) -> None:
        """Bind this processor's :class:`~repro.bsplib.CommPattern`.

        Under ``elide`` it prunes the boundary to its declared links; in
        every mode a validating pattern turns an out-of-pattern send
        into a :class:`~repro.core.errors.BspUsageError` at the next
        boundary.
        """
        self._pattern = pattern

    def fence_next_sync(self) -> None:
        """Make the next boundary a full fence (checkpoint cut)."""
        self._fence = True

    def exchange(self, pid: int, step: int,
                 outbox: list[Packet]) -> PacketRuns:
        out_links, in_links = boundary_links(
            self._sync, self._fence, self._pattern, self._peers)
        self._fence = False
        # A departed peer reads nothing more of this run: no frame is
        # owed to it (on a pipe one would sit there, or fill it).
        if self._departed:
            out_links = [q for q in out_links if q not in self._departed]
        self._enter(step, outbox, out_links)
        buckets: dict[int, list[Packet]] = {}
        for pkt in outbox:
            buckets.setdefault(pkt.dst, []).append(pkt)
        if self._pattern is not None:
            check_pattern_sends(pid, step, buckets, self._pattern)
        got = self._round(step, buckets, out_links, in_links)
        own = buckets.get(pid)
        if own is not None:
            got[pid] = own
        # One run per source, each seq-sorted: canonical order once
        # concatenated by src (empty finals decode to empty runs, which
        # PacketRuns drops).
        return PacketRuns(got.items())

    def _round(self, step: int, buckets: dict[int, list[Packet]],
               out_links: Sequence[int], in_links: Collection[int]
               ) -> dict[int, list[Packet]]:
        """One boundary: a frame per out-link, one from each live in-link."""
        pid = self._pid
        plan = faults._ACTIVE
        for peer in out_links:
            if plan is not None:
                if plan.drops_frame(pid, step, peer):
                    continue  # lost message: the peer stalls on our frame
                plan.count_frame(pid)
            self._send(peer, step, buckets.get(peer, ()))
        self._await(self._data.setdefault(step, {}), in_links)
        self._settle()
        return self._data.pop(step)

    def _await(self, got: Collection[int], links: Collection[int]) -> None:
        """Pump until every live link of ``links`` has delivered into
        ``got``."""
        departed = self._departed
        for q in links:  # ``got`` and ``departed`` only grow
            while q not in got and q not in departed:
                self._pump()

    def _file(self, frame: Frame) -> None:
        """File one inbound frame; another run's is debris."""
        if frame.run_id != self._run_id:
            return
        tag = frame.tag
        if tag == TAG_PKT:
            self._data.setdefault(frame.step, {})[frame.src] = \
                frame.packets(self._pid)
        elif tag == TAG_LEFT:
            self._departed.add(frame.src)
        elif tag == TAG_DEAD:
            raise Abort()

    # -- a rank's end -------------------------------------------------------

    def depart(self) -> None:
        """Tell every peer this rank's program returned."""
        plan = faults._ACTIVE
        self._announce(TAG_LEFT, [
            peer for peer in self._peers
            if plan is None or not plan.drops_depart(self._pid, peer)])

    def die(self) -> None:
        """Tell every peer this rank failed: their exchange aborts."""
        self._announce(TAG_DEAD, self._peers)

    def _announce(self, tag: int, peers: Sequence[int]) -> None:
        """Signal ``tag`` to each of ``peers`` (a fabric may add a flush)."""
        for peer in peers:
            self._signal(peer, tag, 0)


#: Chunks per gathered write: a frame is a header plus its buffers, and
#: one syscall per chunk is most of a small boundary's cost.
_IOV_MAX = 64


class StreamLink:
    """One link's stream state, which outlives any one run.

    ``out`` holds the bytes handed to the link but not yet to its fd: a
    run that ends mid-frame leaves the tail here for the next run to
    flush, so the stream stays framed and the peer drops the frame by
    its run id.  ``dec`` decodes what the link delivers.
    """

    __slots__ = ("out", "dec")

    def __init__(self) -> None:
        self.out: deque = deque()
        self.dec = FrameDecoder()


class StreamLinks:
    """Appendix B.3's send discipline, once for both stream fabrics.

    A frame goes out as far as its fd takes it and the rest queues
    behind whatever is queued already (link FIFO); whoever waits for
    inbound traffic flushes the queues while it reads.  So a boundary
    never waits on a peer's read, and two ranks pushing frames larger
    than a pipe or socket buffer at each other cannot deadlock.

    A fabric hands :meth:`_open_links` each peer's :class:`StreamLink`
    and ``(read fd, write fd)`` — one socket for both on the mesh, two
    pipes on the process fabric — and supplies ``_ingest(peer, frame)``
    (one decoded frame) and ``_link_down(peer)`` (end of stream, or a
    failed write).  Any other fd is watched with a callable as its data
    (:meth:`_watch`), which :meth:`_select` calls when it is readable.
    """

    def _open_links(self, links: dict[int, StreamLink],
                    fds: dict[int, tuple[int, int]]) -> None:
        self._sel = selectors.DefaultSelector()
        self._link = links
        self._fds = dict(fds)
        self._mask: dict[int, int] = {}
        #: Peers whose stream has ended: no longer read.
        self._eof: set[int] = set()
        for peer in self._fds:
            self._update_mask(peer)  # an earlier run's unsent tail too

    def _ingest(self, peer: int, frame: Frame) -> None:
        raise NotImplementedError

    def _link_down(self, peer: int) -> None:
        raise PacketError(f"link to {peer} ended mid-run")

    def _link_damaged(self, peer: int, exc: PacketError) -> None:
        """The stream from ``peer`` failed to decode."""
        raise exc

    def _enqueue(self, peer: int, chunks: Sequence[Any]) -> None:
        """The one send path: write what the fd takes now, queue the
        rest behind whatever is already queued (link FIFO) for
        :meth:`_select` to flush."""
        fds = self._fds.get(peer)
        if fds is None:  # link already closed
            return
        q = self._link[peer].out
        sent = 0
        if not q:
            try:
                sent = os.writev(fds[1], chunks[:_IOV_MAX])
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._link_down(peer)
                return
        for c in chunks:  # sized without a view unless it queues
            n = len(c) if type(c) is bytes else memoryview(c).nbytes
            if sent < n:
                mv = memoryview(c)
                q.append((mv if mv.format == "B" and mv.ndim == 1
                          else mv.cast("B"))[sent:])
            sent = max(sent - n, 0)
        if q:
            self._update_mask(peer)

    def _unsent(self, peers: Iterable[int] | None = None) -> bool:
        return any(self._link[peer].out
                   for peer in (self._fds if peers is None else peers)
                   if peer in self._fds)

    def _watch(self, fd: int, want: int, data: Any) -> None:
        cur = self._mask.get(fd, 0)
        if want == cur:
            return
        if cur and want:
            self._sel.modify(fd, want, data)
        elif want:
            self._sel.register(fd, want, data)
        else:
            self._sel.unregister(fd)
        self._mask[fd] = want

    def _update_mask(self, peer: int) -> None:
        fds = self._fds.get(peer)
        if fds is None:
            return
        rfd, wfd = fds
        read = 0 if peer in self._eof else selectors.EVENT_READ
        write = selectors.EVENT_WRITE if self._link[peer].out else 0
        if rfd == wfd:
            self._watch(rfd, read | write, peer)
        else:
            self._watch(rfd, read, peer)
            self._watch(wfd, write, peer)

    def _forget(self, peer: int) -> None:
        """Stop watching ``peer``'s fds and drop its unsent bytes."""
        for fd in set(self._fds.pop(peer, ())):
            self._watch(fd, 0, peer)
        self._link[peer].out.clear()

    def _select(self, timeout: float | None) -> None:
        """Wait up to ``timeout`` for traffic; flush what the links take,
        and ingest what they deliver."""
        for key, events in self._sel.select(timeout):
            peer = key.data
            if callable(peer):
                peer()
                continue
            if events & selectors.EVENT_WRITE:
                self._flush(peer)
            if events & selectors.EVENT_READ:
                self._read(peer)

    def _flush(self, peer: int) -> None:
        fds = self._fds.get(peer)
        if fds is None:
            return
        q = self._link[peer].out
        try:
            while q:
                batch = list(itertools.islice(q, _IOV_MAX))
                sent = os.writev(fds[1], batch)
                for chunk in batch:
                    if sent < len(chunk):
                        q[0] = chunk[sent:]
                        break  # the fd is full
                    sent -= len(chunk)
                    q.popleft()
                else:
                    continue
                break
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._link_down(peer)
            return
        self._update_mask(peer)

    def _read(self, peer: int) -> None:
        fds = self._fds.get(peer)
        if fds is None:
            return
        try:
            data = os.read(fds[0], 1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self._link_down(peer)
            return
        try:
            frames = self._link[peer].dec.feed(data)
        except PacketError as exc:
            self._link_damaged(peer, exc)
            return
        # Every frame read is ingested, even past one that ends the run:
        # the others are out of the stream, and may carry lease ids home.
        failed = None
        for frame in frames:
            try:
                self._ingest(peer, frame)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failed = failed or exc
        if failed is not None:
            raise failed


def validate_schedule(nprocs: int) -> None:
    """Assert the schedule's matching-decomposition invariants.

    Raises :class:`AssertionError` on violation; used by tests and as a
    self-check hook.
    """
    stages = exchange_schedule(nprocs)
    seen: set[frozenset[int]] = set()
    for stage in stages:
        busy: set[int] = set()
        for i, j in enumerate(stage):
            if j == IDLE:
                continue
            assert 0 <= j < nprocs and j != i, f"bad partner {j} for {i}"
            assert stage[j] == i, f"asymmetric pairing {i}<->{j}"
            busy.add(i)
        pairs = {frozenset((i, j)) for i, j in enumerate(stage) if j != IDLE}
        assert not pairs & seen, "pair repeated across stages"
        seen |= pairs
        # Perfect matching on the busy set.
        assert len(busy) == 2 * len(pairs)
    expected = nprocs * (nprocs - 1) // 2
    assert len(seen) == expected, f"covered {len(seen)} pairs, want {expected}"
