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
links a boundary uses, and :class:`LinkChannel` is the part of
``exchange()`` that does not depend on what a link is made of.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

from ..core.errors import BspConfigError
from ..core.packets import Packet, PacketRuns
from .base import check_pattern_sends

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
                   ) -> tuple[Sequence[int], frozenset[int], bool]:
    """The superstep boundary contract: ``(out_links, in_links,
    release_round)``.

    A processor sends exactly one frame — its bucket, or an empty final —
    on each out-link, in ``peers`` (schedule) order, and passes once it
    holds exactly one from each live in-link: the all-to-all is the
    barrier (B.2), and link FIFO bounds a neighbour's run-ahead to one
    superstep.  ``strict`` and ``relaxed`` use every peer; ``elide`` with
    a declared :class:`~repro.bsplib.CommPattern` uses ``sends_to`` /
    ``receives_from``, so the boundary costs O(degree) and undeclared
    links carry nothing; a checkpoint ``fence`` uses every peer whatever
    the mode, because a cut needs all processors at the same boundary.

    ``release_round`` is what ``strict`` (and a fence) adds on a fabric
    whose links cannot prove receipt: a frame handed to a socket may be
    lost and replayed, so passing additionally waits for a release from
    every peer it sent to.  A pipe write is its own receipt — the frame
    sits in the destination's pipe when the call returns — so
    the pipe fabric runs the same round in every mode.
    """
    if sync == "elide" and pattern is not None and not fence:
        out_links = [q for q in peers if q in pattern.sends_to]
        return out_links, pattern.receives_from, False
    return peers, frozenset(peers), fence or sync == "strict"


class LinkChannel:
    """What ``exchange()`` does on every frame fabric.

    A fabric subclass supplies ``_enter`` (heartbeat and boundary fault
    hooks) and ``_round`` (put one frame on each out-link, collect one
    per live in-link, by source); everything about *which* links a
    boundary uses is :func:`boundary_links`.
    """

    def __init__(self, pid: int, nprocs: int, sync: str):
        self._pid = pid
        self._nprocs = nprocs
        self._sync = sync
        self._pattern = None
        #: One-shot: the next boundary is a checkpoint cut.
        self._fence = False
        self._peers = peer_order(nprocs, pid)
        self._departed: set[int] = set()

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
        self._enter(step, outbox)
        buckets: dict[int, list[Packet]] = {}
        for pkt in outbox:
            buckets.setdefault(pkt.dst, []).append(pkt)
        if self._pattern is not None:
            check_pattern_sends(pid, step, buckets, self._pattern)
        links = boundary_links(self._sync, self._fence, self._pattern,
                               self._peers)
        self._fence = False
        got = self._round(step, buckets, *links)
        own = buckets.get(pid)
        if own is not None:
            got[pid] = own
        # One run per source, each seq-sorted: canonical order once
        # concatenated by src (empty finals decode to empty runs, which
        # PacketRuns drops).
        return PacketRuns(got.items())


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
