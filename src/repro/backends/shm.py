"""Pooled named shared-memory segments: the zero-copy data plane.

Every payload buffer too big to ride a frame's pickle stream
(:data:`repro.backends.frames._INBAND_MAX`) crosses the process boundary
here: the sender places the bytes directly into a named POSIX
shared-memory segment drawn from its :class:`SegmentPool`, the frame
carries only ``(segment name, offset, lease id)``, and the receiver maps
the segment once (:class:`SegmentMap`) and reconstructs the payload
*over* the shared pages — the NumPy array a program gets from
``bsp.get_pkt()`` is backed by the very bytes the sender wrote.  One
memcpy end to end.

Lease lifecycle
---------------
A *lease* is one sender-side region handed to one receiver:

1. ``SegmentPool.lease(dst, nbytes)`` — takes a released region of the
   same size off the free list, else bump-allocates one in a
   per-destination segment (creating segments on demand, each with a
   deterministic fabric-unique name) and returns ``(lease id, name,
   offset, writable view)``.  Lease ids are monotonic for the pool's
   whole lifetime, so a release that arrives late — or twice — can
   never free somebody else's region.
2. The receiver's :class:`LeaseTable` keeps, per lease, a dedicated
   ``np.frombuffer`` exporter over exactly the leased region.  Payloads
   reconstructed over views of it (``pickle.loads(meta,
   buffers=[region[a:b], ...])``) hold a reference to that exporter for
   as long as the program holds any of them, so
   ``sys.getrefcount(region)`` is the lease's liveness probe: 2 (table
   entry + probe argument) means every consumer dropped its payload.
3. ``LeaseTable.collect_free()`` runs at each superstep boundary; the
   freed ids ride back to the segment owner piggybacked on the next
   boundary frame (or a dedicated release frame when no data frame is
   owed), and ``SegmentPool.release`` puts a region nobody holds any
   more on the free list — a segment rewinds to offset 0 only once *all*
   its leases are back, so no live view is ever overwritten.
4. Pool ``reset()`` (a heal: the dead hold leases that will never come
   back) bumps the pool's *generation* and forgets all leases: frames
   still in flight carry the old generation, which the receiver's table
   flags as stale — a loud :class:`~repro.core.errors.PacketError` if
   one were ever delivered, never a silent alias.

Segments are never unlinked by workers (a mapped view may outlive the
run); the parent sweeps them by name — creation counts live in a
fork-shared counter — on pool teardown, rebuild, and partial heal, so a
SIGKILLed worker cannot leak ``/dev/shm`` entries.

Every handle is a bare ``shm_open`` + ``mmap`` (:func:`open_segment`),
not ``multiprocessing.shared_memory``: CPython 3.11's class registers
each segment with the ``resource_tracker`` on *both* create and attach —
it would unlink segments behind the sweep's back, and the first create
in a pool's parent spawns a tracker child that outlives the pool.
"""

from __future__ import annotations

import errno
import mmap
import os
import sys
from itertools import chain

import _posixshmem
import numpy as np

#: Default capacity of one pooled segment; larger leases get a dedicated
#: right-sized segment.
DEFAULT_SEGMENT_BYTES = 16 << 20

#: Region alignment inside a segment (one cache line).
_ALIGN = 64

#: Prefix of every segment name this library creates (leak scans key on it).
NAME_PREFIX = "repro-zc"


def zerocopy_enabled() -> bool:
    """The ``REPRO_ZEROCOPY`` escape hatch (default on)."""
    return os.environ.get("REPRO_ZEROCOPY", "on").strip().lower() not in (
        "off", "0", "no", "false")


def fabric_token() -> str:
    """A name component unique to one transport fabric."""
    return f"{os.getpid():x}-{os.urandom(3).hex()}"


def segment_name(token: str, src: int, k: int) -> str:
    """Deterministic name of the ``k``-th segment created by ``src``.

    Deterministic so the parent can sweep every segment a (possibly
    SIGKILLed) worker ever created knowing only the fork-shared creation
    count."""
    return f"{NAME_PREFIX}-{token}-{src}-{k}"


def aligned(n: int) -> int:
    """``n`` rounded up to the region alignment."""
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def open_segment(name: str, size: int = 0) -> mmap.mmap:
    """Map the POSIX segment ``name``; ``size > 0`` creates it first.

    The one way this library opens a segment, creating or attaching:
    no ``resource_tracker`` registration, so nothing but the parent's
    name sweep ever unlinks, and no tracker process is ever spawned."""
    flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if size else 0)
    fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
    try:
        if size:
            # tmpfs grants any ftruncate and delivers SIGBUS at the first
            # write it cannot back: refuse up front instead.
            vfs = os.fstatvfs(fd)
            if vfs.f_blocks and size > vfs.f_bavail * vfs.f_frsize:
                raise OSError(errno.ENOSPC, f"/dev/shm cannot hold {name}")
            os.ftruncate(fd, size)
        return mmap.mmap(fd, size)  # 0 on attach: the whole segment
    except OSError:
        if size:
            unlink_segment(name)
        raise
    finally:
        os.close(fd)


def unlink_segment(name: str) -> bool:
    """Unlink ``name`` if it exists; ``True`` when something was removed.

    Unlinking is always safe while mappings are live (POSIX keeps the
    pages until the last munmap); only the name disappears."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except OSError:
        return False
    return True


def sweep_segments(token: str, counts: dict[int, int]) -> int:
    """Unlink every segment named by ``(token, src, k < counts[src])``.

    The parent-side orphan sweep: run on pool teardown/rebuild (all
    srcs) and partial heal (dead srcs only).  Missing names — already
    swept, or never created because the counter raced a death — are
    skipped.  Returns how many segments were actually removed."""
    removed = 0
    for src, count in counts.items():
        for k in range(count):
            if unlink_segment(segment_name(token, src, k)):
                removed += 1
    return removed


def scan_orphans() -> list[str]:
    """Names of library-created segments currently present in /dev/shm."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - no tmpfs mount
        return []
    return sorted(e for e in entries if e.startswith(NAME_PREFIX + "-"))


class _Segment:
    """One named segment owned by a :class:`SegmentPool`."""

    __slots__ = ("name", "mm", "buf", "capacity", "used", "free",
                 "outstanding")

    def __init__(self, name: str, mm: mmap.mmap):
        self.name = name
        self.mm = mm
        self.buf = memoryview(mm)
        self.capacity = len(mm)
        #: Bump pointer; rewinds to 0 only when ``outstanding`` returns
        #: to 0, so no live lease is overwritten.
        self.used = 0
        #: Released regions below ``used``, by aligned size.
        self.free: dict[int, list[_Region]] = {}
        self.outstanding = 0


class _Region:
    """One leased stretch of a segment, shared by a lease and its aliases."""

    __slots__ = ("seg", "offset", "size", "holders")

    def __init__(self, seg: _Segment, offset: int, size: int):
        self.seg = seg
        self.offset = offset
        self.size = size
        self.holders = 0


class SegmentPool:
    """Sender-side pool of named segments, bump-allocated per destination.

    A released region goes on its segment's free list and is handed out
    again to the next lease of the same aligned size — whatever its
    destination — so a link in steady state alternates two regions, the
    paper's two input buffers per processor (Appendix B.1).  A segment
    whose leases are all back rewinds its bump pointer and forgets its
    free regions.

    One thread per pool: the rank's (or the parent's) only one that
    sends, so nothing here takes a lock.
    """

    def __init__(self, token: str, src: int, counter=None, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        self._token = token
        self._src = src
        #: Fork-shared "Q"-cast memoryview (or None): slot ``src`` holds
        #: how many segments this pool ever created, which is all the
        #: parent needs to sweep them by name.  Read at construction so a
        #: re-forked replacement worker continues the numbering instead
        #: of colliding with names the parent may already have swept.
        self._counter = counter
        self._segment_bytes = segment_bytes
        self._created = int(counter[src]) if counter is not None else 0
        self._next_lease = 1
        self._generation = 0
        self._pools: dict[int, list[_Segment]] = {}
        self._leases: dict[int, _Region] = {}

    @property
    def generation(self) -> int:
        """Bumped by every :meth:`reset`; stamped into outgoing frames."""
        return self._generation

    @property
    def outstanding(self) -> int:
        """Leases handed out and not yet released."""
        return len(self._leases)

    @property
    def segments(self) -> int:
        """Segments currently owned by this pool."""
        return sum(len(segs) for segs in self._pools.values())

    def _new_segment(self, nbytes: int) -> _Segment:
        capacity = max(self._segment_bytes, nbytes)
        name = segment_name(self._token, self._src, self._created)
        mm = open_segment(name, capacity)
        self._created += 1
        if self._counter is not None:
            self._counter[self._src] = self._created
        return _Segment(name, mm)

    def _hold(self, region: _Region) -> int:
        """A fresh lease id over ``region``."""
        region.holders += 1
        region.seg.outstanding += 1
        lease_id = self._next_lease
        self._next_lease += 1
        self._leases[lease_id] = region
        return lease_id

    def lease(self, dst: int, nbytes: int
              ) -> tuple[int, str, int, memoryview]:
        """Reserve ``nbytes`` for ``dst``: (lease id, name, offset, view).

        A free region of the same aligned size first, then the bump
        pointer, then a new segment.
        """
        size = aligned(nbytes)
        segs = self._pools.setdefault(dst, [])
        # Any receiver can map any segment, so a free region serves
        # whichever destination asks next (a broadcast placed for one
        # peer last boundary, another this one); ``dst``'s own first.
        for seg in chain(segs, *self._pools.values()):
            spare = seg.free.get(size)
            if spare:
                region = spare.pop()
                break
        else:
            for seg in segs:
                if size <= seg.capacity - seg.used:
                    break
            else:
                seg = self._new_segment(size)
                segs.append(seg)
            region = _Region(seg, seg.used, size)
            seg.used += size
        offset = region.offset
        return (self._hold(region), seg.name, offset,
                seg.buf[offset:offset + nbytes])

    def alias(self, lease_id: int) -> int | None:
        """A fresh lease over an existing lease's region (broadcast dedup).

        The same payload sent to several destinations is copied into its
        segment once; every further destination gets its own lease id —
        and so its own release — over the same bytes.  The region is
        recycled, and its segment rewinds, only after *every* receiver
        has let go.  ``None`` when ``lease_id`` is no longer live
        (released, or wiped by a reset): the caller must place a fresh
        copy.
        """
        region = self._leases.get(lease_id)
        return None if region is None else self._hold(region)

    def release(self, lease_ids) -> None:
        """Return leases; unknown ids (stale generation, duplicate
        release) are ignored — ids are never reused, so ignoring is
        always safe."""
        for lease_id in lease_ids:
            region = self._leases.pop(lease_id, None)
            if region is None:
                continue
            seg = region.seg
            region.holders -= 1
            seg.outstanding -= 1
            if seg.outstanding == 0:
                seg.used = 0
                seg.free.clear()
            elif region.holders == 0:
                seg.free.setdefault(region.size, []).append(region)

    def leak(self) -> None:
        """Create a segment nothing will ever release (LEAK_SEGMENT
        fault): only the parent's name sweep can reclaim it."""
        seg = self._new_segment(self._segment_bytes)
        seg.outstanding += 1
        self._pools.setdefault(-1, []).append(seg)

    def reset(self) -> None:
        """Forget every lease and rewind every segment (a heal; the
        parent's dispatch arena every run).  The generation bump makes
        any frame still in flight detectably stale at the receiver."""
        self._generation += 1
        self._leases.clear()
        for segs in self._pools.values():
            for seg in segs:
                seg.outstanding = 0
                seg.used = 0
                seg.free.clear()

    def close(self) -> None:
        """Drop this process's mappings (unlinking is the parent sweep's
        job).  Live payload exports keep their segment mapped — close
        failures on exported buffers are expected and harmless."""
        for segs in self._pools.values():
            for seg in segs:
                try:
                    seg.buf.release()
                    seg.mm.close()
                except BufferError:  # pragma: no cover - views alive
                    pass
        self._pools.clear()
        self._leases.clear()


class SegmentMap:
    """Receiver-side attach cache: one mapping per segment name, kept for
    the process lifetime (payload views may outlive everything else, and
    ``mmap.close`` refuses while exports are live anyway)."""

    def __init__(self) -> None:
        self._segs: dict[str, mmap.mmap] = {}

    def region(self, name: str, offset: int, nbytes: int) -> np.ndarray:
        """A per-lease writable uint8 exporter over one leased region.

        A *fresh ndarray per lease* on purpose: payloads reconstructed
        over it hold a reference to exactly this object, which is what
        makes ``sys.getrefcount`` a per-lease liveness probe (a shared
        exporter would conflate every lease in the segment)."""
        seg = self._segs.get(name)
        if seg is None:
            seg = self._segs[name] = open_segment(name)
        return np.frombuffer(seg, dtype=np.uint8, count=nbytes,
                             offset=offset)

    def close(self) -> None:
        for seg in self._segs.values():
            try:
                seg.close()
            except BufferError:  # pragma: no cover - views alive
                pass
        self._segs.clear()


class LeaseTable:
    """Receiver-side ledger of live inbound leases.

    One entry per lease: ``(src, lease id) -> region exporter`` — lease
    ids count per sender pool, so only the pair names a lease.  The
    exporter's refcount is the probe — 2 means only the table and the
    probe itself hold it, i.e. every reconstructed payload is gone.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], np.ndarray] = {}
        #: Highest pool generation seen per src; a frame below it leased
        #: from a pool that has since been reset — stale.
        self._gen: dict[int, int] = {}

    def register(self, src: int, lease_id: int, generation: int,
                 region: np.ndarray) -> bool:
        """File one inbound lease; ``True`` means the frame is stale (its
        generation predates a reset of ``src``'s pool)."""
        seen = self._gen.get(src, 0)
        if generation < seen:
            return True
        self._gen[src] = generation
        self._entries[src, lease_id] = region
        return False

    def collect_free(self) -> dict[int, list[int]]:
        """Reap leases with no live consumer, grouped by owning src.

        ``getrefcount(region) <= 2``: the table entry plus the probe
        argument.  ``<=`` so interpreters that report more (immortal or
        deferred counts) merely delay reaping, never reap a live lease.
        The probe indexes the table instead of iterating its values — a
        named loop variable would itself hold a third reference and no
        lease would ever test free.
        """
        freed: dict[int, list[int]] = {}
        dead = [key for key in self._entries
                if sys.getrefcount(self._entries[key]) <= 2]
        for key in dead:
            del self._entries[key]
            freed.setdefault(key[0], []).append(key[1])
        return freed

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (heal: the runs that leased them are dead)
        and generation seen (a re-forked sender counts from zero)."""
        self._entries.clear()
        self._gen.clear()
