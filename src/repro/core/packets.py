"""Fixed-size packets and h-relation accounting.

The Green BSP library of the paper routes *16-byte packets*
(``bspSendPkt``/``bspGetPkt``, Appendix A), and every ``H`` column in the
paper's tables counts those packets.  This module provides:

* :class:`Packet` — the unit the runtime moves between virtual processors;
  carries an arbitrary Python payload plus its *h-unit* cost, i.e. how many
  16-byte wire packets it represents.
* :class:`PacketCodec` — an explicit codec for programs that want the
  paper's exact fixed-size discipline: it fragments a byte string into
  16-byte wire packets with a small header and reassembles them in any
  arrival order, as ``bspGetPkt`` may deliver packets arbitrarily permuted.
* :func:`h_units` — the canonical payload→h-unit cost function used by the
  runtime when a program sends a high-level payload directly.

The paper (footnote 2) notes the authors were moving to arbitrary-length
messages and expected no performance change; we support both styles and
keep the *accounting* in 16-byte units either way so our ``H`` numbers are
comparable with Figures C.1–C.6.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import PacketError

#: Size in bytes of one wire packet, as fixed in the paper.
PACKET_BYTES = 16

#: Wire-packet header: (message id, fragment index, fragment count, used bytes).
_FRAG_HEADER = struct.Struct("<IHHH")
_FRAG_PAYLOAD_BYTES = PACKET_BYTES - _FRAG_HEADER.size  # 6 bytes of payload


def h_units(payload: Any) -> int:
    """Return the h-relation cost of ``payload`` in 16-byte packet units.

    The runtime charges ``ceil(nbytes / 16)`` with a minimum of one packet,
    mirroring the paper's fixed-size packet accounting.  Sizes are derived
    structurally (no pickling) so the charge is cheap and deterministic:

    * ``bytes``/``bytearray`` — their length; ``memoryview`` — its
      ``nbytes`` (a view's byte size, whatever its item type);
    * NumPy arrays and scalars — ``nbytes``;
    * ``bool``/``int``/``float``/``complex``/``None`` — 8 bytes (one word,
      rounded up; a single packet);
    * ``str`` — UTF-8 length;
    * tuples/lists/dicts/sets — sum over elements (dicts: keys + values);
    * anything else — one packet (16 bytes).
    """
    return max(1, -(-_payload_nbytes(payload) // PACKET_BYTES))


#: Element types that cost one 8-byte word each; a container holding only
#: these has the closed-form size ``8 * len`` (no per-element recursion).
_WORD_TYPES = frozenset((bool, int, float, complex, type(None)))
#: Containers whose size is the sum over their elements.
_SEQ_TYPES = frozenset((tuple, list, set, frozenset))


def _payload_nbytes(payload: Any) -> int:
    # Exact-type fast path: a payload of a builtin type (and an exact
    # ndarray) is sized without the isinstance chain.  Subclasses (an
    # IntEnum, a namedtuple, an ndarray subclass) and NumPy scalars
    # take the chain, which sizes them as before.
    kind = type(payload)
    if kind in _WORD_TYPES:
        return 8
    if kind in _SEQ_TYPES:
        return _items_nbytes(payload)
    if kind is np.ndarray:
        return payload.nbytes
    if kind is str and payload.isascii():
        return len(payload)
    return _nbytes_by_isinstance(payload)


def _items_nbytes(items: Any) -> int:
    """Size of a tuple/list/set: the sum over its elements."""
    # A long container takes the chain's one C-level type sweep; a
    # short mixed tuple such as a tagged ghost row is summed in line.
    if len(items) > 8 and _WORD_TYPES.issuperset(map(type, items)):
        return 8 * len(items)
    total = 0
    for item in items:
        kind = type(item)
        if kind in _WORD_TYPES:
            total += 8
        elif kind is np.ndarray:
            total += item.nbytes
        else:
            total += _payload_nbytes(item)
    return total


def _nbytes_by_isinstance(payload: Any) -> int:
    if payload is None or isinstance(payload, (bool, int, float, complex)):
        return 8
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, memoryview):
        # nbytes, not len(): a view of n 8-byte items is n*8 wire bytes,
        # and zero-copy deliveries hand programs memoryview-backed
        # payloads whose h-charge must match the bytes actually moved.
        return payload.nbytes
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, np.generic):
        return int(payload.nbytes)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list, set, frozenset)):
        # Fast path for the overwhelmingly common homogeneous numeric
        # container (adjacency lists, index vectors): one C-level type
        # sweep instead of a Python-level recursion per element.
        if not set(map(type, payload)) - _WORD_TYPES:
            return 8 * len(payload)
        return sum(map(_payload_nbytes, payload))
    if isinstance(payload, dict):
        return sum(
            _payload_nbytes(k) + _payload_nbytes(v) for k, v in payload.items()
        )
    return PACKET_BYTES


class _PacketFields(NamedTuple):
    src: int
    dst: int
    payload: Any
    h: int
    seq: int = 0


class Packet(_PacketFields):
    """One message in flight between two virtual processors.

    An immutable named tuple: every boundary builds one per message at
    ``send`` and one per message at decode, and a tuple is built in C
    where a frozen dataclass sets each field through
    ``object.__setattr__`` (half the cost).  Equality, hashing, pickling
    and the repr go by the five fields; being a tuple, a packet also
    iterates, unpacks and equals a plain tuple of its fields.
    Construction refuses ``h < 1``.

    Attributes
    ----------
    src:
        Sending virtual processor id.
    dst:
        Destination virtual processor id.
    payload:
        Arbitrary Python object (must be picklable for the process backend).
    h:
        Cost of this message in 16-byte wire-packet units; this is what the
        per-superstep ``h_i`` accounting sums.
    seq:
        Per-(sender, superstep) sequence number; used only to make delivery
        order deterministic across backends.
    """

    __slots__ = ()

    #: Rebuild from ``(src, dst, payload, h, seq)`` without the h check,
    #: in C: for a decoder rebuilding packets their sender checked.
    _make = classmethod(tuple.__new__)

    def __new__(cls, src: int, dst: int, payload: Any, h: int,
                seq: int = 0) -> "Packet":
        if h < 1:
            raise PacketError(f"packet h-units must be >= 1, got {h}")
        return tuple.__new__(cls, (src, dst, payload, h, seq))


def delivery_order(packets: Iterable[Packet]) -> list[Packet]:
    """Sort packets into the runtime's canonical delivery order.

    ``bspGetPkt`` may return packets in any order; for reproducibility every
    backend delivers in (src, seq) order.  Programs must not rely on this —
    the paper's contract is "arbitrary order" — but determinism makes the
    simulator's work-depth measurements repeatable and tests exact.
    """
    return sorted(packets, key=lambda p: (p.src, p.seq))


class PacketRuns:
    """Boundary inbox delivered as per-source runs, already in order.

    Every backend buckets outgoing packets per destination while preserving
    each sender's send order, so the packets one receiver gets from one
    source arrive as a run already sorted by ``seq``.  Concatenating those
    runs in ascending ``src`` order therefore *is* the canonical
    (src, seq) delivery order — no comparison sort needed.  Backends hand
    this to :meth:`repro.core.api.Bsp.sync` instead of a flat list, turning
    the per-boundary ``sorted()`` into an O(n) concatenation
    (property-tested equal to :func:`delivery_order`).
    """

    __slots__ = ("_runs",)

    def __init__(self, runs_by_src: Iterable[tuple[int, list[Packet]]]):
        #: (src, run) pairs; stored sorted by src, empty runs dropped.
        self._runs: list[list[Packet]] = [
            run for _, run in sorted(runs_by_src, key=itemgetter(0)) if run
        ]

    def merged(self) -> list[Packet]:
        """Flatten to the canonical (src, seq) order — O(total packets)."""
        runs = self._runs
        if len(runs) == 1:
            return runs[0]
        out: list[Packet] = []
        for run in runs:
            out.extend(run)
        return out

    def __len__(self) -> int:
        return sum(len(run) for run in self._runs)


@dataclass
class PacketCodec:
    """Fragment byte strings into 16-byte wire packets and reassemble them.

    This codec realizes the paper's exact wire discipline for programs that
    want it (see ``examples/fixed_packets.py``): each application message is
    split into fragments of :data:`PACKET_BYTES` bytes, each carrying a
    header ``(message id, fragment index, fragment count, used bytes)``.
    Fragments may be fed back in any order, interleaved across messages.

    >>> codec = PacketCodec()
    >>> frags = codec.encode(b"hello bsp world")
    >>> out = PacketCodec()
    >>> msgs = [m for frag in reversed(frags) for m in out.feed(frag)]
    >>> msgs
    [b'hello bsp world']
    """

    _next_id: int = 0
    _partial: dict[int, dict[int, bytes]] = field(default_factory=dict)
    _expected: dict[int, int] = field(default_factory=dict)

    def encode(self, message: bytes) -> list[bytes]:
        """Split ``message`` into 16-byte wire packets (at least one)."""
        if not isinstance(message, (bytes, bytearray, memoryview)):
            raise PacketError(
                f"PacketCodec encodes bytes, got {type(message).__name__}"
            )
        data = bytes(message)
        msg_id = self._next_id
        self._next_id = (self._next_id + 1) % (1 << 32)
        nfrag = max(1, -(-len(data) // _FRAG_PAYLOAD_BYTES))
        if nfrag > 0xFFFF:
            raise PacketError(
                f"message of {len(data)} bytes needs {nfrag} fragments; "
                f"max is {0xFFFF}"
            )
        frags = []
        for i in range(nfrag):
            chunk = data[i * _FRAG_PAYLOAD_BYTES : (i + 1) * _FRAG_PAYLOAD_BYTES]
            header = _FRAG_HEADER.pack(msg_id, i, nfrag, len(chunk))
            frags.append(header + chunk.ljust(_FRAG_PAYLOAD_BYTES, b"\x00"))
        return frags

    def feed(self, wire_packet: bytes) -> Iterator[bytes]:
        """Consume one wire packet; yield any now-complete messages."""
        if len(wire_packet) != PACKET_BYTES:
            raise PacketError(
                f"wire packets are exactly {PACKET_BYTES} bytes, "
                f"got {len(wire_packet)}"
            )
        msg_id, idx, nfrag, used = _FRAG_HEADER.unpack_from(wire_packet)
        if nfrag == 0 or idx >= nfrag or used > _FRAG_PAYLOAD_BYTES:
            raise PacketError("corrupt wire-packet header")
        expected = self._expected.setdefault(msg_id, nfrag)
        if expected != nfrag:
            raise PacketError(
                f"message {msg_id}: inconsistent fragment counts "
                f"({expected} vs {nfrag})"
            )
        parts = self._partial.setdefault(msg_id, {})
        if idx in parts:
            raise PacketError(f"message {msg_id}: duplicate fragment {idx}")
        parts[idx] = wire_packet[_FRAG_HEADER.size : _FRAG_HEADER.size + used]
        if len(parts) == nfrag:
            del self._partial[msg_id]
            del self._expected[msg_id]
            yield b"".join(parts[i] for i in range(nfrag))

    @property
    def pending(self) -> int:
        """Number of partially reassembled messages."""
        return len(self._partial)
