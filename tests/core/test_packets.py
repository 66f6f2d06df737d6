"""Unit and property tests for packet encoding and h-unit accounting."""

import enum
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PacketError
from repro.core.packets import (
    PACKET_BYTES,
    Packet,
    PacketCodec,
    delivery_order,
    h_units,
)


class TestHUnits:
    def test_minimum_is_one_packet(self):
        assert h_units(b"") == 1
        assert h_units(None) == 1
        assert h_units(0) == 1

    def test_bytes_rounding(self):
        assert h_units(b"x" * 16) == 1
        assert h_units(b"x" * 17) == 2
        assert h_units(b"x" * 32) == 2
        assert h_units(b"x" * 33) == 3

    def test_numpy_array_uses_nbytes(self):
        arr = np.zeros(4, dtype=np.float64)  # 32 bytes
        assert h_units(arr) == 2

    def test_numpy_scalar(self):
        assert h_units(np.float64(1.5)) == 1

    def test_scalars_are_one_word(self):
        for value in (True, 7, 3.14, 1 + 2j):
            assert h_units(value) == 1

    def test_str_utf8(self):
        assert h_units("a" * 16) == 1
        assert h_units("a" * 17) == 2
        # Multi-byte characters count their encoded size.
        assert h_units("é" * 9) == 2  # 18 UTF-8 bytes

    def test_containers_sum_elements(self):
        # 4 ints -> 32 bytes -> 2 packets.
        assert h_units((1, 2, 3, 4)) == 2
        assert h_units([1, 2, 3, 4]) == 2

    def test_dict_counts_keys_and_values(self):
        assert h_units({1: 2}) == 1        # 16 bytes
        assert h_units({1: 2, 3: 4}) == 2  # 32 bytes

    def test_unknown_object_is_one_packet(self):
        class Thing:
            pass

        assert h_units(Thing()) == 1

    @given(st.binary(min_size=0, max_size=4096))
    def test_bytes_formula(self, data):
        expected = max(1, -(-len(data) // PACKET_BYTES))
        assert h_units(data) == expected


class TestPacket:
    def test_rejects_nonpositive_h(self):
        with pytest.raises(PacketError):
            Packet(src=0, dst=1, payload=b"", h=0)

    def test_contract(self):
        """What programs and backends may rely on, whatever the
        representation: construction, fields, immutability, value
        semantics, pickling, the h check and the repr."""
        kw = Packet(src=0, dst=1, payload="x", h=2, seq=3)
        pos = Packet(0, 1, "x", 2, 3)
        assert (kw.src, kw.dst, kw.payload, kw.h, kw.seq) == (0, 1, "x", 2, 3)
        assert kw == pos and hash(kw) == hash(pos)
        assert len({kw, pos}) == 1
        assert Packet(0, 1, "x", 2).seq == 0
        assert Packet(0, 1, "x", 2, seq=4) != kw
        assert Packet(0, 1, "y", 2, 3) != kw
        for field in ("src", "dst", "payload", "h", "seq", "extra"):
            with pytest.raises(AttributeError):
                setattr(kw, field, 9)
        back = pickle.loads(pickle.dumps(kw, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(back) is Packet and back == kw
        for h in (0, -1):
            with pytest.raises(PacketError, match="h-units must be >= 1"):
                Packet(0, 1, b"", h)
            with pytest.raises(PacketError):
                Packet(src=0, dst=1, payload=b"", h=h, seq=0)
        text = repr(kw)
        assert text.startswith("Packet(")
        for part in ("src=0", "dst=1", "payload='x'", "h=2", "seq=3"):
            assert part in text

    def test_delivery_order_by_src_then_seq(self):
        pkts = [
            Packet(src=1, dst=0, payload="b", h=1, seq=0),
            Packet(src=0, dst=0, payload="a2", h=1, seq=1),
            Packet(src=0, dst=0, payload="a1", h=1, seq=0),
        ]
        ordered = delivery_order(pkts)
        assert [p.payload for p in ordered] == ["a1", "a2", "b"]


class TestPacketCodec:
    def test_roundtrip_simple(self):
        codec = PacketCodec()
        frags = codec.encode(b"hello bsp world!")
        out = PacketCodec()
        msgs = [m for f in frags for m in out.feed(f)]
        assert msgs == [b"hello bsp world!"]

    def test_empty_message_roundtrip(self):
        frags = PacketCodec().encode(b"")
        assert len(frags) == 1
        out = PacketCodec()
        assert [m for f in frags for m in out.feed(f)] == [b""]

    def test_all_fragments_are_16_bytes(self):
        frags = PacketCodec().encode(b"z" * 100)
        assert all(len(f) == PACKET_BYTES for f in frags)

    def test_out_of_order_reassembly(self):
        data = bytes(range(200)) * 3
        frags = PacketCodec().encode(data)
        out = PacketCodec()
        msgs = [m for f in reversed(frags) for m in out.feed(f)]
        assert msgs == [data]
        assert out.pending == 0

    def test_interleaved_messages(self):
        codec = PacketCodec()
        f1 = codec.encode(b"a" * 40)
        f2 = codec.encode(b"b" * 40)
        out = PacketCodec()
        msgs = []
        for pair in zip(f1, f2):
            for frag in pair:
                msgs.extend(out.feed(frag))
        assert sorted(msgs) == [b"a" * 40, b"b" * 40]

    def test_rejects_wrong_size(self):
        with pytest.raises(PacketError):
            list(PacketCodec().feed(b"short"))

    def test_rejects_duplicate_fragment(self):
        frags = PacketCodec().encode(b"x" * 40)
        out = PacketCodec()
        list(out.feed(frags[0]))
        with pytest.raises(PacketError):
            list(out.feed(frags[0]))

    def test_rejects_non_bytes(self):
        with pytest.raises(PacketError):
            PacketCodec().encode("not bytes")  # type: ignore[arg-type]

    def test_rejects_corrupt_header(self):
        with pytest.raises(PacketError):
            list(PacketCodec().feed(b"\x00" * PACKET_BYTES))

    @settings(max_examples=60)
    @given(
        messages=st.lists(st.binary(min_size=0, max_size=300), max_size=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_roundtrip_any_permutation(self, messages, seed):
        """Any interleaving of fragments reassembles every message."""
        rng = np.random.default_rng(seed)
        codec = PacketCodec()
        frags = [f for msg in messages for f in codec.encode(msg)]
        order = rng.permutation(len(frags))
        out = PacketCodec()
        got = []
        for idx in order:
            got.extend(out.feed(frags[idx]))
        assert sorted(got) == sorted(messages)
        assert out.pending == 0


def _reference_nbytes(payload):
    """The isinstance-chain definition of a payload's size, verbatim as
    it was before the exact-type fast path (recursing into itself)."""
    if payload is None or isinstance(payload, (bool, int, float, complex)):
        return 8
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, memoryview):
        return payload.nbytes
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, np.generic):
        return int(payload.nbytes)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list, set, frozenset)):
        if not set(map(type, payload)) - {bool, int, float, complex,
                                          type(None)}:
            return 8 * len(payload)
        return sum(map(_reference_nbytes, payload))
    if isinstance(payload, dict):
        return sum(
            _reference_nbytes(k) + _reference_nbytes(v)
            for k, v in payload.items()
        )
    return PACKET_BYTES


class _Color(enum.IntEnum):
    RED = 1
    BLUE = 2


class _Pair(tuple):
    pass


class _Tagged(np.ndarray):
    pass


_arrays = st.builds(
    lambda n, dtype, tagged: (np.ones(n, dtype=dtype).view(_Tagged)
                              if tagged else np.ones(n, dtype=dtype)),
    st.integers(0, 40),
    st.sampled_from([np.float64, np.int32, np.uint8, np.complex128, bool]),
    st.booleans())
_hashable = st.one_of(
    st.integers(-2**70, 2**70), st.booleans(), st.none(),
    st.floats(allow_nan=False), st.complex_numbers(allow_nan=False),
    st.text(max_size=12), st.binary(max_size=24),
    st.sampled_from(list(_Color)),
    st.sampled_from([np.float64(2.5), np.int32(7), np.complex128(1j),
                     np.bool_(True), np.uint8(3)]))
_leaves = st.one_of(
    _hashable,
    st.binary(max_size=24).map(bytearray),
    st.binary(max_size=24).map(memoryview),
    _arrays,
    _arrays.map(lambda a: memoryview(np.ascontiguousarray(a))))
_payloads = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=12),
        st.lists(kids, max_size=12).map(tuple),
        st.lists(kids, max_size=4).map(_Pair),
        st.sets(_hashable, max_size=10),
        st.frozensets(_hashable, max_size=10),
        st.dictionaries(_hashable, kids, max_size=5)),
    max_leaves=30)


class TestHUnitsFastPath:
    @settings(max_examples=300, deadline=None)
    @given(_payloads)
    def test_equals_isinstance_chain(self, payload):
        expected = max(1, -(-_reference_nbytes(payload) // PACKET_BYTES))
        assert h_units(payload) == expected

    def test_subclasses_take_no_wrong_shortcut(self):
        row = np.arange(66, dtype=np.float64)
        for payload in (_Color.BLUE, _Pair((1, "ab", row)), row.view(_Tagged),
                        ("gt", 0, row), [_Color.RED] * 20, np.complex128(1j),
                        "é" * 9, ("é", b"xy", None, 2.5)):
            expected = max(1, -(-_reference_nbytes(payload) // PACKET_BYTES))
            assert h_units(payload) == expected
