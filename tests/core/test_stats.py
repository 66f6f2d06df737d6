"""Tests for superstep accounting (W, H, S merging)."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import BspUsageError
from repro.core.stats import (
    ProgramStats,
    SuperstepSample,
    SuperstepStats,
    VPLedger,
)


def make_ledger(pid, rows):
    """rows: list of (work, h_sent, h_recv) tuples."""
    ledger = VPLedger(pid)
    for work, h_sent, h_recv in rows:
        sample = ledger.begin_superstep()
        sample.work_seconds = work
        sample.h_sent = h_sent
        sample.h_recv = h_recv
        sample.msgs_sent = h_sent
        sample.msgs_recv = h_recv
    return ledger


class TestMerge:
    def test_single_processor(self):
        stats = ProgramStats.from_ledgers([make_ledger(0, [(1.0, 2, 0), (0.5, 0, 2)])])
        assert stats.S == 2
        assert stats.W == pytest.approx(1.5)
        assert stats.H == 4
        assert stats.total_work == pytest.approx(1.5)

    def test_w_is_sum_of_max_work(self):
        l0 = make_ledger(0, [(1.0, 0, 0), (0.1, 0, 0)])
        l1 = make_ledger(1, [(0.2, 0, 0), (0.9, 0, 0)])
        stats = ProgramStats.from_ledgers([l0, l1])
        # w_0 = max(1.0, 0.2), w_1 = max(0.1, 0.9)
        assert stats.W == pytest.approx(1.9)
        assert stats.total_work == pytest.approx(2.2)

    def test_h_is_max_of_sent_or_received(self):
        # Paper: h_i is the largest number of packets sent OR received by
        # any processor.
        l0 = make_ledger(0, [(0, 5, 1)])
        l1 = make_ledger(1, [(0, 1, 8)])
        stats = ProgramStats.from_ledgers([l0, l1])
        assert stats.H == 8
        assert stats.supersteps[0].h_sent_max == 5
        assert stats.supersteps[0].h_recv_max == 8

    def test_mismatched_superstep_counts_raise(self):
        l0 = make_ledger(0, [(0, 0, 0)])
        l1 = make_ledger(1, [(0, 0, 0), (0, 0, 0)])
        with pytest.raises(BspUsageError, match="different superstep counts"):
            ProgramStats.from_ledgers([l0, l1])

    def test_empty_raises(self):
        with pytest.raises(BspUsageError):
            ProgramStats.from_ledgers([])

    def test_scaled(self):
        stats = ProgramStats.from_ledgers([make_ledger(0, [(2.0, 3, 0)])])
        doubled = stats.scaled(2.0)
        assert doubled.W == pytest.approx(4.0)
        assert doubled.H == 3  # traffic does not scale
        assert doubled.S == 1
        assert doubled.total_work == pytest.approx(4.0)

    def test_summary_mentions_key_figures(self):
        stats = ProgramStats.from_ledgers([make_ledger(0, [(1.0, 2, 0)])])
        text = stats.summary()
        assert "S=1" in text and "H=2" in text

    @given(
        rows=st.lists(
            st.lists(
                st.tuples(
                    st.floats(min_value=0, max_value=10),
                    st.integers(min_value=0, max_value=100),
                    st.integers(min_value=0, max_value=100),
                ),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda ls: len({len(x) for x in ls}) == 1)
    )
    def test_property_invariants(self, rows):
        ledgers = [make_ledger(pid, r) for pid, r in enumerate(rows)]
        stats = ProgramStats.from_ledgers(ledgers)
        # W is a max-combine, so never exceeds total work but is at least
        # total work / p.
        assert stats.W <= stats.total_work + 1e-9
        assert stats.W * stats.nprocs >= stats.total_work - 1e-9
        # H bounds: at least per-superstep average, at most total traffic.
        assert stats.H >= 0
        assert stats.S == len(rows[0])

    def test_charge_merging(self):
        l0 = VPLedger(0)
        s = l0.begin_superstep()
        s.charged = 10.0
        l1 = VPLedger(1)
        s = l1.begin_superstep()
        s.charged = 4.0
        stats = ProgramStats.from_ledgers([l0, l1])
        assert stats.charged_depth == pytest.approx(10.0)
        assert stats.total_charged == pytest.approx(14.0)


class TestVPLedger:
    def test_totals(self):
        ledger = make_ledger(0, [(1.0, 2, 3), (2.0, 0, 0)])
        assert ledger.total_work_seconds == pytest.approx(3.0)
        assert ledger.nsupersteps == 2

    def test_begin_superstep_returns_live_sample(self):
        ledger = VPLedger(0)
        sample = ledger.begin_superstep()
        sample.work_seconds = 5.0
        assert ledger.samples[0].work_seconds == 5.0
        assert isinstance(ledger.samples[0], SuperstepSample)


def _reference_from_ledgers(ledgers, wall_seconds=0.0):
    """The per-superstep definition of the merge, verbatim as it was
    before the one-pass transposition."""
    if not ledgers:
        raise BspUsageError("no ledgers to merge")
    counts = {ledger.nsupersteps for ledger in ledgers}
    if len(counts) != 1:
        detail = ", ".join(
            f"pid {ledger.pid}: {ledger.nsupersteps}" for ledger in ledgers
        )
        raise BspUsageError(
            f"processors executed different superstep counts ({detail}); "
            "every virtual processor must call sync() the same number of "
            "times"
        )
    nsteps = counts.pop()
    steps = []
    for i in range(nsteps):
        samples = [ledger.samples[i] for ledger in ledgers]
        steps.append(
            SuperstepStats(
                index=i,
                w=max(s.work_seconds for s in samples),
                charged=max(s.charged for s in samples),
                h=max(max(s.h_sent, s.h_recv) for s in samples),
                h_sent_max=max(s.h_sent for s in samples),
                h_recv_max=max(s.h_recv for s in samples),
                m=max(max(s.msgs_sent, s.msgs_recv) for s in samples),
                total_work=sum(s.work_seconds for s in samples),
                total_charged=sum(s.charged for s in samples),
                total_msgs=sum(s.msgs_sent for s in samples),
            )
        )
    return ProgramStats(
        nprocs=len(ledgers),
        supersteps=tuple(steps),
        total_work=sum(ledger.total_work_seconds for ledger in ledgers),
        total_charged=sum(ledger.total_charged for ledger in ledgers),
        wall_seconds=wall_seconds,
    )


_work = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300]),
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False))
_count = st.integers(0, 2**40)
_row = st.tuples(_work, _work, _count, _count, _count, _count)


class TestTransposedMerge:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda p: st.integers(0, 60).flatmap(
        lambda s: st.lists(st.lists(_row, min_size=s, max_size=s),
                           min_size=p, max_size=p))),
        st.floats(0.0, 10.0))
    def test_equals_per_superstep_definition(self, table, wall):
        ledgers = [VPLedger(pid, [SuperstepSample(*row) for row in rows])
                   for pid, rows in enumerate(table)]
        got = ProgramStats.from_ledgers(ledgers, wall)
        want = _reference_from_ledgers(ledgers, wall)
        assert (got.nprocs, got.total_work, got.total_charged,
                got.wall_seconds) == (want.nprocs, want.total_work,
                                      want.total_charged, want.wall_seconds)
        assert len(got.supersteps) == len(want.supersteps)
        for a, b in zip(got.supersteps, want.supersteps):
            for f in dataclasses.fields(SuperstepStats):
                assert getattr(a, f.name) == getattr(b, f.name), f.name
        # Home from a rank as rows: the same ledger, sample for sample.
        back = [pickle.loads(pickle.dumps(ledger)) for ledger in ledgers]
        assert back == ledgers

    def test_unequal_superstep_counts_name_every_pid(self):
        ledgers = [make_ledger(0, [(1.0, 1, 1)] * 3),
                   make_ledger(1, [(1.0, 1, 1)] * 2),
                   make_ledger(2, [(1.0, 1, 1)] * 3)]
        with pytest.raises(BspUsageError) as new:
            ProgramStats.from_ledgers(ledgers)
        with pytest.raises(BspUsageError) as old:
            _reference_from_ledgers(ledgers)
        assert str(new.value) == str(old.value)
        assert "pid 0: 3, pid 1: 2, pid 2: 3" in str(new.value)
