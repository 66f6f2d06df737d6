"""Tests for the Ocean application (multigrid + model + BSP version)."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.ocean import (
    LocalBlock,
    OceanParams,
    RowPartition,
    bsp_ocean,
    build_partitions,
    ocean_sequential,
    prolong,
    relax_red_black,
    residual,
    restrict,
    solve_poisson,
    wind_forcing,
)
from repro.apps.ocean.multigrid import COARSEST, apply_reflection
from repro.apps.ocean.parallel import prolong_block, restrict_block
from repro.service.jobs import stats_payload


def manufactured_problem(n, k1=2, k2=3):
    """f whose exact cell-centred solution we can verify by residual."""
    h = 1.0 / n
    x = (np.arange(n + 2) - 0.5) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = np.zeros((n + 2, n + 2))
    f[1:-1, 1:-1] = np.sin(k1 * np.pi * X[1:-1, 1:-1]) * np.sin(
        k2 * np.pi * Y[1:-1, 1:-1]
    )
    return f, h


class TestMultigrid:
    def test_solver_reaches_tolerance(self):
        f, h = manufactured_problem(64)
        u, info = solve_poisson(f, h, tol=1e-8)
        assert info.converged
        assert info.residual_norm <= 1e-8 * max(
            np.linalg.norm(f[1:-1, 1:-1]), 1.0
        )

    def test_textbook_convergence_rate(self):
        """V(2,2) must contract the residual by ~10x or better per cycle."""
        rng = np.random.default_rng(0)
        n, h = 64, 1.0 / 64
        f = np.zeros((n + 2, n + 2))
        f[1:-1, 1:-1] = rng.standard_normal((n, n))
        u, info = solve_poisson(f, h, tol=1e-9, max_cycles=30)
        assert info.converged
        assert info.cycles <= 10

    def test_warm_start_cuts_cycles(self):
        f, h = manufactured_problem(32)
        u, cold = solve_poisson(f, h, tol=1e-8)
        _, warm = solve_poisson(f, h, tol=1e-8, u0=u)
        assert warm.cycles < cold.cycles
        assert warm.cycles == 0  # already converged

    def test_relaxation_reduces_residual(self):
        f, h = manufactured_problem(16)
        u = np.zeros_like(f)
        r0 = np.linalg.norm(residual(u, f, h)[1:-1, 1:-1])
        relax_red_black(u, f, h, sweeps=5)
        r1 = np.linalg.norm(residual(u, f, h)[1:-1, 1:-1])
        assert r1 < r0

    def test_restrict_preserves_mean(self):
        rng = np.random.default_rng(1)
        r = np.zeros((18, 18))
        r[1:-1, 1:-1] = rng.standard_normal((16, 16))
        rc = restrict(r)
        assert rc[1:-1, 1:-1].mean() == pytest.approx(r[1:-1, 1:-1].mean())

    def test_prolong_restrict_identity_on_constants(self):
        e = np.zeros((10, 10))
        e[1:-1, 1:-1] = 3.0
        fine = prolong(e, 16)
        assert np.allclose(fine[1:-1, 1:-1], 3.0)
        back = restrict(fine)
        assert np.allclose(back[1:-1, 1:-1], 3.0)

    def test_reflection_zeroes_faces(self):
        u = np.zeros((6, 6))
        u[1:-1, 1:-1] = np.arange(16).reshape(4, 4) + 1.0
        apply_reflection(u)
        # Face value = average of ghost and interior = 0.
        assert np.allclose(u[0, 1:-1] + u[1, 1:-1], 0)
        assert np.allclose(u[:, -1] + u[:, -2], 0)

    def test_size_validation(self):
        f = np.zeros((13, 13))  # interior 11: not a power of two
        with pytest.raises(ValueError):
            solve_poisson(f, 0.1)
        with pytest.raises(ValueError):
            solve_poisson(np.zeros((6, 7)), 0.1)


class TestRowPartition:
    def test_block_covers_all_rows(self):
        part = RowPartition.block(64, 5)
        owned = [part.range_of(q) for q in range(5)]
        assert owned[0][0] == 1
        assert owned[-1][1] == 65
        for (a, b), (c, d) in zip(owned, owned[1:]):
            assert b == c

    def test_owner_roundtrip(self):
        part = RowPartition.block(32, 7)
        for row in range(1, 33):
            q = part.owner(row)
            lo, hi = part.range_of(q)
            assert lo <= row < hi

    def test_owner_range_check(self):
        part = RowPartition.block(8, 2)
        with pytest.raises(ValueError):
            part.owner(0)
        with pytest.raises(ValueError):
            part.owner(9)

    def test_coarsen_alignment(self):
        """Coarse row I lives with fine row 2I at every level."""
        part = RowPartition.block(64, 6)
        coarse = part.coarsen()
        assert coarse.m == 32
        for big_i in range(1, 33):
            assert coarse.owner(big_i) == part.owner(2 * big_i)

    def test_hierarchy_bottoms_out(self):
        parts = build_partitions(64, 4)
        assert [p.m for p in parts] == [64, 32, 16, 8, 4]
        assert parts[-1].m == COARSEST

    def test_zero_row_processors_allowed(self):
        part = RowPartition.block(4, 8)
        counts = [part.range_of(q)[1] - part.range_of(q)[0] for q in range(8)]
        assert sum(counts) == 4
        assert min(counts) == 0


class TestOceanModel:
    def test_forcing_antisymmetric_in_y(self):
        f = wind_forcing(16, 1.0)
        inner = f[1:-1, 1:-1]
        assert np.allclose(inner, inner[0][None, :])  # x-independent
        assert np.allclose(inner[:, :8], -inner[:, :7:-1])  # two gyres

    def test_spinup_produces_circulation(self):
        state = ocean_sequential(34, 4)
        assert np.abs(state.psi).max() > 0
        assert np.abs(state.zeta).max() > 0
        assert len(state.cycles) == 4
        assert all(c >= 1 for c in state.cycles)

    def test_double_gyre_structure(self):
        """ψ changes sign between the two half-basins in y."""
        state = ocean_sequential(34, 6)
        m = 32
        top = state.psi[1:-1, 1 : m // 2 + 1].mean()
        bottom = state.psi[1:-1, m // 2 + 1 : -1].mean()
        assert top * bottom < 0

    def test_zero_steps(self):
        state = ocean_sequential(18, 0)
        assert np.all(state.psi == 0)
        assert state.cycles == []

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ocean_sequential(35, 1)
        with pytest.raises(ValueError):
            ocean_sequential(18, -1)


class TestBspOcean:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16])
    def test_bitwise_match_with_sequential(self, p):
        """Distributed iterates replicate the sequential ones exactly —
        whole arrays: both drivers return reflected ghost rings."""
        seq = ocean_sequential(34, 2)
        run = bsp_ocean(34, 2, p)
        assert np.array_equal(run.state.psi, seq.psi)
        assert np.array_equal(run.state.zeta, seq.zeta)
        assert run.state.cycles == seq.cycles

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_top_grid_is_the_coarsest(self, p):
        """Size 6: every V-cycle is the bottom solve and nothing else."""
        seq = ocean_sequential(6, 2)
        run = bsp_ocean(6, 2, p)
        assert np.abs(seq.psi).max() > 0
        assert np.array_equal(run.state.psi, seq.psi)
        assert np.array_equal(run.state.zeta, seq.zeta)
        assert run.state.cycles == seq.cycles

    def test_supersteps_independent_of_p(self):
        """Figure C.1: ocean's S column is identical for every nprocs."""
        s_values = {bsp_ocean(34, 1, p).stats.S for p in (1, 2, 4, 8)}
        assert len(s_values) == 1

    def test_h_roughly_constant_across_p(self):
        """Ghost rows are full-width, so h_i barely grows with p (paper:
        12192 at p=2 vs 13360 at p=16 for size 66)."""
        h2 = bsp_ocean(34, 1, 2).stats.H
        h8 = bsp_ocean(34, 1, 8).stats.H
        assert h8 < 3 * h2

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_concurrent_backends(self, backend):
        seq = ocean_sequential(18, 1)
        run = bsp_ocean(18, 1, 2, backend=backend)
        assert np.array_equal(run.state.psi, seq.psi)

    def test_custom_params_propagate(self):
        params = OceanParams(tol=1e-3, max_cycles=2)
        run = bsp_ocean(18, 2, 2, params=params)
        assert all(c <= 2 for c in run.state.cycles)

    def test_validation(self):
        with pytest.raises(ValueError):
            bsp_ocean(35, 1, 2)
        with pytest.raises(ValueError):
            bsp_ocean(18, -1, 2)


class TestDegenerateDecompositions:
    def test_more_processors_than_coarse_rows(self):
        """p exceeding coarse-level row counts (zero-row processors at
        deep levels) must not change results."""
        seq = ocean_sequential(18, 1)   # interior 16: coarse levels 8, 4
        run = bsp_ocean(18, 1, 12)      # 12 procs > 8 coarse rows
        assert np.array_equal(run.state.psi, seq.psi)

    def test_processor_count_equals_rows(self):
        seq = ocean_sequential(18, 1)
        run = bsp_ocean(18, 1, 16)
        assert np.array_equal(run.state.psi, seq.psi)


def random_partition(m, cuts):
    return RowPartition(m=m, bounds=(1, *sorted(cuts), m + 1))


def random_field(m, seed):
    """(m+2)² array, random interior, zero ghost ring."""
    g = np.zeros((m + 2, m + 2))
    g[1:-1, 1:-1] = np.random.default_rng(seed).standard_normal((m, m))
    return g


#: Partitions of 16 rows over up to 16 processors: repeated cuts make
#: zero-row ranks, odd and even cuts make both kinds of seam.
PARTITION_CUTS = st.lists(st.integers(1, 17), min_size=0, max_size=15)


class TestInterGridTransfers:
    """Each rank's ``restrict_block``/``prolong_block`` rows are the
    sequential ``restrict``/``prolong`` rows, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(cuts=PARTITION_CUTS, seed=st.integers(0, 1000))
    def test_property_restrict_rows_match_sequential(self, cuts, seed):
        part = random_partition(16, cuts)
        coarse = part.coarsen()
        r = random_field(16, seed)
        want = restrict(r)
        for pid in range(part.nprocs):
            lo, hi = part.range_of(pid)
            # Ghost rows as the residual's exchange leaves them.
            blk = LocalBlock(part, pid, r[lo - 1 : hi + 1].copy())
            rc = restrict_block(blk, coarse, pid)
            assert np.array_equal(rc.owned(), want[rc.lo : rc.hi])

    @settings(max_examples=60, deadline=None)
    @given(cuts=PARTITION_CUTS, seed=st.integers(0, 1000))
    def test_property_prolong_rows_match_sequential(self, cuts, seed):
        part = random_partition(16, cuts)
        coarse = part.coarsen()
        e = random_field(8, seed)
        want = prolong(e, 16)
        for pid in range(part.nprocs):
            lo, hi = part.range_of(pid)
            clo, chi = coarse.range_of(pid)
            ec = LocalBlock(coarse, pid, e[clo - 1 : chi + 1].copy())
            got = prolong_block(ec, part, pid)
            assert np.array_equal(got, want[lo:hi, 1:-1])


#: (size, p) -> S, H, ledger digest (S, H, h-series, m-series), charged
#: depth, total charged, digest of the per-superstep (max, total) charged
#: series, V-cycle counts — of ``bsp_ocean(size, 2, p)``.  Recorded at
#: the commit before the bottom solve became an operator (60 sweeps on
#: processor 0, per-row restrict/prolong loops): a compute-side change
#: may not move any of them.
OCEAN_GOLDEN = {
    (18, 1): (217, 296, "4ce58d4944ef1a6f", 143872.0, 143872.0,
              "ba5ac73556765782", [4, 4]),
    (18, 2): (217, 1816, "e3e72f32c013b974", 94976.0, 143872.0,
              "e4622d1dd499aca9", [4, 4]),
    (18, 4): (217, 3356, "7b23deb7953e145c", 70528.0, 143872.0,
              "831a8a8ac6d2868f", [4, 4]),
    (34, 1): (379, 370, "f07109c6e4514af9", 558464.0, 558464.0,
              "603afdaf6e402295", [5, 5]),
    (34, 2): (379, 4282, "a3e8e9a6f7fd2329", 308032.0, 558464.0,
              "caec9527759bc510", [5, 5]),
    (34, 4): (379, 8218, "fed555e0a525af84", 182816.0, 558464.0,
              "99873c265a2782e3", [5, 5]),
    (66, 1): (489, 370, "5f3da2aef9fce465", 2082176.0, 2082176.0,
              "7d71677e2c76d0ca", [5, 5]),
    (66, 2): (489, 8118, "d04bfaec19f70fd6", 1069888.0, 2082176.0,
              "7b275a43a0ae69ef", [5, 5]),
    (66, 4): (489, 15890, "5cc47804a83d50bd", 563744.0, 2082176.0,
              "8ecf6bfb3aea9068", [5, 5]),
}


class TestLedgerGolden:
    @pytest.mark.parametrize("size,p", sorted(OCEAN_GOLDEN))
    def test_ledger_charges_and_cycles_unchanged(self, size, p):
        run = bsp_ocean(size, 2, p)
        stats = run.stats
        charged = [[s.charged, s.total_charged] for s in stats.supersteps]
        assert (
            stats.S, stats.H, stats_payload(stats, 0.0)["digest"][:16],
            stats.charged_depth, stats.total_charged,
            hashlib.sha256(json.dumps(charged).encode()).hexdigest()[:16],
            run.state.cycles,
        ) == OCEAN_GOLDEN[size, p]
