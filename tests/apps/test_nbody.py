"""Tests for the N-body application (tree, ORB, sequential, BSP)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nbody import (
    BHTree,
    Bodies,
    accelerations,
    box_min_distance,
    bsp_nbody,
    direct_accelerations,
    load_imbalance,
    orb_partition,
    plummer,
    simulate,
    simulate_direct,
    total_energy,
    uniform_cube,
)
from repro.backends.base import Backend


class TestSoftenedInverse:
    """Regression tests for the ``r² ** -1.5`` zero-distance guard."""

    def test_zero_distance_pair_raises_clear_error(self):
        """Two coincident bodies with eps=0 must raise, not emit inf."""
        from repro.apps.nbody.bhtree import pairwise_acceleration

        point = np.zeros(3)
        masses = np.array([1.0])
        positions = np.zeros((1, 3))  # same spot as the point
        with pytest.raises(ZeroDivisionError, match="zero-distance"):
            pairwise_acceleration(point, masses, positions, eps=0.0)

    def test_direct_accelerations_zero_distance_raises(self):
        pos = np.zeros((2, 3))  # coincident pair
        with pytest.raises(ZeroDivisionError, match="zero-distance"):
            direct_accelerations(pos, np.ones(2), eps=0.0)

    def test_softening_rescues_coincident_bodies(self):
        """Any healthy eps keeps the same inputs finite in both kernels."""
        pos = np.zeros((2, 3))
        acc = direct_accelerations(pos, np.ones(2), eps=0.05)
        assert np.all(np.isfinite(acc))
        acc_bh, _ = accelerations(pos, np.ones(2), theta=0.5, eps=0.05)
        assert np.all(np.isfinite(acc_bh))

    def test_no_spurious_warnings_on_healthy_input(self):
        import warnings

        from repro.apps.nbody.bhtree import softened_inv_r3

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = softened_inv_r3(np.array([1e-20, 1.0, 1e20]))
        assert np.all(np.isfinite(out))

    def test_floor_is_documented_epsilon(self):
        from repro.apps.nbody.bhtree import MIN_SOFTENED_R2, softened_inv_r3

        just_above = np.array([MIN_SOFTENED_R2 * 1.01])
        assert np.isfinite(softened_inv_r3(just_above)[0])
        with pytest.raises(ZeroDivisionError):
            softened_inv_r3(np.array([MIN_SOFTENED_R2 * 0.99]))

    def test_empty_input_ok(self):
        from repro.apps.nbody.bhtree import softened_inv_r3

        assert softened_inv_r3(np.zeros(0)).shape == (0,)


class TestPairwiseEdgeCases:
    """Empty force-term lists and degenerate trees return clean zeros."""

    def test_empty_force_terms_return_zero_vector(self):
        from repro.apps.nbody.bhtree import pairwise_acceleration

        acc = pairwise_acceleration(
            np.zeros(3), np.zeros(0), np.zeros((0, 3)), eps=0.05
        )
        assert acc.shape == (3,)
        assert np.array_equal(acc, np.zeros(3))

    def test_single_body_zero_acceleration(self):
        """A lone body has no force terms at any theta."""
        pos = np.array([[0.3, -0.1, 0.7]])
        acc, inter = accelerations(pos, np.ones(1), theta=0.8, eps=0.05)
        assert np.array_equal(acc, np.zeros((1, 3)))
        assert inter.tolist() == [0]

    def test_empty_tree_no_points(self):
        tree = BHTree(np.zeros((0, 3)), np.zeros(0))
        masses, points, count = tree.force_terms(np.zeros(3), theta=0.8)
        assert len(masses) == 0 and len(points) == 0 and count == 0
        for mode in ("reference", "vectorized"):
            from repro import kernels

            acc, inter = kernels.get("bh_walk", mode)(
                tree, np.array([[1.0, 2.0, 3.0]]), 0.8, 0.05, None
            )
            assert np.array_equal(acc, np.zeros((1, 3)))
            assert inter.tolist() == [0]

    def test_empty_points_against_real_tree(self):
        from repro import kernels

        b = plummer(50, seed=40)
        tree = BHTree(b.pos, b.mass)
        for mode in ("reference", "vectorized"):
            acc, inter = kernels.get("bh_walk", mode)(
                tree, np.zeros((0, 3)), 0.8, 0.05,
                np.zeros(0, dtype=np.int64),
            )
            assert acc.shape == (0, 3)
            assert inter.shape == (0,)


class TestBodies:
    def test_create_validates(self):
        with pytest.raises(ValueError):
            Bodies.create(np.zeros((3, 2)), np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError):
            Bodies.create(np.zeros((3, 3)), np.zeros((2, 3)), np.ones(3))
        with pytest.raises(ValueError):
            Bodies.create(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2))

    def test_subset_concat_roundtrip(self):
        b = uniform_cube(10, seed=1)
        parts = [b.subset(np.arange(0, 5)), b.subset(np.arange(5, 10))]
        merged = Bodies.concatenate(parts).ordered_by_ident()
        assert np.allclose(merged.pos, b.pos)
        assert np.array_equal(merged.ident, b.ident)

    def test_box_min_distance(self):
        lo, hi = np.zeros(3), np.ones(3)
        assert box_min_distance(lo, hi, np.array([0.5, 0.5, 0.5])) == 0.0
        assert box_min_distance(lo, hi, np.array([2.0, 0.5, 0.5])) == 1.0
        assert box_min_distance(lo, hi, np.array([2.0, 2.0, 0.5])) == (
            pytest.approx(np.sqrt(2))
        )


class TestPlummer:
    def test_standard_units(self):
        b = plummer(2000, seed=1)
        assert b.mass.sum() == pytest.approx(1.0)
        # Centre of mass at rest at the origin.
        assert np.allclose((b.mass[:, None] * b.pos).sum(axis=0), 0, atol=1e-12)
        assert np.allclose((b.mass[:, None] * b.vel).sum(axis=0), 0, atol=1e-12)

    def test_virial_energy_near_quarter(self):
        """Standard units: total energy ≈ −1/4 (sampling noise allowed)."""
        b = plummer(3000, seed=2)
        e = total_energy(b, eps=0.0)
        assert -0.35 < e < -0.15

    def test_deterministic(self):
        a, b = plummer(100, seed=7), plummer(100, seed=7)
        assert np.array_equal(a.pos, b.pos)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            plummer(0)


class TestBHTree:
    def test_mass_conservation(self):
        b = plummer(300, seed=3)
        tree = BHTree(b.pos, b.mass)
        assert tree.cells.mass[0] == pytest.approx(b.mass.sum())
        assert np.allclose(
            tree.cells.com[0],
            (b.mass[:, None] * b.pos).sum(axis=0) / b.mass.sum(),
        )

    def test_theta_zero_is_direct_sum(self):
        b = plummer(120, seed=4)
        acc_bh, inter = accelerations(b.pos, b.mass, theta=0.0, eps=0.05)
        acc_direct = direct_accelerations(b.pos, b.mass, eps=0.05)
        assert np.allclose(acc_bh, acc_direct, rtol=1e-9, atol=1e-12)
        # theta=0 never uses a cell summary: interactions = n-1 each.
        assert np.all(inter == len(b) - 1)

    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.0])
    def test_accuracy_improves_with_smaller_theta(self, theta):
        b = plummer(250, seed=5)
        acc_bh, _ = accelerations(b.pos, b.mass, theta=theta, eps=0.05)
        acc_d = direct_accelerations(b.pos, b.mass, eps=0.05)
        scale = np.abs(acc_d).max()
        err = np.abs(acc_bh - acc_d).max() / scale
        assert err < 0.08 * theta

    def test_fewer_interactions_with_larger_theta(self):
        b = plummer(400, seed=6)
        _, i_small = accelerations(b.pos, b.mass, theta=0.3)
        _, i_large = accelerations(b.pos, b.mass, theta=1.2)
        assert i_large.sum() < i_small.sum()

    def test_identical_positions_handled(self):
        pos = np.zeros((5, 3))
        tree = BHTree(pos, np.ones(5))
        assert tree.cells.mass[0] == pytest.approx(5.0)
        # Forced to split, all five land in one octant: one leaf child.
        tree = BHTree(pos, np.ones(5), leaf_size=2)
        assert tree.cells.mass.tolist() == [5.0, 5.0]
        assert tree.cells.is_leaf.tolist() == [False, True]
        assert tree.cells.leaf_bodies.tolist() == [0, 1, 2, 3, 4]

    def test_leaf_size_bucketing(self):
        b = plummer(200, seed=8)
        t1 = BHTree(b.pos, b.mass, leaf_size=1)
        t16 = BHTree(b.pos, b.mass, leaf_size=16)
        assert t16.cell_count() < t1.cell_count()

    def test_validation(self):
        with pytest.raises(ValueError):
            BHTree(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            BHTree(np.zeros((2, 3)), np.ones(2), leaf_size=0)


class TestEssentialRecords:
    def test_far_box_gets_single_record(self):
        b = uniform_cube(200, seed=9)
        tree = BHTree(b.pos, b.mass)
        far_lo = np.array([100.0, 100.0, 100.0])
        far_hi = far_lo + 1.0
        masses, points = tree.essential_records(far_lo, far_hi, theta=1.0)
        assert len(masses) == 1
        assert masses[0] == pytest.approx(b.mass.sum())

    def test_near_box_gets_more_records(self):
        b = uniform_cube(300, seed=10)
        tree = BHTree(b.pos, b.mass)
        near = tree.essential_records(
            np.array([1.0, 0.0, 0.0]), np.array([2.0, 1.0, 1.0]), theta=0.7
        )
        far = tree.essential_records(
            np.array([50.0, 0.0, 0.0]), np.array([51.0, 1.0, 1.0]), theta=0.7
        )
        assert len(near[0]) > len(far[0])

    def test_mass_always_conserved(self):
        b = plummer(250, seed=11)
        tree = BHTree(b.pos, b.mass)
        masses, _ = tree.essential_records(
            np.array([0.5, 0.5, 0.5]), np.array([1.5, 1.5, 1.5]), theta=0.8
        )
        assert masses.sum() == pytest.approx(b.mass.sum())

    def test_pruning_is_sound_for_all_box_points(self):
        """Forces from the pruned records match the full tree for any
        point inside the requested box, within the theta error budget."""
        rng = np.random.default_rng(12)
        b = uniform_cube(400, seed=12)
        tree = BHTree(b.pos, b.mass)
        lo = np.array([2.0, 2.0, 2.0])
        hi = np.array([3.0, 3.0, 3.0])
        masses, points = tree.essential_records(lo, hi, theta=0.5)
        from repro.apps.nbody import pairwise_acceleration

        for _ in range(10):
            pt = lo + rng.random(3) * (hi - lo)
            approx = pairwise_acceleration(pt, masses, points, 0.05)
            exact = pairwise_acceleration(pt, b.mass, b.pos, 0.05)
            assert np.linalg.norm(approx - exact) <= (
                0.05 * np.linalg.norm(exact) + 1e-12
            )


    def test_record_order_is_pinned(self):
        """Records leave in depth-first order, highest octant first — the
        order the far tree is built from.  Body counts per record (mass
        x n) as emitted by the linked-cell octree this tree replaced."""
        b = plummer(256, seed=7)
        tree = BHTree(b.pos, b.mass, leaf_size=4)
        masses, points = tree.essential_records(
            np.array([1.5, 1.0, 0.5]), np.array([2.5, 2.0, 1.5]), theta=0.9
        )
        assert np.rint(masses * 256).astype(int).tolist() == [
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8, 1, 1, 1, 1, 1, 1,
            1, 1, 1, 1, 10, 1, 18, 1, 1, 1, 20, 1, 1, 35, 1, 1, 5, 10, 5, 12,
            1, 21, 1, 70, 1, 1, 1, 1, 1, 1, 1,
        ]
        assert np.allclose(points[[0, 5, -1]], [
            [9.653507775, 3.991197997, 2.027204817],
            [2.300986061, -0.710916209, 0.359209676],
            [-0.668248945, -0.308420132, -2.362782496],
        ], rtol=0, atol=1e-9)


class TestOrb:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    def test_balanced_counts_uniform_weights(self, p):
        b = uniform_cube(400, seed=13)
        owner = orb_partition(b.pos, None, p)
        counts = np.bincount(owner, minlength=p)
        assert counts.min() > 0
        assert counts.max() - counts.min() <= max(2, 0.1 * counts.mean())

    def test_weighted_balance(self):
        b = uniform_cube(300, seed=14)
        weights = np.ones(300)
        weights[:50] = 20.0  # heavy corner
        owner = orb_partition(b.pos, weights, 4)
        loads = np.array(
            [weights[owner == q].sum() for q in range(4)]
        )
        assert load_imbalance(loads) < 0.5

    def test_spatial_coherence(self):
        """ORB regions are boxes: each part's bbox overlaps others little."""
        b = uniform_cube(500, seed=15)
        owner = orb_partition(b.pos, None, 2)
        a = b.pos[owner == 0]
        c = b.pos[owner == 1]
        # Split along one axis: the two parts separate on some axis.
        separated = any(
            a[:, ax].max() <= c[:, ax].min() + 1e-12
            or c[:, ax].max() <= a[:, ax].min() + 1e-12
            for ax in range(3)
        )
        assert separated

    def test_validation(self):
        b = uniform_cube(10, seed=16)
        with pytest.raises(ValueError):
            orb_partition(b.pos, None, 0)
        with pytest.raises(ValueError):
            orb_partition(b.pos, np.ones(5), 2)
        with pytest.raises(ValueError):
            orb_partition(b.pos, -np.ones(10), 2)

    def test_load_imbalance_metric(self):
        assert load_imbalance(np.array([1.0, 1.0])) == 0.0
        assert load_imbalance(np.array([3.0, 1.0])) == pytest.approx(0.5)


class TestSequentialSimulation:
    def test_energy_roughly_conserved(self):
        b = plummer(200, seed=17)
        e0 = total_energy(b)
        res = simulate(b, steps=5, theta=0.6, dt=0.01)
        e1 = total_energy(res.bodies)
        assert abs(e1 - e0) < 0.05 * abs(e0)

    def test_matches_direct_at_theta_zero(self):
        b = plummer(80, seed=18)
        bh = simulate(b, steps=3, theta=0.0, dt=0.01)
        direct = simulate_direct(b, steps=3, dt=0.01)
        assert np.allclose(bh.bodies.pos, direct.bodies.pos, atol=1e-10)

    def test_zero_steps_identity(self):
        b = plummer(50, seed=19)
        res = simulate(b, steps=0)
        assert np.array_equal(res.bodies.pos, b.pos)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            simulate(plummer(10), steps=-1)


class TestBspNBody:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_exact_match_at_theta_zero(self, p):
        """theta=0 disables approximation: parallel == direct sum."""
        b = plummer(60, seed=20)
        run = bsp_nbody(b, p, steps=2, theta=0.0, dt=0.01)
        direct = simulate_direct(b, steps=2, dt=0.01)
        assert np.array_equal(run.bodies.ident, direct.bodies.ident)
        assert np.allclose(run.bodies.pos, direct.bodies.pos, atol=1e-9)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_close_to_sequential_bh(self, p):
        """With theta>0 trees differ across layouts, but trajectories stay
        within the approximation budget."""
        b = plummer(150, seed=21)
        run = bsp_nbody(b, p, steps=1, theta=0.5, dt=0.01)
        seq = simulate(b, steps=1, theta=0.5, dt=0.01)
        scale = np.abs(seq.bodies.pos).max()
        assert np.allclose(run.bodies.pos, seq.bodies.pos,
                           atol=2e-3 * scale)

    def test_mass_and_count_preserved(self):
        b = plummer(120, seed=22)
        run = bsp_nbody(b, 4, steps=3, theta=0.8, dt=0.01,
                        rebalance_threshold=0.01)
        assert len(run.bodies) == 120
        assert run.bodies.mass.sum() == pytest.approx(b.mass.sum())
        assert np.array_equal(np.sort(run.bodies.ident), np.arange(120))

    def test_six_supersteps_per_iteration(self):
        """Figure C.4: S = 6 per time step."""
        b = plummer(80, seed=23)
        for steps in (1, 2, 3):
            run = bsp_nbody(b, 4, steps=steps, theta=0.8, dt=0.01)
            assert run.stats.S == 6 * steps + 1  # + final segment

    def test_rebalance_keeps_correctness(self):
        b = plummer(100, seed=24)
        eager = bsp_nbody(b, 4, steps=3, theta=0.0, dt=0.01,
                          rebalance_threshold=0.0)
        direct = simulate_direct(b, steps=3, dt=0.01)
        assert np.allclose(eager.bodies.pos, direct.bodies.pos, atol=1e-9)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_concurrent_backends(self, backend):
        b = plummer(60, seed=25)
        run = bsp_nbody(b, 2, steps=1, theta=0.0, dt=0.01, backend=backend)
        direct = simulate_direct(b, steps=1, dt=0.01)
        assert np.allclose(run.bodies.pos, direct.bodies.pos, atol=1e-9)

    def test_essential_traffic_less_than_naive(self):
        """H must be far below the all-bodies exchange (the paper's
        bandwidth-minimization claim)."""
        b = plummer(256, seed=26)
        p = 4
        run = bsp_nbody(b, p, steps=1, theta=0.9, dt=0.01)
        naive_h = 2 * 256 * (p - 1)  # every body to every peer
        essential_h = max(s.h for s in run.stats.supersteps)
        assert essential_h < naive_h

    @settings(max_examples=5, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=80),
        p=st.integers(min_value=1, max_value=4),
        seed=st.integers(0, 100),
    )
    def test_property_theta_zero_matches_direct(self, n, p, seed):
        b = plummer(n, seed=seed)
        run = bsp_nbody(b, p, steps=1, theta=0.0, dt=0.01)
        direct = simulate_direct(b, steps=1, dt=0.01)
        assert np.allclose(run.bodies.pos, direct.bodies.pos, atol=1e-9)


class _RunCounter(Backend):
    """Delegates to ``inner`` (``health()`` too), counting its runs."""

    def __init__(self, inner):
        self.inner, self.name, self.runs = inner, inner.name, 0

    def run(self, program, nprocs, args=(), kwargs=None, *, sync="strict"):
        self.runs += 1
        return self.inner.run(program, nprocs, args=args, kwargs=kwargs,
                              sync=sync)

    def health(self):
        return self.inner.health()


class TestLoadEstimate:
    """The driver's ORB pre-pass counts interactions; it forms no forces."""

    @pytest.mark.parametrize("mode", ["vectorized", "reference"])
    @pytest.mark.parametrize("seed,h_total", [(0, 2915), (3, 2635)])
    def test_benchmark_shaped_ledger_is_pinned(self, mode, seed, h_total):
        from repro import kernels

        with kernels.using(mode):
            run = bsp_nbody(plummer(4096, seed=seed), 2, steps=1,
                            warmup_steps=1)
        assert (run.stats.S, run.stats.H) == (7, h_total)

    @pytest.mark.parametrize("mode", ["vectorized", "reference"])
    def test_count_weights_give_the_walk_weights_owner(self, mode):
        from repro import kernels

        b = plummer(700, seed=21)
        tree = BHTree(b.pos, b.mass)
        skip = np.arange(len(b), dtype=np.int64)
        counted = kernels.get("bh_count", mode)(tree, b.pos, 1.0, skip)
        _, walked = kernels.get("bh_walk", mode)(tree, b.pos, 1.0, 0.05, skip)
        assert np.array_equal(counted, walked)
        for p in (2, 3, 4):
            assert np.array_equal(
                orb_partition(b.pos, np.maximum(counted, 1.0), p),
                orb_partition(b.pos, np.maximum(walked, 1.0), p),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 300),
        p=st.integers(1, 6),
        leaf=st.sampled_from([1, 8, 16]),
        theta=st.sampled_from([0.0, 0.5, 1.0, 1.2]),
        mode=st.sampled_from(["vectorized", "reference"]),
        seed=st.integers(0, 1000),
    )
    def test_property_rank_slices_concatenate_to_whole_counts(
        self, n, p, leaf, theta, mode, seed
    ):
        """Each rank counts ``[pid·n/p, (pid+1)·n/p)``; the slices, some
        empty when n < p, are the whole set's counts — so the ORB owner."""
        from repro import kernels
        from repro.apps.nbody.parallel import interaction_counts

        rng = np.random.default_rng(seed)
        pos, mass = rng.normal(size=(n, 3)), rng.random(n) + 0.1
        with kernels.using(mode):
            whole = kernels.get("bh_count")(
                BHTree(pos, mass, leaf_size=leaf), pos, theta,
                np.arange(n, dtype=np.int64),
            )
            slices = [
                interaction_counts(pos, mass, theta, leaf,
                                   q * n // p, (q + 1) * n // p)
                for q in range(p)
            ]
        got = np.concatenate(slices)
        assert got.dtype == np.int64
        assert np.array_equal(got, whole)

    @pytest.mark.parametrize("mode", ["vectorized", "reference"])
    def test_warm_pool_counts_on_its_ranks(self, mode, monkeypatch):
        """A pooled backend runs the estimate as a second BSP run; the
        parent builds no tree, and the ledger is the simulator's."""
        from repro import kernels
        from repro.apps.nbody import parallel
        from repro.backends.processes import ProcessBackend

        built = []
        tree_cls = parallel.BHTree
        # The override is process-local: fork the pool inside it.
        with kernels.using(mode), ProcessBackend.pool(2) as pool:
            monkeypatch.setattr(
                parallel, "BHTree",
                lambda *a, **k: built.append(1) or tree_cls(*a, **k),
            )
            backend = _RunCounter(pool)
            run = bsp_nbody(plummer(4096, seed=3), 2, steps=1,
                            warmup_steps=1, backend=backend)
        assert (run.stats.S, run.stats.H) == (7, 2635)
        assert backend.runs == 2
        assert built == []

    @pytest.mark.parametrize("backend", ["simulator", "threads", "processes"])
    def test_other_backends_count_in_process(self, backend):
        from repro.backends.base import get_backend

        b = plummer(300, seed=23)
        counted = _RunCounter(get_backend(backend))
        run = bsp_nbody(b, 2, steps=1, backend=counted)
        assert counted.runs == 1
        ref = bsp_nbody(b, 2, steps=1)
        assert np.array_equal(run.bodies.pos, ref.bodies.pos)
        assert (run.stats.S, run.stats.H) == (ref.stats.S, ref.stats.H)

    @pytest.mark.parametrize("name,runs", [("simulator", 2),
                                           ("tcp-spmd", 2)])
    def test_warm_spmd_rank_counts_in_process(self, name, runs):
        """A backend reporting health takes the count run, whatever its
        name: an SPMD rank's mesh takes back-to-back runs like a pool."""
        from repro.backends.simulator import SimulatorBackend

        warm = _RunCounter(SimulatorBackend())
        warm.name, warm.health = name, lambda: "warm"
        bsp_nbody(plummer(100, seed=24), 2, steps=1, backend=warm)
        assert warm.runs == runs

    def test_one_processor_skips_the_estimate(self, monkeypatch):
        """p=1 owns everything whatever the weights: no whole-system tree."""
        from repro.apps.nbody import parallel

        b = plummer(60, seed=22)
        uniform = bsp_nbody(b, 1, steps=1, balance=False)
        built = []
        tree_cls = parallel.BHTree
        monkeypatch.setattr(
            parallel, "BHTree",
            lambda *a, **k: built.append(1) or tree_cls(*a, **k),
        )
        run = bsp_nbody(b, 1, steps=1)
        assert len(built) == 1  # the rank's own tree only
        assert np.array_equal(run.bodies.pos, uniform.bodies.pos)
        assert (run.stats.S, run.stats.H, run.stats.total_charged) == (
            uniform.stats.S, uniform.stats.H, uniform.stats.total_charged
        )


class TestWarmup:
    def test_warmup_trims_statistics(self):
        b = plummer(100, seed=30)
        plain = bsp_nbody(b, 4, steps=2, theta=0.8, dt=0.01)
        warmed = bsp_nbody(b, 4, steps=2, theta=0.8, dt=0.01,
                           warmup_steps=1)
        # Accounted supersteps cover only the measured steps.
        assert plain.stats.S == 2 * 6 + 1
        assert warmed.stats.S == 2 * 6 + 1
        # ... but the warmed run has evolved one step further.
        assert not np.allclose(plain.bodies.pos, warmed.bodies.pos)

    def test_warmup_improves_balance(self):
        b = plummer(512, seed=31)
        cold = bsp_nbody(b, 4, steps=1, theta=0.9, dt=0.01, balance=False,
                         rebalance_threshold=1e9)
        warm = bsp_nbody(b, 4, steps=1, theta=0.9, dt=0.01, balance=False,
                         rebalance_threshold=1e9, warmup_steps=1)
        def balance(stats):
            return stats.total_charged / (stats.charged_depth * 4)
        assert balance(warm.stats) >= balance(cold.stats) - 0.02

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            bsp_nbody(plummer(10), 2, steps=1, warmup_steps=-1)
