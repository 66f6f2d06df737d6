"""Equivalence suite: vectorized kernels against their pure-Python oracles.

The contract (DESIGN.md "Kernels"): a vectorized kernel may change *how*
a local phase computes, never *what* it computes or charges.  Integer
results — interaction counts, labels, candidate dictionaries, heap-push
multisets, cut offsets — must be identical; floating-point forces may
differ only in summation order (tested to 1e-10 against the direct
oracle).  Every application is additionally run end-to-end under both
modes and must produce identical answers *and* identical (W, H, S)
accounting.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.apps.mst.parallel import bsp_mst
from repro.apps.nbody import BHTree, plummer, uniform_cube
from repro.apps.ocean import bsp_ocean, v_cycle
from repro.apps.ocean.multigrid import residual
from repro.apps.sort.samplesort import bsp_sample_sort
from repro.apps.sssp.parallel import bsp_msp, bsp_sssp
from repro.graphs.distributed import LocalGraph
from repro.graphs.generators import random_connected_graph
from repro.graphs.unionfind import UnionFind

MODES = ("reference", "vectorized")


def ledger(stats):
    return (stats.S, stats.H, stats.total_charged, stats.charged_depth)


# ---------------------------------------------------------------------------
# Registry behaviour
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_kernels_have_both_modes(self):
        assert "mg_coarse" in kernels.names()
        for name in kernels.names():
            for mode in MODES:
                assert callable(kernels.get(name, mode))

    def test_unknown_name_raises(self):
        with pytest.raises(kernels.KernelError):
            kernels.get("no_such_kernel")

    def test_unknown_mode_raises(self):
        with pytest.raises(kernels.KernelError):
            kernels.get("bh_walk", "turbo")

    def test_using_overrides_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "reference")
        assert kernels.current_mode() == "reference"
        with kernels.using("vectorized"):
            assert kernels.current_mode() == "vectorized"
        assert kernels.current_mode() == "reference"

    def test_env_typo_degrades_to_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "vectorised-typo")
        assert kernels.current_mode() == kernels.DEFAULT_MODE

    def test_using_rejects_unknown_mode(self):
        with pytest.raises(kernels.KernelError):
            with kernels.using("turbo"):
                pass


# ---------------------------------------------------------------------------
# Barnes–Hut: build, walk, count and direct kernels vs the oracles
# ---------------------------------------------------------------------------

BODY_SHAPES = ("plummer", "uniform", "two_cluster", "collinear", "coincident")


def body_set(shape, n, seed):
    """``(pos, mass)`` in one of the shapes that stress octree splitting."""
    rng = np.random.default_rng(seed)
    mass = rng.random(n) + 0.1
    if n == 0:
        return np.zeros((0, 3)), mass
    if shape == "plummer":
        return plummer(n, seed=seed).pos, mass
    if shape == "uniform":
        return uniform_cube(n, seed=seed).pos, mass
    if shape == "two_cluster":
        pos = 0.05 * rng.normal(size=(n, 3))
        pos[n // 2:] += 10.0
        return pos, mass
    if shape == "collinear":
        return np.outer(rng.random(n), [1.0, 0.0, 0.0]), mass
    return np.full((n, 3), 0.25), mass


class TestBhBuildEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(BODY_SHAPES),
        n=st.sampled_from([0, 1, 2, 9, 300]),
        leaf=st.sampled_from([1, 8, 16]),
        seed=st.integers(0, 1000),
    )
    def test_property_builders_fill_identical_arrays(self, shape, n, leaf,
                                                     seed):
        pos, mass = body_set(shape, n, seed)
        with kernels.using("reference"):
            ref = BHTree(pos, mass, leaf_size=leaf).cells
        with kernels.using("vectorized"):
            vec = BHTree(pos, mass, leaf_size=leaf).cells
        for name in ("child", "half", "is_leaf", "leaf_ptr", "leaf_bodies"):
            got, want = getattr(vec, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert np.allclose(vec.mass, ref.mass, rtol=0, atol=1e-15)
        # The empty tree's root has no centre of mass (0/0) in either.
        assert np.allclose(vec.com, ref.com, rtol=0, atol=1e-15,
                           equal_nan=True)
        # Every body sits in exactly one leaf, each leaf in body order.
        assert sorted(vec.leaf_bodies.tolist()) == list(range(n))
        for row in np.flatnonzero(vec.is_leaf):
            held = vec.leaf_bodies[vec.leaf_ptr[row]:vec.leaf_ptr[row + 1]]
            assert np.all(np.diff(held) > 0)

    def test_far_apart_scales_keep_summaries_tight(self):
        """com/mass within 1e-15 *relative* where coordinates are large."""
        pos, mass = body_set("two_cluster", 300, 5)
        with kernels.using("reference"):
            ref = BHTree(pos * 1e6, mass).cells
        vec = BHTree(pos * 1e6, mass).cells
        assert np.array_equal(vec.child, ref.child)
        assert np.allclose(vec.com, ref.com, rtol=1e-15, atol=0)


class TestBhCountEquivalence:
    """``bh_count`` is ``bh_walk``'s second return value, in both modes."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(BODY_SHAPES),
        n=st.sampled_from([1, 2, 9, 150]),
        leaf=st.sampled_from([1, 8, 16]),
        theta=st.sampled_from([0.0, 0.5, 1.0, 1.2]),
        own=st.booleans(),
        seed=st.integers(0, 1000),
    )
    def test_property_count_equals_walk_counts(self, shape, n, leaf, theta,
                                               own, seed):
        pos, mass = body_set(shape, n, seed)
        tree = BHTree(pos, mass, leaf_size=leaf)
        if own:  # the local phase: each body against its own tree
            points, skip = pos, np.arange(n, dtype=np.int64)
        else:    # the far-tree phase: points outside the tree's cube
            points, skip = uniform_cube(40, seed=seed).pos + 25.0, None
        _, walked = kernels.get("bh_walk", "reference")(
            tree, points, theta, 0.05, skip
        )
        for mode in MODES:
            counted = kernels.get("bh_count", mode)(tree, points, theta, skip)
            assert counted.dtype == np.int64
            assert np.array_equal(counted, walked), mode

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1.2])
    def test_massless_cell_is_skipped_alike(self, theta):
        """A cluster of zero-mass bodies is a cell the walk never enters."""
        pos, mass = body_set("two_cluster", 120, 9)
        mass[60:] = 0.0
        tree = BHTree(pos, mass, leaf_size=4)
        assert np.any((tree.cells.mass == 0.0) & ~tree.cells.is_leaf)
        skip = np.arange(120, dtype=np.int64)
        for mode in MODES:
            _, walked = kernels.get("bh_walk", mode)(
                tree, pos, theta, 0.05, skip
            )
            counted = kernels.get("bh_count", mode)(tree, pos, theta, skip)
            assert np.array_equal(counted, walked)
        if theta == 0.0:  # every massive body but oneself, no massless one
            assert counted[:60].tolist() == [59] * 60
            assert counted[60:].tolist() == [60] * 60

    def test_skip_naming_no_body_excludes_nothing(self):
        b = plummer(50, seed=12)
        tree = BHTree(b.pos, b.mass, leaf_size=4)
        skip = np.array([-1, 50, 10**6] + [0] * 47, dtype=np.int64)
        for mode in MODES:
            _, walked = kernels.get("bh_walk", mode)(
                tree, b.pos, 0.0, 0.05, skip
            )
            counted = kernels.get("bh_count", mode)(tree, b.pos, 0.0, skip)
            assert np.array_equal(counted, walked)
        assert counted[:4].tolist() == [50, 50, 50, 49]

    def test_blocks_cover_every_point(self):
        b = plummer(130, seed=13)
        tree = BHTree(b.pos, b.mass)
        skip = np.arange(130, dtype=np.int64)
        from repro.kernels.bh import _bh_count_vectorized

        whole = _bh_count_vectorized(tree, b.pos, 0.8, skip)
        assert np.array_equal(
            _bh_count_vectorized(tree, b.pos, 0.8, skip, block=32), whole
        )



class TestBhEquivalence:
    @pytest.mark.parametrize("theta", [0.3, 0.8, 1.2])
    def test_walk_matches_reference(self, theta):
        b = plummer(400, seed=1)
        tree = BHTree(b.pos, b.mass)
        skip = np.arange(len(b), dtype=np.int64)
        acc_v, int_v = kernels.get("bh_walk", "vectorized")(
            tree, b.pos, theta, 0.05, skip
        )
        acc_r, int_r = kernels.get("bh_walk", "reference")(
            tree, b.pos, theta, 0.05, skip
        )
        assert np.array_equal(int_v, int_r)  # counts exactly equal
        assert np.allclose(acc_v, acc_r, rtol=0, atol=1e-10)

    def test_walk_without_skip_matches(self):
        """Foreign-tree traversal: no self-exclusion."""
        b = plummer(200, seed=2)
        pts = uniform_cube(64, seed=3).pos + 4.0
        tree = BHTree(b.pos, b.mass)
        acc_v, int_v = kernels.get("bh_walk", "vectorized")(
            tree, pts, 0.7, 0.05, None
        )
        acc_r, int_r = kernels.get("bh_walk", "reference")(
            tree, pts, 0.7, 0.05, None
        )
        assert np.array_equal(int_v, int_r)
        assert np.allclose(acc_v, acc_r, rtol=0, atol=1e-10)

    def test_walk_forces_match_direct_oracle(self):
        """theta=0 opens every cell: the walk must equal the O(N²) sum."""
        b = plummer(150, seed=4)
        tree = BHTree(b.pos, b.mass)
        for mode in MODES:
            acc, inter = kernels.get("bh_walk", mode)(
                tree, b.pos, 0.0, 0.05,
                np.arange(len(b), dtype=np.int64),
            )
            direct = kernels.get("bh_direct", mode)(b.pos, b.mass, 0.05)
            assert np.allclose(acc, direct, rtol=0, atol=1e-10)
            assert np.all(inter == len(b) - 1)

    def test_direct_matches_reference(self):
        b = plummer(300, seed=5)
        acc_v = kernels.get("bh_direct", "vectorized")(b.pos, b.mass, 0.05)
        acc_r = kernels.get("bh_direct", "reference")(b.pos, b.mass, 0.05)
        assert np.allclose(acc_v, acc_r, rtol=0, atol=1e-10)

    def test_deep_tree_small_leaves(self):
        """leaf_size=1 maximizes tree depth and leaf expansion traffic."""
        b = plummer(120, seed=6)
        tree = BHTree(b.pos, b.mass, leaf_size=1)
        skip = np.arange(len(b), dtype=np.int64)
        acc_v, int_v = kernels.get("bh_walk", "vectorized")(
            tree, b.pos, 0.6, 0.05, skip
        )
        acc_r, int_r = kernels.get("bh_walk", "reference")(
            tree, b.pos, 0.6, 0.05, skip
        )
        assert np.array_equal(int_v, int_r)
        assert np.allclose(acc_v, acc_r, rtol=0, atol=1e-10)

    def test_coincident_bodies_degenerate_cells(self):
        """Identical positions stop splitting; the walk must not loop."""
        pos = np.vstack([np.zeros((4, 3)), np.ones((3, 3))])
        mass = np.ones(7)
        tree = BHTree(pos, mass)
        skip = np.arange(7, dtype=np.int64)
        acc_v, int_v = kernels.get("bh_walk", "vectorized")(
            tree, pos, 0.8, 0.1, skip
        )
        acc_r, int_r = kernels.get("bh_walk", "reference")(
            tree, pos, 0.8, 0.1, skip
        )
        assert np.array_equal(int_v, int_r)
        assert np.allclose(acc_v, acc_r, rtol=0, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=120),
        theta=st.floats(min_value=0.0, max_value=1.5),
        leaf=st.integers(min_value=1, max_value=16),
        seed=st.integers(0, 1000),
        far=st.booleans(),
    )
    def test_property_walk_equivalence(self, n, theta, leaf, seed, far):
        b = plummer(n, seed=seed)
        tree = BHTree(b.pos, b.mass, leaf_size=leaf)
        skip = np.arange(n, dtype=np.int64)
        if far:  # the far-tree phase: a tree of a neighbour's records
            theirs = plummer(n, seed=seed + 1)
            rec_m, rec_p = BHTree(
                theirs.pos + 3.0, theirs.mass, leaf_size=leaf
            ).essential_records(*b.aabb(), theta)
            tree, skip = BHTree(rec_p, rec_m, leaf_size=leaf), None
        acc_v, int_v = kernels.get("bh_walk", "vectorized")(
            tree, b.pos, theta, 0.05, skip
        )
        acc_r, int_r = kernels.get("bh_walk", "reference")(
            tree, b.pos, theta, 0.05, skip
        )
        assert np.array_equal(int_v, int_r)
        assert np.allclose(acc_v, acc_r, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("block", [1, 32, 130])
    def test_blocks_cover_every_point(self, block):
        """The block size moves no count and no force beyond roundoff."""
        from repro.kernels.bh import _bh_walk_vectorized

        b = plummer(130, seed=13)
        tree = BHTree(b.pos, b.mass)
        skip = np.arange(130, dtype=np.int64)
        acc, inter = _bh_walk_vectorized(tree, b.pos, 0.8, 0.05, skip)
        acc_b, inter_b = _bh_walk_vectorized(tree, b.pos, 0.8, 0.05, skip,
                                             block=block)
        assert np.array_equal(inter_b, inter)
        assert np.allclose(acc_b, acc, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("massless", [slice(None), slice(60, None)])
    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_massless_tree_and_subtree(self, massless, theta):
        """Massless cells — the root included — contribute nothing."""
        pos, mass = body_set("two_cluster", 120, 9)
        mass[massless] = 0.0
        tree = BHTree(pos, mass, leaf_size=4)
        skip = np.arange(120, dtype=np.int64)
        acc_r, int_r = kernels.get("bh_walk", "reference")(
            tree, pos, theta, 0.05, skip
        )
        acc_v, int_v = kernels.get("bh_walk", "vectorized")(
            tree, pos, theta, 0.05, skip
        )
        assert np.array_equal(int_v, int_r)
        assert np.allclose(acc_v, acc_r, rtol=0, atol=1e-10)
        if massless == slice(None):
            assert not int_v.any() and not acc_v.any()

    def test_self_pair_is_masked_before_the_guard(self):
        """eps = 0: the skipped body sits at r² = 0 and is no error, in
        either mode."""
        b = plummer(90, seed=21)
        tree = BHTree(b.pos, b.mass, leaf_size=4)
        skip = np.arange(90, dtype=np.int64)
        acc_v, int_v = kernels.get("bh_walk", "vectorized")(
            tree, b.pos, 0.7, 0.0, skip
        )
        acc_r, int_r = kernels.get("bh_walk", "reference")(
            tree, b.pos, 0.7, 0.0, skip
        )
        assert np.array_equal(int_v, int_r)
        assert np.all(np.isfinite(acc_v)) and np.all(np.isfinite(acc_r))
        assert np.allclose(acc_v, acc_r, rtol=1e-12, atol=1e-10)

    @pytest.mark.parametrize("mode", MODES)
    def test_coincident_pair_at_zero_eps_still_raises(self, mode):
        """Masking the self pair must not mask a genuine zero distance."""
        pos = np.vstack([plummer(40, seed=22).pos, np.zeros((2, 3)) + 0.5])
        tree = BHTree(pos, np.ones(42), leaf_size=4)
        skip = np.arange(42, dtype=np.int64)
        with pytest.raises(ZeroDivisionError, match="zero-distance body pair"):
            kernels.get("bh_walk", mode)(tree, pos, 0.7, 0.0, skip)


# ---------------------------------------------------------------------------
# Graph kernels: MST pieces vs the oracles
# ---------------------------------------------------------------------------


def _union_some(n, pairs):
    uf = UnionFind(n)
    for a, b in pairs:
        uf.union(a, b)
    return uf


class TestMstKernels:
    def test_labels_match(self):
        rng = np.random.default_rng(7)
        n = 200
        uf = _union_some(
            n, rng.integers(0, n, size=(80, 2)).tolist()
        )
        home = np.unique(rng.integers(0, n, size=120))
        ref = kernels.get("mst_labels", "reference")(uf, home, n)
        vec = kernels.get("mst_labels", "vectorized")(uf, home, n)
        assert np.array_equal(ref, vec)

    def test_labels_empty_home(self):
        uf = UnionFind(10)
        home = np.zeros(0, dtype=np.int64)
        ref = kernels.get("mst_labels", "reference")(uf, home, 10)
        vec = kernels.get("mst_labels", "vectorized")(uf, home, 10)
        assert np.array_equal(ref, vec)

    @staticmethod
    def _edge_fixture(seed, n=60, m=300):
        """Key-sorted edge arrays + endpoint component labels, as the
        Borůvka round hands them to the kernels (ties included)."""
        rng = np.random.default_rng(seed)
        eu = rng.integers(0, n, size=m)
        ev = (eu + 1 + rng.integers(0, n - 1, size=m)) % n
        # Quantized weights force plenty of equal-weight ties.
        ew = np.round(rng.random(m) * 4) / 4
        lo, hi = np.minimum(eu, ev), np.maximum(eu, ev)
        order = np.lexsort((hi, lo, ew))
        ew, lo, hi = ew[order], lo[order], hi[order]
        labels = rng.integers(0, n // 4, size=n)
        la, lb = labels[lo], labels[hi]
        crossing = la != lb
        active = np.flatnonzero(crossing)
        return active, ew, lo, hi, la[crossing], lb[crossing], n

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_component_minima_match(self, seed):
        args = self._edge_fixture(seed)
        ref = kernels.get("mst_component_minima", "reference")(*args)
        vec = kernels.get("mst_component_minima", "vectorized")(*args)
        assert ref == vec

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pair_minima_match(self, seed):
        args = self._edge_fixture(seed)
        ref = kernels.get("mst_pair_minima", "reference")(*args)
        vec = kernels.get("mst_pair_minima", "vectorized")(*args)
        assert ref == vec

    def test_component_minima_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        ew = np.zeros(0)
        ref = kernels.get("mst_component_minima", "reference")(
            empty, ew, empty, empty, empty, empty, 10
        )
        vec = kernels.get("mst_component_minima", "vectorized")(
            empty, ew, empty, empty, empty, empty, 10
        )
        assert ref == vec == {}
        assert kernels.get("mst_pair_minima", "vectorized")(
            empty, ew, empty, empty, empty, empty, 10
        ) == []


# ---------------------------------------------------------------------------
# Graph kernels: SSSP pieces vs the oracles
# ---------------------------------------------------------------------------


def _local_graph(seed, n=80, p=4, pid=1):
    g = random_connected_graph(n, 3 * n, seed=seed)
    owner = np.random.default_rng(seed).integers(0, p, size=n)
    return LocalGraph.build(g, owner, pid, p)


class TestSsspKernels:
    def test_border_adjacency_same_content(self):
        lg = _local_graph(11)
        ref = kernels.get("sssp_border_adjacency", "reference")(lg)
        csr = kernels.get("sssp_border_adjacency", "vectorized")(lg)
        for u, edges in ref.items():
            lo, hi = csr.ptr[u], csr.ptr[u + 1]
            assert csr.degree[u] == len(edges)
            assert csr.home[lo:hi].tolist() == [v for v, _ in edges]
            assert csr.weight[lo:hi].tolist() == [w for _, w in edges]
        # Nodes absent from the dict have zero CSR degree.
        absent = set(range(lg.n_global)) - set(ref)
        assert all(csr.degree[u] == 0 for u in absent)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_apply_updates_identical_state(self, seed):
        """Same dist matrix, same changed set, same heap-push multiset."""
        lg = _local_graph(seed)
        rng = np.random.default_rng(seed + 100)
        nsrc = 3
        border = sorted(
            kernels.get("sssp_border_adjacency", "reference")(lg)
        )
        if not border:
            pytest.skip("partition produced no border nodes")
        # One batch per peer; each (k, u) used at most once, as the
        # sender discipline guarantees.
        records = [
            (k, u, float(rng.random() * 3))
            for k in range(nsrc)
            for u in rng.choice(
                border, size=min(5, len(border)), replace=False
            ).tolist()
        ]
        rng.shuffle(records)
        cut = len(records) // 2
        batches = [records[:cut], records[cut:]]

        states = {}
        for mode in MODES:
            adj = kernels.get("sssp_border_adjacency", mode)(lg)
            dist = np.full((nsrc, lg.n_global), np.inf)
            # Pre-existing labels make some updates non-improving.
            pre = np.random.default_rng(seed).random((nsrc, lg.n_global))
            dist[pre < 0.2] = 1.0
            queues = [[] for _ in range(nsrc)]
            changed = set()
            scans = kernels.get("sssp_apply_updates", mode)(
                adj, dist, queues, changed, [list(b) for b in batches]
            )
            states[mode] = (
                scans, dist.copy(), changed,
                [sorted(q) for q in queues],  # heap multisets
            )
        r, v = states["reference"], states["vectorized"]
        assert r[0] == v[0]                      # border_scans charge
        assert np.array_equal(r[1], v[1])        # dist (inf == inf ok)
        assert r[2] == v[2]                      # changed set
        assert r[3] == v[3]                      # push multisets

    @pytest.mark.parametrize("work_factor", [None, 1, 7])
    def test_relax_identical_state(self, work_factor):
        lg = _local_graph(21)
        nsrc = 2
        states = {}
        for mode in MODES:
            dist = np.full((nsrc, lg.n_global), np.inf)
            queues = [[] for _ in range(nsrc)]
            changed = set()
            for k in range(nsrc):
                for u in lg.home[: 3].tolist():
                    dist[k, u] = 0.5 * k
                    heapq.heappush(queues[k], (0.5 * k, u))
            scanned = kernels.get("sssp_relax", mode)(
                lg, dist, queues, changed, work_factor
            )
            states[mode] = (
                scanned, dist.copy(), changed, [sorted(q) for q in queues]
            )
        r, v = states["reference"], states["vectorized"]
        assert r[0] == v[0]
        assert np.array_equal(r[1], v[1])
        assert r[2] == v[2]
        assert r[3] == v[3]


# ---------------------------------------------------------------------------
# Samplesort partition kernel
# ---------------------------------------------------------------------------


class TestSortKernel:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=200),
        p=st.integers(min_value=1, max_value=8),
        seed=st.integers(0, 1000),
    )
    def test_property_cuts_match(self, n, p, seed):
        rng = np.random.default_rng(seed)
        block = np.sort(rng.integers(0, 20, size=n).astype(np.float64))
        splitters = np.sort(rng.integers(0, 20, size=p - 1)).astype(
            np.float64
        )
        ref = kernels.get("sort_partition", "reference")(block, splitters)
        vec = kernels.get("sort_partition", "vectorized")(block, splitters)
        assert np.array_equal(ref, vec)

    def test_duplicates_at_splitter(self):
        block = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
        splitters = np.array([2.0])
        ref = kernels.get("sort_partition", "reference")(block, splitters)
        vec = kernels.get("sort_partition", "vectorized")(block, splitters)
        assert np.array_equal(ref, vec)
        assert vec.tolist() == [0, 4, 5]  # bisect_right semantics


# ---------------------------------------------------------------------------
# Multigrid: the bottom solve as an operator vs the sweeps it stands for
# ---------------------------------------------------------------------------


class TestMgCoarseEquivalence:
    """The one pair whose modes differ in rounding: ``sweeps`` red-black
    sweeps vs the cached affine map, to 1e-13 of the data's scale."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 4]),
        sweeps=st.sampled_from([1, 7, 60]),
        h=st.floats(0.01, 1.0),
        zero_u=st.booleans(),
        seed=st.integers(0, 1000),
    )
    def test_property_operator_matches_sweeps(self, n, sweeps, h, zero_u,
                                              seed):
        # Ghost rings are random too: neither kernel may read them.
        u, f = np.random.default_rng(seed).standard_normal((2, n + 2, n + 2))
        if zero_u:
            u[:] = 0.0
        ref, vec = u.copy(), u.copy()
        kernels.get("mg_coarse", "reference")(ref, f, h, sweeps)
        kernels.get("mg_coarse", "vectorized")(vec, f, h, sweeps)
        # Relative to the data's scale: on n=1 an even number of sweeps
        # of u = 0 is exactly 0 in both.
        inner = (slice(1, -1),) * 2
        scale = max(np.abs(ref[inner]).max(), np.abs(u[inner]).max(),
                    h * h * np.abs(f[inner]).max())
        assert np.abs(vec[inner] - ref[inner]).max() <= 1e-13 * scale

    def test_operator_is_built_once_and_read_only(self):
        from repro.kernels.mg import _operator

        A, B = _operator(4, 60)
        assert _operator(4, 60)[0] is A
        assert not A.flags.writeable and not B.flags.writeable


# ---------------------------------------------------------------------------
# End-to-end: every application, both modes, identical answers + ledgers
# ---------------------------------------------------------------------------


class TestEndToEndModes:
    def _both(self, fn):
        out = {}
        for mode in MODES:
            with kernels.using(mode):
                out[mode] = fn()
        return out["reference"], out["vectorized"]

    def test_nbody_identical_interaction_counts(self):
        """Same tree → same MAC decisions → identical counts, and forces
        agree to 1e-10 (only summation order may differ)."""
        b = plummer(300, seed=31)
        tree = BHTree(b.pos, b.mass)
        skip = np.arange(len(b), dtype=np.int64)

        def run():
            acc, inter = kernels.get("bh_walk")(
                tree, b.pos, 0.8, 0.05, skip
            )
            return acc, inter

        (acc_r, int_r), (acc_v, int_v) = self._both(run)
        assert np.array_equal(int_r, int_v)
        assert np.allclose(acc_r, acc_v, rtol=0, atol=1e-10)

    def test_ocean_identical_ledger_and_fields(self):
        """Same ledger digest in both modes; fields and the V-cycle
        residual history agree to 1e-12 (the bottom solve rounds
        differently, nothing else does)."""
        def run():
            r = bsp_ocean(34, 2, 3)
            return (r.state, ledger(r.stats), r.stats.h_series,
                    r.stats.m_series)

        (st_r, *ledger_r), (st_v, *ledger_v) = self._both(run)
        assert ledger_r == ledger_v
        assert st_r.cycles == st_v.cycles
        assert np.abs(st_v.psi - st_r.psi).max() <= 1e-12
        assert np.abs(st_v.zeta - st_r.zeta).max() <= 1e-12

        def history():
            f = np.zeros((34, 34))
            f[1:-1, 1:-1] = np.random.default_rng(36).standard_normal(
                (32, 32))
            u, norms = np.zeros_like(f), []
            for _ in range(8):
                v_cycle(u, f, 1.0 / 32)
                norms.append(np.linalg.norm(residual(u, f, 1.0 / 32)))
            return np.array(norms)

        norms_r, norms_v = self._both(history)
        assert norms_r[-1] < 1e-6 * norms_r[0]
        assert np.allclose(norms_v, norms_r, rtol=1e-12, atol=1e-12)

    def test_mst_identical_edges_and_ledger(self):
        g = random_connected_graph(250, 1000, seed=32)
        owner = np.random.default_rng(32).integers(0, 4, size=250)

        def run():
            r = bsp_mst(g, owner, 4)
            return sorted(r.edges), r.weight, r.ncomponents, ledger(r.stats)

        ref, vec = self._both(run)
        assert ref == vec

    def test_sssp_identical_distances_and_ledger(self):
        g = random_connected_graph(200, 800, seed=33)
        owner = np.random.default_rng(33).integers(0, 4, size=200)

        def run():
            r = bsp_sssp(g, owner, 4, source=0, work_factor=40)
            return r.dist.tolist(), ledger(r.stats)

        ref, vec = self._both(run)
        assert ref == vec

    def test_msp_identical_distances_and_ledger(self):
        g = random_connected_graph(150, 600, seed=34)
        owner = np.random.default_rng(34).integers(0, 3, size=150)

        def run():
            r = bsp_msp(g, owner, 3, sources=[0, 7, 13])
            return r.dist.tolist(), ledger(r.stats)

        ref, vec = self._both(run)
        assert ref == vec

    def test_sort_identical_output_and_ledger(self):
        data = np.random.default_rng(35).random(2000)

        def run():
            r = bsp_sample_sort(data, 4)
            return r.data.tolist(), r.bucket_sizes, ledger(r.stats)

        ref, vec = self._both(run)
        assert ref == vec
        assert ref[0] == sorted(data.tolist())

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_property_sssp_modes_agree(self, seed):
        g = random_connected_graph(60, 200, seed=seed)
        owner = np.random.default_rng(seed).integers(0, 2, size=60)

        def run():
            r = bsp_sssp(g, owner, 2, source=0, work_factor=10)
            return r.dist.tolist(), ledger(r.stats)

        ref, vec = self._both(run)
        assert ref == vec
