"""Barnes–Hut kernels: array octree build, blocked walk, count-only walk.

The octree *is* a set of contiguous arrays (:class:`Cells`): one row per
cell, an 8-wide child index table, and a CSR span over the leaf body
lists.  Both builders fill the same arrays, row for row; every traversal
— the scalar reference walk in ``BHTree``, the blocked vectorized walk
here — reads them, so there is no second representation to keep in step.

The reference walk visits the cells once per body in pure Python — the
dominant W term of the N-body application (the paper's "97% of runtime"
force phase).  The vectorized walk advances *all* bodies of a block
through the multipole-acceptance test together: each round evaluates the
whole (body, frontier-cell) pair set with array ops, accumulates accepted
terms by segmented sums, and expands rejected pairs to their children.
Per-body interaction counts are preserved exactly — each (body, cell)
acceptance decision is the same comparison the scalar walk makes — so the
ORB load weights and the charged work ledger are bit-identical to the
reference; only floating-point summation order (and hence the last few
ulps of the forces) differs.

The kernels are registered as:

* ``bh_build``  — octree construction: ``(pos, mass, leaf_size, center,
  half) -> Cells``.  The reference splits one cell at a time with a
  per-body Python loop; the vectorized builder splits a whole level at
  once (octant key per body, one stable argsort, child spans from a
  ``bincount``).  Same halving, same stopping rules, same row order.
* ``bh_walk``   — tree walk: ``(tree, points, theta, eps, skip) ->
  (acc, interactions)``; ``skip`` is an optional per-point body index to
  exclude (the evaluation body itself), or ``None``.
* ``bh_count``  — the walk's interaction counts alone: ``(tree, points,
  theta, skip) -> interactions``.  Same frontier rounds and comparison as
  ``bh_walk``; leaves are counted from their CSR widths, nothing is
  expanded and no force term is formed.  The ORB load estimate.
* ``bh_direct`` — exact O(N²) accelerations, tiled in the vectorized mode
  so no N×N temporary is ever materialized.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from . import register

#: Bodies advanced through the tree together.  Bounds peak memory: a
#: round's live pair set is O(block × frontier width).
DEFAULT_BLOCK = 2048

#: Row tile for the vectorized direct (O(N²)) kernel: bounds the (tile, n)
#: temporaries so no N×N array is ever materialized.
DIRECT_TILE = 256

#: Octant bit of each axis: x decides 4, y decides 2, z decides 1.
_OCTANT_BITS = np.array([4, 2, 1])


def _fast_inv_r3(r2):
    """``softened_inv_r3`` restated as ``1 / (r2 · √r2)``.

    ``r2 ** -1.5`` routes through libm ``pow`` (~40 ns/element); the
    sqrt-and-divide form vectorizes and differs only in the final
    rounding, within the kernel layer's floating-point tolerance.  The
    zero-distance guard is delegated to the canonical implementation so
    the error and its floor stay defined in exactly one place.
    """
    from ..apps.nbody.bhtree import MIN_SOFTENED_R2, softened_inv_r3

    if r2.size and float(np.min(r2)) < MIN_SOFTENED_R2:
        softened_inv_r3(r2)  # raises the canonical ZeroDivisionError
    return 1.0 / (r2 * np.sqrt(r2))


class Cells(NamedTuple):
    """The octree: one row per cell, root at row 0, rows in level order.

    ``child[row, octant]`` is the child's row or −1; leaf ``row`` holds
    bodies ``leaf_bodies[leaf_ptr[row]:leaf_ptr[row + 1]]`` (ascending
    body index), internal rows have an empty span.
    """

    com: np.ndarray
    mass: np.ndarray
    half: np.ndarray
    child: np.ndarray
    is_leaf: np.ndarray
    leaf_ptr: np.ndarray
    leaf_bodies: np.ndarray


# ---------------------------------------------------------------------------
# bh_build
# ---------------------------------------------------------------------------


def _cells(com, mass, half, child, is_leaf, held, leaf_bodies) -> Cells:
    """Assemble :class:`Cells`; ``held`` is each row's leaf body count."""
    return Cells(
        com=np.asarray(com, dtype=np.float64).reshape(-1, 3),
        mass=np.asarray(mass, dtype=np.float64),
        half=np.asarray(half, dtype=np.float64),
        child=np.asarray(child, dtype=np.int64).reshape(-1, 8),
        is_leaf=np.asarray(is_leaf, dtype=bool),
        leaf_ptr=np.concatenate(([0], np.cumsum(held, dtype=np.int64))),
        leaf_bodies=np.asarray(leaf_bodies, dtype=np.int64),
    )


def _bh_build_reference(pos, mass, leaf_size, center, half):
    """Per-body octant bucketing, one cell at a time — the seed recursion,
    driven by a FIFO so rows come out in level order."""
    com, cmass, halves, child, bodies = [], [], [], [], []
    # (centre, half-width, body indices, com inherited by a degenerate leaf)
    cells = deque([(np.asarray(center, dtype=np.float64), float(half),
                    list(range(len(mass))), None)])
    nrows = 1
    while cells:
        c, h, index, inherited = cells.popleft()
        m = mass[index]
        total = 0.0
        for body_mass in m.tolist():  # in index order, like the moment
            total += body_mass
        cm = inherited
        if cm is None:
            cm = (m[:, None] * pos[index]).sum(axis=0) / total
        kids = [-1] * 8
        if inherited is None and len(index) > leaf_size:
            buckets: list[list[int]] = [[] for _ in range(8)]
            for i in index:
                p = pos[i]
                octant = (
                    (4 if p[0] >= c[0] else 0)
                    | (2 if p[1] >= c[1] else 0)
                    | (1 if p[2] >= c[2] else 0)
                )
                buckets[octant].append(i)
            quarter = h / 2.0
            for octant, bucket in enumerate(buckets):
                if not bucket:
                    continue
                offset = np.array(
                    [
                        quarter if octant & 4 else -quarter,
                        quarter if octant & 2 else -quarter,
                        quarter if octant & 1 else -quarter,
                    ]
                )
                kids[octant] = nrows
                nrows += 1
                # Degenerate: every body in one octant (identical
                # positions) — the child is a leaf at the parent's com.
                stop = cm.copy() if len(bucket) == len(index) else None
                cells.append((c + offset, quarter, bucket, stop))
            index = []  # internal cells don't keep body lists
        com.append(cm)
        cmass.append(total)
        halves.append(h)
        child.append(kids)
        bodies.append(index)
    return _cells(com, cmass, halves, child,
                  [k == [-1] * 8 for k in child],
                  [len(b) for b in bodies],
                  [i for b in bodies for i in b])


def _cell_sums(cell, ncells, m, p):
    """Per-cell total mass and centre of mass of bodies ``(m, p)`` labelled
    ``cell``, accumulated body by body in array order (the reference's)."""
    total = np.bincount(cell, weights=m, minlength=ncells)
    moment = np.stack([
        np.bincount(cell, weights=m * p[:, axis], minlength=ncells)
        for axis in range(3)
    ], axis=1)
    return total, moment / total[:, None]


def _bh_build_vectorized(pos, mass, leaf_size, center, half):
    """Level-by-level build: every cell of a level splits in one pass."""
    n = len(mass)
    # This level's cells (in row order) and their bodies, grouped by cell
    # in ascending body index — the order the reference's buckets keep.
    ctr = np.asarray(center, dtype=np.float64).reshape(1, 3)
    hlf = np.array([half], dtype=np.float64)
    cnt = np.array([n])
    idx = np.arange(n)
    tot, com = _cell_sums(np.zeros(n, dtype=np.int64), 1, mass, pos)
    leaf = cnt <= leaf_size
    levels, leaf_bodies, nrows = [], [], 1
    while True:
        split = np.flatnonzero(~leaf)
        table = np.full((len(cnt), 8), -1)
        levels.append((com, tot, hlf, table, leaf, np.where(leaf, cnt, 0)))
        in_split = np.repeat(~leaf, cnt)
        leaf_bodies.append(idx[~in_split])
        if not len(split):
            break
        # Octant key per body, one stable sort: children become spans.
        idx = idx[in_split]
        parent = np.repeat(np.arange(len(split)), cnt[split])
        key = 8 * parent + (pos[idx] >= ctr[split][parent]) @ _OCTANT_BITS
        idx = idx[np.argsort(key, kind="stable")]
        sizes = np.bincount(key, minlength=8 * len(split))
        key = np.flatnonzero(sizes)  # the non-empty children, in row order
        parent, octant = split[key >> 3], key & 7
        table[parent, octant] = nrows + np.arange(len(key))
        nrows += len(key)
        child_cnt = sizes[key]
        tot, child_com = _cell_sums(
            np.repeat(np.arange(len(key)), child_cnt), len(key),
            mass[idx], pos[idx],
        )
        # Degenerate: every body in one octant — a leaf at the parent's com.
        stop = child_cnt == cnt[parent]
        com = np.where(stop[:, None], com[parent], child_com)
        leaf = stop | (child_cnt <= leaf_size)
        up = (octant[:, None] & _OCTANT_BITS) > 0
        hlf = hlf[parent] / 2.0
        ctr = ctr[parent] + np.where(up, hlf[:, None], -hlf[:, None])
        cnt = child_cnt
    return _cells(*(np.concatenate(col) for col in zip(*levels)),
                  np.concatenate(leaf_bodies))


# ---------------------------------------------------------------------------
# bh_walk / bh_count
# ---------------------------------------------------------------------------


def _bh_walk_reference(tree, points, theta, eps, skip=None):
    """Per-body scalar traversal — the seed implementation, verbatim."""
    from ..apps.nbody.bhtree import pairwise_acceleration

    n = len(points)
    acc = np.zeros((n, 3))
    inter = np.zeros(n, dtype=np.int64)
    for i in range(n):
        s = -1 if skip is None else int(skip[i])
        m, pts, count = tree.force_terms(points[i], theta, skip=s)
        acc[i] = pairwise_acceleration(points[i], m, pts, eps)
        inter[i] = count
    return acc, inter


def _bh_count_reference(tree, points, theta, skip=None):
    """The scalar traversal's interaction counts; terms are dropped."""
    return np.array(
        [tree.force_terms(point, theta,
                          skip=-1 if skip is None else int(skip[i]))[2]
         for i, point in enumerate(points)],
        dtype=np.int64,
    )


def _blocks(points, skip, block):
    """``(lo, hi, points[lo:hi], skip[lo:hi] or None)`` per block."""
    for lo in range(0, len(points), block):
        hi = min(lo + block, len(points))
        skp = None if skip is None else np.asarray(skip[lo:hi], dtype=np.int64)
        yield lo, hi, points[lo:hi], skp


def _bh_walk_vectorized(tree, points, theta, eps, skip=None,
                        block=DEFAULT_BLOCK):
    """Blocked multipole-acceptance walk over the cell arrays."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    acc = np.zeros((n, 3))
    inter = np.zeros(n, dtype=np.int64)
    for lo, hi, pts, skp in _blocks(points, skip, block):
        _walk_block(tree, pts, skp, theta, eps * eps, acc[lo:hi], inter[lo:hi])
    return acc, inter


def _bh_count_vectorized(tree, points, theta, skip=None, block=DEFAULT_BLOCK):
    """Blocked count-only walk: ``bh_walk``'s rounds without the terms."""
    points = np.asarray(points, dtype=np.float64)
    inter = np.zeros(len(points), dtype=np.int64)
    cells = tree.cells
    nbodies = len(tree.mass)
    # Row of the leaf holding each body; slot ``nbodies`` (no leaf) takes
    # every skip index that names no body of this tree.
    leaf_of = np.full(nbodies + 1, -1)
    leaf_of[cells.leaf_bodies] = np.repeat(
        np.arange(len(cells.half)), np.diff(cells.leaf_ptr)
    )
    for lo, hi, pts, skp in _blocks(points, skip, block):
        if skp is not None:
            skp = np.where((skp >= 0) & (skp < nbodies), skp, nbodies)
        for (ab, _), (lb, lnode) in _mac_rounds(cells, pts, theta):
            held = cells.leaf_ptr[lnode + 1] - cells.leaf_ptr[lnode]
            if skp is not None:
                held = held - (leaf_of[skp[lb]] == lnode)
            inter[lo:hi] += np.bincount(ab, minlength=len(pts))
            inter[lo:hi] += np.bincount(
                lb, weights=held, minlength=len(pts)
            ).astype(np.int64)
    return inter


def _mac_rounds(cells, pts, theta):
    """The frontier rounds of one block of points against the tree.

    Each round yields ``(accepted, leaves)`` as ``(point, cell)`` index
    pairs: the internal cells that pass the multipole-acceptance
    comparison — exactly as the scalar walk writes it, ``d > 0 and
    (2·half)/d < θ`` — and the leaves reached.  Rejected cells open into
    their children for the next round; massless cells are dropped.
    """
    pair_b = np.arange(len(pts), dtype=np.int64)
    pair_n = np.zeros(len(pts), dtype=np.int64)
    while len(pair_b):
        alive = cells.mass[pair_n] > 0.0
        pair_b, pair_n = pair_b[alive], pair_n[alive]
        leaf = cells.is_leaf[pair_n]
        ib, inode = pair_b[~leaf], pair_n[~leaf]
        delta = cells.com[inode] - pts[ib]
        d = np.sqrt((delta * delta).sum(axis=1))
        with np.errstate(divide="ignore"):
            ratio = (2.0 * cells.half[inode]) / d
        accept = (d > 0.0) & (ratio < theta)
        yield (ib[accept], inode[accept]), (pair_b[leaf], pair_n[leaf])
        children = cells.child[inode[~accept]]
        valid = children >= 0
        pair_b = np.repeat(ib[~accept], 8)[valid.ravel()]
        pair_n = children[valid]


def _walk_block(tree, pts, skip, theta, eps2, acc_out, inter_out):
    cells = tree.cells
    nb = len(pts)
    for (ab, anode), (lb, lnode) in _mac_rounds(cells, pts, theta):
        term_b = [ab]
        term_m = [cells.mass[anode]]
        term_p = [cells.com[anode]]

        # Leaves: every held body is a term, minus the per-point skip.
        counts = cells.leaf_ptr[lnode + 1] - cells.leaf_ptr[lnode]
        total = int(counts.sum())
        if total:
            starts = np.repeat(cells.leaf_ptr[lnode], counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            body_ids = cells.leaf_bodies[starts + offsets]
            owners = np.repeat(lb, counts)
            if skip is not None:
                keep = body_ids != skip[owners]
                body_ids, owners = body_ids[keep], owners[keep]
            term_b.append(owners)
            term_m.append(tree.mass[body_ids])
            term_p.append(tree.pos[body_ids])

        tb = np.concatenate(term_b)
        if len(tb):
            tm = np.concatenate(term_m)
            tp = np.vstack(term_p)
            inter_out += np.bincount(tb, minlength=nb)
            tdelta = tp - pts[tb]
            r2 = (tdelta * tdelta).sum(axis=1) + eps2
            w = tm * _fast_inv_r3(r2)
            for axis in range(3):
                acc_out[:, axis] += np.bincount(
                    tb, weights=w * tdelta[:, axis], minlength=nb
                )


# ---------------------------------------------------------------------------
# bh_direct
# ---------------------------------------------------------------------------


def _bh_direct_reference(pos, mass, eps):
    """Row-at-a-time exact sum — the seed implementation, verbatim."""
    from ..apps.nbody.bhtree import softened_inv_r3

    n = len(mass)
    acc = np.zeros((n, 3))
    eps2 = eps * eps
    for i in range(n):
        delta = pos - pos[i]
        r2 = (delta * delta).sum(axis=1) + eps2
        r2[i] = np.inf  # self pair: excluded, never a zero-distance error
        inv_r3 = softened_inv_r3(r2)
        inv_r3[i] = 0.0
        acc[i] = (mass * inv_r3) @ delta
    return acc


def _bh_direct_vectorized(pos, mass, eps, tile=DIRECT_TILE):
    """Tiled exact sum in GEMM form.

    Per row tile: ``r2 = |p_i|² + |p_j|² − 2 p_i·p_j + eps²`` via one
    matrix product, then the force sum collapses algebraically —
    ``acc_i = W @ pos − p_i · Σ_j W_ij`` with ``W_ij = m_j / r_ij³`` — so
    the (tile, n, 3) displacement tensor is never materialized and both
    heavy steps run as BLAS calls.  The expansion cancels for genuinely
    coincident pairs, so the zero-distance guard fires exactly as in the
    per-row reference.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    mass = np.ascontiguousarray(mass, dtype=np.float64)
    n = len(mass)
    acc = np.zeros((n, 3))
    eps2 = eps * eps
    sq = (pos * pos).sum(axis=1)
    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        r2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (pos[lo:hi] @ pos.T)
        r2 += eps2
        rows = np.arange(lo, hi)
        r2[rows - lo, rows] = np.inf  # self pair: excluded, never an error
        w = mass[None, :] * _fast_inv_r3(r2)
        acc[lo:hi] = w @ pos - pos[lo:hi] * w.sum(axis=1)[:, None]
    return acc


register("bh_build", "reference", _bh_build_reference)
register("bh_build", "vectorized", _bh_build_vectorized)
register("bh_walk", "reference", _bh_walk_reference)
register("bh_walk", "vectorized", _bh_walk_vectorized)
register("bh_count", "reference", _bh_count_reference)
register("bh_count", "vectorized", _bh_count_vectorized)
register("bh_direct", "reference", _bh_direct_reference)
register("bh_direct", "vectorized", _bh_direct_vectorized)
