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
* ``bh_essential`` — the essential records a tree sends a foreign box:
  ``(tree, box_lo, box_hi, theta) -> (masses, positions)``.  The
  reference is the scalar depth-first walk; the vectorized mode judges a
  whole tree level per round and keeps the frontier in that walk's stack
  order, so the records match in value *and* order (the order fixes the
  receiver's far tree, hence its counts).
* ``bh_direct`` — exact O(N²) accelerations, tiled in the vectorized mode
  so no N×N temporary is ever materialized.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import register

#: Bodies advanced through the tree together: few enough that a round's
#: pair arrays (O(block × frontier width)) stay cache-resident — DESIGN.md.
DEFAULT_BLOCK = 256

#: Row tile for the vectorized direct (O(N²)) kernel: bounds the (tile, n)
#: temporaries so no N×N array is ever materialized.
DIRECT_TILE = 256

#: Octant bit of each axis: x decides 4, y decides 2, z decides 1.
_OCTANT_BITS = np.array([4, 2, 1])


#: Softened-distance floor: ``r² + eps²`` below this means two bodies sit
#: at (numerically) the same point with no softening, and ``r²^{-1.5}``
#: would overflow into ``inf``/``nan`` accelerations that silently corrupt
#: every downstream integration step.  The floor is far below any physical
#: separation (``1e-30`` ≈ (1e-15)², the square of double-precision noise
#: on unit-scale coordinates) so it never triggers on healthy inputs.
MIN_SOFTENED_R2 = 1e-30


def softened_inv_r3(r2: np.ndarray) -> np.ndarray:
    """``r2 ** -1.5`` with the zero-distance guard.

    Raises :class:`ZeroDivisionError` when any softened squared distance
    falls below :data:`MIN_SOFTENED_R2` — a zero-distance pair evaluated
    with ``eps = 0`` — instead of propagating ``inf``/``nan`` into the
    accelerations.  Evaluated under ``np.errstate`` so legitimate large
    values never emit spurious warnings.
    """
    r2 = np.asarray(r2)
    if r2.size and float(np.min(r2)) < MIN_SOFTENED_R2:
        raise ZeroDivisionError(
            "zero-distance body pair with eps=0: softened r^2 "
            f"{float(np.min(r2)):.3g} is below the {MIN_SOFTENED_R2:.0e} "
            "floor; separate the coincident bodies or use a positive "
            "softening eps"
        )
    with np.errstate(divide="ignore", over="ignore"):
        return r2 ** -1.5


def _fast_inv_r3(r2):
    """``softened_inv_r3`` restated as ``1 / (r2 · √r2)``.

    ``r2 ** -1.5`` routes through libm ``pow`` (~40 ns/element); the
    sqrt-and-divide form vectorizes and differs only in the final
    rounding, within the kernel layer's floating-point tolerance.  The
    zero-distance guard raises through the canonical implementation.
    """
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


def _tree_view(tree) -> SimpleNamespace:
    """One call's structure-of-arrays view of a tree: ``com`` as contiguous
    columns, ``size = 2·half``, and the bodies' index, position columns and
    mass in ``leaf_bodies`` order, so a leaf's span of ``leaf_ptr`` reads
    them with one gather.  ``child`` is :func:`_met`'s table plus an extra
    last row that opens onto the root."""
    c = tree.cells
    root, child = _met(c)
    child = np.vstack([child, [root] + 7 * [-1]])
    return SimpleNamespace(
        com=tuple(np.ascontiguousarray(c.com.T)), mass=c.mass, child=child,
        size=2.0 * c.half, leaf_ptr=c.leaf_ptr, held=np.diff(c.leaf_ptr),
        body=c.leaf_bodies, body_mass=tree.mass[c.leaf_bodies],
        body_pos=tuple(np.ascontiguousarray(tree.pos[c.leaf_bodies].T)),
    )


def _met(cells):
    """What a walk meets on opening each cell, per octant: an internal
    child as its row, a leaf child as ``−2 − row``, −1 for none or
    massless — and, coded the same way, what it meets at the root."""
    rows = np.arange(len(cells.half))
    met = np.where(cells.mass > 0.0,
                   np.where(cells.is_leaf, -2 - rows, rows), -1)
    return met[0], np.append(met, -1)[cells.child]


def _blocks(points, skip, block):
    """Per block: ``(lo, hi, contiguous x/y/z columns, skip or None)``."""
    columns = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    for lo in range(0, len(points), block):
        hi = min(lo + block, len(points))
        skp = None if skip is None else np.asarray(skip[lo:hi], dtype=np.int64)
        yield lo, hi, columns[:, lo:hi], skp


def _bh_walk_vectorized(tree, points, theta, eps, skip=None,
                        block=DEFAULT_BLOCK):
    """Blocked multipole-acceptance walk over the cell arrays."""
    acc = np.zeros((3, len(points)))
    inter = np.zeros(len(points), dtype=np.int64)
    view, eps2 = _tree_view(tree), eps * eps
    for lo, hi, pts, skp in _blocks(points, skip, block):
        acc_b, inter_b = acc[:, lo:hi], inter[lo:hi]
        for ib, inode, accept, disp, lb, lnode in _mac_rounds(view, pts, theta):
            # Accepted cells: the MAC test's own displacement is the term's.
            if len(accept):
                dx, dy, dz, d2 = (col[accept] for col in disp)
                w = view.mass[inode[accept]] * _fast_inv_r3(d2 + eps2)
                _accumulate(ib[accept], w, (dx, dy, dz), acc_b, inter_b)
            # Leaves: every held body is a term, the skipped one at weight 0.
            if len(lb):
                held = view.held[lnode]
                owner = np.repeat(lb, held)
                first = view.leaf_ptr[lnode] - (np.cumsum(held) - held)
                slot = np.repeat(first, held) + np.arange(len(owner))
                dx, dy, dz = (col[slot] - p[owner]
                              for col, p in zip(view.body_pos, pts))
                r2 = (dx * dx + dy * dy) + dz * dz + eps2
                if skp is not None:
                    # Set aside before the zero-distance guard (at eps = 0
                    # the skipped pair's r² is 0); 1/inf³ is its weight 0.
                    own = np.flatnonzero(view.body[slot] == skp[owner])
                    r2[own] = np.inf
                    inter_b[owner[own]] -= 1
                w = view.body_mass[slot] * _fast_inv_r3(r2)
                _accumulate(owner, w, (dx, dy, dz), acc_b, inter_b)
    return np.ascontiguousarray(acc.T), inter


def _accumulate(owner, w, delta, acc_out, inter_out):
    """Add each point's terms ``w · delta`` and their number to its sums.
    ``owner`` ascends (``_mac_rounds`` keeps pairs in point order), so a
    point's terms are one run and ``reduceat`` is the segmented sum."""
    first = np.concatenate(([0], np.flatnonzero(owner[1:] != owner[:-1]) + 1))
    at = owner[first]
    inter_out[at] += np.diff(first, append=len(owner))
    for axis in range(3):
        acc_out[axis, at] += np.add.reduceat(w * delta[axis], first)


def _bh_count_vectorized(tree, points, theta, skip=None, block=DEFAULT_BLOCK):
    """Blocked count-only walk: ``bh_walk``'s rounds without the terms."""
    inter = np.zeros(len(points), dtype=np.int64)
    view = _tree_view(tree)
    nbodies = len(tree.mass)
    # Row of the leaf holding each body; slot ``nbodies`` (no leaf) takes
    # every skip index that names no body of this tree.
    leaf_of = np.full(nbodies + 1, -1)
    leaf_of[view.body] = np.repeat(np.arange(len(view.held)), view.held)
    for lo, hi, pts, skp in _blocks(points, skip, block):
        if skp is not None:
            skp = np.where((skp >= 0) & (skp < nbodies), skp, nbodies)
        for ib, _, accept, _, lb, lnode in _mac_rounds(view, pts, theta):
            held = view.held[lnode]
            if skp is not None:
                held = held - (leaf_of[skp[lb]] == lnode)
            inter[lo:hi] += np.bincount(ib[accept], minlength=hi - lo)
            inter[lo:hi] += np.bincount(
                lb, weights=held, minlength=hi - lo
            ).astype(np.int64)
    return inter


def _mac_rounds(view, pts, theta):
    """The frontier rounds of one block of points against the tree.

    Each round opens cells and yields ``(ib, inode, accept, (dx, dy, dz,
    d²), lb, lnode)``: the ``(point, cell)`` pairs of the internal children
    met, the positions of those that pass the multipole-acceptance
    comparison — as the scalar walk writes it, ``d > 0 and (2·half)/d < θ``
    — the displacement it measured, and the pairs of the leaf children.
    The rejected open next.  Pairs stay in ascending point order;
    selections are ``flatnonzero`` + take (a boolean-mask read costs 5x).
    """
    (cx, cy, cz), (px, py, pz) = view.com, pts
    point = np.arange(len(px), dtype=np.int64)
    opened = np.full(len(px), len(view.child) - 1)  # the row onto the root
    while len(point):
        met = view.child[opened].ravel()
        inner, outer = np.flatnonzero(met >= 0), np.flatnonzero(met < -1)
        ib, inode = point[inner >> 3], met[inner]
        dx, dy, dz = cx[inode] - px[ib], cy[inode] - py[ib], cz[inode] - pz[ib]
        d2 = (dx * dx + dy * dy) + dz * dz  # sum(axis=1)'s order, bit for bit
        d = np.sqrt(d2)
        with np.errstate(divide="ignore"):
            accept = (d > 0.0) & (view.size[inode] / d < theta)
        yield (ib, inode, np.flatnonzero(accept), (dx, dy, dz, d2),
               point[outer >> 3], -2 - met[outer])
        reject = np.flatnonzero(~accept)
        point, opened = ib[reject], inode[reject]


# ---------------------------------------------------------------------------
# bh_essential
# ---------------------------------------------------------------------------


def _bh_essential_reference(tree, box_lo, box_hi, theta):
    """The scalar depth-first walk with the box distance — the seed."""
    from ..apps.nbody.bodies import box_min_distance

    masses, points = tree._prune(
        lambda com: box_min_distance(box_lo, box_hi, com), theta
    )
    if not masses:
        return np.zeros(0), np.zeros((0, 3))
    return np.array(masses), np.vstack(points)


def _bh_essential_vectorized(tree, box_lo, box_hi, theta):
    """Level-synchronous frontier kept in the scalar walk's stack order.

    ``order`` lists the cells met so far in the order the depth-first walk
    (children pushed in octant order, so octant 7 pops first) would emit
    them: an internal cell still to be judged as its row, an emitted cell
    or leaf as ``−2 − row``.  Each round judges every pending cell at once
    — the box distance element-wise as ``box_min_distance`` sums it,
    ``(gx·gx + gy·gy) + gz·gz``, then the walk's ``d > 0 and (2·half)/d <
    θ`` — and splices each opened cell's massive children, highest octant
    first, in its place.  Leaves then expand to their bodies in CSR order.
    """
    c = tree.cells
    root, child = _met(c)
    child = child[:, ::-1]  # highest octant first: the stack's pop order
    lo = np.asarray(box_lo, dtype=np.float64)
    hi = np.asarray(box_hi, dtype=np.float64)
    size = 2.0 * c.half
    order = np.array([root] if root != -1 else [], dtype=np.int64)
    while True:
        pend = np.flatnonzero(order >= 0)
        if not len(pend):
            break
        cell = order[pend]
        com = c.com[cell]
        gx, gy, gz = (np.maximum(np.maximum(lo[k] - com[:, k],
                                            com[:, k] - hi[k]), 0.0)
                      for k in range(3))
        d = np.sqrt((gx * gx + gy * gy) + gz * gz)
        with np.errstate(divide="ignore"):
            accept = (d > 0.0) & (size[cell] / d < theta)
        order[pend[accept]] = -2 - cell[accept]
        opened = np.flatnonzero(~accept)
        pend, kids = pend[opened], child[cell[opened]]
        keep = kids != -1
        width = keep.sum(axis=1)
        take = np.ones(len(order), dtype=np.int64)
        take[pend] = width
        start = np.cumsum(take) - take
        first = np.cumsum(width) - width
        spliced = np.repeat(order, take)
        spliced[np.arange(int(width.sum()))
                + np.repeat(start[pend] - first, width)] = kids[keep]
        order = spliced
    row = -2 - order
    held = np.where(c.is_leaf[row], np.diff(c.leaf_ptr)[row], 1)
    total = int(held.sum())
    if not total:
        return np.zeros(0), np.zeros((0, 3))
    owner = np.repeat(row, held)
    leaf = np.flatnonzero(c.is_leaf[owner])
    masses, points = c.mass[owner], c.com[owner]
    first = np.cumsum(held) - held
    span = np.repeat(c.leaf_ptr[row] - first, held)[leaf] + leaf
    body = c.leaf_bodies[span]
    masses[leaf] = tree.mass[body]
    points[leaf] = tree.pos[body]
    return masses, points


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
register("bh_essential", "reference", _bh_essential_reference)
register("bh_essential", "vectorized", _bh_essential_vectorized)
register("bh_direct", "reference", _bh_direct_reference)
register("bh_direct", "vectorized", _bh_direct_vectorized)
