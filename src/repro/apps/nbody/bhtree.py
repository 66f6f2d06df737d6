"""Barnes–Hut octree: construction, force evaluation, essential pruning.

The BH tree [Barnes & Hut 1986] hierarchically groups bodies into cubic
cells; a cell of side ``s`` whose centre of mass lies at distance ``d``
from an evaluation point may stand in for all its bodies when
``s / d < θ`` (the opening criterion), giving O(N log N) force evaluation.

The tree has one representation: the contiguous cell arrays the
``bh_build`` kernel fills (:class:`repro.kernels.bh.Cells` — com, mass,
half-width, an 8-wide child table, a CSR span over leaf body lists).  The
scalar traversals below and the blocked kernels in ``repro.kernels.bh``
read the same arrays.

Two consumers:

* :func:`accelerations` — sequential force evaluation over the whole tree
  (the baseline program and the per-processor local phase);
* :meth:`BHTree.essential_records` — the *essential tree* of Section 3.2:
  the pruned view of a local tree that is sufficient for every evaluation
  point inside a foreign processor's bounding box.  Pruning uses the
  minimum distance from the box to the cell's centre of mass, so the
  opening criterion is satisfied for *every* body the receiver holds; the
  receiver can therefore treat the records as plain point masses.  The
  paper notes being "careful in minimizing the amount of data sent" here —
  each record is (mass, com), two 16-byte packets.
"""

from __future__ import annotations

import numpy as np

from ... import kernels
# The zero-distance guard is defined beside the kernels that apply it and
# re-exported here, where the applications have always found it.
from ...kernels.bh import MIN_SOFTENED_R2, softened_inv_r3  # noqa: F401
from .bodies import box_min_distance

#: Default opening angle; the SPLASH/paper-era customary value.
DEFAULT_THETA = 1.0
#: Default Plummer softening (fraction of the system scale).
DEFAULT_EPS = 0.05


class BHTree:
    """Barnes–Hut octree over a fixed set of bodies.

    ``leaf_size`` > 1 buckets nearby bodies into one leaf (bodies in a
    leaf always interact exactly).  The tree is the array set
    ``self.cells`` (:class:`repro.kernels.bh.Cells`, root at row 0) built
    by the ``bh_build`` kernel; ``pos``/``mass`` are the bodies.
    """

    def __init__(self, pos: np.ndarray, mass: np.ndarray, *, leaf_size: int = 8):
        pos = np.ascontiguousarray(pos, dtype=np.float64)
        mass = np.ascontiguousarray(mass, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"pos must be (n, 3), got {pos.shape}")
        if mass.shape != (len(pos),):
            raise ValueError("mass must be (n,)")
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        self.pos = pos
        self.mass = mass
        self.leaf_size = leaf_size
        if len(pos) == 0:
            lo = np.zeros(3)
            hi = np.ones(3)
        else:
            lo, hi = pos.min(axis=0), pos.max(axis=0)
        center = (lo + hi) / 2.0
        half = float(max((hi - lo).max() / 2.0, 1e-12)) * (1 + 1e-9)
        # A massless cell has no centre of mass (0/0); walks skip it.
        with np.errstate(invalid="ignore", divide="ignore"):
            self.cells = kernels.get("bh_build")(
                pos, mass, leaf_size, center, half
            )

    # -- queries -------------------------------------------------------------

    @property
    def nbodies(self) -> int:
        return len(self.mass)

    def cell_count(self) -> int:
        return len(self.cells.half)

    def _prune(self, distance, theta: float, skip: int = -1):
        """Depth-first traversal with the opening criterion.

        A cell whose ``distance(com)`` satisfies ``2·half / d < θ`` is
        emitted whole, any other is opened (children pushed in octant
        order); leaves emit their bodies except ``skip``.  Returns the
        emitted ``(masses, positions)`` as lists, in visit order.
        """
        com, cmass, half, child, is_leaf, leaf_ptr, leaf_bodies = self.cells
        masses: list[float] = []
        points: list[np.ndarray] = []
        stack = [0]
        while stack:
            row = stack.pop()
            if cmass[row] <= 0.0:
                continue
            if is_leaf[row]:
                for i in leaf_bodies[leaf_ptr[row]:leaf_ptr[row + 1]].tolist():
                    if i != skip:
                        masses.append(float(self.mass[i]))
                        points.append(self.pos[i])
                continue
            d = distance(com[row])
            if d > 0.0 and (2.0 * half[row]) / d < theta:
                masses.append(float(cmass[row]))
                points.append(com[row])
            else:
                stack.extend(ch for ch in child[row].tolist() if ch >= 0)
        return masses, points

    def force_terms(
        self, point: np.ndarray, theta: float, *, skip: int = -1
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """(masses, positions, interactions) to accumulate at ``point``.

        Traverses with the opening criterion; ``skip`` excludes one body
        index (the evaluation body itself).  The returned interaction
        count is the paper-era load measure used for ORB weights.
        """
        masses, points = self._prune(
            lambda com: float(np.linalg.norm(com - point)), theta, skip
        )
        if not masses:
            return np.zeros(0), np.zeros((0, 3)), 0
        return np.array(masses), np.vstack(points), len(masses)

    def essential_records(
        self,
        box_lo: np.ndarray,
        box_hi: np.ndarray,
        theta: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The essential tree for a foreign region, flattened to records.

        Returns (masses, positions).  A cell is emitted whole when the
        opening criterion holds at the *minimum* distance from the foreign
        box to the cell's centre of mass — then it holds for every body in
        the box; otherwise the cell is opened.  Leaves emit their bodies.
        """
        masses, points = self._prune(
            lambda com: box_min_distance(box_lo, box_hi, com), theta
        )
        if not masses:
            return np.zeros(0), np.zeros((0, 3))
        return np.array(masses), np.vstack(points)


def pairwise_acceleration(
    point: np.ndarray,
    masses: np.ndarray,
    positions: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Softened gravitational acceleration at ``point`` from point masses.

    An empty force-term list (``positions.shape == (0, 3)``) yields the
    zero vector of shape ``(3,)`` — the single body / empty tree case —
    never a degenerate empty result.
    """
    masses = np.asarray(masses, dtype=np.float64)
    if masses.size == 0:
        return np.zeros(3)
    delta = np.asarray(positions, dtype=np.float64).reshape(-1, 3) - point
    r2 = (delta * delta).sum(axis=1) + eps * eps
    inv_r3 = softened_inv_r3(r2)
    return (masses * inv_r3) @ delta


def accelerations(
    pos: np.ndarray,
    mass: np.ndarray,
    *,
    theta: float = DEFAULT_THETA,
    eps: float = DEFAULT_EPS,
    leaf_size: int = 8,
    tree: BHTree | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Barnes–Hut accelerations for every body.

    Returns ``(acc, interactions)`` where ``interactions[i]`` counts the
    force terms accumulated for body ``i`` (the per-body load measure).
    """
    if tree is None:
        tree = BHTree(pos, mass, leaf_size=leaf_size)
    n = len(mass)
    walk = kernels.get("bh_walk")
    return walk(tree, pos, theta, eps, np.arange(n, dtype=np.int64))


def direct_accelerations(
    pos: np.ndarray, mass: np.ndarray, *, eps: float = DEFAULT_EPS
) -> np.ndarray:
    """Exact O(N²) accelerations — the accuracy oracle for tests."""
    return kernels.get("bh_direct")(pos, mass, eps)
