"""Sequential multigrid Poisson solver (the Ocean app's numerical core).

The SPLASH Ocean code computes eddy currents "using a multigrid technique
on an underlying grid" (Section 3.1).  The paper's problem sizes 66, 130,
258, 514 are ``n + 2`` for ``n = 64 .. 512`` — powers of two — so the
discretization here is **cell-centered**: ``n × n`` unknowns at cell
centres ``((i−½)h, (j−½)h)`` with ``h = 1/n``, held in ``(n+2)²`` arrays
whose outer ring stores ghost cells.  Homogeneous Dirichlet walls are the
reflection condition ``u_ghost = −u_adjacent`` (zero at the cell face),
which keeps every grid level geometrically aligned with the same unit
square — the property that gives multigrid its level-independent
convergence rate (a vertex-centred hierarchy on 2^k interiors would place
coarse walls *outside* the domain and stall the coarse correction).

Components: red-black Gauss–Seidel relaxation, 2×2-average restriction,
piecewise-constant prolongation, V(2,2) cycles, and on the coarsest level
the ``mg_coarse`` kernel (:mod:`repro.kernels.mg`): ``COARSE_SWEEPS``
red-black sweeps, applied as one cached linear operator — the exact code
path the distributed solver (:mod:`repro.apps.ocean.parallel`) runs, per
row block above the bottom and on processor 0 at it, so sequential and
distributed iterates agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ... import kernels

#: Interior size at which coarsening stops and ``mg_coarse`` takes over.
COARSEST = 4
#: Relaxation sweeps on the coarsest grid (effectively an exact solve).
COARSE_SWEEPS = 60
#: Pre-/post-smoothing sweeps per level.
NU1 = 2
NU2 = 2


def interior_size(array: np.ndarray) -> int:
    """n for an (n+2)×(n+2) grid array; validates shape."""
    rows, cols = array.shape
    if rows != cols or rows < 3:
        raise ValueError(f"grid must be square and >= 3x3, got {array.shape}")
    return rows - 2


def check_power_of_two(n: int) -> None:
    if n < COARSEST or n & (n - 1):
        raise ValueError(
            f"interior size must be a power of two >= {COARSEST}, got {n}"
        )


def apply_reflection(u: np.ndarray) -> None:
    """Set all four ghost walls to the Dirichlet reflection −u (in place)."""
    u[0, :] = -u[1, :]
    u[-1, :] = -u[-2, :]
    u[:, 0] = -u[:, 1]
    u[:, -1] = -u[:, -2]


def relax_red_black(u: np.ndarray, f: np.ndarray, h: float,
                    sweeps: int = 1) -> None:
    """In-place red-black Gauss–Seidel sweeps for ``∇²u = f``.

    Ghost walls are re-reflected before each colour pass; the update order
    within a colour is data-independent, so any row decomposition that
    refreshes ghosts between colours reproduces these exact iterates.
    """
    h2f = (h * h) * f
    for _ in range(sweeps):
        for parity in (0, 1):
            apply_reflection(u)
            relax_color_block(u, h2f, parity, 1)


@lru_cache(maxsize=256)
def _color_slices(rows: int, cols: int, parity: int, row_parity: int):
    """Index plan of one colour on a ``rows × cols`` block whose first
    row has global parity ``row_parity``: for the odd and the even local
    rows, ``(rows, cols, up, down, left, right)`` slices."""
    plan = []
    for phase in (0, 1):
        i0 = 1 + phase
        j0 = 1 if (parity - row_parity - phase) % 2 == 1 else 2
        if i0 > rows or j0 > cols:
            continue
        plan.append((
            slice(i0, rows + 1, 2), slice(j0, cols + 1, 2),
            slice(i0 - 1, rows, 2), slice(i0 + 1, rows + 2, 2),
            slice(j0 - 1, cols, 2), slice(j0 + 1, cols + 2, 2),
        ))
    return tuple(plan)


def relax_color_block(u: np.ndarray, h2f: np.ndarray, parity: int,
                      first_global_row: int) -> None:
    """Relax all interior cells of one checkerboard colour, in place.

    Works on any row block: ``u`` and ``h2f`` (the right-hand side times
    ``h²``, which a caller computes once for all its colour passes) hold
    local rows 1..R (0 and R+1 are ghosts) whose *global* row indices
    start at ``first_global_row``.  Colour of global cell (i, j) is
    ``(i+j) % 2``.  The sequential solver and every processor of the
    distributed solver call this same kernel, so their iterates agree
    bit for bit.
    """
    for rs, cs, up, down, left, right in _color_slices(
        u.shape[0] - 2, u.shape[1] - 2, parity, first_global_row % 2
    ):
        u[rs, cs] = 0.25 * (
            u[up, cs] + u[down, cs] + u[rs, left] + u[rs, right]
            - h2f[rs, cs]
        )


def residual(u: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """r = f − ∇²u on the interior (ghost ring zero).

    Reflects the ghost walls of ``u`` first so the operator sees the
    boundary condition.
    """
    apply_reflection(u)
    r = np.zeros_like(u)
    h2 = h * h
    r[1:-1, 1:-1] = f[1:-1, 1:-1] - (
        u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
        - 4.0 * u[1:-1, 1:-1]
    ) / h2
    return r


def restrict(r: np.ndarray) -> np.ndarray:
    """2×2 cell averaging to the next-coarser grid (no ghosts needed)."""
    n = interior_size(r)
    nc = n // 2
    coarse = np.zeros((nc + 2, nc + 2))
    inner = r[1:-1, 1:-1]
    coarse[1:-1, 1:-1] = 0.25 * (
        inner[0::2, 0::2] + inner[0::2, 1::2]
        + inner[1::2, 0::2] + inner[1::2, 1::2]
    )
    return coarse


def prolong(e: np.ndarray, n_fine: int) -> np.ndarray:
    """Piecewise-constant prolongation: each coarse cell fills its 2×2
    fine children (no ghosts needed)."""
    nc = interior_size(e)
    if n_fine != 2 * nc:
        raise ValueError(f"fine size {n_fine} is not twice coarse {nc}")
    fine = np.zeros((n_fine + 2, n_fine + 2))
    inner = np.repeat(np.repeat(e[1:-1, 1:-1], 2, axis=0), 2, axis=1)
    fine[1:-1, 1:-1] = inner
    return fine


def v_cycle(u: np.ndarray, f: np.ndarray, h: float) -> None:
    """One V(NU1, NU2) cycle in place."""
    n = interior_size(u)
    if n <= COARSEST:
        kernels.get("mg_coarse")(u, f, h, COARSE_SWEEPS)
        return
    relax_red_black(u, f, h, sweeps=NU1)
    r = residual(u, f, h)
    rc = restrict(r)
    ec = np.zeros_like(rc)
    v_cycle(ec, rc, 2.0 * h)
    u[1:-1, 1:-1] += prolong(ec, n)[1:-1, 1:-1]
    relax_red_black(u, f, h, sweeps=NU2)


@dataclass(frozen=True)
class SolveInfo:
    """Convergence record of a multigrid solve."""

    cycles: int
    residual_norm: float
    converged: bool


def solve_poisson(
    f: np.ndarray,
    h: float,
    *,
    tol: float = 1e-6,
    max_cycles: int = 50,
    u0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveInfo]:
    """Solve ``∇²u = f`` (Dirichlet u=0) to ``‖r‖₂ ≤ tol·max(‖f‖₂, 1)``.

    ``u0`` warm-starts the iteration — in the ocean time-stepper the
    previous step's field, which cuts the cycle count sharply once the
    flow approaches quasi-steady evolution.
    """
    n = interior_size(f)
    check_power_of_two(n)
    u = np.zeros_like(f) if u0 is None else u0.copy()
    target = tol * max(float(np.linalg.norm(f[1:-1, 1:-1])), 1.0)
    cycles = 0
    rnorm = float(np.linalg.norm(residual(u, f, h)[1:-1, 1:-1]))
    while rnorm > target and cycles < max_cycles:
        v_cycle(u, f, h)
        cycles += 1
        rnorm = float(np.linalg.norm(residual(u, f, h)[1:-1, 1:-1]))
    return u, SolveInfo(cycles=cycles, residual_norm=rnorm,
                        converged=rnorm <= target)
