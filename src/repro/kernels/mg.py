"""Multigrid kernel: the bottom solve of the ocean/plasma V-cycle.

``mg_coarse(u, f, h, sweeps)`` relaxes the coarsest ``(n+2)²`` grid in
place.  Ghost walls are re-reflected before every colour pass, so
``sweeps`` red-black sweeps are one fixed affine map of the interior,

    u' = A·u + B·(h²f),        A, B ∈ R^{n²×n²},

whatever ``u``, ``f`` and ``h`` are.  The ``reference`` kernel runs the
sweeps (``relax_red_black``, 2·``sweeps`` colour passes whose cost on a
4×4 interior is NumPy call overhead, not arithmetic); the ``vectorized``
kernel applies ``(A, B)``, built once per process per ``(n, sweeps)``.

The operator is *defined by* the reference kernel: unit vectors pushed
through one sweep give the one-sweep pair ``(S, T)``, and ``sweeps``
steps of ``A ← S·A, B ← S·B + T`` compose it — there is no second
statement of the stencil or the reflection to keep in step.  Results
differ from the sweeps in the last bits (tested ≤ 1e-13 relative); only
the interior is defined on return — both callers re-reflect before they
read a ghost.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import register


def _mg_coarse_reference(u, f, h, sweeps):
    """``sweeps`` red-black Gauss–Seidel sweeps, in place."""
    from ..apps.ocean.multigrid import relax_red_black

    relax_red_black(u, f, h, sweeps=sweeps)


@lru_cache(maxsize=8)
def _operator(n: int, sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """``(A, B)`` of ``sweeps`` reference sweeps on an n×n interior."""
    cells = n * n
    # One reference sweep at h = 1 (h² f = f) of each unit vector: as u
    # it gives a column of S, as f a column of T.
    one = np.zeros((2, cells, cells))
    for k in range(cells):
        for which in (0, 1):
            grids = np.zeros((2, n + 2, n + 2))
            grids[which, 1 + k // n, 1 + k % n] = 1.0
            _mg_coarse_reference(grids[0], grids[1], 1.0, 1)
            one[which, :, k] = grids[0, 1:-1, 1:-1].ravel()
    S, T = one
    A, B = np.eye(cells), np.zeros((cells, cells))
    for _ in range(sweeps):
        A, B = S @ A, S @ B + T
    A.setflags(write=False)
    B.setflags(write=False)
    return A, B


def _mg_coarse_vectorized(u, f, h, sweeps):
    """The same map as two mat-vecs against the cached operator."""
    n = u.shape[0] - 2
    A, B = _operator(n, sweeps)
    u[1:-1, 1:-1] = (
        A @ u[1:-1, 1:-1].ravel() + B @ ((h * h) * f[1:-1, 1:-1]).ravel()
    ).reshape(n, n)


register("mg_coarse", "reference", _mg_coarse_reference)
register("mg_coarse", "vectorized", _mg_coarse_vectorized)
