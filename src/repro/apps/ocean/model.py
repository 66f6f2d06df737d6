"""Sequential ocean-eddy model (the Ocean application's physics driver).

A simplified barotropic vorticity model of the wind-driven double gyre —
the phenomenon SPLASH Ocean simulates [Singh 1991]: on the unit square
with stream function ψ and vorticity ζ,

    ∂ζ/∂t = −J(ψ, ζ) − β ∂ψ/∂x + ν ∇²ζ + F(y)        (explicit step)
    ∇²ψ = ζ                                            (multigrid solve)

with ψ = ζ = 0 on the boundary and the classic double-gyre wind forcing
``F(y) = −W sin(2πy)``.  Each time step is one explicit stencil update
plus one warm-started multigrid solve — the same work/communication
structure as the SPLASH original (stencil sweeps + a multigrid ψ solver
per step), which is what the BSP conversion in
:mod:`repro.apps.ocean.parallel` distributes.

The paper's problem sizes 66/130/258/514 are ``m + 2`` for interior sizes
``m = 64 .. 512`` — powers of two, as multigrid wants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .multigrid import apply_reflection, check_power_of_two, solve_poisson


@dataclass(frozen=True)
class OceanParams:
    """Physical and numerical parameters of the ocean model."""

    nu: float = 0.02       # lateral friction (viscosity)
    beta: float = 0.8      # planetary vorticity gradient
    wind: float = 1.0      # wind-stress curl amplitude
    dt: float = 0.02       # time step
    tol: float = 1e-6      # relative multigrid tolerance
    max_cycles: int = 40   # V-cycle cap per solve


@dataclass
class OceanState:
    """Fields (ghost ring = Dirichlet reflection of the interior, from
    either driver) plus per-step multigrid cycle counts."""

    psi: np.ndarray
    zeta: np.ndarray
    cycles: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.psi.shape[0]


def interior_of(size: int) -> int:
    """Interior grid dimension m for a paper problem ``size`` (= m + 2)."""
    m = size - 2
    check_power_of_two(m)
    return m


def wind_forcing(m: int, wind: float) -> np.ndarray:
    """Double-gyre forcing −W·sin(2πy) at the cell centres y=(j−½)/m."""
    f = np.zeros((m + 2, m + 2))
    y = (np.arange(1, m + 1) - 0.5) / m
    f[1:-1, 1:-1] = -wind * np.sin(2.0 * np.pi * y)[None, :]
    return f


def explicit_update(
    psi: np.ndarray,
    zeta: np.ndarray,
    forcing: np.ndarray,
    h: float,
    params: OceanParams,
) -> None:
    """One explicit vorticity step, in place on ``zeta``'s interior.

    Centered differences throughout; identical arithmetic runs per row
    block in the distributed version (the stencil only needs one ghost
    row, exchanged beforehand).  Ghost walls of both fields are reflected
    first so the stencils see the boundary condition.
    """
    apply_reflection(psi)
    apply_reflection(zeta)
    zeta[1:-1, 1:-1] += params.dt * explicit_tendency(
        psi, zeta, forcing, h, params
    )


def explicit_tendency(
    psi: np.ndarray,
    zeta: np.ndarray,
    forcing: np.ndarray,
    h: float,
    params: OceanParams,
) -> np.ndarray:
    """Interior tendency −J(ψ,ζ) − β ψ_x + ν ∇²ζ + F, shape (m, m).

    Rows are the x direction (index i), columns y (index j).
    """
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)
    psi_x = (psi[2:, 1:-1] - psi[:-2, 1:-1]) * inv2h
    psi_y = (psi[1:-1, 2:] - psi[1:-1, :-2]) * inv2h
    zeta_x = (zeta[2:, 1:-1] - zeta[:-2, 1:-1]) * inv2h
    zeta_y = (zeta[1:-1, 2:] - zeta[1:-1, :-2]) * inv2h
    lap_zeta = (
        zeta[2:, 1:-1] + zeta[:-2, 1:-1] + zeta[1:-1, 2:] + zeta[1:-1, :-2]
        - 4.0 * zeta[1:-1, 1:-1]
    ) * invh2
    jac = psi_x * zeta_y - psi_y * zeta_x
    return (
        -jac
        - params.beta * psi_x
        + params.nu * lap_zeta
        + forcing[1:-1, 1:-1]
    )


def ocean_sequential(
    size: int,
    steps: int,
    params: OceanParams | None = None,
) -> OceanState:
    """Run the ocean model from rest for ``steps`` time steps."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    params = params or OceanParams()
    m = interior_of(size)
    h = 1.0 / m
    psi = np.zeros((m + 2, m + 2))
    zeta = np.zeros((m + 2, m + 2))
    forcing = wind_forcing(m, params.wind)
    state = OceanState(psi=psi, zeta=zeta)
    for _ in range(steps):
        explicit_update(state.psi, state.zeta, forcing, h, params)
        state.psi, info = solve_poisson(
            state.zeta,
            h,
            tol=params.tol,
            max_cycles=params.max_cycles,
            u0=state.psi,
        )
        state.cycles.append(info.cycles)
    apply_reflection(state.psi)
    apply_reflection(state.zeta)
    return state
