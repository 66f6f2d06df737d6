"""Vectorized compute kernels for the applications' hot local phases.

PRs 1–3 attacked the ``gH`` and ``LS`` terms of the paper's cost model
``T = W + gH + LS``; this package attacks ``W``.  Each kernel is the
local-compute core of one application superstep — the Barnes–Hut octree
build (``bh_build``), force walk (``bh_walk``) and the count-only walk
behind the ORB load estimate (``bh_count``), MST fragment labeling, SSSP
border-update application, samplesort splitter partitioning, the bottom
solve of the ocean/plasma multigrid V-cycle (``mg_coarse``) — available
in two implementations:

* ``reference`` — the original code (pure-Python per-element loops; for
  ``mg_coarse`` the sixty red-black sweeps), kept verbatim as the
  semantic oracle;
* ``vectorized`` — an array-at-a-time NumPy formulation that is *exactly*
  equivalent: identical interaction/work counts, identical message
  contents, identical integer results, and floating-point results equal to
  tight tolerance (summation order may differ; ``mg_coarse`` applies the
  sweeps as one precomposed operator and differs in the last bits).

The W/H/S ledgers must be bit-identical across modes — the golden
accounting tests enforce it — so a kernel is only allowed to change *how*
a local phase computes, never *what* it computes or charges.

Selection
---------
Applications fetch kernels through :func:`get`::

    walk = kernels.get("bh_walk")
    acc, inter = walk(tree, points, theta, eps, skip)

The mode defaults to ``vectorized``; set ``REPRO_KERNELS=reference`` in
the environment (or use :func:`using` in tests) to restore the
pure-Python paths.  The equivalence suite in
``tests/kernels/test_kernel_equivalence.py`` runs every application under
both modes and asserts identical results and accounting.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator

#: Environment variable selecting the kernel implementation mode.
ENV_VAR = "REPRO_KERNELS"

#: Valid modes, in preference order.
MODES = ("vectorized", "reference")

DEFAULT_MODE = "vectorized"

#: name -> mode -> implementation.
_REGISTRY: dict[str, dict[str, Callable]] = {}

#: Process-local override installed by :func:`using`; beats the env var.
_override: str | None = None


class KernelError(LookupError):
    """Unknown kernel name or mode."""


def register(name: str, mode: str, fn: Callable) -> Callable:
    """Register ``fn`` as the ``mode`` implementation of kernel ``name``."""
    if mode not in MODES:
        raise KernelError(f"unknown kernel mode {mode!r}; expected {MODES}")
    _REGISTRY.setdefault(name, {})[mode] = fn
    return fn


def current_mode() -> str:
    """The active mode: :func:`using` override, else ``REPRO_KERNELS``,
    else ``vectorized``.  Unknown env values fall back to the default so a
    typo degrades to the fast path instead of crashing mid-run."""
    if _override is not None:
        return _override
    mode = os.environ.get(ENV_VAR, DEFAULT_MODE)
    return mode if mode in MODES else DEFAULT_MODE


def get(name: str, mode: str | None = None) -> Callable:
    """Look up the ``mode`` (default: :func:`current_mode`) implementation
    of kernel ``name``."""
    try:
        impls = _REGISTRY[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    mode = current_mode() if mode is None else mode
    if mode not in MODES:
        raise KernelError(f"unknown kernel mode {mode!r}; expected {MODES}")
    try:
        return impls[mode]
    except KeyError:
        raise KernelError(
            f"kernel {name!r} has no {mode!r} implementation "
            f"(has: {sorted(impls)})"
        ) from None


def names() -> list[str]:
    """All registered kernel names."""
    return sorted(_REGISTRY)


@contextmanager
def using(mode: str) -> Iterator[None]:
    """Force ``mode`` for the enclosed block (tests, benchmarks)."""
    global _override
    if mode not in MODES:
        raise KernelError(f"unknown kernel mode {mode!r}; expected {MODES}")
    prev = _override
    _override = mode
    try:
        yield
    finally:
        _override = prev


# Implementation modules self-register on import; they must come after the
# registry definitions above and may not import application modules at
# module scope (apps import this package).
from . import bh as _bh  # noqa: E402,F401
from . import graph as _graph  # noqa: E402,F401
from . import mg as _mg  # noqa: E402,F401
from . import sort as _sort  # noqa: E402,F401
