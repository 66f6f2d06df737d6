"""The conformance matrix of :mod:`.conformance`: each cell's run of a
program equals the simulator's, results and ledger.  One cell:
``-k processes-pooled-zc-off-relaxed``."""

import contextlib
import hashlib
import os
from unittest import mock

import pytest
from hypothesis import given, settings

from repro import bsp_run
from repro.backends.processes import ProcessBackend
from repro.backends.tcp import TcpBackend

from .conformance import (
    APP_CELLS, CELLS, GOLDEN_SEED_ACCOUNTING, NPROCS, app_oracle,
    heavy_mixed, oracle, patterned_programs, patterned_random,
    run_paper_app, snapshot)

_POOLS = {"processes": ProcessBackend, "tcp": TcpBackend}


@pytest.fixture(scope="module")
def fabrics():
    """``fabrics(name)``: that fabric's backend, ``REPRO_ZEROCOPY`` set
    while it lives.  A fabric's cells (they differ only in sync mode)
    share it; one lives at a time."""
    live, current = contextlib.ExitStack(), {}

    def get(name):
        if name not in current:
            live.close()
            current.clear()
            backend, _, zerocopy = name.partition("-zc-")
            backend, _, lifecycle = backend.partition("-")
            if zerocopy:
                live.enter_context(mock.patch.dict(
                    os.environ, {"REPRO_ZEROCOPY": zerocopy}))
            current[name] = backend if lifecycle != "pooled" else \
                live.enter_context(_POOLS[backend].pool(NPROCS))
        return current[name]

    with live:
        yield get


every_cell = pytest.mark.parametrize("fabric,sync", CELLS)


@every_cell
@settings(max_examples=5, deadline=None)
@given(args=patterned_programs())
def test_random_programs(fabrics, fabric, sync, args):
    run = bsp_run(patterned_random, NPROCS, backend=fabrics(fabric),
                  args=args, sync=sync)
    assert snapshot(run) == oracle(patterned_random, args)


@every_cell
def test_heavy_mixed(fabrics, fabric, sync):
    run = bsp_run(heavy_mixed, NPROCS - 1, backend=fabrics(fabric),
                  sync=sync)
    assert snapshot(run) == oracle(heavy_mixed, nprocs=NPROCS - 1)


@pytest.mark.parametrize("app,size", sorted(GOLDEN_SEED_ACCOUNTING))
@pytest.mark.parametrize("fabric,sync", APP_CELLS)
def test_paper_apps(fabrics, fabric, sync, app, size):
    assert run_paper_app(app, size, fabrics(fabric), sync) == \
        app_oracle(app, size)


@pytest.mark.parametrize("app,size", sorted(GOLDEN_SEED_ACCOUNTING))
def test_simulator_accounting_unchanged(app, size):
    """The oracle's pin: the exchange layer is transport only, so the
    simulator's W/H/S must never move from the seed revision's."""
    golden_s, golden_h, golden_digest = GOLDEN_SEED_ACCOUNTING[(app, size)]
    S, H, h_series, _ = app_oracle(app, size)[1]
    series = ",".join(str(h) for h in h_series)
    digest = hashlib.sha256(series.encode()).hexdigest()[:16]
    assert (S, H) == (golden_s, golden_h)
    assert digest == golden_digest
