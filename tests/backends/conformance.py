"""The conformance matrix: one program, every fabric, the simulator's answer.

The paper's portability claim — a Green BSP program gives the same
answers and the same (W, H, S) on every library implementation — as one
matrix.  A *cell* is a backend with a value for each factor it reads:
sync mode (all three), ``REPRO_ZEROCOPY`` (threads and processes; tcp
never reads it) and lifecycle (processes and tcp, one-shot or pooled;
threads has no pool): 6 + 12 + 6 = 24 cells.  The oracle is the
simulator, pinned to the seed revision by :data:`GOLDEN_SEED_ACCOUNTING`.
``REPRO_KERNELS`` is not a factor: kernels change compute, not transport,
and their contract (fields within a tolerance) is the kernel suites'.

Programs are module-level: pooled runs ship them by pickle.
"""

import dataclasses
import hashlib
import random
from functools import cache
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from repro import SYNC_MODES, bsp_run
from repro.backends import frames
from repro.core.stats import ProgramStats
from repro.harness import runner

#: The paper apps and the random programs run at p = 4, the apps' sweep
#: width; ``heavy_mixed`` at p = 3, a smaller run on the same pools.
NPROCS = 4

#: (S, H, sha256-prefix of the comma-joined per-superstep h series), as
#: measured on the simulator backend at the seed revision (p=4, seed 0).
GOLDEN_SEED_ACCOUNTING = {
    ("ocean", "66"): (489, 15890, "b5882e80f3a2ab0c"),
    ("mst", "2.5k"): (7, 573, "42755087de787f56"),
    ("sp", "2.5k"): (23, 245, "78da159294fa786c"),
    ("msp", "2.5k"): (34, 3243, "5a9c0ce5981e431b"),
    ("nbody", "1k"): (7, 1511, "0faf953a2126eb31"),
    ("matmult", "144"): (3, 10368, "83b281fc68d1317b"),
}


def ledger_key(stats):
    """The deterministic part of a run's accounting."""
    return (stats.S, stats.H, stats.h_series, stats.m_series)


def canonical(value):
    """``value`` with every array and byte string replaced by what
    identifies it bit for bit: type, dtype, shape, writability and a
    digest of the bytes.  A dataclass (an app's result) is its fields
    but ``stats``, whose timings are not deterministic."""
    if isinstance(value, np.ndarray):
        return (type(value).__name__, value.dtype.str, value.shape,
                value.flags.writeable,
                hashlib.sha256(value.tobytes()).hexdigest())
    if isinstance(value, (bytes, bytearray)):
        return type(value).__name__, hashlib.sha256(value).hexdigest()
    if isinstance(value, np.generic):
        return type(value).__name__, value.item()
    if isinstance(value, (list, tuple)):
        return type(value)(canonical(v) for v in value)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            (f.name, canonical(getattr(value, f.name)))
            for f in dataclasses.fields(value) if f.name != "stats")
    return value


def snapshot(run):
    """``(results, ledger)`` of a ``RunResult`` or of a raw
    ``BackendRun`` (``BspPool.run``), whose stats are its ledgers."""
    stats = getattr(run, "stats", None)
    if stats is None:
        stats = ProgramStats.from_ledgers(run.ledgers)
    return canonical(run.results), ledger_key(stats)


@cache
def oracle(program, args=(), nprocs=NPROCS):
    """The simulator's snapshot of ``program``, once per program."""
    return snapshot(bsp_run(program, nprocs, args=args))


# -- cells --------------------------------------------------------------------

#: A backend with a value for each factor it reads but sync, a per-run
#: choice: ``backend[-lifecycle][-zc-on|off]``.
FABRICS = ("threads-zc-on", "threads-zc-off",
           "processes-one-shot-zc-on", "processes-one-shot-zc-off",
           "processes-pooled-zc-on", "processes-pooled-zc-off",
           "tcp-one-shot", "tcp-pooled")

#: Every cell: the random programs and ``heavy_mixed`` run on all 24.
CELLS = tuple((fabric, sync) for fabric in FABRICS for sync in SYNC_MODES)

#: The paper apps' cells: those a suite ran them on before the matrix,
#: plus the pooled pipe fabric with the shm plane off.
APP_CELLS = tuple(
    [(fabric, sync) for fabric in ("threads-zc-on", "processes-one-shot-zc-on",
                                   "processes-pooled-zc-on", "tcp-pooled")
     for sync in SYNC_MODES]
    + [(fabric, "strict") for fabric in ("processes-one-shot-zc-off",
                                         "processes-pooled-zc-off",
                                         "tcp-one-shot")])


# -- program family 1: random pattern-respecting programs ---------------------

#: Large-array lengths: float64, so every one is at least
#: ``frames._INBAND_MAX`` bytes and leases a shm region; 300 and 333 are
#: not multiples of the 64-byte region alignment.
_LARGE_N = (300, 333, 1024)
assert min(_LARGE_N) * 8 >= frames._INBAND_MAX


def _payload(rng):
    """One payload, of a kind for each plane: an int, a byte string (in the
    frame's meta), a small 2-D array (in-band, sometimes read-only) or a
    large one (a shm lease, or the stream with the plane off)."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(1_000_000)
    if kind == 1:
        return rng.randbytes(rng.randrange(5000))
    if kind == 2:
        dtype = rng.choice((np.float64, np.int32, np.uint8))
        shape = (rng.randint(1, 4), rng.randint(1, 30))
        small = np.arange(shape[0] * shape[1], dtype=dtype).reshape(shape)
        small += rng.randrange(100)
        small.flags.writeable = rng.random() < 0.7
        return small
    return np.arange(rng.choice(_LARGE_N), dtype=np.float64) * rng.random()


def patterned_random(bsp, edges, rounds, seed, declare, empty):
    """A random pattern-respecting program, deterministic in (seed, pid).

    Each round every edge of ``edges`` fires with probability 0.7 (so
    some links stay silent) with one to three payloads — or every fired
    peer gets one large array: the same one (a broadcast, which the shm
    plane places once and aliases) or distinct ones of one length.
    ``declare``: declare the pattern (elide without it is relaxed);
    ``empty``: a pure-barrier superstep after each round.  Inboxes are
    kept in delivery order and made canonical on the rank, so the
    results' trip home cannot undo what the codec did to a packet."""
    if declare:
        bsp.pattern({d for s, d in edges if s == bsp.pid},
                    {s for s, d in edges if d == bsp.pid})
    rng = random.Random(seed * 131 + bsp.pid)
    peers = sorted(d for s, d in edges if s == bsp.pid)
    inboxes = []
    for _ in range(rounds):
        fired = [d for d in peers if rng.random() < 0.7]
        draw = rng.random()
        if len(fired) > 1 and draw < 0.6:
            shared = np.arange(rng.choice(_LARGE_N), dtype=np.float64)
            for d in fired:
                bsp.send(d, shared if draw < 0.3 else shared + d)
        else:
            for d in fired:
                for _ in range(rng.randint(1, 3)):
                    bsp.send(d, _payload(rng))
        bsp.sync()
        inboxes.append([(pkt.src, canonical(pkt.payload))
                        for pkt in bsp.packets()])
        if empty:
            bsp.sync()
    return inboxes


_EDGES = [(s, d) for s in range(NPROCS) for d in range(NPROCS) if s != d]


def patterned_programs():
    """Hypothesis strategy: ``patterned_random``'s args."""
    return st.tuples(
        st.sets(st.sampled_from(_EDGES), min_size=1)
        .map(lambda edges: tuple(sorted(edges))),
        st.integers(1, 3), st.integers(0, 10_000), st.booleans(),
        st.booleans())


# -- program family 2: pipe-filling pushes (Appendix B.3) ---------------------

#: Larger than a pipe (64 KiB) whichever way it travels: the bytes blob
#: rides the header, the array is out-of-band and with zero-copy off
#: goes down the pipe as a message of its own.
BLOB = 96 << 10
ARRAY_N = 12_288  # float64: 96 KiB
BOUNDARIES = 50


def heavy_mixed(bsp, boundaries=BOUNDARIES):
    """Every link carries a pipe-filling frame at two boundaries in three
    — both directions at once, the B.3 hazard — and an 8-byte one
    otherwise, so most ranks push both kinds in one superstep."""
    digest = 0
    big = np.arange(ARRAY_N, dtype=np.float64) + bsp.pid
    for step in range(boundaries):
        for q in range(bsp.nprocs):
            if q == bsp.pid:
                continue
            if (step + bsp.pid + q) % 3:
                bsp.send(q, bytes([step % 251]) * BLOB)
                bsp.send(q, big)
            else:
                bsp.send(q, np.int64(step * 7 + bsp.pid))
        bsp.sync()
        for pkt in bsp.packets():
            payload = pkt.payload
            if isinstance(payload, bytes):
                digest += len(payload) + payload[0]
            else:
                digest += int(np.asarray(payload).sum()) % 1_000_003
    return digest


# -- program family 3: the six paper applications -----------------------------

#: ``run_app``'s entry point per app: the call whose answer is kept.
_ENTRY = {"ocean": "bsp_ocean", "mst": "bsp_mst", "sp": "bsp_sssp",
          "msp": "bsp_msp", "nbody": "bsp_nbody", "matmult": "cannon_matmul"}


def run_paper_app(app, size, backend="simulator", sync="strict"):
    """``run_app(app, size, 4)`` as a snapshot: the app's whole answer
    (every field of its result but the stats) and its ledger."""
    name = _ENTRY[app]
    entry, answers = getattr(runner, name), []

    def keep(*args, **kwargs):
        answers.append(entry(*args, **kwargs))
        return answers[-1]

    with mock.patch.object(runner, name, keep):
        stats = runner.run_app(app, size, NPROCS, backend=backend, sync=sync)
    return canonical(answers), ledger_key(stats)


#: ``app_oracle(app, size)``: the simulator's snapshot, once per app.
app_oracle = cache(run_paper_app)
