"""Outside-in tracing: where one operation's wall-clock went, by layer.

Nothing in ``src/`` is instrumented.  :class:`TracedBackend` is an
ordinary :class:`~repro.backends.base.Backend` that delegates ``run`` to
a real backend and wraps the program, so every rank receives a
:class:`BspProxy` — a delegating ``Bsp`` that times ``send``,
``sync`` and ``get_pkt``/``packets`` — and returns its timeline beside
its result.  ``time.perf_counter`` is one monotonic clock across forked
ranks, so timelines from different ranks compare directly.

:func:`critical_path` then walks the operation from the outside in::

    op ─ driver ─┬─ Backend.run ─ dispatch ─┬─ critical rank: compute / send / drain
                 │                          └─ boundary: exchange (after the last arrival)
                 └─ driver (result assembly)

The path follows, at every superstep boundary, the rank that arrives
last at the *next* boundary: ``exchange`` runs from the last arrival at
boundary ``s`` until that rank leaves ``sync``; its time up to its own
arrival at ``s+1`` splits into ``send``, ``drain`` and (the rest)
``compute``.  The six pieces are disjoint and cover the operation, so
they sum to its wall-clock.  ``imbalance_wait`` — how long ranks stood
at a boundary before the last one arrived — lies beside the path, not
on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.backends.base import Backend, BackendRun

_clock = time.perf_counter


class BspProxy:
    """A ``Bsp`` that times the calls into the runtime and delegates."""

    def __init__(self, bsp):
        self._bsp = bsp
        self._steps: list[tuple] = []
        self._send = self._drain = 0.0
        self._nsend = self._ndrain = 0

    def __getattr__(self, name: str):
        # Everything not timed (pid, nprocs, pattern, charge, off_clock,
        # checkpoint, ...) is the real context's.
        return getattr(self._bsp, name)

    # -- timed: sending ------------------------------------------------------

    def send(self, dst, payload, *, h=None):
        t0 = _clock()
        self._bsp.send(dst, payload, h=h)
        self._send += _clock() - t0
        self._nsend += 1

    def send_pkt(self, dst, payload):
        self.send(dst, payload)

    def broadcast_send(self, payload, *, include_self=False, h=None):
        t0 = _clock()
        self._bsp.broadcast_send(payload, include_self=include_self, h=h)
        self._send += _clock() - t0
        self._nsend += 1

    # -- timed: receiving ----------------------------------------------------

    def get_pkt(self):
        t0 = _clock()
        pkt = self._bsp.get_pkt()
        self._drain += _clock() - t0
        self._ndrain += 1
        return pkt

    def packets(self):
        # Only the time inside the runtime counts; what the program does
        # with each packet between two ``next()`` calls is its compute.
        while True:
            pkt = self.get_pkt()
            if pkt is None:
                return
            yield pkt

    def payloads(self):
        for pkt in self.packets():
            yield pkt.payload

    # -- timed: the boundary -------------------------------------------------

    def sync(self):
        enter = _clock()
        self._bsp.sync()
        self._steps.append((enter, _clock(), self._send, self._nsend,
                            self._drain, self._ndrain))
        self._send = self._drain = 0.0
        self._nsend = self._ndrain = 0

    def synch(self):
        self.sync()

    def _timeline(self, start: float, end: float) -> dict[str, Any]:
        return {"start": start, "end": end, "steps": self._steps,
                "tail": (self._send, self._nsend, self._drain, self._ndrain)}


class TracedProgram:
    """Picklable wrapper: runs ``program`` on a proxy, returns
    ``(result, timeline)``."""

    def __init__(self, program):
        self.program = program

    def __call__(self, bsp, *args, **kwargs):
        proxy = BspProxy(bsp)
        start = _clock()
        result = self.program(proxy, *args, **kwargs)
        return result, proxy._timeline(start, _clock())


@dataclass
class RunTrace:
    """One traced ``Backend.run``: its own interval and every rank's."""

    t0: float
    t1: float
    ranks: list[dict[str, Any]]


class TracedBackend(Backend):
    """Delegates to ``inner``; records a :class:`RunTrace` per ``run``."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.name = inner.name
        self.runs: list[RunTrace] = []

    def run(self, program, nprocs, args: Sequence[Any] = (),
            kwargs: dict[str, Any] | None = None, *,
            sync: str = "strict") -> BackendRun:
        t0 = _clock()
        run = self.inner.run(TracedProgram(program), nprocs, args=args,
                             kwargs=kwargs, sync=sync)
        t1 = _clock()
        self.runs.append(RunTrace(t0, t1, [tl for _, tl in run.results]))
        return BackendRun(results=[res for res, _ in run.results],
                          ledgers=run.ledgers, wall_seconds=run.wall_seconds)

    def take_runs(self) -> list[RunTrace]:
        """The runs recorded since the last call (one operation's)."""
        runs, self.runs = self.runs, []
        return runs

    def health(self):
        return self.inner.health()


#: The six disjoint pieces of an operation's wall-clock, outside in.
PATH_ROWS = ("apps.driver_s", "backends.dispatch_s", "apps.compute_s",
             "core.send_s", "core.drain_s", "backends.exchange_s")


@dataclass
class OpTrace:
    """One traced operation: the driver call and the runs inside it."""

    t0: float
    t1: float
    runs: list[RunTrace] = field(default_factory=list)


def critical_path(op: OpTrace) -> dict[str, float]:
    """Attribute one operation's wall-clock to :data:`PATH_ROWS`, plus
    ``backends.imbalance_wait_s`` (beside the path) and ``op_s``."""
    out = dict.fromkeys(PATH_ROWS, 0.0)
    out["backends.imbalance_wait_s"] = 0.0
    out["op_s"] = op.t1 - op.t0
    out["apps.driver_s"] = out["op_s"] - sum(r.t1 - r.t0 for r in op.runs)
    for run in op.runs:
        ranks = run.ranks
        nsteps = len(ranks[0]["steps"])
        # The rank each leg of the path follows: the last to arrive at
        # boundary s for s < S, the last to finish for the final leg.
        arrivals = [max(range(len(ranks)),
                        key=lambda r, s=s: ranks[r]["steps"][s][0])
                    for s in range(nsteps)]
        arrivals.append(max(range(len(ranks)),
                            key=lambda r: ranks[r]["end"]))
        first = ranks[arrivals[0]]
        last = ranks[arrivals[-1]]
        out["backends.dispatch_s"] += (first["start"] - run.t0) + (
            run.t1 - last["end"])
        for s, crit in enumerate(arrivals):
            rank = ranks[crit]
            if s < nsteps:
                arrive = rank["steps"][s][0]
                _, _, send, _, drain, _ = rank["steps"][s]
            else:
                arrive = rank["end"]
                send, _, drain, _ = rank["tail"]
            if s == 0:
                begin = rank["start"]
            else:
                begin = rank["steps"][s - 1][1]  # its exit from sync s-1
                last_in = max(r["steps"][s - 1][0] for r in ranks)
                out["backends.exchange_s"] += begin - last_in
            out["core.send_s"] += send
            out["core.drain_s"] += drain
            out["apps.compute_s"] += (arrive - begin) - send - drain
        for s in range(nsteps):
            enters = [r["steps"][s][0] for r in ranks]
            out["backends.imbalance_wait_s"] += (
                max(enters) - sum(enters) / len(enters))
    return out


def spans(op_index: int, op: OpTrace) -> list[dict[str, Any]]:
    """The operation as ``(op, rank, step, name, t0, t1, parent)`` spans.

    ``send`` and ``drain`` are one span per rank and superstep (all calls
    of that step, with their summed ``busy`` seconds and ``count``), so a
    trace stays proportional to S x p, not to the packet count.
    """
    rows: list[dict[str, Any]] = []

    def add(name, t0, t1, parent, rank=None, step=None, **extra):
        rows.append({"id": len(rows), "op": op_index, "rank": rank,
                     "step": step, "name": name, "t0": t0, "t1": t1,
                     "parent": parent, **extra})
        return rows[-1]["id"]

    root = add("apps.op", op.t0, op.t1, None)
    for run in op.runs:
        run_id = add("backends.run", run.t0, run.t1, root)
        for r, rank in enumerate(run.ranks):
            rank_id = add("rank", rank["start"], rank["end"], run_id, rank=r)
            begin = rank["start"]
            legs = list(rank["steps"]) + [
                (rank["end"], rank["end"]) + tuple(rank["tail"])]
            for s, (enter, exit_, send, nsend, drain, ndrain) in enumerate(legs):
                step_id = add("step", begin, exit_, rank_id, rank=r, step=s)
                if nsend:
                    add("core.send", begin, enter, step_id, rank=r, step=s,
                        busy=send, count=nsend)
                if ndrain:
                    add("core.drain", begin, enter, step_id, rank=r, step=s,
                        busy=drain, count=ndrain)
                if s < len(rank["steps"]):
                    add("backends.sync", enter, exit_, step_id, rank=r, step=s)
                begin = exit_
    return rows
