"""Front-end entry point: run a BSP program and collect its statistics.

>>> from repro import bsp_run
>>> def hello(bsp):
...     right = (bsp.pid + 1) % bsp.nprocs
...     bsp.send(right, bsp.pid)
...     bsp.sync()
...     return [pkt.payload for pkt in bsp.packets()]
>>> run = bsp_run(hello, nprocs=4)
>>> [r[0] for r in run.results]
[3, 0, 1, 2]
>>> run.stats.S
2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..backends.base import Backend, Program, check_sync, get_backend
from .errors import BspConfigError, DeadlockError, WorkerCrashError
from .stats import ProgramStats

#: Backends whose workers are separate OS processes: a checkpoint store
#: must be shared (on disk) to cross that boundary.
_MULTIPROCESS_BACKENDS = frozenset({"processes", "tcp", "tcp-spmd"})


@dataclass(frozen=True)
class BspRunResult:
    """Everything one BSP execution produced.

    Attributes
    ----------
    results:
        The per-processor return values of the program, indexed by pid.
    stats:
        Merged :class:`ProgramStats` — the (W, H, S) accounting that feeds
        the cost model.
    backend:
        Name of the backend that executed the run.
    """

    results: list[Any]
    stats: ProgramStats
    backend: str

    @property
    def result(self) -> Any:
        """Processor 0's return value (the common single-answer case)."""
        return self.results[0]


def bsp_run(
    program: Program,
    nprocs: int,
    *,
    backend: str | Backend = "simulator",
    args: Sequence[Any] = (),
    kwargs: dict[str, Any] | None = None,
    retries: int = 0,
    checkpoint: Any = None,
    sync: str = "strict",
) -> BspRunResult:
    """Execute ``program`` on ``nprocs`` virtual processors.

    Parameters
    ----------
    program:
        Callable ``program(bsp, *args, **kwargs)`` run once per virtual
        processor with its own :class:`~repro.core.api.Bsp` context.
    nprocs:
        Number of virtual processors, ``>= 1``.
    backend:
        ``"simulator"`` (deterministic, serialized — use for measuring W/H/S),
        ``"threads"`` (concurrent threads, shared-memory style), or
        ``"processes"`` (one OS process per virtual processor, true
        parallelism).  A :class:`~repro.backends.base.Backend` *instance*
        is also accepted — e.g. a pooled ``ProcessBackend.pool(p)`` that
        amortizes worker startup across many runs.
    args, kwargs:
        Extra arguments forwarded to every instance of the program.
    retries:
        How many times to re-run after a
        :class:`~repro.core.errors.WorkerCrashError` — a worker process
        dying without reporting (OOM kill, segfaulting extension).  Only
        substrate faults are retried: a pooled process backend self-heals
        between attempts.  Program-level failures
        (``VirtualProcessorError``) re-raise immediately — retrying those
        would just repeat them.  With ``checkpoint`` set, a
        :class:`~repro.core.errors.DeadlockError` is retried too (the
        pool/mesh rebuilds its fabric and the program resumes past the
        stalled superstep); without checkpointing a deadlock would replay
        identically, so it re-raises.  Safe for idempotent programs;
        side-effecting programs may observe partial effects of the
        crashed attempt.
    sync:
        Synchronization mode of the exchange protocol.  Every boundary
        is one frame per link, run-ahead bounded to one superstep by
        link FIFO; ``"strict"`` (the default) and ``"relaxed"`` are that
        one round on every fabric, and ``"elide"`` uses only the links
        of a pattern declared with ``bsp.pattern(...)``.  Results and (S, H, h) ledgers are
        bit-identical across modes; only the barrier cost differs.
    checkpoint:
        A :class:`~repro.checkpoint.CheckpointConfig`, or ``None`` (no
        checkpointing).  The program opts in by calling
        ``bsp.checkpoint(capture)`` at the top of its superstep loop and
        reading ``bsp.resume_state()`` once at start.  Retried attempts
        (and fresh runs with ``resume=True``) resume every rank from the
        newest *complete, checksum-valid* checkpoint instead of
        superstep 0; a damaged newest checkpoint falls back to the
        previous one, and to a from-scratch run when none validates.
    """
    if not isinstance(retries, int) or retries < 0:
        raise BspConfigError(
            f"retries must be a non-negative int, got {retries!r}")
    check_sync(sync)
    engine = backend if isinstance(backend, Backend) else get_backend(backend)

    cfg = checkpoint
    if cfg is not None:
        from ..checkpoint import CheckpointConfig, CheckpointedProgram
        if not isinstance(cfg, CheckpointConfig):
            raise BspConfigError(
                f"checkpoint must be a CheckpointConfig, "
                f"got {type(cfg).__name__}")
        if (engine.name in _MULTIPROCESS_BACKENDS
                and not cfg.store.shared_across_processes):
            raise BspConfigError(
                f"backend {engine.name!r} runs workers in separate "
                "processes; its checkpoints need a store that crosses the "
                "fork (use DiskCheckpointStore, not "
                f"{type(cfg.store).__name__})")
        if not cfg.resume:
            # A stale complete checkpoint from a previous run under the
            # same key must never hijack this run's crash retries.
            cfg.store.clear(cfg.run_key)

    attempts_left = retries
    resume = cfg.resume if cfg is not None else False
    while True:
        run_program = program
        if cfg is not None:
            # Re-resolved each attempt: the failed attempt's own shards
            # (written up to the crash) are what the retry resumes from.
            resume_step = (cfg.store.latest_step(cfg.run_key, nprocs)
                           if resume else None)
            if resume and resume_step is not None:
                # Checkpoint-coupled rollback: shards the failed attempt
                # wrote past the resume cut belong to a dead epoch; drop
                # them so this attempt's writes can never interleave
                # with stale ones at the same step.
                cfg.store.rollback(cfg.run_key, resume_step)
            elif resume and resume_step is None:
                # Restart from zero with nothing worth keeping: the dead
                # attempt's (all-damaged) shards would otherwise inflate
                # each rank's retention count and get fresh step-0 shards
                # pruned out from under a slower rank mid-write.
                cfg.store.clear(cfg.run_key)
            run_program = CheckpointedProgram(program, cfg, resume_step)
        try:
            run = engine.run(run_program, nprocs, args=args, kwargs=kwargs,
                             sync=sync)
            break
        except WorkerCrashError:
            if attempts_left <= 0:
                raise
            attempts_left -= 1
            resume = cfg is not None
        except DeadlockError:
            if cfg is None or attempts_left <= 0:
                raise
            attempts_left -= 1
            resume = True
    stats = ProgramStats.from_ledgers(run.ledgers, wall_seconds=run.wall_seconds)
    return BspRunResult(results=run.results, stats=stats, backend=engine.name)
