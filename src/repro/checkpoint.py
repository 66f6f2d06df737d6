"""Superstep checkpointing: resume from the last barrier, not from zero.

Why the barrier is the right place
----------------------------------
A BSP program advances through globally consistent supersteps: at the
moment every rank sits at the top of superstep *s*, no message is in
flight that the cut does not account for — every packet sent before the
barrier has been delivered into some rank's inbox, and nothing of
superstep *s* has been sent yet.  A set of per-rank snapshots taken at
the same superstep boundary is therefore a *consistent cut* by
construction; no Chandy–Lamport marker protocol is needed.  This module
exploits that: each rank independently snapshots

* its program state (whatever the program's opt-in ``capture`` callable
  returns),
* its undelivered inbox (packets delivered at the s−1 → s barrier but
  not yet consumed), and
* its accounting ledger for supersteps ``0..s-1``,

and a checkpoint at step *s* is *complete* exactly when all ``nprocs``
shards for step *s* exist and validate.

What is deliberately **not** in a snapshot: wall-clock ``work_seconds``
of the in-progress superstep (it restarts from zero on resume — W is a
measurement, not program state), backend transport state (sockets,
segment pools — rebuilt by the pool/mesh heal), and the RNG of anything the
program does not itself capture.  The identity contract after a resume
is bit-identical *results* and bit-identical ``(S, H, h-series)``
ledgers; W is wall-clock and differs run to run regardless.

Store design
------------
One shard per (run_key, step, rank).  Shards are self-validating: the
payload's SHA-256 is recorded at write time (in a header line on disk,
beside the bytes in memory) so truncation and corruption are *detected*
at read time rather than trusted.  ``latest_step`` only ever names a
step whose every shard validates — so the recovery ladder

    newest complete checkpoint → older complete checkpoint → restart
    from superstep 0

falls out of a single scan, and a damaged newest checkpoint silently
demotes to the previous one instead of being resumed from.

Disk writes are atomic (write to a dot-tmp file, fsync, ``os.replace``)
and retention is bounded: each rank keeps its shards for the newest
``keep`` steps and prunes the rest, so a long run's checkpoint directory
stays O(keep · nprocs) files.

Fault injection: :meth:`CheckpointStore.save_shard` consults the
installed :class:`repro.faults.FaultPlan` after the durable write and
applies ``TRUNCATE_CHECKPOINT`` / ``CORRUPT_CHECKPOINT`` damage to the
just-written shard — modelling torn writes and silent media corruption
so the fallback ladder is testable on purpose.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import threading
from dataclasses import dataclass
from typing import Any, Iterable

from . import faults
from .core.errors import BspConfigError, CheckpointError

_FORMAT_VERSION = 1
_STEP_PREFIX = "step-"
_RANK_PREFIX = "rank-"
_SHARD_SUFFIX = ".ckpt"
_TMP_PREFIX = ".tmp-"
_MAX_HEADER = 4096


def atomic_replace_write(path: str, *chunks: bytes,
                         tmp_prefix: str = _TMP_PREFIX) -> None:
    """Durably write ``chunks`` to ``path``: dot-tmp + fsync + os.replace.

    The disk-durability primitive shared by :class:`DiskCheckpointStore`
    shards and the service's job journal (:mod:`repro.service.journal`):
    a reader never observes a half-written file under its final name, and
    a crash mid-write leaves only a temp file for the next sweep.  The
    temp file lives in ``path``'s own directory so the replace is within
    one filesystem.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f"{tmp_prefix}{name}-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass


@dataclass
class Snapshot:
    """One rank's member of a consistent cut at a superstep boundary.

    ``samples`` covers supersteps ``0..step-1`` verbatim (including the
    receive-side counts charged at the s−1 → s barrier); ``inbox`` is the
    rank's undelivered packets at that barrier.  Restoring both is what
    makes the resumed run's (S, H, h-series) ledger bit-identical.
    """

    step: int
    pid: int
    nprocs: int
    state: Any
    inbox: list
    samples: list


def encode_snapshot(snapshot: Snapshot) -> bytes:
    return pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)


def decode_snapshot(blob: bytes) -> Snapshot:
    try:
        snap = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint shard failed to unpickle: {exc}") from exc
    if not isinstance(snap, Snapshot):
        raise CheckpointError(
            f"checkpoint shard decoded to {type(snap).__name__}, "
            "not a Snapshot")
    return snap


class CheckpointStore:
    """Per-rank shard store with checksum validation and bounded retention.

    Subclasses implement ``_put`` / ``load_shard`` / ``steps`` /
    ``_valid_pids`` / ``clear`` / ``_tamper``; this base supplies the
    complete-step resolution (and the fault-injection hook on writes).
    """

    #: Whether shards written by a forked worker process are visible to
    #: the parent and to replacement workers.  ``bsp_run`` refuses
    #: non-shared stores on multi-process backends.
    shared_across_processes: bool = False

    # -- write side ----------------------------------------------------------

    def save_shard(self, run_key: str, step: int, pid: int, nprocs: int,
                   blob: bytes) -> None:
        """Durably store one rank's shard, then apply any scheduled damage."""
        self._put(run_key, step, pid, nprocs, bytes(blob))
        plan = faults._ACTIVE
        if plan is not None:
            mode = plan.tampers_checkpoint(pid, step)
            if mode is not None:
                self._tamper(run_key, step, pid, mode)

    def _put(self, run_key: str, step: int, pid: int, nprocs: int,
             blob: bytes) -> None:
        raise NotImplementedError

    def _tamper(self, run_key: str, step: int, pid: int, mode: str) -> None:
        raise NotImplementedError

    # -- read side -----------------------------------------------------------

    def load_shard(self, run_key: str, step: int, pid: int) -> bytes:
        """The validated payload, or :class:`CheckpointError` if the shard
        is missing, truncated, or fails its checksum."""
        raise NotImplementedError

    def steps(self, run_key: str) -> list[int]:
        """All steps with at least one shard present, ascending."""
        raise NotImplementedError

    def _valid_pids(self, run_key: str, step: int) -> dict[int, int]:
        """pid → recorded nprocs, for every shard at ``step`` that
        validates (bad shards are simply absent from the map)."""
        raise NotImplementedError

    def clear(self, run_key: str) -> None:
        """Drop every shard (and any stale temp file) under ``run_key``."""
        raise NotImplementedError

    def complete_steps(self, run_key: str, nprocs: int) -> list[int]:
        """Steps whose all ``nprocs`` shards exist and validate, ascending."""
        out = []
        for step in self.steps(run_key):
            pids = self._valid_pids(run_key, step)
            if len(pids) == nprocs and all(
                    pids.get(pid) == nprocs for pid in range(nprocs)):
                out.append(step)
        return out

    def latest_step(self, run_key: str, nprocs: int) -> int | None:
        """The newest complete, fully valid step — or ``None`` (restart)."""
        steps = self.complete_steps(run_key, nprocs)
        return steps[-1] if steps else None

    def rollback(self, run_key: str, step: int) -> list[int]:
        """Drop every shard *newer* than ``step`` (the resume cut).

        A healed mesh rolls survivors back to the last complete
        checkpoint and replays forward; shards the crashed attempt wrote
        past that cut are from an epoch that no longer exists.  Leaving
        them would let the retry's own writes interleave with stale
        ones — a later ``latest_step`` could then name a step whose
        shards mix two attempts.  Returns the dropped steps, ascending.
        """
        dropped = [s for s in self.steps(run_key) if s > step]
        for stale in dropped:
            self._drop_step(run_key, stale)
        return dropped

    def _drop_step(self, run_key: str, step: int) -> None:
        """Remove every shard stored at ``step``."""
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStore):
    """In-memory store for the simulator/thread backends (and unit tests).

    Shards live in this process only, so multi-process backends cannot
    use it — ``bsp_run`` rejects the combination up front.
    """

    shared_across_processes = False

    def __init__(self, keep: int = 3):
        if not isinstance(keep, int) or keep < 1:
            raise BspConfigError(f"keep must be a positive int, got {keep!r}")
        self._keep = keep
        self._lock = threading.Lock()
        # (run_key, step, pid) -> (nprocs, mutable payload, sha256 at put)
        self._shards: dict[tuple[str, int, int],
                           tuple[int, bytearray, str]] = {}

    def _put(self, run_key, step, pid, nprocs, blob):
        with self._lock:
            self._shards[(run_key, step, pid)] = (
                nprocs, bytearray(blob), hashlib.sha256(blob).hexdigest())
            mine = sorted(s for (rk, s, p) in self._shards
                          if rk == run_key and p == pid)
            for stale in mine[:-self._keep]:
                self._shards.pop((run_key, stale, pid), None)

    def _tamper(self, run_key, step, pid, mode):
        with self._lock:
            entry = self._shards.get((run_key, step, pid))
            if entry is None:
                return
            _nprocs, data, _sha = entry
            if mode == faults.TRUNCATE_CHECKPOINT:
                del data[len(data) // 2:]
            elif data:
                data[-1] ^= 0xFF

    def load_shard(self, run_key, step, pid):
        with self._lock:
            entry = self._shards.get((run_key, step, pid))
            blob = None if entry is None else bytes(entry[1])
        if entry is None:
            raise CheckpointError(
                f"no checkpoint shard for rank {pid} at step {step} "
                f"(run {run_key!r})")
        if hashlib.sha256(blob).hexdigest() != entry[2]:
            raise CheckpointError(
                f"checkpoint shard for rank {pid} at step {step} "
                f"(run {run_key!r}) failed its checksum")
        return blob

    def steps(self, run_key):
        with self._lock:
            return sorted({s for (rk, s, _p) in self._shards if rk == run_key})

    def _valid_pids(self, run_key, step):
        with self._lock:
            entries = [(p, n, bytes(d), sha)
                       for (rk, s, p), (n, d, sha) in self._shards.items()
                       if rk == run_key and s == step]
        return {p: n for p, n, blob, sha in entries
                if hashlib.sha256(blob).hexdigest() == sha}

    def _drop_step(self, run_key, step):
        with self._lock:
            for key in [k for k in self._shards
                        if k[0] == run_key and k[1] == step]:
                del self._shards[key]

    def clear(self, run_key):
        with self._lock:
            for key in [k for k in self._shards if k[0] == run_key]:
                del self._shards[key]


class DiskCheckpointStore(CheckpointStore):
    """On-disk store: ``<root>/<run_key>/step-NNNNNNNN/rank-NNNN.ckpt``.

    Each shard is one header line of JSON (version, identity, payload
    length, SHA-256) followed by the raw pickled snapshot.  Writes go to
    a dot-tmp file, fsync, then ``os.replace`` — a reader never sees a
    half-written shard under its final name, and a crash mid-write
    leaves only a temp file that the next scan or ``clear`` sweeps.

    The instance holds only plain attributes, so it pickles across the
    fork/pool boundary; workers write shards directly to the shared
    filesystem the parent scans.
    """

    shared_across_processes = True

    def __init__(self, root: str | os.PathLike, keep: int = 3):
        if not isinstance(keep, int) or keep < 1:
            raise BspConfigError(f"keep must be a positive int, got {keep!r}")
        self._root = os.fspath(root)
        self._keep = keep
        os.makedirs(self._root, exist_ok=True)

    @property
    def root(self) -> str:
        return self._root

    def _run_dir(self, run_key):
        return os.path.join(self._root, run_key)

    def _step_dir(self, run_key, step):
        return os.path.join(self._run_dir(run_key),
                            f"{_STEP_PREFIX}{step:08d}")

    def _shard_path(self, run_key, step, pid):
        return os.path.join(self._step_dir(run_key, step),
                            f"{_RANK_PREFIX}{pid:04d}{_SHARD_SUFFIX}")

    def _put(self, run_key, step, pid, nprocs, blob):
        step_dir = self._step_dir(run_key, step)
        os.makedirs(step_dir, exist_ok=True)
        header = json.dumps({
            "v": _FORMAT_VERSION, "step": step, "pid": pid,
            "nprocs": nprocs, "nbytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }).encode("ascii")
        path = self._shard_path(run_key, step, pid)
        try:
            atomic_replace_write(path, header, b"\n", blob)
        except FileNotFoundError:
            # A peer's retention pass (or a driver rollback) removed the
            # step directory between our makedirs and the write; re-create
            # it — this rank's shard is current either way.
            os.makedirs(step_dir, exist_ok=True)
            atomic_replace_write(path, header, b"\n", blob)
        self._prune(run_key, pid)

    def _prune(self, run_key, pid):
        # Each rank prunes only its own shards, so concurrent writers
        # never race on a file; empty step dirs fall once the last
        # rank's shard is gone (rmdir fails harmlessly until then).
        mine = [s for s in self._scan_steps(run_key)
                if os.path.exists(self._shard_path(run_key, s, pid))]
        for stale in sorted(mine)[:-self._keep]:
            try:
                os.unlink(self._shard_path(run_key, stale, pid))
            except FileNotFoundError:
                pass
            try:
                os.rmdir(self._step_dir(run_key, stale))
            except OSError:
                pass

    def _tamper(self, run_key, step, pid, mode):
        path = self._shard_path(run_key, step, pid)
        try:
            if mode == faults.TRUNCATE_CHECKPOINT:
                size = os.path.getsize(path)
                with open(path, "r+b") as fh:
                    fh.truncate(max(0, size // 2))
            else:
                with open(path, "r+b") as fh:
                    fh.seek(-1, os.SEEK_END)
                    last = fh.read(1)
                    fh.seek(-1, os.SEEK_END)
                    fh.write(bytes([last[0] ^ 0xFF]))
        except OSError:  # pragma: no cover - shard vanished mid-tamper
            pass

    def _scan_steps(self, run_key) -> list[int]:
        try:
            names = os.listdir(self._run_dir(run_key))
        except FileNotFoundError:
            return []
        steps = []
        for name in names:
            if name.startswith(_STEP_PREFIX):
                try:
                    steps.append(int(name[len(_STEP_PREFIX):]))
                except ValueError:
                    continue
        return sorted(steps)

    def _read(self, path: str) -> tuple[dict, bytes]:
        with open(path, "rb") as fh:
            header_line = fh.readline(_MAX_HEADER)
            if not header_line.endswith(b"\n"):
                raise CheckpointError(f"{path}: malformed checkpoint header")
            try:
                header = json.loads(header_line)
            except ValueError as exc:
                raise CheckpointError(
                    f"{path}: unparseable checkpoint header") from exc
            blob = fh.read()
        if not isinstance(header, dict) or header.get("v") != _FORMAT_VERSION \
                or not isinstance(header.get("nbytes"), int):
            raise CheckpointError(f"{path}: unsupported checkpoint header")
        if len(blob) != header["nbytes"]:
            raise CheckpointError(
                f"{path}: truncated shard ({len(blob)} of "
                f"{header['nbytes']} payload bytes)")
        if hashlib.sha256(blob).hexdigest() != header.get("sha256"):
            raise CheckpointError(f"{path}: shard failed its checksum")
        return header, blob

    def load_shard(self, run_key, step, pid):
        path = self._shard_path(run_key, step, pid)
        try:
            header, blob = self._read(path)
        except FileNotFoundError:
            raise CheckpointError(
                f"no checkpoint shard for rank {pid} at step {step} "
                f"(run {run_key!r}, expected {path})") from None
        if header.get("step") != step or header.get("pid") != pid:
            raise CheckpointError(
                f"{path}: header identity (step {header.get('step')}, "
                f"rank {header.get('pid')}) does not match its location")
        return blob

    def steps(self, run_key):
        # Scans happen between runs (workers idle or dead), so sweeping
        # orphaned temp files from interrupted writes here is safe.
        self._sweep_temps(run_key)
        return self._scan_steps(run_key)

    def _sweep_temps(self, run_key) -> None:
        for step in self._scan_steps(run_key):
            step_dir = self._step_dir(run_key, step)
            try:
                names = os.listdir(step_dir)
            except FileNotFoundError:
                continue
            for name in names:
                if name.startswith(_TMP_PREFIX):
                    try:
                        os.unlink(os.path.join(step_dir, name))
                    except FileNotFoundError:
                        pass

    def _valid_pids(self, run_key, step):
        step_dir = self._step_dir(run_key, step)
        try:
            names = os.listdir(step_dir)
        except FileNotFoundError:
            return {}
        out: dict[int, int] = {}
        for name in names:
            if not (name.startswith(_RANK_PREFIX)
                    and name.endswith(_SHARD_SUFFIX)):
                continue
            try:
                pid = int(name[len(_RANK_PREFIX):-len(_SHARD_SUFFIX)])
            except ValueError:
                continue
            try:
                header, _blob = self._read(os.path.join(step_dir, name))
            except (CheckpointError, OSError):
                continue
            if header.get("step") == step and header.get("pid") == pid \
                    and isinstance(header.get("nprocs"), int):
                out[pid] = header["nprocs"]
        return out

    def _drop_step(self, run_key, step):
        shutil.rmtree(self._step_dir(run_key, step), ignore_errors=True)

    def clear(self, run_key):
        shutil.rmtree(self._run_dir(run_key), ignore_errors=True)


@dataclass
class CheckpointConfig:
    """How a ``bsp_run`` checkpoints: where, how often, and whether to
    resume from what the store already holds.

    ``run_key`` namespaces runs sharing one store; ``resume=False`` (the
    default) clears the key up front so stale shards from a previous run
    can never hijack an in-run crash retry.
    """

    store: CheckpointStore
    every: int = 1
    run_key: str = "default"
    resume: bool = False

    def __post_init__(self):
        if not isinstance(self.store, CheckpointStore):
            raise BspConfigError(
                f"checkpoint store must be a CheckpointStore, "
                f"got {type(self.store).__name__}")
        if not isinstance(self.every, int) or self.every < 1:
            raise BspConfigError(
                f"checkpoint_every must be a positive int, "
                f"got {self.every!r}")
        if not self.run_key or "/" in self.run_key or os.sep in self.run_key:
            raise BspConfigError(
                f"run_key must be a non-empty path-free name, "
                f"got {self.run_key!r}")


class WorkerCheckpoint:
    """One rank's checkpoint agent, bound to its :class:`~repro.core.api.Bsp`.

    Created (and the resume snapshot loaded) inside the worker by
    :class:`CheckpointedProgram`; the ``Bsp`` context calls ``due`` /
    ``write`` from its ``checkpoint()`` method and hands the restored
    program state out once via ``take_state``.
    """

    def __init__(self, store: CheckpointStore, every: int, run_key: str,
                 snapshot: Snapshot | None = None):
        self._store = store
        self._every = every
        self._run_key = run_key
        self._snapshot = snapshot
        self._state_pending = snapshot is not None
        self._last_step = None if snapshot is None else snapshot.step

    @property
    def snapshot(self) -> Snapshot | None:
        return self._snapshot

    def take_state(self) -> Any:
        if not self._state_pending:
            return None
        self._state_pending = False
        return self._snapshot.state

    def due(self, step: int) -> bool:
        return self._last_step is None or step - self._last_step >= self._every

    def write(self, step: int, pid: int, nprocs: int, state: Any,
              inbox: Iterable, samples: Iterable) -> None:
        snap = Snapshot(step=step, pid=pid, nprocs=nprocs, state=state,
                        inbox=list(inbox), samples=list(samples))
        self._store.save_shard(self._run_key, step, pid, nprocs,
                               encode_snapshot(snap))
        self._last_step = step


class CheckpointedProgram:
    """Program wrapper that attaches a checkpoint agent inside each worker.

    Picklable whenever the wrapped program and store are, so it crosses
    every backend boundary (fork, pooled pickle blob, TCP) unchanged.
    When ``resume_step`` is set, each rank loads and validates its own
    shard before the program body runs; ``Bsp._attach_checkpoint``
    restores ledger, inbox, and superstep counter from it.
    """

    def __init__(self, program, config: CheckpointConfig,
                 resume_step: int | None):
        self._program = program
        self._config = config
        self._resume_step = resume_step

    def __call__(self, bsp, *args, **kwargs):
        cfg = self._config
        snapshot = None
        if self._resume_step is not None:
            blob = cfg.store.load_shard(cfg.run_key, self._resume_step,
                                        bsp.pid)
            snapshot = decode_snapshot(blob)
            if (snapshot.step != self._resume_step or snapshot.pid != bsp.pid
                    or snapshot.nprocs != bsp.nprocs):
                raise CheckpointError(
                    f"checkpoint shard mismatch: expected (step "
                    f"{self._resume_step}, rank {bsp.pid}, nprocs "
                    f"{bsp.nprocs}), found (step {snapshot.step}, rank "
                    f"{snapshot.pid}, nprocs {snapshot.nprocs})")
        bsp._attach_checkpoint(WorkerCheckpoint(
            cfg.store, cfg.every, cfg.run_key, snapshot))
        return self._program(bsp, *args, **kwargs)
