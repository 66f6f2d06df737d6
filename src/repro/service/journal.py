"""The gateway's crash-safe job journal: a write-ahead log of job state.

PR 5 made *worker* state recoverable — every barrier is a consistent cut
and a crashed run resumes from its last checkpoint.  This module gives
the *control plane* the same property: every job-state transition the
gateway performs (SUBMITTED → ADMITTED → RUNNING → step progress →
DONE/FAILED/CANCELLED) is appended to an on-disk journal **before** the
transition is acknowledged to anyone, so a gateway that is SIGKILLed
mid-stream loses no admitted job.  ``serve --journal-dir`` replays the
log on startup: queued jobs are re-admitted in their original weighted-
fair order, RUNNING jobs are re-queued at the head of the line with
``resume=True`` (they pick up from their last worker checkpoint via the
existing ``CheckpointConfig(resume=True)`` path), and terminal jobs keep
answering ``status``/idempotency-key queries with their recorded result.

Record format
-------------
The journal is a single append-only file, ``journal.log``, of
self-validating records — one per line::

    <sha256-of-body hex> <body JSON>\\n

where the body is a compact JSON object carrying at least ``seq`` (dense,
ascending), ``kind`` and ``ts``.  A record is valid only when its body
hashes to the recorded digest *and* the line is newline-terminated — a
torn tail write (power loss mid-append) therefore fails validation
instead of being half-parsed.  The damaged-record fallback ladder is the
checkpoint store's, applied to a log: the scan keeps every record up to
the first damaged one and **skips** the damage and everything after it
(append-only means everything past a torn record is suspect), counting
what it dropped so telemetry can report it.

Record kinds
------------
=============== =========================================================
``SUBMITTED``   full job spec + tenant + optional idempotency key; the
                job exists but is not yet admitted.
``ADMITTED``    the scheduler accepted the job (state QUEUED).  Carries
                ``resume: true`` when written by compaction for a job
                that must resume rather than restart.
``RUNNING``     a dispatcher leased the job onto a warm pool.
``STEP``        superstep progress observed from the job's checkpoint
                shards (the recovery point moved forward).
``DONE``        terminal: carries the result payload (ledger + digest).
``FAILED``      terminal: carries the typed error payload.
``CANCELLED``   terminal: the job never launched.
``FLEET``       the OS pids of the warm fleet's worker processes — a new
                incarnation reaps these orphans before forking its own
                fleet, so a dead gateway's workers can never race the
                replay's resumed runs on the shared checkpoint store.
``SCHED``       written by compaction: the per-tenant WFQ pass values at
                compaction time, so fairness state survives a second
                crash after a replay.
=============== =========================================================

Durability
----------
Appends are flushed, and all kinds but ``SUBMITTED``/``RUNNING`` fsynced,
before :meth:`append` returns — the gateway journals *then* acknowledges
(DESIGN.md "Durable service" has the table).  Startup compaction
rewrites the log to just the live state using the checkpoint store's
atomic-write primitive (:func:`repro.checkpoint.atomic_replace_write`:
dot-tmp + fsync + ``os.replace``), so the log stays O(live jobs) across
restarts and a crash mid-compaction leaves either the old log or the new
one, never a mix.

Fault injection: :meth:`append` consults the installed
:class:`~repro.faults.FaultPlan` after the durable write —
``JOURNAL_TORN`` truncates the just-written record (a torn tail, on
purpose), ``GATEWAY_CRASH`` SIGKILLs the gateway process right after the
record lands (the chaos tests' deterministic kill switch).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from .. import faults
from ..checkpoint import atomic_replace_write
from ..core.errors import BspConfigError
from .jobs import JobRecord, JobSpec

_LOG_NAME = "journal.log"

#: Journal record kinds (see module docstring).
JOURNAL_KINDS = ("SUBMITTED", "ADMITTED", "RUNNING", "STEP", "DONE",
                 "FAILED", "CANCELLED", "FLEET", "SCHED")

#: Kinds that are flushed but do not force the log: it is one append-only
#: file, so ``SUBMITTED`` rides ``ADMITTED``'s fsync (before ``accepted`` is
#: sent) and ``RUNNING`` the first ``STEP``'s or the terminal record's.
_RIDES_NEXT_FSYNC = frozenset({"SUBMITTED", "RUNNING"})


def encode_record(rec: dict[str, Any]) -> bytes:
    """One self-validating journal line for ``rec`` (newline included)."""
    body = json.dumps(rec, separators=(",", ":"), sort_keys=True)
    body_bytes = body.encode("utf-8")
    digest = hashlib.sha256(body_bytes).hexdigest()
    return digest.encode("ascii") + b" " + body_bytes + b"\n"


def decode_record(line: bytes) -> dict[str, Any] | None:
    """The validated record body, or ``None`` for a damaged line."""
    digest, sep, body = line.partition(b" ")
    if not sep or len(digest) != 64:
        return None
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        return None
    try:
        rec = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):  # pragma: no cover - sha'd
        return None
    if not isinstance(rec, dict) or not isinstance(rec.get("seq"), int) \
            or rec.get("kind") not in JOURNAL_KINDS:
        return None
    return rec


class JobJournal:
    """Append-only, self-validating log of gateway job-state transitions.

    Thread-safe; the gateway appends from its event loop and (for step
    progress) its poller coroutines, tests drive it directly.
    """

    def __init__(self, root: str | os.PathLike, *, fsync: bool = True):
        self._root = os.fspath(root)
        if not self._root:
            raise BspConfigError("journal root must be a non-empty path")
        os.makedirs(self._root, exist_ok=True)
        self._path = os.path.join(self._root, _LOG_NAME)
        self._fsync = fsync
        self._fh = None
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def root(self) -> str:
        return self._root

    @property
    def path(self) -> str:
        return self._path

    @property
    def seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._seq

    # -- write side ----------------------------------------------------------

    def _open(self):
        if self._fh is None:
            self._fh = open(self._path, "ab")
        return self._fh

    def append(self, kind: str, job_id: str | None = None,
               **fields: Any) -> int:
        """Append one record; returns its sequence number.

        The record is flushed, and — unless its kind rides the next
        fsync, or the journal was built with ``fsync=False`` — on disk
        with every record before it when this returns: callers
        acknowledge *after* appending, which makes the log write-ahead.
        """
        if kind not in JOURNAL_KINDS:
            raise BspConfigError(f"unknown journal record kind {kind!r}")
        with self._lock:
            self._seq += 1
            rec: dict[str, Any] = {"seq": self._seq, "kind": kind,
                                   "ts": time.time()}
            if job_id is not None:
                rec["job_id"] = job_id
            rec.update(fields)
            line = encode_record(rec)
            fh = self._open()
            fh.write(line)
            fh.flush()
            if self._fsync and kind not in _RIDES_NEXT_FSYNC:
                os.fsync(fh.fileno())
            plan = faults._ACTIVE
            if plan is not None:
                if plan.tears_journal(self._seq):
                    self._tear_tail(len(line))
                if plan.crashes_gateway(self._seq):
                    os.kill(os.getpid(), signal.SIGKILL)
            return self._seq

    def _tear_tail(self, line_len: int) -> None:
        """Injected damage: tear the just-written record in half."""
        fh = self._fh
        size = fh.tell()
        fh.truncate(size - (line_len // 2))
        fh.seek(0, os.SEEK_END)

    # -- read side -----------------------------------------------------------

    def scan(self) -> tuple[list[dict[str, Any]], int]:
        """All valid records from the head of the log, plus damage count.

        The fallback ladder: records are returned up to the first one
        that fails validation (bad digest, malformed body, missing
        newline); the damaged record *and everything after it* are
        skipped and counted — in an append-only log, anything past a
        torn record belongs to writes whose ordering can no longer be
        trusted, so it is never replayed.
        """
        try:
            with open(self._path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return [], 0
        if not data:
            return [], 0
        terminated = data.endswith(b"\n")
        lines = data.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        records: list[dict[str, Any]] = []
        for index, line in enumerate(lines):
            torn_tail = index == len(lines) - 1 and not terminated
            rec = None if torn_tail else decode_record(line)
            if rec is None or rec["seq"] != len(records) + 1:
                # Damaged (or out-of-sequence) record: stop here — in an
                # append-only log nothing after it can be trusted.
                return records, len(lines) - index
            records.append(rec)
        return records, 0

    # -- compaction ----------------------------------------------------------

    def compact(self, records: list[dict[str, Any]]) -> None:
        """Atomically rewrite the log to exactly ``records``, re-sequenced.

        Uses the checkpoint store's durable-write primitive (dot-tmp +
        fsync + ``os.replace``): a reader — including a replay after a
        crash mid-compaction — sees either the old log or the new one in
        full, never a torn mix.  Future appends continue after the new
        sequence.
        """
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            lines = []
            for index, rec in enumerate(records, start=1):
                rec = dict(rec)
                rec["seq"] = index
                lines.append(encode_record(rec))
            atomic_replace_write(self._path, *lines)
            self._seq = len(records)

    def sweep_temps(self) -> int:
        """Remove orphaned compaction temp files; returns how many."""
        swept = 0
        for name in os.listdir(self._root):
            if name.startswith(".tmp-"):
                try:
                    os.unlink(os.path.join(self._root, name))
                    swept += 1
                except FileNotFoundError:  # pragma: no cover - raced
                    pass
        return swept

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# -- replay ------------------------------------------------------------------

@dataclass
class JournalReplay:
    """What a journal scan reconstructed, ready for the gateway to adopt.

    ``jobs`` is every journaled job in admission order (terminal ones
    included — they keep serving ``status`` and idempotency-key lookups);
    ``resumed``/``requeued`` partition the live ones; ``fleet_pids`` are
    worker pids of previous gateway incarnations (orphans to reap);
    ``damaged`` counts journal records dropped by the fallback ladder.
    """

    jobs: dict[str, JobRecord] = field(default_factory=dict)
    keys: dict[str, str] = field(default_factory=dict)
    resumed: list[JobRecord] = field(default_factory=list)
    requeued: list[JobRecord] = field(default_factory=list)
    fleet_pids: list[int] = field(default_factory=list)
    damaged: int = 0
    max_job_number: int = 0

    @property
    def replayed(self) -> int:
        """Jobs brought back to runnable state by this replay."""
        return len(self.resumed) + len(self.requeued)


def restore_scheduler(records: list[dict[str, Any]], scheduler,
                      *, damaged: int = 0) -> JournalReplay:
    """Replay journal ``records`` into a fresh :class:`Scheduler`.

    Applies the replay state machine: SUBMITTED creates the record,
    ADMITTED re-submits it (preserving admission order, hence WFQ
    fairness), RUNNING replays the dispatch (advancing the tenant's pass
    exactly as the original lease did), STEP advances the observed
    progress, terminal kinds settle the job, and SCHED restores pass
    values written by a previous compaction.  Afterwards every job the
    crash left RUNNING is re-queued on the scheduler's resume lane with
    ``resume=True`` — it will be leased before fresh work and resumes
    from its last worker checkpoint instead of restarting.
    """
    replay = JournalReplay(damaged=damaged)
    dispatched: list[JobRecord] = []
    for rec in records:
        kind = rec["kind"]
        if kind == "FLEET":
            replay.fleet_pids.extend(
                int(pid) for pid in rec.get("pids", ()))
            continue
        if kind == "SCHED":
            passes = rec.get("tenants")
            if isinstance(passes, dict):
                scheduler.set_passes(
                    {str(t): float(p) for t, p in passes.items()})
            continue
        job_id = rec.get("job_id")
        if not isinstance(job_id, str):
            continue
        if kind == "SUBMITTED":
            try:
                spec = JobSpec.from_dict(rec.get("spec"))
            except Exception:
                continue  # spec no longer parses; drop, never guess
            record = JobRecord(
                job_id=job_id, tenant=str(rec.get("tenant", "default")),
                spec=spec, key=rec.get("key"),
                submitted_at=float(rec.get("submitted_at", rec["ts"])))
            record.state = "SUBMITTED"
            replay.jobs[job_id] = record
            if record.key:
                replay.keys[record.key] = job_id
            number = _job_number(job_id)
            if number > replay.max_job_number:
                replay.max_job_number = number
            continue
        record = replay.jobs.get(job_id)
        if record is None:
            continue  # transition without a surviving SUBMITTED record
        if kind == "ADMITTED":
            if record.state == "SUBMITTED":
                scheduler.submit(record)
                if rec.get("resume"):
                    record.resume = True
                    scheduler.enqueue_resumed(record)
        elif kind == "RUNNING":
            if scheduler.mark_dispatched(job_id) is not None:
                record.attempts = int(rec.get("attempts", record.attempts))
                record.started_at = rec.get("started_at", rec["ts"])
                dispatched.append(record)
        elif kind == "STEP":
            if isinstance(rec.get("step"), int):
                record.progress_step = rec["step"]
        elif kind in ("DONE", "FAILED"):
            if record.state == "RUNNING":
                record.result = rec.get("result")
                record.error = rec.get("error")
                record.finished_at = rec.get("finished_at", rec["ts"])
                scheduler.finish(record, kind)
        elif kind == "CANCELLED":
            if record.state == "QUEUED":
                scheduler.cancel(job_id)
                record.finished_at = rec.get("finished_at", rec["ts"])
    # The crash's RUNNING jobs go back to the head of the line *in their
    # original dispatch order* — that order IS the pre-crash fair order
    # (each was the WFQ winner when leased), so recovery preserves it.
    for record in dispatched:
        if record.state == "RUNNING":
            record.resume = True
            scheduler.enqueue_resumed(record)
            replay.resumed.append(record)
    seen = {id(record) for record in replay.resumed}
    for record in replay.jobs.values():
        if record.state == "QUEUED" and id(record) not in seen:
            (replay.resumed if record.resume
             else replay.requeued).append(record)
        # state == "SUBMITTED": journaled but never admitted (crash
        # between the two records, or the admission was rejected) — not
        # a job.
    return replay


def compaction_records(scheduler, *, fleet_pids: list[int] | None = None,
                       ) -> list[dict[str, Any]]:
    """The minimal record stream that reproduces the scheduler's state.

    Admission order (dict insertion order of the scheduler's registry) is
    preserved; terminal jobs keep their result/error so idempotent
    resubmissions and ``status`` queries survive compaction; the SCHED
    record freezes the WFQ pass values so fairness survives a second
    crash; a FLEET record re-registers the current worker pids.
    """
    records: list[dict[str, Any]] = []
    now = time.time()
    # Resume-lane jobs first, in lane (= original dispatch) order: the
    # replay of a compacted log enqueues `resume` ADMITTED records as it
    # meets them, so emit order decides recovery order.  The rest keep
    # admission order, which is what per-tenant FIFO fairness needs (the
    # cross-tenant order is frozen separately, in the SCHED record).
    lane_rank = {job_id: rank
                 for rank, job_id in enumerate(scheduler.resume_order())}
    jobs = sorted(scheduler.jobs(),
                  key=lambda r: (0, lane_rank[r.job_id])
                  if r.job_id in lane_rank else (1, 0))
    for record in jobs:
        base = {"kind": "SUBMITTED", "ts": now, "job_id": record.job_id,
                "tenant": record.tenant, "spec": record.spec.to_dict(),
                "submitted_at": record.submitted_at}
        if record.key:
            base["key"] = record.key
        records.append(base)
        if record.state == "SUBMITTED":
            continue
        admitted: dict[str, Any] = {"kind": "ADMITTED", "ts": now,
                                    "job_id": record.job_id}
        if record.resume and not record.terminal:
            admitted["resume"] = True
        records.append(admitted)
        if record.progress_step is not None and not record.terminal:
            records.append({"kind": "STEP", "ts": now,
                            "job_id": record.job_id,
                            "step": record.progress_step})
        if record.terminal:
            if record.state == "CANCELLED":
                records.append({"kind": "CANCELLED", "ts": now,
                                "job_id": record.job_id,
                                "finished_at": record.finished_at})
            else:
                records.append({"kind": "RUNNING", "ts": now,
                                "job_id": record.job_id,
                                "attempts": record.attempts,
                                "started_at": record.started_at})
                records.append({"kind": record.state, "ts": now,
                                "job_id": record.job_id,
                                "result": record.result,
                                "error": record.error,
                                "finished_at": record.finished_at})
    records.append({"kind": "SCHED", "ts": now,
                    "tenants": scheduler.passes()})
    if fleet_pids:
        records.append({"kind": "FLEET", "ts": now,
                        "pids": list(fleet_pids)})
    return records


def _job_number(job_id: str) -> int:
    """The numeric suffix of a ``jN`` job id (0 for foreign ids)."""
    if job_id.startswith("j"):
        try:
            return int(job_id[1:])
        except ValueError:
            pass
    return 0


def reap_orphans(pids: list[int]) -> list[int]:
    """SIGKILL surviving worker processes of a dead gateway incarnation.

    A SIGKILLed gateway cannot clean up its forked pool workers; they
    keep running their in-flight job and keep *writing checkpoint shards*
    under the same run keys the replay is about to resume — two attempts
    interleaving in one store.  Before warming its own fleet, a restarted
    gateway kills every journaled pid that is still alive **and** still
    looks like one of ours (its ``/proc`` cmdline mentions python; pid
    reuse by an unrelated process is left alone).  Returns the pids
    actually signalled.
    """
    reaped = []
    for pid in pids:
        if pid == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue  # no such process (or no /proc): nothing to reap
        if b"python" not in cmdline.lower():
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            reaped.append(pid)
        except OSError:  # pragma: no cover - raced its own exit
            continue
    return reaped
