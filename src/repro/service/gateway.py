"""The asyncio job gateway: many clients, one warm fleet.

One process runs three kinds of coroutine:

* **connection handlers** (one per client socket) parse protocol frames
  and answer submit / status / cancel / health;
* **dispatchers** (one per fleet slot) lease jobs from the scheduler —
  weighted-fair across tenants, keyed by the slot's ``(backend, p)`` —
  and execute them on the slot's warm pool via a thread executor (a
  pooled ``run()`` blocks in ``connection.wait``, which must not block
  the event loop);
* the **server** accept loop.

Job state transitions are *published*: every streaming submitter of a
job holds an ``asyncio.Queue`` that receives the record after each
transition, so clients watch QUEUED → RUNNING → DONE/FAILED/CANCELLED
live instead of polling.  All telemetry crossing the wire is plain JSON
(``PoolHealth.to_dict`` and friends) — live objects never leave the
process.

Failure containment (see DESIGN.md "Service architecture"):

* a worker crash mid-job stays *inside* the leased pool — it self-heals
  and the job's own ``retries``/``checkpoint_every`` budget decides
  whether the run resumes (from the last barrier) or the job FAILs;
* a pool that declares itself terminal (``PoolExhaustedError``) fails
  the job and is **recycled**: the dispatcher forks a fresh pool for the
  slot, so fleet capacity returns to nominal without operator action;
* a client that disconnects mid-stream loses only its subscription; the
  job keeps running and remains queryable by id;
* the gateway process itself dying is survivable when configured with a
  ``journal_dir``: every job-state transition is written ahead to the
  :class:`~repro.service.journal.JobJournal`, and a restarted gateway
  replays it — queued jobs re-admitted in their original weighted-fair
  order, RUNNING jobs resumed from their last worker checkpoint, orphan
  workers of the dead incarnation reaped first (see
  DESIGN.md "Durable service").

Health is *probed*, not assumed: a background prober walks the fleet
slots every ``probe_interval`` seconds; a slot that fails consecutive
probes (or restarts its workers in a storm) is **quarantined** — skipped
by dispatchers while its pool recycles in the background — and when
every slot serving a fleet key is quarantined, submissions for that key
are shed with a typed ``ServiceOverloadError`` carrying a Retry-After
hint instead of being accepted into silent unbounded latency.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from ..core.errors import AdmissionError, BspConfigError, BspError, \
    BspUsageError, PoolExhaustedError
from . import protocol
from .fleet import FleetSpec, WarmFleet
from .jobs import JobRecord, JobSpec
from .journal import (
    JobJournal,
    compaction_records,
    reap_orphans,
    restore_scheduler,
)
from .protocol import error_frame
from .scheduler import Scheduler, SchedulerConfig


@dataclass(frozen=True)
class GatewayConfig:
    """Everything a gateway needs: where to listen, what to warm."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = pick a free port; read it back after start().
    fleet: tuple[FleetSpec, ...] = (FleetSpec(),)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Root of the service-managed on-disk checkpoint store; ``None``
    #: means a private temporary directory, removed on shutdown — unless
    #: ``journal_dir`` is set, in which case checkpoints default to
    #: ``<journal_dir>/checkpoints`` so resumed jobs find their shards
    #: across gateway restarts.
    checkpoint_root: str | None = None
    #: Honour ``shutdown`` frames (tests, benchmarks, local dev).
    allow_shutdown: bool = True
    #: Root of the durable job journal; ``None`` disables durability
    #: (a crash loses queued/running jobs, as before this existed).
    journal_dir: str | None = None
    #: Seconds between fleet health probes; 0 disables probing.
    probe_interval: float = 1.0
    #: Consecutive failed probes before a slot is quarantined.
    quarantine_after: int = 2
    #: Worker restarts between two probes that count as a restart storm
    #: (immediate quarantine even when the probe itself succeeds).
    restart_burst: int = 3
    #: Retry-After hint (seconds) attached to shed submissions.
    shed_retry_after: float = 5.0


class ServiceGateway:
    """The serving system: scheduler + warm fleet + protocol server."""

    def __init__(self, config: GatewayConfig | None = None):
        self.config = config or GatewayConfig()
        self.scheduler = Scheduler(self.config.scheduler)
        self.fleet: WarmFleet | None = None
        self.host = self.config.host
        self.port: int | None = None
        self.started_at: float | None = None
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._wake: asyncio.Condition | None = None
        self._stopping = asyncio.Event()
        self._job_counter = 0
        self._subscribers: dict[str, list[asyncio.Queue]] = {}
        #: Open (kept-alive) client connections, for _shutdown to close.
        self._writers: set[asyncio.StreamWriter] = set()
        self._checkpoint_root: str | None = None
        self._owns_checkpoint_root = False
        self.journal: JobJournal | None = None
        #: Idempotency key → job id (journal-persisted: survives restarts).
        self._keys: dict[str, str] = {}
        self.journal_replays = 0
        self.journal_damaged = 0
        self.orphans_reaped = 0
        self._prober: asyncio.Task | None = None
        self._bg_tasks: set[asyncio.Task] = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Warm the fleet and start listening; returns once bound.

        With a ``journal_dir``, startup is a *replay*: scan the journal
        (stopping at the first damaged record), reap orphan workers of
        the dead incarnation, rebuild the scheduler — queued jobs in
        their original weighted-fair order, interrupted jobs on the
        resume lane — compact the log, and only then warm the fleet and
        open the listening socket.
        """
        cfg = self.config
        self._checkpoint_root = cfg.checkpoint_root
        if self._checkpoint_root is None:
            if cfg.journal_dir is not None:
                # Durable gateways must keep checkpoints where the next
                # incarnation can find them: resume depends on it.
                self._checkpoint_root = os.path.join(
                    cfg.journal_dir, "checkpoints")
                os.makedirs(self._checkpoint_root, exist_ok=True)
            else:
                self._checkpoint_root = tempfile.mkdtemp(
                    prefix="repro-service-ckpt-")
                self._owns_checkpoint_root = True
        loop = asyncio.get_running_loop()
        if cfg.journal_dir is not None:
            await loop.run_in_executor(None, self._replay_journal)
        # Forking the warm pools can take hundreds of ms per pool; do it
        # off the loop so a supervisor probing the port isn't blocked.
        self.fleet = await loop.run_in_executor(
            None, WarmFleet, list(cfg.fleet))
        if self.journal is not None:
            pids = await loop.run_in_executor(
                None, self.fleet.worker_os_pids)
            if pids:
                self.journal.append("FLEET", pids=pids)
        self._executor = ThreadPoolExecutor(
            max_workers=len(self.fleet.slots),
            thread_name_prefix="bsp-svc")
        self._wake = asyncio.Condition()
        self._server = await asyncio.start_server(
            self._handle_connection, cfg.host, cfg.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        self._dispatchers = [
            asyncio.create_task(self._dispatch(slot),
                                name=f"dispatch-{slot.slot_id}")
            for slot in self.fleet.slots
        ]
        if cfg.probe_interval > 0:
            self._prober = asyncio.create_task(
                self._probe_loop(), name="fleet-prober")

    def _replay_journal(self) -> None:
        """Blocking startup replay (runs in the executor)."""
        cfg = self.config
        self.journal = JobJournal(cfg.journal_dir)
        records, damaged = self.journal.scan()
        replay = restore_scheduler(records, self.scheduler, damaged=damaged)
        # Reap the dead incarnation's workers *before* compaction journals
        # anything and before the new fleet forks: an orphan still writing
        # checkpoint shards must never interleave with a resumed attempt.
        self.orphans_reaped = len(reap_orphans(replay.fleet_pids))
        self.journal.compact(compaction_records(self.scheduler))
        self.journal.sweep_temps()
        self._job_counter = max(self._job_counter, replay.max_job_number)
        self._keys.update(replay.keys)
        self.journal_replays = replay.replayed
        self.journal_damaged = replay.damaged

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or a ``shutdown`` frame)."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self._shutdown()

    async def stop(self) -> None:
        self._stopping.set()
        if self._wake is not None:
            await self._wake_dispatchers()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            # 3.12.1+ waits below for open connections, idle or streaming.
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        if self._prober is not None:
            self._prober.cancel()
            await asyncio.gather(self._prober, return_exceptions=True)
        for task in list(self._bg_tasks):
            task.cancel()
        await asyncio.gather(*self._bg_tasks, return_exceptions=True)
        if self.journal is not None:
            self.journal.close()
        if self.fleet is not None:
            # Pool close() joins worker processes; off the loop.
            await asyncio.get_running_loop().run_in_executor(
                None, self.fleet.close)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        if self._owns_checkpoint_root and self._checkpoint_root:
            shutil.rmtree(self._checkpoint_root, ignore_errors=True)

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(self, slot) -> None:
        """One slot's loop: lease → run on the warm pool → publish."""
        assert self._wake is not None
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            # Lease under the condition lock: a submit's notify_all also
            # holds it, so "checked empty, then missed the wakeup" cannot
            # happen (stop() notifies too, and _shutdown cancels us).
            async with self._wake:
                record = None
                if not slot.quarantined:
                    record = self.scheduler.next_job(slot.key)
                if record is None:
                    await self._wake.wait()
            if record is None:
                continue
            record.started_at = time.time()
            record.attempts += 1
            self._journal_append("RUNNING", record.job_id,
                                 attempts=record.attempts,
                                 started_at=record.started_at)
            self._publish(record)
            recycle = False
            try:
                future = loop.run_in_executor(
                    self._executor,
                    partial(slot.run_job, record,
                            checkpoint_root=self._checkpoint_root))
                result = await self._await_with_progress(record, future)
            except PoolExhaustedError as exc:
                # The pool burned its whole restart budget: terminal for
                # the pool, so the slot re-forks a fresh one (capacity
                # returns to nominal), and FAILED for the job.
                record.error = _error_payload(exc)
                recycle = True
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001 - typed to client
                record.error = _error_payload(exc)
            else:
                record.result = result
            record.finished_at = time.time()
            state = "FAILED" if record.error is not None else "DONE"
            self.scheduler.finish(record, state)
            # Journal the outcome *before* publishing it: a crash between
            # the two re-runs the job (journal says RUNNING) rather than
            # losing a result a client may already have seen.
            self._journal_append(state, record.job_id,
                                 result=record.result, error=record.error,
                                 finished_at=record.finished_at)
            self._publish(record)
            if recycle:
                await loop.run_in_executor(self._executor, slot.recycle)
            # A pool just came free: wake sibling dispatchers whose keys
            # may have queued work gated by in-flight caps.
            await self._wake_dispatchers()

    async def _await_with_progress(self, record: JobRecord, future) -> Any:
        """Await a running job, observing its checkpoint progress.

        A parent cannot see inside its workers' supersteps, but a
        checkpointed job leaves evidence: its newest *complete* step in
        the checkpoint store.  While the run is in flight we poll that
        (cheap: a directory scan + shard validation at the job's own
        ``checkpoint_every`` granularity), journal each advance as a STEP
        record — moving the recovery point a replay resumes from — and
        publish it so streaming clients watch progress live.
        """
        spec = record.spec
        if spec.checkpoint_every is None or self._checkpoint_root is None:
            return await future
        from ..checkpoint import DiskCheckpointStore
        loop = asyncio.get_running_loop()
        store = DiskCheckpointStore(self._checkpoint_root)
        while True:
            done, _ = await asyncio.wait([future], timeout=0.2)
            if done:
                return await future
            step = await loop.run_in_executor(
                None, store.latest_step, record.job_id, spec.nprocs)
            if step is not None and step != record.progress_step:
                record.progress_step = step
                self._journal_append("STEP", record.job_id, step=step)
                self._publish(record)

    def _journal_append(self, kind: str, job_id: str | None = None,
                        **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append(kind, job_id, **fields)

    # -- health probing -----------------------------------------------------

    async def _probe_loop(self) -> None:
        """Walk the fleet every ``probe_interval``s; quarantine the sick.

        A slot is quarantined after ``quarantine_after`` consecutive
        failed probes, or immediately when its pool restarted
        ``restart_burst`` or more workers since the last probe (a restart
        storm: the pool is technically alive but churning).  Quarantined
        slots recycle in the background once idle, then return to duty.
        """
        cfg = self.config
        loop = asyncio.get_running_loop()
        probe_seq = 0
        while not self._stopping.is_set():
            try:
                await asyncio.wait_for(self._stopping.wait(),
                                       timeout=cfg.probe_interval)
                return
            except asyncio.TimeoutError:
                pass
            probe_seq += 1
            assert self.fleet is not None
            for slot in self.fleet.slots:
                if slot.quarantined:
                    continue
                result = await loop.run_in_executor(
                    None, slot.probe, probe_seq)
                storm = result["restart_burst"] >= cfg.restart_burst
                sick = (not result["healthy"]
                        and slot.consecutive_probe_failures
                        >= cfg.quarantine_after)
                if storm or sick:
                    slot.quarantine()
                    task = asyncio.create_task(
                        self._recycle_quarantined(slot),
                        name=f"recycle-{slot.slot_id}")
                    self._bg_tasks.add(task)
                    task.add_done_callback(self._bg_tasks.discard)

    async def _recycle_quarantined(self, slot) -> None:
        """Recycle a quarantined slot's pool once idle, then reinstate it."""
        loop = asyncio.get_running_loop()
        while slot.busy_job is not None and not self._stopping.is_set():
            await asyncio.sleep(0.05)
        if self._stopping.is_set():
            return
        await loop.run_in_executor(None, slot.recycle)
        if self.journal is not None and self.fleet is not None:
            pids = await loop.run_in_executor(
                None, self.fleet.worker_os_pids)
            if pids:
                self._journal_append("FLEET", pids=pids)
        slot.unquarantine()
        await self._wake_dispatchers()

    def _publish(self, record: JobRecord) -> None:
        """Push a state transition to every subscriber of the job."""
        queues = self._subscribers.get(record.job_id)
        if not queues:
            if record.terminal:
                self._subscribers.pop(record.job_id, None)
            return
        snapshot = record.to_dict()
        for queue in queues:
            queue.put_nowait(snapshot)
        if record.terminal:
            del self._subscribers[record.job_id]

    async def _wake_dispatchers(self) -> None:
        assert self._wake is not None
        async with self._wake:
            self._wake.notify_all()

    # -- connections --------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    frame = await protocol.read_frame(reader)
                except protocol.ProtocolError as exc:
                    await protocol.write_frame(
                        writer, error_frame("ProtocolError", str(exc)))
                    return
                if frame is None:
                    return
                kind = frame.get("type")
                if kind == "submit":
                    await self._on_submit(frame, writer)
                elif kind == "watch":
                    await self._on_watch(frame, writer)
                elif kind == "status":
                    await self._on_status(frame, writer)
                elif kind == "cancel":
                    await self._on_cancel(frame, writer)
                elif kind == "health":
                    await protocol.write_frame(writer, self._health_frame())
                elif kind == "shutdown":
                    await protocol.write_frame(
                        writer, {"type": "bye"} if self.config.allow_shutdown
                        else error_frame("BspUsageError",
                                         "shutdown disabled on this gateway"))
                    if self.config.allow_shutdown:
                        await self.stop()
                        return
                else:
                    await protocol.write_frame(writer, error_frame(
                        "ProtocolError", f"unknown request type {kind!r}"))
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; its job (if any) keeps running
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _on_submit(self, frame: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        tenant = frame.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            await protocol.write_frame(writer, error_frame(
                "BspConfigError", f"tenant must be a non-empty string, "
                                  f"got {tenant!r}"))
            return
        key = frame.get("key")
        if key is not None and (not isinstance(key, str) or not key):
            await protocol.write_frame(writer, error_frame(
                "BspConfigError",
                f"job key must be a non-empty string, got {key!r}"))
            return
        stream = bool(frame.get("stream", True))
        if key is not None and key in self._keys:
            # Idempotent resubmission: this key was already accepted
            # (possibly by a previous gateway incarnation — the mapping
            # is journaled).  Re-attach to the existing job instead of
            # queuing a duplicate.
            existing = self.scheduler.get(self._keys[key])
            if existing is not None:
                await self._attach(existing, writer, stream=stream,
                                   deduped=True)
                return
        try:
            spec = JobSpec.from_dict(frame.get("job"))
        except BspError as exc:
            await protocol.write_frame(
                writer, error_frame(type(exc).__name__, str(exc)))
            return
        assert self.fleet is not None
        if spec.key not in self.fleet.keys:
            await protocol.write_frame(writer, error_frame(
                "AdmissionError",
                f"no warm pool serves (backend={spec.backend!r}, "
                f"nprocs={spec.nprocs}); fleet keys: "
                f"{sorted(self.fleet.keys)}"))
            return
        if not self.fleet.healthy_slots(spec.key):
            # Every slot serving this key is quarantined: shed the load
            # with a Retry-After hint rather than accept into a queue
            # nothing can drain.
            await protocol.write_frame(writer, error_frame(
                "ServiceOverloadError",
                f"all pools for (backend={spec.backend!r}, "
                f"nprocs={spec.nprocs}) are quarantined",
                retry_after=self.config.shed_retry_after))
            return
        self._job_counter += 1
        record = JobRecord(job_id=f"j{self._job_counter}", tenant=tenant,
                           spec=spec, key=key)
        queue: asyncio.Queue | None = None
        if stream:
            # Subscribe *before* admission so no transition can race past.
            queue = asyncio.Queue()
            self._subscribers.setdefault(record.job_id, []).append(queue)
        # Write-ahead: the submission is on disk before the scheduler
        # (and thus any dispatcher) can see it.  If admission fails the
        # stray SUBMITTED record is ignored at replay (no ADMITTED).
        self._journal_append("SUBMITTED", record.job_id, tenant=tenant,
                             key=key, spec=spec.to_dict(),
                             submitted_at=record.submitted_at)
        try:
            self.scheduler.submit(record)
        except AdmissionError as exc:
            if queue is not None:
                self._unsubscribe(record.job_id, queue)
            await protocol.write_frame(
                writer, error_frame("AdmissionError", str(exc),
                                    job_id=record.job_id))
            return
        if key is not None:
            self._keys[key] = record.job_id
        self._journal_append("ADMITTED", record.job_id)
        await protocol.write_frame(
            writer, {"type": "accepted", "job": record.to_dict()})
        await self._wake_dispatchers()
        if queue is None:
            return
        await self._stream_states(record.job_id, queue, writer)

    async def _on_watch(self, frame: dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        """Re-attach to an existing job's state stream (by id or key).

        The reconnect half of idempotent resubmission: a client whose
        streaming submit died with a bouncing gateway reconnects and
        watches the same job to completion — no duplicate run, no lost
        result.
        """
        job_id = frame.get("job_id")
        key = frame.get("key")
        if job_id is None and isinstance(key, str):
            job_id = self._keys.get(key)
        record = self.scheduler.get(job_id) if job_id is not None else None
        if record is None:
            await protocol.write_frame(writer, error_frame(
                "BspUsageError",
                f"unknown job (id={frame.get('job_id')!r}, "
                f"key={key!r})"))
            return
        await self._attach(record, writer,
                           stream=bool(frame.get("stream", True)),
                           deduped=False)

    async def _attach(self, record: JobRecord, writer: asyncio.StreamWriter,
                      *, stream: bool, deduped: bool) -> None:
        """Send ``accepted`` for an existing job and stream it to terminal."""
        queue: asyncio.Queue | None = None
        if stream and not record.terminal:
            queue = asyncio.Queue()
            self._subscribers.setdefault(record.job_id, []).append(queue)
        accepted = {"type": "accepted", "job": record.to_dict()}
        if deduped:
            accepted["deduped"] = True
        await protocol.write_frame(writer, accepted)
        if not stream:
            return
        if record.terminal:
            await protocol.write_frame(
                writer, {"type": "state", "job": record.to_dict()})
            return
        # Late joiners see the current state immediately, then live
        # transitions (possibly duplicating the current one — clients
        # treat the stream as monotonic snapshots, not edge events).
        assert queue is not None
        queue.put_nowait(record.to_dict())
        await self._stream_states(record.job_id, queue, writer)

    async def _stream_states(self, job_id: str, queue: asyncio.Queue,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                snapshot = await queue.get()
                await protocol.write_frame(
                    writer, {"type": "state", "job": snapshot})
                if snapshot["state"] in ("DONE", "FAILED", "CANCELLED"):
                    return
        finally:
            self._unsubscribe(job_id, queue)

    def _unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        queues = self._subscribers.get(job_id)
        if queues is None:
            return
        try:
            queues.remove(queue)
        except ValueError:
            pass
        if not queues:
            del self._subscribers[job_id]

    async def _on_status(self, frame: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        job_id = frame.get("job_id")
        if job_id is None:
            jobs = self.scheduler.jobs()
            await protocol.write_frame(writer, {
                "type": "jobs",
                "jobs": [record.to_dict() for record in jobs[-100:]],
                "total": len(jobs),
            })
            return
        record = self.scheduler.get(job_id)
        if record is None:
            await protocol.write_frame(writer, error_frame(
                "BspUsageError", f"unknown job id {job_id!r}"))
            return
        await protocol.write_frame(
            writer, {"type": "job", "job": record.to_dict()})

    async def _on_cancel(self, frame: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        job_id = frame.get("job_id")
        try:
            record = self.scheduler.cancel(job_id)
        except BspUsageError as exc:
            await protocol.write_frame(
                writer, error_frame("BspUsageError", str(exc)))
            return
        if record is None:
            current = self.scheduler.get(job_id)
            await protocol.write_frame(writer, error_frame(
                "BspUsageError",
                f"job {job_id!r} is {current.state} and cannot be "
                "cancelled (a RUNNING BSP job is not interruptible)",
                job_id=job_id))
            return
        record.finished_at = time.time()
        self._journal_append("CANCELLED", record.job_id,
                             finished_at=record.finished_at)
        self._publish(record)
        await protocol.write_frame(
            writer, {"type": "cancelled", "job": record.to_dict()})

    def _health_frame(self) -> dict[str, Any]:
        assert self.fleet is not None and self.started_at is not None
        uptime = max(time.time() - self.started_at, 1e-9)
        completed = self.scheduler.completed
        return {
            "type": "health",
            "uptime_seconds": uptime,
            "jobs_per_second": completed / uptime,
            "scheduler": self.scheduler.snapshot(),
            "fleet": self.fleet.health(),
            "journal": {
                "enabled": self.journal is not None,
                "seq": self.journal.seq if self.journal else 0,
                "replayed": self.journal_replays,
                "damaged": self.journal_damaged,
                "orphans_reaped": self.orphans_reaped,
            },
            "quarantined_slots": [slot.slot_id for slot in self.fleet.slots
                                  if slot.quarantined],
        }


def _error_payload(exc: BaseException) -> dict[str, Any]:
    return {"error": type(exc).__name__, "message": str(exc)}


class RunningService:
    """A gateway running on its own thread + event loop (tests, bench, CLI
    clients in the same process).  Use as a context manager::

        with serve_in_background(config) as svc:
            with ServiceClient(svc.host, svc.port) as client: ...
    """

    def __init__(self, gateway: ServiceGateway, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.gateway = gateway
        self._thread = thread
        self._loop = loop

    @property
    def host(self) -> str:
        return self.gateway.host

    @property
    def port(self) -> int:
        assert self.gateway.port is not None
        return self.gateway.port

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.gateway.stop()))
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "RunningService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def serve_in_background(config: GatewayConfig | None = None,
                        *, start_timeout: float = 120.0) -> RunningService:
    """Start a gateway on a daemon thread; returns once it is listening."""
    gateway = ServiceGateway(config)
    started = threading.Event()
    failure: list[BaseException] = []
    loop_holder: list[asyncio.AbstractEventLoop] = []

    def main() -> None:
        async def body() -> None:
            loop_holder.append(asyncio.get_running_loop())
            try:
                await gateway.start()
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                failure.append(exc)
                started.set()
                return
            started.set()
            await gateway.serve_forever()

        asyncio.run(body())

    thread = threading.Thread(target=main, name="bsp-service", daemon=True)
    thread.start()
    if not started.wait(timeout=start_timeout):
        raise BspConfigError("service gateway did not start in time")
    if failure:
        raise failure[0]
    return RunningService(gateway, thread, loop_holder[0])
