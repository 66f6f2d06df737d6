"""Durable-gateway tests: journal, replay, idempotency, health probing.

Three layers:

* unit — the journal's self-validating records, the torn-tail fallback
  ladder, compaction, and the scheduler's replay affordances;
* property — weighted-fair dispatch order survives a crash/replay for
  random tenant/weight mixes (hypothesis);
* chaos — a *subprocess* gateway is SIGKILLed mid-stream with eight
  jobs in flight (running + queued), restarted on the same journal, and
  every job must reach DONE with its (S, H, h-series, m-series) ledger
  digest bit-identical to an uninterrupted run, the in-flight streaming
  clients surviving the bounce by key re-attach.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.errors import (
    BspError,
    GatewayUnavailableError,
    ServiceOverloadError,
)
from repro.service import (
    FleetSpec,
    GatewayConfig,
    SchedulerConfig,
    ServiceClient,
    protocol,
    serve_in_background,
)
from repro.service import journal as journal_module
from repro.service.jobs import JobRecord, JobSpec
from repro.service.journal import (
    JobJournal,
    compaction_records,
    decode_record,
    encode_record,
    restore_scheduler,
)
from repro.service.scheduler import Scheduler, drain_order

pytestmark = pytest.mark.timeout(300)

KEY = ("threads", 2)


def spec(**kwargs):
    base = dict(app="noop", size="1", nprocs=2, backend="threads")
    base.update(kwargs)
    return JobSpec(**base)


def make_record(job_id, tenant="default", **kwargs):
    return JobRecord(job_id=job_id, tenant=tenant, spec=spec(**kwargs))


class TestJournalRecords:
    def test_round_trip(self):
        rec = {"seq": 1, "kind": "STEP", "ts": 0.0, "job_id": "j1",
               "step": 7}
        line = encode_record(rec)
        assert line.endswith(b"\n")
        assert decode_record(line[:-1]) == rec

    def test_flipped_bit_fails_validation(self):
        line = encode_record({"seq": 1, "kind": "ADMITTED", "ts": 0.0,
                              "job_id": "j1"})[:-1]
        damaged = line[:70] + bytes([line[70] ^ 1]) + line[71:]
        assert decode_record(damaged) is None

    def test_append_scan_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append("SUBMITTED", "j1", tenant="t",
                       spec=spec().to_dict(), submitted_at=1.0)
        journal.append("ADMITTED", "j1")
        records, damaged = journal.scan()
        assert damaged == 0
        assert [r["kind"] for r in records] == ["SUBMITTED", "ADMITTED"]
        assert records[0]["seq"] == 1 and records[1]["seq"] == 2

    def test_torn_tail_is_skipped_never_replayed(self, tmp_path):
        """The fallback ladder: a torn final record (and anything after
        it) is dropped and counted; the valid prefix survives."""
        journal = JobJournal(tmp_path)
        journal.append("SUBMITTED", "j1", tenant="t",
                       spec=spec().to_dict(), submitted_at=1.0)
        journal.append("ADMITTED", "j1")
        journal.append("CANCELLED", "j1")
        with open(journal.path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() - 20)
        records, damaged = journal.scan()
        assert damaged == 1
        assert [r["kind"] for r in records] == ["SUBMITTED", "ADMITTED"]
        # Never replayed: the cancel is gone, the job replays as QUEUED.
        scheduler = Scheduler()
        replay = restore_scheduler(records, scheduler, damaged=damaged)
        assert replay.jobs["j1"].state == "QUEUED"
        assert replay.damaged == 1

    def test_garbage_mid_log_drops_the_rest(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append("SUBMITTED", "j1", tenant="t",
                       spec=spec().to_dict(), submitted_at=1.0)
        with open(journal.path, "ab") as fh:
            fh.write(b"not a journal record\n")
        journal2 = JobJournal(tmp_path)
        journal2.append("ADMITTED", "j1")  # lands after the garbage
        records, damaged = journal2.scan()
        assert [r["kind"] for r in records] == ["SUBMITTED"]
        assert damaged == 2

    def test_injected_torn_record(self, tmp_path):
        """The JOURNAL_TORN fault kind tears the just-written record."""
        journal = JobJournal(tmp_path)
        plan = faults.FaultPlan([faults.Fault(faults.JOURNAL_TORN, 0, 2)])
        with faults.injected(plan):
            journal.append("SUBMITTED", "j1", tenant="t",
                           spec=spec().to_dict(), submitted_at=1.0)
            journal.append("ADMITTED", "j1")
        records, damaged = journal.scan()
        assert [r["kind"] for r in records] == ["SUBMITTED"]
        assert damaged == 1

    def test_compaction_resequences_atomically(self, tmp_path):
        journal = JobJournal(tmp_path)
        for _ in range(5):
            journal.append("FLEET", pids=[1])
        records, _ = journal.scan()
        journal.compact(records[-2:])
        records2, damaged = journal.scan()
        assert damaged == 0
        assert [r["seq"] for r in records2] == [1, 2]
        assert journal.seq == 2
        journal.append("FLEET", pids=[2])
        assert journal.scan()[0][-1]["seq"] == 3
        # No orphaned temp files after compaction.
        assert not [n for n in os.listdir(tmp_path)
                    if n.startswith(".tmp-")]

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(Exception, match="unknown journal record kind"):
            JobJournal(tmp_path).append("NONSENSE")


class TestSchedulerReplay:
    def test_mark_dispatched_reproduces_pass_state(self):
        """Replaying journaled leases leaves pass values bit-equal to
        the live scheduler's."""
        weights = {"a": 2.0, "b": 1.0}
        live = Scheduler(SchedulerConfig(weights=weights))
        records = [make_record(f"j{i}", tenant="ab"[i % 2])
                   for i in range(6)]
        for record in records:
            live.submit(record)
        leased = [live.next_job(KEY).job_id for _ in range(3)]
        replayed = Scheduler(SchedulerConfig(weights=weights))
        for record in records:
            replayed.submit(make_record(record.job_id, tenant=record.tenant))
        for job_id in leased:
            assert replayed.mark_dispatched(job_id).job_id == job_id
        assert replayed.passes() == live.passes()
        # And the remaining fair order is identical too.
        rest_live = [r.job_id for r in drain_order(live, KEY)]
        rest_replayed = [r.job_id for r in drain_order(replayed, KEY)]
        assert rest_replayed == rest_live

    def test_resume_lane_dispatches_first_without_recharge(self):
        scheduler = Scheduler()
        running = make_record("j1")
        queued = make_record("j2")
        scheduler.submit(running)
        scheduler.submit(queued)
        assert scheduler.next_job(KEY) is running
        pass_after_lease = scheduler.passes()["default"]
        scheduler.enqueue_resumed(running)  # crash: back to the lane
        assert running.resume is True
        assert scheduler.next_job(KEY) is running  # ahead of j2
        assert scheduler.passes()["default"] == pass_after_lease
        assert scheduler.next_job(KEY) is queued

    def test_cancel_reaches_resume_lane(self):
        scheduler = Scheduler()
        record = make_record("j1")
        scheduler.submit(record)
        scheduler.next_job(KEY)
        scheduler.enqueue_resumed(record)
        assert scheduler.cancel("j1").state == "CANCELLED"
        assert scheduler.next_job(KEY) is None

    def test_set_passes_restores_fairness_state(self):
        scheduler = Scheduler()
        scheduler.set_passes({"a": 3.5, "b": 1.25})
        assert scheduler.passes() == {"a": 3.5, "b": 1.25}


class TestRestoreScheduler:
    def _journal(self, tmp_path):
        return JobJournal(tmp_path)

    def test_full_lifecycle_replay(self, tmp_path):
        journal = self._journal(tmp_path)
        sp = spec().to_dict()
        for jid in ("j1", "j2", "j3"):
            journal.append("SUBMITTED", jid, tenant="t", key=f"k-{jid}",
                           spec=sp, submitted_at=1.0)
            journal.append("ADMITTED", jid)
        journal.append("RUNNING", "j1", attempts=1, started_at=2.0)
        journal.append("STEP", "j1", step=4)
        journal.append("RUNNING", "j2", attempts=1, started_at=2.5)
        journal.append("DONE", "j2", result={"digest": "d" * 64},
                       finished_at=3.0)
        journal.append("CANCELLED", "j3", finished_at=3.5)
        records, damaged = journal.scan()
        scheduler = Scheduler()
        replay = restore_scheduler(records, scheduler, damaged=damaged)
        assert replay.jobs["j1"].state == "QUEUED"
        assert replay.jobs["j1"].resume and replay.jobs["j1"].progress_step == 4
        assert replay.jobs["j2"].state == "DONE"
        assert replay.jobs["j2"].result["digest"] == "d" * 64
        assert replay.jobs["j3"].state == "CANCELLED"
        assert [r.job_id for r in replay.resumed] == ["j1"]
        assert replay.keys == {"k-j1": "j1", "k-j2": "j2", "k-j3": "j3"}
        assert replay.max_job_number == 3
        assert scheduler.next_job(KEY).job_id == "j1"

    def test_submitted_without_admitted_is_not_a_job(self, tmp_path):
        """A crash between SUBMITTED and ADMITTED (the client never saw
        an accept) must not resurrect the job."""
        journal = self._journal(tmp_path)
        journal.append("SUBMITTED", "j1", tenant="t",
                       spec=spec().to_dict(), submitted_at=1.0)
        records, _ = journal.scan()
        scheduler = Scheduler()
        replay = restore_scheduler(records, scheduler)
        assert replay.jobs["j1"].state == "SUBMITTED"
        assert replay.replayed == 0
        assert scheduler.next_job(KEY) is None

    def test_compaction_survives_second_replay(self, tmp_path):
        """compact → scan → restore reproduces jobs, passes, and the
        resume lane — fairness survives a second crash."""
        journal = self._journal(tmp_path)
        sp = spec().to_dict()
        for i, tenant in enumerate(["a", "b", "a", "b"], start=1):
            journal.append("SUBMITTED", f"j{i}", tenant=tenant, spec=sp,
                           submitted_at=1.0)
            journal.append("ADMITTED", f"j{i}")
        journal.append("RUNNING", "j1", attempts=1, started_at=2.0)
        records, _ = journal.scan()
        first = Scheduler()
        restore_scheduler(records, first)
        journal.compact(compaction_records(first, fleet_pids=[424242]))
        records2, damaged2 = journal.scan()
        assert damaged2 == 0
        second = Scheduler()
        replay2 = restore_scheduler(records2, second)
        assert second.passes() == first.passes()
        assert replay2.fleet_pids == [424242]
        # j1 still resumes first, then the fair drain of the rest.
        order = [r.job_id for r in drain_order(second, KEY)]
        assert order[0] == "j1"
        assert set(order) == {"j1", "j2", "j3", "j4"}


TENANTS = ("alice", "bob", "carol", "dave")


@st.composite
def crash_scenarios(draw):
    weights = {t: draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]))
               for t in TENANTS}
    tenants = draw(st.lists(st.sampled_from(TENANTS), min_size=1,
                            max_size=12))
    dispatched = draw(st.integers(min_value=0, max_value=len(tenants)))
    return weights, tenants, dispatched


class TestFairOrderSurvivesRestart:
    @settings(max_examples=40, deadline=None)
    @given(crash_scenarios())
    def test_replayed_order_equals_pre_crash_fair_order(self, tmp_path_factory,
                                                        scenario):
        """For random tenant/weight mixes and a crash after a random
        number of dispatches, the restarted scheduler serves: the
        interrupted jobs in their original dispatch order, then the
        remaining queue in exactly the order the pre-crash scheduler
        would have used."""
        weights, tenants, dispatched = scenario
        tmp_path = tmp_path_factory.mktemp("journal")
        journal = JobJournal(tmp_path, fsync=False)
        live = Scheduler(SchedulerConfig(weights=weights))
        sp = spec().to_dict()
        for i, tenant in enumerate(tenants, start=1):
            jid = f"j{i}"
            journal.append("SUBMITTED", jid, tenant=tenant, spec=sp,
                           submitted_at=1.0)
            live.submit(make_record(jid, tenant=tenant))
            journal.append("ADMITTED", jid)
        in_flight = []
        for _ in range(dispatched):
            record = live.next_job(KEY)
            if record is None:
                break
            journal.append("RUNNING", record.job_id,
                           attempts=1, started_at=2.0)
            in_flight.append(record.job_id)
        expected = in_flight + [r.job_id for r in drain_order(live, KEY)]
        records, damaged = journal.scan()
        assert damaged == 0
        replayed = Scheduler(SchedulerConfig(weights=weights))
        restore_scheduler(records, replayed)
        # A second crash right after the replay's compaction must give
        # the same order again: compact before draining and replay that.
        compacted = compaction_records(replayed)
        twice = Scheduler(SchedulerConfig(weights=weights))
        restore_scheduler(compacted, twice)
        actual = [r.job_id for r in drain_order(replayed, KEY)]
        assert actual == expected
        assert [r.job_id for r in drain_order(twice, KEY)] == expected


class TestDurableGatewayInProcess:
    def _config(self, journal_dir, **kwargs):
        defaults = dict(
            fleet=(FleetSpec(backend="threads", nprocs=2, pools=1),),
            scheduler=SchedulerConfig(max_queued=32),
            journal_dir=str(journal_dir), probe_interval=0.0)
        defaults.update(kwargs)
        return GatewayConfig(**defaults)

    def test_terminal_records_and_keys_survive_restart(self, tmp_path):
        with serve_in_background(self._config(tmp_path)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            done = client.submit(app="noop", size="1", nprocs=2,
                                 backend="threads", key="idem-1")
            assert done["state"] == "DONE"
        with serve_in_background(self._config(tmp_path)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            again = client.submit(app="noop", size="1", nprocs=2,
                                  backend="threads", key="idem-1")
            assert again["job_id"] == done["job_id"]
            assert again["result"]["digest"] == done["result"]["digest"]
            # watch() by key answers from the journal-replayed record.
            watched = client.watch(key="idem-1")
            assert watched["state"] == "DONE"

    def test_queued_jobs_survive_restart_in_fair_order(self, tmp_path):
        """Stop a gateway with a full queue; the successor runs the
        queue in the order the first gateway would have."""
        with serve_in_background(self._config(tmp_path)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            blocker = client.submit(app="spin", size="4", nprocs=2,
                                    backend="threads",
                                    params={"spin_seconds": 0.2},
                                    wait=False)
            queued = [client.submit(app="noop", size="1", nprocs=2,
                                    backend="threads", key=f"q{i}",
                                    wait=False)
                      for i in range(4)]
            deadline = time.time() + 30
            while client.status(blocker.job_id)["state"] == "QUEUED":
                assert time.time() < deadline
                time.sleep(0.01)
            for handle in queued:
                handle.close()
            blocker.close()
            queued_ids = [h.job_id for h in queued]
        with serve_in_background(self._config(tmp_path)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            finals = {}
            deadline = time.time() + 60
            while len(finals) < len(queued_ids) and time.time() < deadline:
                for jid in queued_ids:
                    state = client.status(jid)
                    if state["state"] in ("DONE", "FAILED", "CANCELLED"):
                        finals[jid] = state
                time.sleep(0.05)
            assert set(finals) == set(queued_ids)
            assert all(f["state"] == "DONE" for f in finals.values())
            # Original submission order == completion order here (one
            # tenant, FIFO): started_at must be monotone over queue order.
            starts = [finals[jid]["started_at"] for jid in queued_ids]
            assert starts == sorted(starts)
            assert client.health()["journal"]["replayed"] >= len(queued_ids)

    def test_damaged_tail_reported_not_replayed(self, tmp_path):
        with serve_in_background(self._config(tmp_path)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            client.submit(app="noop", size="1", nprocs=2,
                          backend="threads")
        with open(os.path.join(tmp_path, "journal.log"), "ab") as fh:
            fh.write(b"torn garbage with no newline")
        with serve_in_background(self._config(tmp_path)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            health = client.health()
            assert health["journal"]["damaged"] == 1
            # Replay then compaction leaves a clean journal behind.
            assert client.submit(app="noop", size="1", nprocs=2,
                                 backend="threads")["state"] == "DONE"


class TestHealthProbing:
    def test_sick_slot_is_quarantined_and_recycled(self, tmp_path):
        """POOL_SICK probes quarantine the slot; the background recycle
        brings it back.  Counters are monotone, so we assert those."""
        config = GatewayConfig(
            fleet=(FleetSpec(backend="threads", nprocs=2, pools=2),),
            probe_interval=0.05, quarantine_after=2)
        plan = faults.FaultPlan(
            [faults.Fault(faults.POOL_SICK, 0, seq)
             for seq in range(1, 200)])
        with faults.injected(plan):
            with serve_in_background(config) as svc, \
                    ServiceClient(svc.host, svc.port) as client:
                deadline = time.time() + 60
                while time.time() < deadline:
                    slots = {s["slot"]: s for s in client.health()["fleet"]}
                    sick = slots["threads-p2-0"]
                    if sick["quarantines"] >= 1:
                        break
                    time.sleep(0.05)
                assert sick["quarantines"] >= 1
                assert sick["probes_failed"] >= 2
                # The healthy sibling keeps serving throughout.
                assert client.submit(app="noop", size="1", nprocs=2,
                                     backend="threads")["state"] == "DONE"
                # Satellite: service counters ride in the pool dict too.
                pool = slots["threads-p2-1"]["pool"]
                if pool is not None:  # threads fleet has no pool snapshot
                    assert "quarantines" in pool

    def test_all_quarantined_sheds_with_retry_after(self):
        config = GatewayConfig(
            fleet=(FleetSpec(backend="threads", nprocs=2, pools=1),),
            probe_interval=0.0, shed_retry_after=7.0)
        with serve_in_background(config) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            svc.gateway.fleet.slots[0].quarantine()
            with pytest.raises(ServiceOverloadError,
                               match="quarantined") as excinfo:
                client.submit(app="noop", size="1", nprocs=2,
                              backend="threads")
            assert excinfo.value.retry_after == 7.0
            svc.gateway.fleet.slots[0].unquarantine()
            assert client.submit(app="noop", size="1", nprocs=2,
                                 backend="threads")["state"] == "DONE"
            health = client.health()
            assert health["fleet"][0]["quarantines"] == 1


class TestGatewayUnavailable:
    def test_typed_error_with_last_known_address(self):
        client = ServiceClient("127.0.0.1", 1, reconnect_timeout=0.0)
        with pytest.raises(GatewayUnavailableError) as excinfo:
            client.health()
        assert excinfo.value.host == "127.0.0.1"
        assert excinfo.value.port == 1
        assert "127.0.0.1:1" in str(excinfo.value)
        assert isinstance(excinfo.value, ConnectionError)


# -- subprocess chaos --------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_gateway(port, journal_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
         env.get("PYTHONPATH", "")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.harness", "serve",
         "--port", str(port), "--fleet", "processes:2x2",
         "--journal-dir", str(journal_dir), "--probe-interval", "0",
         *extra],
        stderr=subprocess.PIPE, env=env, text=True)
    deadline = time.time() + 120
    banner = []
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line and proc.poll() is not None:
            raise AssertionError(
                f"gateway died during startup: {''.join(banner)}")
        banner.append(line)
        if "listening on" in line:
            return proc
    proc.kill()
    raise AssertionError(f"gateway never listened: {''.join(banner)}")


class TestGatewayCrashChaos:
    JOBS = 8
    STEPS = 10

    def _submit_all(self, client):
        return [client.submit(app="spin", size=str(self.STEPS), nprocs=2,
                              backend="processes", checkpoint_every=1,
                              params={"spin_seconds": 0.05},
                              key=f"crash-{i}", wait=False)
                for i in range(self.JOBS)]

    def test_sigkill_mid_stream_completes_bit_identical(self, tmp_path):
        """The acceptance scenario: SIGKILL the gateway with 8 streaming
        jobs in flight (2 running on the fleet, 6 queued), restart it on
        the same journal, and require every job to reach DONE with a
        ledger digest bit-identical to an uninterrupted run's."""
        control_dir = tmp_path / "control"
        crash_dir = tmp_path / "crash"
        port = _free_port()

        # Control: the same 8 jobs, uninterrupted, for golden digests.
        proc = _spawn_gateway(port, control_dir)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=300)
            finals = [h.wait() for h in self._submit_all(client)]
            assert all(f["state"] == "DONE" for f in finals)
            digests = {f["result"]["digest"] for f in finals}
            assert len(digests) == 1  # identical jobs, identical ledgers
            control_digest = digests.pop()
            client.shutdown()
        finally:
            proc.wait(timeout=60)

        # Chaos: submit, wait for running jobs to make progress, SIGKILL.
        proc = _spawn_gateway(port, crash_dir)
        client = ServiceClient("127.0.0.1", port, timeout=300,
                               reconnect_timeout=120)
        handles = self._submit_all(client)
        deadline = time.time() + 120
        while time.time() < deadline:
            states = [client.status(h.job_id) for h in handles]
            running = [s for s in states if s["state"] == "RUNNING"]
            if (len(running) >= 2
                    and all((s["progress_step"] or 0) >= 2
                            for s in running)):
                break
            time.sleep(0.05)
        else:
            pytest.fail("jobs never reached mid-run progress")
        assert any(s["state"] == "QUEUED" for s in states)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)

        # Restart on the same journal and port: the 8 streaming handles
        # re-attach by key and every job completes bit-identically.
        proc = _spawn_gateway(port, crash_dir)
        try:
            finals = [h.wait() for h in handles]
            assert all(f["state"] == "DONE" for f in finals), finals
            assert {f["result"]["digest"] for f in finals} == {
                control_digest}
            assert any(h.reconnects >= 1 for h in handles)
            health = client.health()
            assert health["journal"]["replayed"] >= 1
            # The dead gateway's forked pool workers were reaped before
            # the new fleet came up — no zombie writers.
            assert health["journal"]["orphans_reaped"] >= 1
            # Resumed jobs really resumed: the journal watched their
            # checkpoints advance before the crash, and the replay ran
            # them from there (journal_replays counted per slot).
            assert sum(s["journal_replays"]
                       for s in health["fleet"]) >= 1
            # Satellite: the service counters ride inside the pool's own
            # PoolHealth dict too, one coherent health blob per slot.
            assert all("quarantines" in s["pool"] and
                       "journal_replays" in s["pool"]
                       for s in health["fleet"])
            # No torn compaction leftovers in the journal dir.
            assert not [n for n in os.listdir(crash_dir)
                        if n.startswith(".tmp-")]
            client.shutdown()
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()

    def test_gateway_crash_fault_kind_self_kills(self, tmp_path):
        """--crash-after-journal drives the GATEWAY_CRASH fault kind:
        the gateway SIGKILLs itself right after the named journal record
        lands, and a restart completes the interrupted job."""
        port = _free_port()
        # Records 1-2 are FLEET+SUBMITTED..; sequence 5 lands mid-run
        # (SUBMITTED, ADMITTED, RUNNING land as 2-4 after FLEET).
        proc = _spawn_gateway(port, tmp_path, "--crash-after-journal", "5")
        client = ServiceClient("127.0.0.1", port, timeout=300,
                               reconnect_timeout=120)
        handle = client.submit(app="spin", size="8", nprocs=2,
                               backend="processes", checkpoint_every=1,
                               params={"spin_seconds": 0.05},
                               key="self-kill", wait=False)
        proc.wait(timeout=120)
        assert proc.returncode == -signal.SIGKILL
        proc = _spawn_gateway(port, tmp_path)
        try:
            final = handle.wait()
            assert final["state"] == "DONE"
            assert handle.reconnects >= 1
            client.shutdown()
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()


# -- kept-alive client connection across a gateway bounce ---------------------

class TestStaleConnection:
    """The client's kept-alive connection does not survive a gateway
    restart; what the client does about it is the single retry rule."""

    def _config(self, journal_dir, port):
        return GatewayConfig(
            port=port,
            fleet=(FleetSpec(backend="threads", nprocs=2, pools=1),),
            journal_dir=str(journal_dir), probe_interval=0.0)

    @pytest.mark.parametrize("probe", [True, False],
                             ids=["probe-sees-eof", "send-fails"])
    def test_keyed_submit_survives_restart_on_one_fresh_dial(
            self, tmp_path, dials, monkeypatch, probe):
        """With the probe the dead connection is never used; without it
        (the gateway died behind the probe's back) the request fails on
        the reused connection and is sent once more on a fresh one."""
        if not probe:
            monkeypatch.setattr(protocol.Connection, "stale",
                                lambda self: False)
        port = _free_port()
        noop = dict(app="noop", size="1", nprocs=2, backend="threads")
        with ServiceClient("127.0.0.1", port) as client:
            with serve_in_background(self._config(tmp_path, port)):
                first = client.submit(**noop, key="bounce")
                assert first["state"] == "DONE"
                assert len(dials) == 1
            with serve_in_background(self._config(tmp_path, port)):
                again = client.submit(**noop, key="bounce")
                assert len(dials) == 2
                assert again["job_id"] == first["job_id"]
                assert again["result"]["digest"] == first["result"]["digest"]
                assert client.status()["total"] == 1  # deduped, not re-run
                assert len(dials) == 2

    @pytest.mark.parametrize("probe", [True, False],
                             ids=["probe-sees-eof", "send-fails"])
    def test_gateway_gone_is_still_the_typed_error(
            self, tmp_path, dials, monkeypatch, probe):
        if not probe:
            monkeypatch.setattr(protocol.Connection, "stale",
                                lambda self: False)
        port = _free_port()
        with ServiceClient("127.0.0.1", port,
                           reconnect_timeout=0.0) as client:
            with serve_in_background(self._config(tmp_path, port)):
                client.health()
            with pytest.raises(GatewayUnavailableError) as excinfo:
                client.submit(app="noop", size="1", nprocs=2,
                              backend="threads", key="gone")
            assert excinfo.value.port == port
            with pytest.raises(GatewayUnavailableError):
                client.health()

    def test_unkeyed_submit_on_a_dead_connection_raises(
            self, tmp_path, dials, monkeypatch):
        """The reused connection dies before the reply: an unkeyed submit
        is not idempotent, so it is not sent again — the caller hears
        about it, and the journal holds at most one job for it."""
        monkeypatch.setattr(protocol.Connection, "stale", lambda self: False)
        port = _free_port()
        with ServiceClient("127.0.0.1", port) as client:
            with serve_in_background(self._config(tmp_path, port)):
                client.health()
            with serve_in_background(self._config(tmp_path, port)):
                with pytest.raises((BspError, ConnectionError)):
                    client.submit(app="noop", size="1", nprocs=2,
                                  backend="threads")
                assert len(dials) == 1  # no second dial for the submit
                assert client.status()["total"] <= 1
            records, _ = JobJournal(tmp_path).scan()
            assert sum(r["kind"] == "SUBMITTED" for r in records) <= 1


# -- the fsync rule: which records force the log ------------------------------

@pytest.fixture()
def fsyncs(monkeypatch):
    """``os.fsync`` calls made through ``repro.service.journal``."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(journal_module.os, "fsync", counting)
    return calls


class TestFsyncRule:
    """SUBMITTED and RUNNING ride the next fsync; every acknowledgement
    still waits for the fsync that makes its record durable."""

    def _config(self, journal_dir):
        return GatewayConfig(
            fleet=(FleetSpec(backend="threads", nprocs=2, pools=1),),
            journal_dir=str(journal_dir), probe_interval=0.0)

    def test_which_kinds_force_the_log(self, tmp_path, fsyncs):
        journal = JobJournal(tmp_path)
        forced = []
        for kind in journal_module.JOURNAL_KINDS:
            before = len(fsyncs)
            journal.append(kind, "j1")
            if len(fsyncs) > before:
                forced.append(kind)
        journal.close()
        # STEP forces: a checkpointing job's RUNNING (appended just before
        # it here) is durable once its progress is journaled.
        assert forced == ["ADMITTED", "STEP", "DONE", "FAILED", "CANCELLED",
                          "FLEET", "SCHED"]
        # Unforced records are still written through to the file (a
        # SIGKILL loses nothing): a fresh reader sees all of them.
        assert len(JobJournal(tmp_path).scan()[0]) == len(
            journal_module.JOURNAL_KINDS)

    def test_keyed_noop_job_costs_two_fsyncs(self, tmp_path, fsyncs):
        with serve_in_background(self._config(tmp_path)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            client.health()
            before = len(fsyncs)
            final = client.submit(app="noop", size="1", nprocs=2,
                                  backend="threads", key="two")
            assert final["state"] == "DONE"
            assert len(fsyncs) - before == 2
            records, _ = svc.gateway.journal.scan()
            assert [r["kind"] for r in records if "job_id" in r] == [
                "SUBMITTED", "ADMITTED", "RUNNING", "DONE"]

    def test_acknowledgements_wait_for_their_fsync(self, tmp_path,
                                                   monkeypatch):
        """``accepted`` is never written before the ADMITTED fsync has
        returned, a terminal ``state`` never before its record's."""
        log = []
        real_fsync, real_append = os.fsync, JobJournal.append
        real_write = protocol.write_frame

        def fsync(fd):
            real_fsync(fd)
            log.append("fsync")

        def append(self, kind, job_id=None, **fields):
            log.append(f"append {kind}")  # entered; returns after its fsync
            return real_append(self, kind, job_id, **fields)

        async def write_frame(writer, obj):
            state = obj.get("job", {}).get("state", "")
            log.append(f"frame {obj['type']} {state}".strip())
            await real_write(writer, obj)

        with serve_in_background(self._config(tmp_path)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            monkeypatch.setattr(journal_module.os, "fsync", fsync)
            monkeypatch.setattr(JobJournal, "append", append)
            monkeypatch.setattr(protocol, "write_frame", write_frame)
            final = client.submit(app="noop", size="1", nprocs=2,
                                  backend="threads", key="order")
            assert final["state"] == "DONE"
        submitted = log.index("append SUBMITTED")
        assert log[submitted:submitted + 4] == [
            "append SUBMITTED", "append ADMITTED", "fsync",
            "frame accepted QUEUED"]
        done = log.index("append DONE")
        assert log[done:done + 3] == [
            "append DONE", "fsync", "frame state DONE"]
        running = log.index("append RUNNING")
        assert "fsync" not in log[running:done]

    # -- power loss: the log as the disk would hold it after losing every
    #    record behind the last fsync --------------------------------------

    def _log_cut_after(self, journal_dir, kind):
        """Run one keyed noop job to DONE on a fresh journal, then cut
        the log right after its ``kind`` record; returns the DONE job."""
        with serve_in_background(self._config(journal_dir)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            done = client.submit(app="noop", size="1", nprocs=2,
                                 backend="threads", key="power")
        path = os.path.join(journal_dir, "journal.log")
        with open(path, "rb") as fh:
            lines = fh.readlines()
        kinds = [decode_record(line[:-1])["kind"] for line in lines]
        with open(path, "wb") as fh:
            fh.writelines(lines[:kinds.index(kind) + 1])
        return done

    def test_power_loss_after_submitted_leaves_no_job(self, tmp_path):
        """Nobody was told ``accepted`` (it waits for ADMITTED's fsync),
        so the replay owes nobody a job."""
        self._log_cut_after(tmp_path, "SUBMITTED")
        with serve_in_background(self._config(tmp_path)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            assert client.status()["total"] == 0
            assert client.health()["journal"]["replayed"] == 0
            fresh = client.submit(app="noop", size="1", nprocs=2,
                                  backend="threads", key="power")
            assert fresh["state"] == "DONE"
            assert client.status()["total"] == 1

    def test_power_loss_of_running_requeues_and_runs_once(self, tmp_path):
        """The un-synced RUNNING is lost: the job replays as QUEUED (the
        state a crash between lease and append always produced), runs
        once to the golden digest, and its key still dedupes."""
        golden = self._log_cut_after(tmp_path, "ADMITTED")
        with serve_in_background(self._config(tmp_path)) as svc, \
                ServiceClient(svc.host, svc.port) as client:
            assert client.health()["journal"]["replayed"] == 1
            final = client.watch(key="power")
            assert final["state"] == "DONE"
            assert final["job_id"] == golden["job_id"]
            assert final["attempts"] == 1
            assert final["result"]["digest"] == golden["result"]["digest"]
            again = client.submit(app="noop", size="1", nprocs=2,
                                  backend="threads", key="power")
            assert again["job_id"] == golden["job_id"]
            assert again["attempts"] == 1
            assert client.status()["total"] == 1

    def test_power_loss_after_step_resumes_the_running_job(self, tmp_path):
        """STEP forced the log, so the RUNNING before it survived: the
        replay resumes the job from the journaled step."""
        journal = JobJournal(tmp_path)
        journal.append("SUBMITTED", "j1", tenant="t", key="k",
                       spec=spec().to_dict(), submitted_at=1.0)
        journal.append("ADMITTED", "j1")
        journal.append("RUNNING", "j1", attempts=1, started_at=2.0)
        journal.append("STEP", "j1", step=3)
        journal.append("STEP", "j1", step=4)  # behind the last fsync: lost
        journal.close()
        with open(journal.path, "rb+") as fh:
            lines = fh.readlines()
            fh.seek(0)
            fh.truncate()
            fh.writelines(lines[:4])
        records, damaged = JobJournal(tmp_path).scan()
        replay = restore_scheduler(records, Scheduler(), damaged=damaged)
        assert [r.job_id for r in replay.resumed] == ["j1"]
        assert replay.jobs["j1"].resume
        assert replay.jobs["j1"].progress_step == 3
