"""End-to-end gateway tests: client → protocol → scheduler → warm fleet.

The fast tests run on a ``threads`` fleet (nothing to fork); the chaos
test warms a real process pool and SIGKILLs one of its workers mid-job —
the job must finish (checkpoint-resumed retry) or fail *cleanly*, the
client's stream must reach a terminal state (never hang), and the fleet
must be back at capacity afterwards.
"""

import gc
import socket
import threading
import time
import warnings

import pytest

from repro import faults
from repro.core.errors import (
    AdmissionError,
    BspConfigError,
    BspError,
    BspUsageError,
)
from repro.service import (
    FleetSpec,
    GatewayConfig,
    SchedulerConfig,
    ServiceClient,
    protocol,
    serve_in_background,
)

pytestmark = pytest.mark.timeout(300)


def threads_config(**scheduler_kwargs):
    return GatewayConfig(
        fleet=(FleetSpec(backend="threads", nprocs=4, pools=2),),
        scheduler=SchedulerConfig(**scheduler_kwargs))


@pytest.fixture()
def service():
    with serve_in_background(threads_config()) as svc:
        yield svc


@pytest.fixture()
def client(service):
    with ServiceClient(service.host, service.port) as client:
        yield client


class TestSubmitLifecycle:
    def test_submit_runs_to_done(self, client):
        job = client.submit(app="noop", size="1", nprocs=4,
                            backend="threads")
        assert job["state"] == "DONE"
        assert job["attempts"] == 1
        assert job["error"] is None
        # The result payload is the ledger summary with its digest.
        assert job["result"]["S"] == 2
        assert len(job["result"]["digest"]) == 64
        assert job["result"]["wall_seconds"] > 0

    def test_states_stream_in_order(self, client):
        seen = []
        job = client.submit(app="spin", size="3", nprocs=4,
                            backend="threads",
                            on_state=lambda s: seen.append(s["state"]))
        assert job["state"] == "DONE"
        assert seen == ["RUNNING", "DONE"]

    def test_status_and_listing(self, client):
        job = client.submit(app="noop", size="1", nprocs=4,
                            backend="threads")
        got = client.status(job["job_id"])
        assert got["state"] == "DONE"
        assert got["result"]["digest"] == job["result"]["digest"]
        listing = client.status()
        assert listing["total"] >= 1
        assert any(j["job_id"] == job["job_id"] for j in listing["jobs"])

    def test_unknown_job_id_is_typed(self, client):
        with pytest.raises(BspUsageError, match="unknown job id"):
            client.status("j999999")

    def test_invalid_spec_is_typed(self, client):
        with pytest.raises(BspConfigError, match="unknown app"):
            client.submit(app="sorting", size="1", nprocs=4,
                          backend="threads")

    def test_health_telemetry(self, client):
        client.submit(app="noop", size="1", nprocs=4, backend="threads")
        health = client.health()
        assert health["scheduler"]["completed"] >= 1
        assert health["jobs_per_second"] > 0
        slots = health["fleet"]
        assert len(slots) == 2
        assert {slot["slot"] for slot in slots} == {
            "threads-p4-0", "threads-p4-1"}

    def test_failed_job_carries_typed_error(self, client):
        """A job whose run raises FAILs with the error payload — the
        stream still terminates."""
        job = client.submit(app="spin", size="3", nprocs=4,
                            backend="threads",
                            params={"spin_seconds": "not-a-number"})
        assert job["state"] == "FAILED"
        assert job["error"]["error"] == "ValueError"

    def test_concurrent_tenants_both_finish(self, service):
        alice = ServiceClient(service.host, service.port, tenant="alice")
        bob = ServiceClient(service.host, service.port, tenant="bob")
        handles = [alice.submit(app="noop", size="1", nprocs=4,
                                backend="threads", wait=False)
                   for _ in range(3)]
        handles += [bob.submit(app="noop", size="1", nprocs=4,
                               backend="threads", wait=False)
                    for _ in range(3)]
        finals = [handle.wait() for handle in handles]
        assert all(final["state"] == "DONE" for final in finals)
        tenants = {final["tenant"] for final in finals}
        assert tenants == {"alice", "bob"}


class TestAdmissionBoundary:
    def test_unknown_fleet_key_rejected(self, client):
        with pytest.raises(AdmissionError, match="no warm pool"):
            client.submit(app="noop", size="1", nprocs=32,
                          backend="threads")
        with pytest.raises(AdmissionError, match="no warm pool"):
            client.submit(app="noop", size="1", nprocs=4,
                          backend="simulator")

    def test_queue_overflow_rejected(self):
        """With both slots held by slow jobs and the queue full, the
        next submit is shed with a typed error, not queued late."""
        config = GatewayConfig(
            fleet=(FleetSpec(backend="threads", nprocs=4, pools=1),),
            scheduler=SchedulerConfig(max_queued=2))
        with serve_in_background(config) as svc:
            client = ServiceClient(svc.host, svc.port)
            slow = dict(app="spin", size="4", nprocs=4, backend="threads",
                        params={"spin_seconds": 0.1})
            running = client.submit(**slow, wait=False)
            # Give the single slot time to lease the running job, then
            # fill the queue behind it.
            deadline = time.time() + 30
            while client.status(running.job_id)["state"] == "QUEUED":
                assert time.time() < deadline
                time.sleep(0.01)
            queued = [client.submit(**slow, wait=False) for _ in range(2)]
            with pytest.raises(AdmissionError, match="admission queue full"):
                client.submit(**slow)
            for handle in [running] + queued:
                assert handle.wait()["state"] == "DONE"


class TestCancel:
    def test_cancel_queued_never_launches(self):
        config = GatewayConfig(
            fleet=(FleetSpec(backend="threads", nprocs=4, pools=1),),
            scheduler=SchedulerConfig(max_queued=8))
        with serve_in_background(config) as svc:
            client = ServiceClient(svc.host, svc.port)
            blocker = client.submit(app="spin", size="4", nprocs=4,
                                    backend="threads",
                                    params={"spin_seconds": 0.1},
                                    wait=False)
            victim = client.submit(app="noop", size="1", nprocs=4,
                                   backend="threads", wait=False)
            assert client.status(victim.job_id)["state"] == "QUEUED"
            cancelled = client.cancel(victim.job_id)
            assert cancelled["state"] == "CANCELLED"
            # The victim's stream terminates with the CANCELLED frame.
            final = victim.wait()
            assert final["state"] == "CANCELLED"
            assert blocker.wait()["state"] == "DONE"
            # It never launched: zero attempts, and cancelling again is
            # refused because it is already terminal.
            assert client.status(victim.job_id)["attempts"] == 0
            with pytest.raises(BspUsageError, match="CANCELLED"):
                client.cancel(victim.job_id)

    def test_cancel_done_job_refused(self, client):
        job = client.submit(app="noop", size="1", nprocs=4,
                            backend="threads")
        with pytest.raises(BspUsageError, match="not interruptible"):
            client.cancel(job["job_id"])


class TestShutdown:
    def test_shutdown_frame_stops_gateway(self):
        svc = serve_in_background(threads_config())
        client = ServiceClient(svc.host, svc.port)
        client.shutdown()
        deadline = time.time() + 30
        while svc._thread.is_alive():
            assert time.time() < deadline, "gateway did not stop"
            time.sleep(0.05)


    def test_stop_closes_open_connections(self):
        """stop() must not wait on an idle kept-alive connection or on a
        client streaming a still-queued job (Server.wait_closed does, on
        Python >= 3.12.1), and must leave nothing listening."""
        config = GatewayConfig(
            fleet=(FleetSpec(backend="threads", nprocs=4, pools=1),))
        svc = serve_in_background(config)
        with ServiceClient(svc.host, svc.port) as idle, \
                ServiceClient(svc.host, svc.port) as streamer:
            idle.health()
            blocker = streamer.submit(app="spin", size="4", nprocs=4,
                                      backend="threads",
                                      params={"spin_seconds": 0.1},
                                      wait=False)
            watcher = streamer.submit(app="noop", size="1", nprocs=4,
                                      backend="threads", wait=False)
            assert idle.status(watcher.job_id)["state"] == "QUEUED"
            t0 = time.monotonic()
            svc.stop()
            elapsed = time.monotonic() - t0
            assert not svc._thread.is_alive()
            assert elapsed < 2.0, f"stop() took {elapsed:.1f}s"
            with pytest.raises(OSError):
                socket.create_connection((svc.host, svc.port), timeout=5)
            blocker.close()
            watcher.close()


class TestConnectionReuse:
    """One kept-alive connection per client; one request at a time on it."""

    def test_sequential_requests_share_one_dial(self, service, dials):
        # Sockets an earlier test leaked warn when collected: collect them
        # before the window opens, so it counts only this client's.
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with ServiceClient(service.host, service.port) as client:
                first = client.submit(app="noop", size="1", nprocs=4,
                                      backend="threads")
                assert client.status(first["job_id"])["state"] == "DONE"
                second = client.submit(app="noop", size="1", nprocs=4,
                                       backend="threads", key="reuse")
                assert second["job_id"] != first["job_id"]
                # A typed error reply leaves the connection usable.
                with pytest.raises(BspUsageError, match="unknown job id"):
                    client.status("j999999")
                assert client.health()["scheduler"]["completed"] == 2
                assert len(dials) == 1
            del client
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category,
                                                  ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]

    def test_two_threads_sharing_a_client_dial_twice(self, service, dials):
        """A connection carries one request at a time: while one thread's
        stream holds the kept-alive connection the other dials its own,
        and afterwards one of the two is kept."""
        both_streaming = threading.Barrier(2)
        finals = []

        def worker(client):
            handle = client.submit(app="noop", size="1", nprocs=4,
                                   backend="threads", wait=False)
            both_streaming.wait(timeout=60)
            finals.append(handle.wait())

        with ServiceClient(service.host, service.port) as client:
            threads = [threading.Thread(target=worker, args=(client,))
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert [final["state"] for final in finals] == ["DONE", "DONE"]
            assert len(dials) == 2
            assert client.status()["total"] == 2
            assert len(dials) == 2

    def test_abandoned_stream_closes_its_connection(self, service, dials):
        with ServiceClient(service.host, service.port) as client:
            handle = client.submit(app="spin", size="3", nprocs=4,
                                   backend="threads", wait=False)
            for snapshot in handle.events():
                break  # abandon mid-stream: the job keeps running
            assert snapshot["state"] == "RUNNING"
            assert client.status(handle.job_id)["job_id"] == handle.job_id
            assert len(dials) == 2  # the abandoned one was not reused


class _SilentGateway:
    """A listener that answers ``health`` and hangs up on its first
    ``drop_submits`` submit frames without replying (later ones run to
    DONE), counting the submit frames it was sent."""

    def __init__(self, drop_submits):
        self.drop_submits = drop_submits
        self.submits = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            with sock:
                conn = protocol.Connection(sock)
                while (frame := conn.recv_frame()) is not None:
                    if frame["type"] == "health":
                        conn.send_frame({"type": "health"})
                        continue
                    self.submits += 1
                    if self.submits <= self.drop_submits:
                        break
                    conn.send_frame({"type": "accepted", "job": {
                        "job_id": "j1", "state": "DONE"}})
                    conn.send_frame({"type": "state", "job": {
                        "job_id": "j1", "state": "DONE"}})

    def close(self):
        # A close() from this thread does not wake the accept() blocked
        # in _serve on Linux; shutdown() does.
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._thread.join(timeout=30)


class TestSingleRetryRule:
    """A reused connection that dies before any reply byte gets exactly
    one fresh dial — unless the request is an unkeyed submit."""

    @pytest.fixture()
    def silent(self):
        gateway = _SilentGateway(drop_submits=1)
        yield gateway
        gateway.close()

    def test_unkeyed_submit_is_never_sent_twice(self, silent, dials):
        with ServiceClient("127.0.0.1", silent.port) as client:
            client.health()  # the kept-alive connection now exists
            with pytest.raises((BspError, ConnectionError)):
                client.submit(app="noop", size="1", nprocs=4)
            assert silent.submits == 1
            assert len(dials) == 1

    def test_keyed_submit_gets_one_fresh_dial(self, silent, dials):
        with ServiceClient("127.0.0.1", silent.port) as client:
            client.health()
            final = client.submit(app="noop", size="1", nprocs=4, key="k")
            assert final["state"] == "DONE"
            assert silent.submits == 2
            assert len(dials) == 2

    def test_fresh_connection_is_not_retried(self, silent, dials):
        with ServiceClient("127.0.0.1", silent.port) as client:
            with pytest.raises((BspError, ConnectionError)):
                client.submit(app="noop", size="1", nprocs=4, key="k")
            assert silent.submits == 1
            assert len(dials) == 1


class TestChaos:
    def test_sigkilled_pool_worker_mid_job(self):
        """SIGKILL a pool worker mid-job: the job is retried from its
        checkpoint (or cleanly FAILED), the stream never hangs, and the
        fleet is back at capacity for the next job."""
        config = GatewayConfig(
            fleet=(FleetSpec(backend="processes", nprocs=4, pools=1),))
        with serve_in_background(config) as svc:
            client = ServiceClient(svc.host, svc.port, timeout=120)
            handle = client.submit(
                app="spin", size="8", nprocs=4, backend="processes",
                checkpoint_every=1, retries=2,
                params={"spin_seconds": 0.05}, wait=False)
            slot = svc.gateway.fleet.slots[0]
            deadline = time.time() + 60
            while client.status(handle.job_id)["state"] != "RUNNING":
                assert time.time() < deadline, "job never started"
                time.sleep(0.01)
            time.sleep(0.1)  # let a couple of supersteps checkpoint
            faults.kill_pool_worker(slot.pool(), rank=1)
            final = handle.wait()  # must terminate, never hang
            assert final["state"] in ("DONE", "FAILED")
            if final["state"] == "DONE":
                # The retry resumed: the pool healed underneath the job.
                assert final["result"]["S"] >= 1
            else:
                assert final["error"] is not None
            # Fleet is back at capacity: the healed (or recycled) pool
            # runs the next job cleanly.
            after = client.submit(app="noop", size="1", nprocs=4,
                                  backend="processes")
            assert after["state"] == "DONE"
            health = client.health()
            pool_health = health["fleet"][0]["pool"]
            assert pool_health["alive"] == 4
            # The crash is visible in telemetry: either the pool healed
            # (restarts > 0) or the slot was recycled.
            assert (pool_health["restarts"] > 0
                    or health["fleet"][0]["recycles"] > 0)

    def test_tcp_slot_with_spent_budget_recycles(self):
        """A TCP mesh spends the same restart budget a process pool does:
        with none to spend, a rank lost mid-job gives the mesh up, the
        job FAILS with PoolExhaustedError, and the slot recycles to a
        fresh mesh that runs the next job."""
        config = GatewayConfig(fleet=(FleetSpec(
            backend="tcp", nprocs=2, pools=1,
            options=(("max_restarts", 0),)),))
        with serve_in_background(config) as svc:
            client = ServiceClient(svc.host, svc.port, timeout=120)
            handle = client.submit(
                app="spin", size="40", nprocs=2, backend="tcp",
                params={"spin_seconds": 0.05}, wait=False)
            slot = svc.gateway.fleet.slots[0]
            deadline = time.time() + 60
            while client.status(handle.job_id)["state"] != "RUNNING":
                assert time.time() < deadline, "job never started"
                time.sleep(0.01)
            time.sleep(0.1)
            faults.kill_pool_worker(slot.pool(), rank=1)
            final = handle.wait()
            assert final["state"] == "FAILED"
            assert final["error"]["error"] == "PoolExhaustedError"
            after = client.submit(app="noop", size="1", nprocs=2,
                                  backend="tcp")
            assert after["state"] == "DONE"
            assert client.health()["fleet"][0]["recycles"] == 1
