"""A pipe fabric driven by hand, from one process.

:class:`Pipes` is a :class:`~repro.backends.processes.FrameTransport`
plus what a rank's channel does with one frame at a boundary — encode
it onto a pipe, or take the next one off and open it — without the
round around it.  A write waits while its pipe is full, so a frame
larger than a pipe needs its reader on another thread.
"""

import os
import select

from repro.backends.frames import TAG_LEASES, TAG_PKT, encode_packets
from repro.backends.pool import write_all
from repro.backends.processes import FrameTransport


class Pipes(FrameTransport):
    def __init__(self, nprocs):
        super().__init__(nprocs)
        self._read = {}  # pid -> frames read, not yet returned

    def send_packets(self, dst, run_id, step, src, packets, *, releases=()):
        write_all(self.fds(src, dst)[1], self.encode(
            dst, TAG_PKT, run_id, step, src, *encode_packets(packets),
            releases))

    def send_release(self, dst, run_id, src, lease_ids):
        write_all(self.fds(src, dst)[1], self.encode(
            dst, TAG_LEASES, run_id, -1, src, releases=lease_ids))

    def recv(self, pid):
        """The next frame to ``pid``, from whichever peer, opened."""
        read = self._read.setdefault(pid, [])
        peers = {self.fds(pid, q)[0]: q
                 for q in range(self.nprocs + 1) if q != pid}
        poller = select.poll()
        for fd in peers:
            poller.register(fd, select.POLLIN)
        while not read:
            for fd, _ in poller.poll():
                read += self.link(pid, peers[fd]).dec.feed(
                    os.read(fd, 1 << 16))
        return self.open(pid, read.pop(0))
