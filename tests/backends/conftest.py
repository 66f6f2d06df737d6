"""Shared fixtures for the backend suites."""

import gc
import multiprocessing as mp
import os

import pytest

from repro.backends import shm


def _own_listening_sockets() -> set[str]:
    """Inodes of the TCP sockets this process holds in LISTEN state."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    listening = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as fh:
                rows = fh.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if cols[3] == "0A" and cols[9] in inodes:  # st == LISTEN
                listening.add(cols[9])
    return listening


def _own_pipes() -> int:
    """How many pipe ends this process holds."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("pipe:[")
        except OSError:  # the listing's own fd, closed by now
            continue
    return count


@pytest.fixture
def no_leaks():
    """Whatever the test did to a pool — and however the pool ended —
    nothing outlives it: no ``bsp-*`` child process, no ``repro-zc-*``
    shared-memory segment, no listening socket, and no pipe end in the
    parent (a pipe fabric holds one pipe per ordered pair of ranks)."""
    segments = set(shm.scan_orphans())
    listening = _own_listening_sockets()
    pipes = _own_pipes()
    yield
    assert not [c for c in mp.active_children() if c.name.startswith("bsp-")]
    leaked = set(shm.scan_orphans()) - segments
    assert not leaked, f"leaked segments: {sorted(leaked)}"
    assert _own_listening_sockets() <= listening
    # A failed run's traceback holds the workers it failed on (and their
    # sentinel pipes) in a reference cycle until the collector runs.
    gc.collect()
    assert _own_pipes() <= pipes, "leaked pipe ends"
