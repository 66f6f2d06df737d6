"""Process accounting read from ``/proc``: CPU, memory, sockets.

The benchmark's cost metrics (``cpu_s``, ``peak_pss_mb``) and its leak
sweep are taken from outside the library, so they hold for any backend
that runs its ranks as child processes — however it spawns them.
"""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the ``(comm)`` column."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            data = fh.read()
    except OSError:  # the process ended between listing and reading
        return None
    return data[data.rindex(")") + 2:].split()


def descendants(root: int, exclude: frozenset[int] = frozenset()) -> list[int]:
    """Live pids whose parent chain leads to ``root`` (not ``root`` itself).

    Pids in ``exclude`` and everything below them are left out — the
    benchmark's own reference workers are children too, and must not be
    billed to the program under test.
    """
    parent: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # A zombie holds no memory and no sockets and its CPU time is
        # already final; it is only "live" until its parent reaps it.
        if fields is not None and fields[0] != "Z":
            parent[int(entry)] = int(fields[1])
    children: dict[int, list[int]] = {}
    for pid, ppid in parent.items():
        children.setdefault(ppid, []).append(pid)
    found: list[int] = []
    frontier = [root]
    while frontier:
        for pid in children.get(frontier.pop(), ()):
            if pid not in exclude:
                found.append(pid)
                frontier.append(pid)
    return sorted(found)


def cpu_seconds(pids) -> float:
    """User + system CPU seconds consumed so far by ``pids`` (own threads
    included, reaped children excluded)."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _TICK


def pss_mb(pids) -> float:
    """Summed proportional set size of ``pids`` in MB.

    PSS divides every shared page among the processes mapping it, so
    shared-memory segments and slab rings are counted once, not p times.
    """
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024.0


def listening_sockets(pids) -> int:
    """TCP sockets in LISTEN state held open by any of ``pids``."""
    inodes = set()
    for pid in pids:
        try:
            fds = os.listdir(f"/proc/{pid}/fd")
        except OSError:
            continue
        for fd in fds:
            try:
                target = os.readlink(f"/proc/{pid}/fd/{fd}")
            except OSError:
                continue
            if target.startswith("socket:["):
                inodes.add(target[8:-1])
    listening = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as fh:
                rows = fh.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if cols[3] == "0A" and cols[9] in inodes:  # st == LISTEN
                listening += 1
    return listening
