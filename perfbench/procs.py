"""Child processes of the benchmark, stopped and waited for on every path out.

Spawned ``multiprocessing`` processes (the answer check's pool, the
process tier's workers) start a resource tracker process that would
otherwise outlive its parent for a moment; ``stop_resource_tracker`` ends
it and reaps it.  ``run_child`` runs a serving process in a session of its
own, so that whatever it leaves behind, on a timeout or a crash as well,
is killed and waited for before the benchmark goes on.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from typing import List, Sequence

#: How long to wait for a killed session's processes to be gone.
REAP_TIMEOUT_S = 10.0


def stop_resource_tracker() -> None:
    """End this process's ``multiprocessing`` resource tracker, if it runs.

    The tracker exits when its pipe closes; ``_stop`` closes the pipe and
    waits for the tracker to exit, so it never outlives this process.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def session_members(sid: int) -> List[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session ...
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def end_session(sid: int) -> None:
    """Kill every process left in session ``sid`` and wait until none runs."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        members = session_members(sid)
        if not members:
            return
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {members} of session {sid} did not end")
        time.sleep(0.05)


def run_child(argv: Sequence[str], timeout: float, **kwargs) -> None:
    """Run ``argv`` in a new session; raise if it fails or times out.

    Whichever way the child ends, every process of its session is then
    killed and waited for.
    """
    child = subprocess.Popen(list(argv), start_new_session=True, **kwargs)
    try:
        returncode = child.wait(timeout=timeout)
    finally:
        if child.returncode is None:
            child.kill()
            child.wait()
        end_session(child.pid)
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, list(argv))
