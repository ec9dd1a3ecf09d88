"""Subprocesses of the program: launch, wait for readiness, stop.

Every process runs from the checkout's own ``src`` with a private
cache under the run's work directory, in its own session so that its
children (a gateway's replicas) can be stopped with it.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def env_for(cache_dir: Path, workdir: Path, **extra) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(workdir)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update({key: str(value) for key, value in extra.items()})
    return env


def spawn(args, cache_dir: Path, workdir: Path, *, module=True, **extra) -> subprocess.Popen:
    """``python -m repro.experiments <args>`` (or ``python <args>`` when not ``module``)."""
    command = [sys.executable, "-m", "repro.experiments", *args] if module else [
        sys.executable, *args
    ]
    log = open(workdir / f"proc-{time.monotonic_ns()}.log", "wb")
    try:
        return subprocess.Popen(
            command,
            env=env_for(cache_dir, workdir, **extra),
            cwd=ROOT,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    finally:
        log.close()


def call(target: str, workdir: Path, **kwargs):
    """``target(**kwargs)`` (``"module:function"``) in a fresh interpreter; its result.

    Arguments and result travel as pickles in ``workdir``; the child's
    output goes to a log there, which the error carries if the child fails.
    The child's default cache is ``workdir/default-cache``; ``target``
    takes its own cache as an argument.
    """
    stem = workdir / f"call-{time.monotonic_ns()}"
    args, result, log = (stem.with_suffix(s) for s in (".args", ".result", ".log"))
    args.write_bytes(pickle.dumps(kwargs))
    with open(log, "wb") as handle:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), target, str(args), str(result)],
            env=env_for(workdir / "default-cache", workdir),
            cwd=ROOT,
            stdout=handle,
            stderr=subprocess.STDOUT,
        )
    if done.returncode != 0:
        raise RuntimeError(f"{target} failed (exit {done.returncode}):\n{log.read_text()}")
    return pickle.loads(result.read_bytes())


def stop(proc: subprocess.Popen) -> None:
    """SIGINT the process group (the CLIs' clean exit), then kill it; always reaps."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGINT)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # stragglers in the group
    except ProcessLookupError:
        pass
    proc.wait()


@contextlib.contextmanager
def one_cpu(pids):
    """Run every thread of ``pids`` on this process's first CPU; yields its number.

    A closed loop of processes that wake each other in turn then keeps one
    CPU busy instead of waking an idle one per hop.  On a virtual machine an
    idle CPU's wake-up waits for the host, so while the host runs other
    guests that latency multiplies into every request.  The threads' own
    CPU sets are restored on exit.
    """
    cpu = {min(os.sched_getaffinity(0))}
    saved = []
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            saved.append((int(tid), os.sched_getaffinity(int(tid))))
            os.sched_setaffinity(int(tid), cpu)
    try:
        yield min(cpu)
    finally:
        for tid, cpus in saved:
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(tid, cpus)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_until(predicate, what: str, timeout: float = 60.0, interval: float = 0.05):
    """Poll ``predicate()`` until it returns a truthy value; returns it."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            value = predicate()
        except (OSError, ConnectionError, RuntimeError):
            value = None
        if value:
            return value
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(interval)
