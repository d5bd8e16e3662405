"""Fixed reference kernels, timed every few operations of every workload.

On a shared host a process can run up to 1.8x slower for seconds to minutes
at a time; a pure-Python loop and the node workload slow down together.
Each workload therefore times, every REF_EVERY operations, a reference
kernel of the same kind of work that never touches the library, and the
gated end-to-end times are given in units of the mean of that kernel's
times measured within the same block.  Timing it several times per block,
not only at the block's ends, matters: on the oracle workload that took the
seed-to-seed spread of throughput from 0.2 to 0.04 of the median.  The
kernels are fixed code: a change to the library moves the workload and not
the reference.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from time import perf_counter

import numpy as np

REPS = 3
_SMALL = np.arange(16.0)
_LP = np.random.default_rng(0).random((3, 30000))


def python_kernel() -> None:
    """Interpreter-bound scalar work with small numpy calls, like `node`."""
    s = 0.0
    for i in range(3000):
        s += (i * 0.5) ** 0.5
        if i % 50 == 0:
            s += float(np.sqrt(_SMALL).sum())


def array_kernel() -> None:
    """Elementwise passes and temporaries over 2^18 doubles, like `bulk`."""
    x = np.linspace(0.0, 1.0, 1 << 18)
    y = x[::-1]
    z = np.hypot(x - 0.3, y - 0.6)
    keep = (z < 0.5) & (x * y > 0.1)
    float(np.where(keep, np.sqrt(z), 0.0).sum())


def lp_kernel() -> None:
    """Small dense solves and pricing over 30k columns, like `oracle`."""
    c = -_LP[0] * _LP[1]
    basis = [0, 1, 2]
    for k in range(10):
        b = _LP[:, basis] + np.eye(3)
        y = np.linalg.solve(b.T, c[basis])
        j = int(np.argmin(c - y @ _LP))
        np.linalg.solve(b, _LP[:, j])
        basis[k % 3] = (j + k) % _LP.shape[1]


CHILD_TIMEOUT_S = 60


def run_child(cmd: list[str], env: dict) -> tuple[int, bytes]:
    """(exit code, stdout) of a child run to its exit, stderr discarded.

    It blocks on the pipe and then on the child's exit instead of polling:
    subprocess.run with a timeout polls for the exit in steps of up to
    50 ms, which put the spawn times of one machine on a 50 ms grid.  A
    timer kills a child that outlives CHILD_TIMEOUT_S, and the call then
    raises TimeoutExpired.
    """
    killed = threading.Event()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            out = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            timer.join()
    if killed.is_set():
        raise subprocess.TimeoutExpired(cmd, CHILD_TIMEOUT_S)
    return code, out


def spawn_kernel(env: dict) -> None:
    """A fresh interpreter importing numpy, the floor of one `cli` call."""
    cmd = [sys.executable, "-c", "import numpy"]
    code, _ = run_child(cmd, env)
    if code:
        raise subprocess.CalledProcessError(code, cmd)


def timed(kernel, *args, reps: int = REPS) -> float:
    """Median seconds of `reps` runs of the kernel."""
    ts = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel(*args)
        ts.append(perf_counter() - t0)
    return sorted(ts)[reps // 2]
