"""A fixed CPU kernel that measures how fast the machine runs right now.

The benchmark's reference machine is a VM whose vCPUs are shared with other
tenants, and its speed moves in phases of seconds to minutes: the same
repeat of a workload takes anywhere from 1.2 s to 2.7 s. A repeat's wall time
alone therefore says as much about the phase as about the program.

run.py times this kernel right before and right after every child process,
in its own process while the child is not running, and reports times scaled
by

    REFERENCE_S / kernel time

that is, in seconds of a machine on which the kernel takes REFERENCE_S. The
kernel touches nothing of metriclab, so a change to the package moves the
scaled times exactly as it moves the wall times, while a slow phase of the
machine, which slows the kernel about as much as the workload, drops out.
Its mix follows the workloads: a pure-Python loop (graph building), small
numpy ops called from Python (per-op overhead of tiny tensors), wide numpy
arithmetic on 1500 rows (the full-batch refit) and a pass over an array
larger than the caches. Together they track the phases of `refit-surface`
with an elasticity of about 1; no single part does.
"""

from __future__ import annotations

import time

# the kernel's time on the reference machine in a fast phase, in seconds
REFERENCE_S = 0.13


def _kernel(scale: int) -> float:
    import numpy as np  # here, so that run.py can set BLAS threads before numpy loads

    table, acc = {}, 0.0
    for i in range(100_000 // scale):
        table[i & 1023] = (acc, i)
        acc += (i * 0.5) % 7.0
    a, b = np.ones((8, 16)), np.full((16, 16), 0.01)
    for _ in range(5_000 // scale):
        acc += float(np.maximum(a @ b + 1.0, 0.0).sum())
    x = np.linspace(-1.0, 1.0, 1500 * 64).reshape(1500, 64)
    w = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
    for _ in range(40 // scale):
        h = np.tanh(x @ w)
        acc += float((h.T @ x).sum() + (x * 1.0001).sum())
    x = np.linspace(-1.0, 1.0, 1500 * 256).reshape(1500, 256)
    for _ in range(10 // scale):
        acc += float((np.exp(-x * x) * x).sum() + np.maximum(x, 0.1).sum())
    big = np.ones(2_000_000)
    for _ in range(10 // scale):
        acc += float((big * 1.5).sum())
    return acc


def kernel_s() -> float:
    """Wall seconds of one pass of the kernel, after an untimed short pass."""
    _kernel(scale=10)
    start = time.perf_counter()
    _kernel(scale=1)
    return time.perf_counter() - start


def calibrated(wall_s: float, kernel: float) -> float:
    """`wall_s` in seconds of the reference machine, given the kernel time."""
    return wall_s * REFERENCE_S / kernel
