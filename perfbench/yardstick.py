"""A fixed reference kernel that measures how fast the host runs right now.

On a shared machine the same code runs 20-30% slower for minutes at a time
while neighbours load the cores, and the guest sees no steal time for it:
process CPU time grows with wall time. The benchmark times this kernel
around each agent run and each set-up load, and rescales the CPU time of a
sweep (or of the set-up loads) by the mean of its measurements to the speed
at which the kernel takes ``REF_S`` seconds; waiting (the stub's replies,
disk) stays as measured. The kernel is the kind of numpy work the program's
time goes to, all on one BLAS thread: distance scans with a partial sort
over a cache-sized matrix and over one the size of the gene-screen pool's
embeddings, a Cholesky solve, matrix products, and an RBF kernel block.
Work goes in blocks of 2,048 rows, so that the kernel's temporaries stay
small and do not move the peak memory the benchmark reports.
Python-level work (dict and string handling) tracked the program's
slowdowns worse than any of these, so it is left out. The kernel uses numpy
only, so a change to the program never changes it.
"""

from __future__ import annotations

import time

import numpy as np

# Repeats of the kernel per measurement; 0.11 s in all on a 2-vCPU Xeon VM
# when its neighbours are quiet, up to twice that when they are busy.
REPEATS = 2
# The kernel's time at the reference speed. Adjusted times read as seconds
# on a host where one measurement takes exactly this long.
REF_S = 0.12
# How much of the kernel's slowdown the program shows: the program's CPU
# time grows as the kernel's time to this power. The kernel is the more
# sensitive of the two; 0.8 left the least spread between runs in 50 runs of
# the three workloads (0.7 best on gene-screen, 1.0 on llm-http).
SENSITIVITY = 0.8

_rng = np.random.default_rng(20250921)
_SMALL = _rng.standard_normal((4096, 256))
_LARGE = _rng.standard_normal((18_000, 256))
_c = _rng.standard_normal(256)
_M = _rng.standard_normal((256, 256))
_S = _M @ _M.T + 256 * np.eye(256)


_BLOCK = 2048


def _scan(X: np.ndarray) -> None:
    dist = np.empty(len(X))
    for i in range(0, len(X), _BLOCK):
        d = X[i:i + _BLOCK] - _c
        dist[i:i + _BLOCK] = np.einsum("ij,ij->i", d, d)
    np.argpartition(dist, 128)


def _kernel() -> None:
    _scan(_SMALL)
    _scan(_LARGE)
    np.linalg.solve(np.linalg.cholesky(_S), _SMALL[:256].T)
    (_SMALL[:512] @ _SMALL[:512].T).sum()
    for i in range(0, 6000, _BLOCK):
        (_LARGE[i:i + _BLOCK] @ _M).sum()
    np.exp(_SMALL[:1024] @ _SMALL[:640].T / -256).sum()


def measure() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return time.perf_counter() - start


def adjusted(wall_s: float, cpu_s: float, yardstick_s: float) -> float:
    """``wall_s`` with its ``cpu_s`` busy part rescaled to the reference
    speed; ``yardstick_s`` is the kernel's time around the measurement."""
    return (wall_s - cpu_s) + cpu_s * (REF_S / yardstick_s) ** SENSITIVITY
