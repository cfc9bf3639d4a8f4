"""Host-speed probe: a fixed kernel timed beside every measured problem.

The measuring machine is a small virtual machine on a shared host, and its
speed swings with the load of its neighbours.  Two effects show:

- Wall time counts the time the hypervisor gives the virtual CPU to others
  (steal time).  One lift problem repeated 25 times took 0.63 to 1.53 s of
  wall time but 0.63 to 0.74 s of process CPU time, which leaves steal out.
- CPU time itself swings with the host's load.  One deterministic lift
  problem took 0.11 s of CPU time in one minute and 0.22 s in another.

``block()`` runs a fixed kernel of small complex linear algebra and Python
dictionary work, the two kinds of work wfock does, and returns its process
CPU time; it slows down in step with the host.  The benchmark runs a block
before every problem and one after the last, and states each problem's CPU
time in *reference seconds*:

    ref_s = cpu_s * REF_BLOCK_S / (mean CPU time of the blocks on either side)

``REF_BLOCK_S`` is the block's CPU time when the host was quiet: the 5th
percentile of 300 blocks on the machine that sized the benchmark (Intel Xeon
VM at 2.0 GHz, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).  A reference
second is thus about a second of that machine on a quiet host.  The kernel
does not use wfock, so a change to the program under test cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REF_BLOCK_S = 0.025
UNITS = 40
_SIZES = (6, 12, 24, 40)

_rng = np.random.default_rng(0)
_GENERAL = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n)) for n in _SIZES]
_HERMITIAN = [a + a.conj().T for a in _GENERAL]


def _unit() -> float:
    total = 0.0
    for a, h in zip(_GENERAL, _HERMITIAN):
        total += np.linalg.svd(a, compute_uv=False)[0]
        total += np.linalg.eigvalsh(h)[-1]
        total += abs((a @ h)[0, 0])
    table: dict[tuple[int, int], float] = {}
    for i in range(400):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    return total + table[(0, 0)]


def block() -> float:
    """Process CPU seconds of one run of the fixed kernel."""
    t0 = time.process_time()
    for _ in range(UNITS):
        _unit()
    return time.process_time() - t0


def to_ref_s(cpu_s: float, block_s: float) -> float:
    """``cpu_s`` of process CPU time, stated in reference seconds."""
    return cpu_s * REF_BLOCK_S / block_s
