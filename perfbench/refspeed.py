"""Reference kernel that gauges the host's speed at the moment of a request.

On a shared host the speed of execution itself drifts: a fixed pure-Python
loop, a batch of small numpy calls and a batch of 24x24 eigendecompositions
each took 15-30% more or less time from one minute to the next, together
with the requests of every workload.  Dividing a request's wall time by the
time of this kernel, run just before and just after it in the same process,
removes that drift; multiplying by ``NOMINAL_S`` states the result in
seconds at a fixed reference speed.

The kernel mixes the three kinds of work qib requests are made of:
interpreter time, per-call numpy overhead on batched 2x2 blocks, and
LAPACK/BLAS time on mid-sized blocks.  It uses numpy only, never qib, so a
change to the program cannot move it.
"""

from __future__ import annotations

import time

# Median kernel time on the host the benchmark was defined on (2 cores of a
# shared x86-64 host, Python 3.11, numpy with OpenBLAS 0.3.31).
NOMINAL_S = 0.0155


class Kernel:
    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        small = rng.standard_normal((250, 2, 2)) + 1j * rng.standard_normal((250, 2, 2))
        mid = rng.standard_normal((8, 24, 24)) + 1j * rng.standard_normal((8, 24, 24))
        self.small = small + small.conj().transpose(0, 2, 1)
        self.mid = mid + mid.conj().transpose(0, 2, 1)

    def __call__(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        np = self.np
        start = time.perf_counter()
        acc = 0
        for i in range(40000):
            acc += (i * 7) % 13
        for _ in range(10):
            w, v = np.linalg.eigh(self.small)
            np.einsum("xij,xj,xkj->xik", v, w, v.conj())
        for _ in range(4):
            np.linalg.eigh(self.mid)
            self.mid @ self.mid
        return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """A request time in seconds at reference speed, given the kernel times
    measured just before and just after the request."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
