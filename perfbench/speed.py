"""The host's current speed, from a fixed calibration kernel.

On a shared host the CPU this benchmark runs on switches between speeds
about 1.6-1.9x apart, from second to second and for minutes at a time
(other tenants' load; no steal time shows, and process CPU time equals
wall time). A wall time alone then says more about the host than about
the library. So every operation is bracketed by two runs of this kernel,
and its wall time is reported rescaled to the reference speed:

    time = wall * REFERENCE_S / mean(kernel before, kernel after)

The kernel mixes the two kinds of work the library does: many numpy calls
on tiny arrays (per-component Cholesky solves, as in one policy
evaluation) and a few calls on demo-sized arrays (as in an EM step). It
does not call the library, so a change to the library cannot change it.
The raw wall times are kept in the run record.
"""

import time

import numpy as np
from scipy.special import logsumexp

_rng = np.random.default_rng(0)
_M = _rng.normal(size=(5, 3, 3))
_COV = _M @ np.swapaxes(_M, 1, 2) + np.eye(3)
_POINT = _rng.normal(size=(1, 3))
_DATA = _rng.normal(size=(1000, 3))
# the kernel's time at the reference speed: close to this host's loaded
# speed, so that rescaled times read about like wall times on it
REFERENCE_S = 5e-3


def _kernel() -> None:
    for _ in range(12):
        cols = []
        for cov in _COV:
            L = np.linalg.cholesky(cov)
            sol = np.linalg.solve(L, (_POINT - 0.5).T)
            cols.append(-0.5 * np.sum(sol ** 2, axis=0))
        lj = np.column_stack(cols)
        np.exp(lj - logsumexp(lj, axis=1, keepdims=True))
    for _ in range(2):
        for cov in _COV:
            sol = np.linalg.solve(np.linalg.cholesky(cov), (_DATA - 0.5).T)
            np.sum(sol ** 2, axis=0)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def rescaled(wall: float, before: float, after: float) -> float:
    """A wall time rescaled to the reference speed, given the kernel's
    times just before and just after it."""
    return wall * REFERENCE_S / (0.5 * (before + after))
