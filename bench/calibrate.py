"""A fixed reference workload that measures how fast the host runs right now.

The benchmark's host is a few cores of a shared machine, and its speed moves
by 15-50% in phases of seconds to minutes; CPU time moves with wall time, so
the change is in how fast the cores run, not in scheduling. A run therefore
times this kernel between blocks of curves and after each set-up, and
``run.py`` reports each timed span as it would read on a host where the
kernel takes ``REFERENCE_S``: measured time x REFERENCE_S / the kernel's
time around the span.

The kernel does the two kinds of work the library does, in fixed amounts and
without importing it, so no change to the library moves it:

- row reduction of small matrices mod 5, one numpy call per row operation, as
  ``semilinear.rref`` does on the scan workload;
- a dense 2-D convolution by windowed accumulation over large arrays, as
  ``polyring._conv_int`` does on the large-p workload.

Both halves take about the same time.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one sample takes on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6, at its median speed). Only the ratio of a
# run's samples to this constant is used.
REFERENCE_S = 0.035

_P = 5
_INV = (0, 1, 3, 2, 4)
_rng = np.random.default_rng(20220216)
_MATRICES = [_rng.integers(0, _P, size=(16, 24), dtype=np.int64) for _ in range(8)]
_KERNEL = _rng.integers(0, 101, size=(24, 24), dtype=np.int64)
_SIGNAL = _rng.integers(0, 101, size=(96, 96, 3), dtype=np.int64)
_ROUNDS = 8
_CHECKSUM = 103449


def _rank_mod_p(M) -> int:
    M = M.copy()
    r = 0
    for c in range(M.shape[1]):
        if r == M.shape[0]:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r] = M[r] * _INV[int(M[r, c])] % _P
        others = np.nonzero(M[:, c])[0]
        others = others[others != r]
        if others.size:
            M[others] = (M[others] - M[others, c][:, None] * M[r][None, :]) % _P
        r += 1
    return r


def _convolve() -> int:
    kh, kw = _KERNEL.shape
    sh, sw, depth = _SIGNAL.shape
    out = np.zeros((kh + sh - 1, kw + sw - 1, depth), np.int64)
    for i, j in np.argwhere(_KERNEL):
        out[i:i + sh, j:j + sw] += _KERNEL[i, j] * _SIGNAL
    return int(out.sum() % 101)


def sample() -> float:
    """Seconds for one pass of the kernel. Its results are checked, outside
    the timed region, so that every pass does the same work."""
    t0 = time.perf_counter()
    ranks = [_rank_mod_p(M) for _ in range(_ROUNDS) for M in _MATRICES]
    conv = _convolve()
    seconds = time.perf_counter() - t0
    if sum(ranks) * 101 + conv != _CHECKSUM:
        raise RuntimeError("the calibration kernel gave a different result")
    return seconds
