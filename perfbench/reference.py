"""A fixed reference computation that measures how fast the host runs right now.

The end-to-end timings are taken on a shared host whose speed for one
thread moves by a quarter or more between runs (turbo frequency, busy
hyperthread siblings, stolen time).  ``run()`` times a computation of the
same kind as a conedp solve: Python-level cyclic Jacobi sweeps and small
numpy products on fixed symmetric matrices.  It imports nothing from
conedp, so a change to conedp cannot move it.  ``run.py`` runs it around
every solve and set-up and rescales their CPU time to a host that runs it
in ``NOMINAL_S`` seconds.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.045  # about the median of run() on the 2-vCPU Xeon the baseline was taken on
_SIZES = (3, 4, 6)
_COUNT = 32


def _matrices():
    rng = np.random.default_rng(20250916)
    out = []
    for n in _SIZES:
        for _ in range(_COUNT):
            a = rng.standard_normal((n, n))
            out.append(a + a.T)
    return out


MATRICES = _matrices()


def _jacobi(a: np.ndarray, sweeps: int = 5) -> tuple[np.ndarray, np.ndarray]:
    a = a.copy()
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + (theta * theta + 1.0) ** 0.5)
                c = 1.0 / (t * t + 1.0) ** 0.5
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q], rot[q, p] = s, -s
                a = rot.T @ a @ rot
                v = v @ rot
    return np.diag(a).copy(), v


def work() -> float:
    """The computation itself: decompose every matrix and rebuild its exponential."""
    total = 0.0
    for a in MATRICES:
        vals, vecs = _jacobi(a)
        weights = np.exp(-0.1 * vals)
        rebuilt = sum(w * np.outer(u, u) for w, u in zip(weights, vecs.T))
        total += float(np.trace(rebuilt)) / float(weights.sum())
    return total


def run() -> float:
    """CPU seconds of this process over one ``work()``."""
    start = time.process_time()
    work()
    return time.process_time() - start
