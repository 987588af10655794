"""Multiplicative weights engines.

Two flavors live here: an exponentiated update over the trace-one slice of
a symmetric cone (iterates are algebra elements), and a dense update over
constraint measures with Bregman projection onto bounded-mass
distributions (iterates are probability vectors with no entry above 1/s).
States are value types; each step is a pure function old state -> new
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
    identity,
    inner,
    norm,
    spectral_decompose,
    zero,
    _spectral_apply,
)

__all__ = [
    "ConeMwuState",
    "cone_mwu_init",
    "cone_mwu_step",
    "cone_mwu_regret_certificate",
    "DenseMeasure",
    "DenseDistribution",
    "uniform_measure",
    "bregman_project",
    "dense_mwu_step",
    "dense_mwu_regret_certificate",
    "ProjectionInfeasibleError",
]


# ---------------------------------------------------------------------------
# Exponentiated updates over the cone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeMwuState:
    """Step size, accumulated losses, and the current trace-one iterate."""

    algebra: AlgebraDescriptor
    eta: float
    cumulative_loss: EjaElement
    iterate: EjaElement


def cone_mwu_init(alg: AlgebraDescriptor, eta: float) -> ConeMwuState:
    """Start from the uniform element e / Tr(e)."""
    if not (eta > 0.0):
        raise ValueError(f"eta must be positive, got {eta}")
    return ConeMwuState(alg, float(eta), zero(alg), identity(alg) / alg.rank)


def _normalized_exp(vals: np.ndarray) -> np.ndarray:
    """exp of a descending spectrum shifted by its maximum, summing to one."""
    weights = np.exp(vals - vals[0])
    weights /= weights.sum()  # frame elements have unit trace
    return weights


def cone_mwu_step(state: ConeMwuState, loss: EjaElement) -> ConeMwuState:
    """Fold in one loss and recompute the normalized exponential iterate.

    The new iterate is exp(-eta * sum of losses) normalized by its trace.
    It is recomputed from the cumulative loss rather than updated
    multiplicatively, because exp(a) o exp(b) differs from exp(a + b) for
    non-commuting elements.  The spectrum is shifted by its maximum before
    exponentiating; the shift cancels in the normalization and keeps every
    exponent at or below zero.
    """
    loss._check_same(state.iterate)
    for b in loss.blocks:
        if not np.all(np.isfinite(b)):
            raise ValueError("loss element contains non-finite values")
    cumulative = state.cumulative_loss + loss
    iterate = _spectral_apply(-state.eta * cumulative, _normalized_exp)
    return ConeMwuState(state.algebra, state.eta, cumulative, iterate)


def cone_mwu_regret_certificate(
    losses: Sequence[EjaElement], iterates: Sequence[EjaElement], eta: float
) -> tuple[float, float]:
    """Evaluate both sides of the regret inequality for a played sequence.

    Returns (lhs, rhs) with lhs the total loss incurred by the iterates and
    rhs the total loss of the best fixed trace-one comparator plus
    eta*T + ln(r)/eta.  The comparator is the primitive idempotent on the
    minimum eigendirection of the summed losses, the tightest choice for a
    linear loss.  Callers assert lhs <= rhs.
    """
    if len(losses) != len(iterates):
        raise ValueError(
            f"length mismatch: {len(losses)} losses vs {len(iterates)} iterates"
        )
    if not losses:
        raise ValueError("empty sequence")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"the regret bound needs eta in (0, 1], got {eta}")
    for loss in losses:
        if norm(loss, math.inf) > 1.0 + 1e-9:
            raise ValueError("losses must satisfy |loss|_inf <= 1")
    alg = losses[0].algebra
    t_total = len(losses)
    lhs = sum(inner(l, x) for l, x in zip(losses, iterates))
    cumulative = zero(alg)
    for l in losses:
        cumulative = cumulative + l
    d = spectral_decompose(cumulative)
    comparator = d.frame[-1]  # eigenvalues sorted descending
    rhs = inner(cumulative, comparator) + eta * t_total + math.log(alg.rank) / eta
    return lhs, rhs


# ---------------------------------------------------------------------------
# Dense updates over constraint measures
# ---------------------------------------------------------------------------


class ProjectionInfeasibleError(ValueError):
    """No 1/s-dense distribution is reachable from the given measure."""


@dataclass(frozen=True)
class DenseMeasure:
    """A measure on m actions with every weight in [0, 1].

    NaN weights are rejected along with out-of-range ones.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not (w.min() >= 0.0 and w.max() <= 1.0):  # NaN fails both
            raise ValueError("weights must lie in [0, 1]")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class DenseDistribution:
    """A probability vector with no entry above 1/density.

    NaN entries are rejected as negative ones are.
    """

    probabilities: np.ndarray
    density: int

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        if not (p.min() >= 0.0) or abs(float(p.sum()) - 1.0) > 1e-10:
            raise ValueError("probabilities must be nonnegative and sum to one")
        if float(p.max()) > 1.0 / self.density + 1e-10:
            raise ValueError(f"entries must stay at or below 1/{self.density}")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)


def uniform_measure(m: int) -> DenseMeasure:
    """The uniform starting measure 1/m on each of m actions."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return DenseMeasure(np.full(m, 1.0 / m))


def _dense_mass(c: float, w: np.ndarray) -> float:
    return float(np.minimum(1.0, c * w).sum())


def bregman_project(measure: DenseMeasure, s: int) -> DenseDistribution:
    """Project a measure onto the 1/s-dense distributions.

    Finds c >= 0 with sum_f min(1, c * F_f) = s and returns
    (1/s) * min(1, c * F).  The mass-vs-c map is piecewise linear and
    nondecreasing with breakpoints at c = 1/F_f, so the solve is a sort
    plus a linear step per segment; an expanding bisection handles the
    rare degenerate segment.

    Every segment's candidate c_j = (s - j) / tail_j is computed at once and
    the first segment whose window [1/F_(j-1) - 1e-12, 1/F_(j) + 1e-12]
    holds its candidate wins.  Adjacent windows overlap by the slack, so the
    first-fit rule (not a sorted search) decides between them; this is the
    arithmetic and the choice of a walk over the segments in order.
    """
    if s < 1:
        raise ValueError(f"density parameter must be >= 1, got {s}")
    w = measure.weights
    positive = w[w > 0.0]
    if positive.size < s:
        raise ProjectionInfeasibleError(
            f"projection needs at least {s} positive weights, found {positive.size}"
        )
    if positive.size == s:
        probs = np.where(w > 0.0, 1.0 / s, 0.0)
        return DenseDistribution(probs, s)

    desc = np.sort(positive)[::-1]
    tail = np.concatenate((np.cumsum(desc[::-1])[::-1], [0.0]))  # tail[j] = sum desc[j:]
    # segment j: top j entries saturated at 1, the rest still linear in c
    tails = tail[:-1]  # sums of positive weights, so no division by zero
    c = np.arange(s, s - desc.size, -1) / tails
    upper = 1.0 / desc  # segment j ends where entry j saturates
    stop = c <= upper + 1e-12
    # segment j starts where entry j - 1 saturates; segment 0 starts at 0,
    # a bound every positive c_0 meets
    stop[1:] &= upper[:-1] - 1e-12 <= c[1:]
    stop |= tails <= 0.0  # the walk's stop rule, kept though positive tails never meet it
    j = int(stop.argmax())
    c_star = None
    if stop[j] and tails[j] > 0.0:
        c_star = max(c[j], 0.0)
    if c_star is None:
        lo, hi = 0.0, s / max(positive.sum(), 1e-300) + 1.0
        while _dense_mass(hi, w) < s:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _dense_mass(mid, w) < s:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        c_star = hi
    probs = np.minimum(1.0, c_star * w) / s
    return DenseDistribution(probs, s)


def dense_mwu_step(measure: DenseMeasure, losses, eta: float) -> DenseMeasure:
    """Multiply each weight by exp(-eta * loss), without normalization.

    Weights are clamped at 1 to stay valid measures; with losses in [0, 1]
    (the solver's affine rescaling) the clamp never engages.  Losses must
    be finite, and the result is checked as a :class:`DenseMeasure`, which
    rejects NaN weights.
    """
    l = np.asarray(losses, dtype=float)
    if l.shape != measure.weights.shape:
        raise ValueError(f"loss shape {l.shape} does not match measure {measure.weights.shape}")
    if not np.isfinite(l).all():
        raise ValueError("losses must be finite")
    updated = measure.weights * np.exp(-eta * l)
    return DenseMeasure(np.minimum(1.0, updated))


def dense_mwu_regret_certificate(
    losses: Sequence, distributions: Sequence[DenseDistribution], s: int, eta: float
) -> tuple[float, float]:
    """Evaluate both sides of the projected-update regret inequality.

    lhs is the average loss of the projected distributions; rhs is the
    average loss of the best uniform-on-s-actions comparator plus
    eta + log(m)/(eta*T).  The comparator minimizer is uniform on the s
    coordinates with smallest cumulative loss.  Callers assert lhs <= rhs.
    """
    loss_mat = np.asarray(losses, dtype=float)
    if loss_mat.ndim != 2:
        raise ValueError("losses must be a T x m array")
    t_total, m = loss_mat.shape
    if len(distributions) != t_total:
        raise ValueError(
            f"length mismatch: {t_total} losses vs {len(distributions)} distributions"
        )
    if not (0.0 < eta <= 0.5):
        raise ValueError(f"the projected regret bound needs eta in (0, 1/2], got {eta}")
    if np.max(np.abs(loss_mat)) > 1.0 + 1e-9:
        raise ValueError("losses must satisfy |loss|_inf <= 1")
    lhs = float(
        np.mean([loss_mat[t] @ distributions[t].probabilities for t in range(t_total)])
    )
    cumulative = loss_mat.sum(axis=0)
    best = np.argsort(cumulative, kind="stable")[:s]
    comparator_avg = float(cumulative[best].mean()) / t_total
    rhs = comparator_avg + eta + math.log(m) / (eta * t_total)
    return lhs, rhs
