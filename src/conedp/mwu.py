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
    Factor,
    identity,
    inner,
    norm,
    spectral_decompose,
    zero,
    _spectral_sums,
    _sums_element,
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
    weights /= np.add.reduce(weights)  # frame elements have unit trace
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
    _finite_loss(loss.blocks)
    cumulative = state.cumulative_loss + loss
    alg = cumulative.algebra
    iterate = _sums_element(alg, _exp_sums(alg.factors, state.eta, cumulative.blocks))
    return ConeMwuState(state.algebra, state.eta, cumulative, iterate)


def _finite_loss(blocks: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
    """The blocks of a loss, after checking that every entry is finite."""
    for b in blocks:
        if not np.isfinite(b).all():
            raise ValueError("loss element contains non-finite values")
    return blocks


def _exp_sums(
    factors: Sequence[Factor], eta: float, cumulative: Sequence[np.ndarray]
) -> list[list[float]]:
    """The step kernel: the normalized exp(-eta * cumulative) for the
    per-factor blocks of the cumulative loss, as the float lists of
    ``eja._spectral_sums``.  The scaled blocks are (-eta) * block, the
    arithmetic of ``-eta * element``."""
    return _spectral_sums(factors, [-eta * b for b in cumulative], _normalized_exp)


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
        _check_weights(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class DenseDistribution:
    """A probability vector with no entry above 1/density.

    NaN entries are rejected as negative ones are.
    """

    probabilities: np.ndarray
    density: int

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        _check_probabilities(p, self.density)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)


def _check_weights(w: np.ndarray) -> None:
    if not (w.min() >= 0.0 and w.max() <= 1.0):  # NaN fails both
        raise ValueError("weights must lie in [0, 1]")


def _check_probabilities(p: np.ndarray, density: int) -> None:
    if not (p.min() >= 0.0) or abs(float(p.sum()) - 1.0) > 1e-10:
        raise ValueError("probabilities must be nonnegative and sum to one")
    if float(p.max()) > 1.0 / density + 1e-10:
        raise ValueError(f"entries must stay at or below 1/{density}")


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

    Subnormal-scale weights can overflow 1/F_f or c_j.  Only then, the
    same steps run on the weights scaled by the power of two 2**k that
    centres the exponents of the smallest and largest positive weight on
    zero, k = -((e_min + e_max) // 2) with e from ``np.frexp``, and with
    the slack and the bisection's absolute terms scaled by 2**-k: the
    arithmetic of the unscaled steps, without the overflow.
    """
    if s < 1:
        raise ValueError(f"density parameter must be >= 1, got {s}")
    return DenseDistribution(_projected(measure.weights, s), s)


def _projected(w: np.ndarray, s: int) -> np.ndarray:
    """The checked probabilities of :func:`bregman_project` for the weights
    of a measure and s >= 1, as a new array."""
    positive = w[w > 0.0]
    if positive.size < s:
        raise ProjectionInfeasibleError(
            f"projection needs at least {s} positive weights, found {positive.size}"
        )
    if positive.size == s:
        probs = np.where(w > 0.0, 1.0 / s, 0.0)
    else:
        probs = _first_fit(w, positive, s)
    _check_probabilities(probs, s)
    return probs


# 1/F_f and every |c_j| are at most max(s, n) / min F for n positive weights,
# and max(s, n) < 2**53, so a smallest weight of at least 2**-970 cannot
# overflow them
_OVERFLOW_FREE = 2.0**-970


def _quotients_overflow(desc: np.ndarray, s: int) -> bool:
    with np.errstate(over="ignore"):
        tails = np.cumsum(desc[::-1])[::-1]
        c = np.arange(s, s - desc.size, -1) / tails
        return bool(np.isinf(1.0 / desc[-1]) or np.isinf(c).any())


def _first_fit(
    w: np.ndarray, positive: np.ndarray, s: int, unit: float = 1.0
) -> np.ndarray:
    """The probabilities of :func:`bregman_project` for more than s positive
    weights.  ``unit`` is 1 in the scale of c: the window slack and the
    bisection's absolute terms are multiples of it (1.0 unless the weights
    were rescaled)."""
    desc = np.sort(positive)[::-1]
    if desc.item(-1) < _OVERFLOW_FREE and _quotients_overflow(desc, s):
        e_min, e_max = np.frexp([desc[-1], desc[0]])[1].tolist()
        k = -((e_min + e_max) // 2)
        with np.errstate(over="ignore"):  # c * w past DBL_MAX saturates at 1
            return _first_fit(np.ldexp(w, k), np.ldexp(positive, k), s, math.ldexp(unit, -k))
    # segment j: top j entries saturated at 1, the rest still linear in c.
    # tails[j] = sum desc[j:] is a rounded sum of positive weights, so it is
    # at least its largest term and never zero.
    tails = desc[::-1].cumsum()[::-1]
    c = np.arange(s, s - desc.size, -1) / tails
    upper = 1.0 / desc  # segment j ends where entry j saturates
    slack = 1e-12 * unit
    stop = c <= upper + slack
    # segment j starts where entry j - 1 saturates; segment 0 starts at 0,
    # a bound every positive c_0 meets
    stop[1:] &= upper[:-1] - slack <= c[1:]
    j = int(stop.argmax())
    c_star = max(c[j], 0.0) if stop[j] else _bisected_scale(w, positive, s, unit)
    return np.minimum(1.0, c_star * w) / s


def _bisected_scale(w: np.ndarray, positive: np.ndarray, s: int, unit: float) -> float:
    """The c of :func:`_first_fit` by expanding bisection on the mass, for a
    measure whose candidates all miss their windows.  No such measure is
    known; this is the fallback that keeps the solve total."""
    lo, hi = 0.0, s / max(positive.sum(), 1e-300) + unit
    while _dense_mass(hi, w) < s:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _dense_mass(mid, w) < s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(unit, hi):
            break
    return hi


def _update_factors(losses: np.ndarray, eta: float) -> np.ndarray:
    """exp(-eta * losses), the dense update's per-action factor; the losses
    must be finite."""
    if not np.isfinite(losses).all():
        raise ValueError("losses must be finite")
    return np.exp(-eta * losses)


def _reweighted(w: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """min(1, w * factors) as a new array, checked as measure weights."""
    updated = w * factors
    np.minimum(1.0, updated, out=updated)
    _check_weights(updated)
    return updated


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
    return DenseMeasure(_reweighted(measure.weights, _update_factors(l, eta)))


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
