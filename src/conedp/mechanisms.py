"""Differential privacy primitives: Gaussian and exponential mechanisms,
composition budgeting, and chi-square utility accounting.

Every mechanism takes an explicit :class:`RandomSource`, so results are a
pure function of (seed, inputs).  Concurrent callers should derive one
source per task via :meth:`RandomSource.substream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from conedp.eja import EjaElement, from_coords

__all__ = [
    "PrivacyBudget",
    "Sensitivity",
    "RandomSource",
    "gaussian_sigma",
    "gaussian_mechanism",
    "l1_gaussian_mechanism",
    "linf_gaussian_mechanism",
    "gibbs_probabilities",
    "exponential_mechanism",
    "exponential_mechanism_sample",
    "exponential_mechanism_error_bound",
    "advanced_composition",
    "CompositionRangeError",
    "chi_square_tail_thresholds",
]

_NORM_TAGS = ("l1", "l2", "linf")
_UNIT = 1.0 / (1 << 53)  # a 53-bit integer times this is a uniform in [0, 1)


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) privacy budget; delta may be zero."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class Sensitivity:
    """A worst-case output change between neighboring inputs, with norm tag."""

    value: float
    norm: str = "l2"

    def __post_init__(self):
        if not (0.0 <= self.value < math.inf):
            raise ValueError(f"sensitivity must be nonnegative and finite, got {self.value}")
        if self.norm not in _NORM_TAGS:
            raise ValueError(f"norm tag must be one of {_NORM_TAGS}, got {self.norm!r}")


class RandomSource:
    """Seeded random stream with uniform and normal samplers.

    Uniforms are raw PCG64 words, shifted and scaled exactly, so they match
    on every platform.  Normals are their Box-Muller transform through
    numpy's SIMD ``log``, whose AVX-512 and AVX2 loops round apart on long
    arrays, so a normal can differ by an ulp or two between hosts.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        self._bitgen = np.random.PCG64(
            np.random.SeedSequence(entropy=self.seed, spawn_key=_spawn_key)
        )

    def substream(self, index: int) -> "RandomSource":
        """An independent stream derived from the same master seed."""
        return RandomSource(self.seed, self._spawn_key + (int(index),))

    def uniform(self, size: int | None = None):
        """Uniform draws in [0, 1) with 53-bit resolution.

        One draw is a Python float from one raw word, the same value and
        stream position as one element of ``uniform(n)``.
        """
        if size is None:
            return (self._bitgen.random_raw() >> 11) * _UNIT
        return (self._bitgen.random_raw(int(size)) >> 11) * _UNIT

    def standard_normal(self, size: int | None = None):
        """Standard normal draws: the one-row case of :meth:`normal_rows`."""
        z = self.normal_rows(1, 1 if size is None else int(size))[0][0]
        return z if size is not None else float(z[0])

    def normal_rows(self, rows: int, n: int, extra: int = 0):
        """(rows, n) standard normals by Box-Muller, and (rows, extra)
        uniforms, from one draw in the stream layout of ``rows`` alternating
        calls ``standard_normal(n)``, ``uniform(extra)``."""
        pairs = (n + 1) // 2
        u = self.uniform(rows * (2 * pairs + extra)).reshape(rows, -1)
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:, :pairs]))  # 1 - u in (0, 1]: a finite log
        angle = 2.0 * math.pi * u[:, pairs : 2 * pairs]
        z = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)), axis=1)
        return z[:, :n], u[:, 2 * pairs :]

    def rewind(self, words: int) -> None:
        """Step the stream back by ``words`` raw words."""
        self._bitgen.advance(-int(words))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, spawn_key={self._spawn_key})"


# ---------------------------------------------------------------------------
# Gaussian mechanism
# ---------------------------------------------------------------------------


def gaussian_sigma(sensitivity: Sensitivity | float, budget: PrivacyBudget) -> float:
    """Noise scale delta2 * sqrt(2 log(1.25/delta)) / epsilon.

    Requires delta > 0; the Gaussian mechanism has no pure-DP form.
    """
    value = sensitivity.value if isinstance(sensitivity, Sensitivity) else float(sensitivity)
    if budget.delta <= 0.0:
        raise ValueError("the Gaussian mechanism requires delta > 0")
    return value * math.sqrt(2.0 * math.log(1.25 / budget.delta)) / budget.epsilon


def gaussian_mechanism(x: EjaElement, sigma: float, rng: RandomSource) -> EjaElement:
    """Release x plus an isotropic Gaussian element of scale sigma.

    The noise is drawn in orthonormal coordinates and mapped back through
    the inverse isometry, which makes its 2-norm distribution identical to
    a k-dimensional Gaussian vector.  sigma == 0 returns x exactly and
    consumes no randomness.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0.0:
        return x
    k = x.algebra.dim
    noise = sigma * rng.standard_normal(k)
    return x + from_coords(x.algebra, noise)


def l1_gaussian_mechanism(
    x: EjaElement, sensitivity: Sensitivity, budget: PrivacyBudget, rng: RandomSource
) -> EjaElement:
    """Gaussian mechanism calibrated to a spectral 1-norm sensitivity.

    Valid because the 2-norm never exceeds the 1-norm.
    """
    sigma = gaussian_sigma(sensitivity.value, budget)
    return gaussian_mechanism(x, sigma, rng)


def linf_gaussian_mechanism(
    x: EjaElement,
    sensitivity: Sensitivity,
    rank: int,
    budget: PrivacyBudget,
    rng: RandomSource,
) -> EjaElement:
    """Gaussian mechanism calibrated to a spectral inf-norm sensitivity.

    Uses the effective 2-norm bound sqrt(rank) * delta_inf; ``rank`` is the
    algebra rank, not its dimension.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    sigma = gaussian_sigma(math.sqrt(rank) * sensitivity.value, budget)
    return gaussian_mechanism(x, sigma, rng)


# ---------------------------------------------------------------------------
# Exponential mechanism
# ---------------------------------------------------------------------------


def gibbs_probabilities(scores, sensitivity: float, epsilon: float) -> np.ndarray:
    """Selection probabilities proportional to exp(eps * score / (2 * sens)).

    The max score is subtracted before exponentiating, which leaves the
    distribution unchanged and avoids overflow at large epsilon.
    """
    s = _score_vector(scores)
    return _gibbs(s, _gibbs_scale(sensitivity, epsilon))


def _score_vector(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a nonempty 1-d sequence")
    return s


def _gibbs_scale(sensitivity: float, epsilon: float) -> float:
    """The logit scale eps / (2 * sens), after checking both are positive."""
    if not (sensitivity > 0.0):
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return epsilon / (2.0 * sensitivity)


def _gibbs(s: np.ndarray, scale: float) -> np.ndarray:
    """Probabilities proportional to exp(scale * s) for a nonempty 1-d float
    array s, which must be finite.  A negative scale selects low scores:
    (-k) * s is k * (-s) bit for bit."""
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    logits = scale * s
    logits -= logits.max()
    w = np.exp(logits, out=logits)
    w /= w.sum()
    return w


def _sample_indices(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The index whose CDF interval holds each uniform in u.  A u past the
    last CDF entry, which rounding can leave below 1, takes the last index."""
    return np.minimum(p.cumsum().searchsorted(u, side="right"), p.size - 1)


def _sample_index(p: np.ndarray, u: float) -> int:
    """:func:`_sample_indices` for one uniform, without the arrays."""
    return min(int(p.cumsum().searchsorted(u, side="right")), p.size - 1)


def _exponential_pick(s: np.ndarray, scale: float, rng: RandomSource) -> int:
    """One Gibbs draw at logit scale ``scale`` over the scores s: the kernel
    of :func:`exponential_mechanism` and of the covering oracle."""
    return _sample_index(_gibbs(s, scale), rng.uniform())


def exponential_mechanism(
    scores, sensitivity: float, epsilon: float, rng: RandomSource
) -> int:
    """Sample one index with probability proportional to exp(eps*s/(2*sens)).

    The mechanism maximizes quality; callers that minimize pass negated
    scores.
    """
    s = _score_vector(scores)
    return _exponential_pick(s, _gibbs_scale(sensitivity, epsilon), rng)


def exponential_mechanism_sample(
    scores, sensitivity: float, epsilon: float, rng: RandomSource, size: int
) -> np.ndarray:
    """Draw ``size`` independent selections from the same Gibbs distribution.

    Identical in law to ``size`` repeated single draws; used by the audit
    driver where millions of trials are needed.
    """
    p = gibbs_probabilities(scores, sensitivity, epsilon)
    return _sample_indices(p, rng.uniform(size))


def exponential_mechanism_error_bound(
    range_size: float, sensitivity: float, epsilon: float, beta: float
) -> float:
    """Score shortfall 2*sens/eps * log(range/beta), exceeded w.p. <= beta.

    ``range_size`` is usually the integer number of candidates, but any
    positive cardinality bound works.
    """
    if range_size < 1:
        raise ValueError(f"range_size must be >= 1, got {range_size}")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return (2.0 * sensitivity / epsilon) * math.log(range_size / beta)


# ---------------------------------------------------------------------------
# Composition and tail accounting
# ---------------------------------------------------------------------------


class CompositionRangeError(ValueError):
    """The closed-form per-step epsilon would overspend the budget."""


def advanced_composition(budget: PrivacyBudget, num_mechanisms: int) -> float:
    """Per-step epsilon so that k adaptive steps compose to (eps, delta).

    Returns eps0 = eps / sqrt(8 k log(1/delta)).  By the advanced
    composition theorem (Dwork, Rothblum & Vadhan, FOCS 2010), k eps0-DP
    steps compose to sqrt(2 k log(1/delta)) eps0 + k eps0 (e^eps0 - 1),
    whose first term is eps / 2.  So the total stays within eps only while
    the second term is at most eps / 2, which fails once eps passes about
    4 log(1/delta); there a CompositionRangeError is raised.
    """
    if num_mechanisms < 1:
        raise ValueError(f"num_mechanisms must be >= 1, got {num_mechanisms}")
    if budget.delta <= 0.0:
        raise ValueError("advanced composition requires delta > 0")
    step = budget.epsilon / math.sqrt(
        8.0 * num_mechanisms * math.log(1.0 / budget.delta)
    )
    overshoot = num_mechanisms * step * math.expm1(step)
    if overshoot > 0.5 * budget.epsilon:
        raise CompositionRangeError(
            f"advanced composition of {num_mechanisms} steps overspends epsilon = "
            f"{budget.epsilon:g} at delta = {budget.delta:g}: the per-step epsilon "
            f"{step:.3g} composes to {0.5 * budget.epsilon + overshoot:.3g}"
        )
    return step


def chi_square_tail_thresholds(k: int, sigma: float, t: float) -> tuple[float, float]:
    """Upper/lower tail thresholds for the squared norm of k Gaussians.

    For Z the sum of k squared N(0, sigma^2) draws:
    P[Z >= upper] <= exp(-t) and P[Z <= lower] <= exp(-t), with
    upper = (k + 2 sqrt(k t) + 2 t) sigma^2 and lower = (k - 2 sqrt(k t)) sigma^2.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    s2 = sigma * sigma
    spread = 2.0 * math.sqrt(k * t)
    upper = (k + spread + 2.0 * t) * s2
    lower = (k - spread) * s2
    return upper, lower
