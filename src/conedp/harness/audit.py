"""Empirical and analytic privacy audits on neighboring inputs.

Discrete mechanisms (exponential selection, private dual oracle) are
audited by sampling: run the mechanism many times on each neighbor and
compare per-outcome frequencies; the measured privacy loss is the largest
absolute log-ratio, and the pass test allows three standard errors of
sampling slack.  Gaussian releases are audited analytically through the
exact one-dimensional likelihood-ratio tail, no sampling involved.

The driver also runs deliberately mis-calibrated negative controls; a
healthy audit must flag them, otherwise it is vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from conedp.eja import AlgebraDescriptor, identity
from conedp.mechanisms import (
    PrivacyBudget,
    RandomSource,
    exponential_mechanism_sample,
    gaussian_sigma,
)
from conedp.oracles import ScpInstance, violation_scores

__all__ = [
    "AuditReport",
    "audit_discrete_frequencies",
    "audit_exponential_mechanism",
    "audit_dual_oracle",
    "gaussian_tradeoff_delta",
    "audit_gaussian",
    "privacy_audit",
]


@dataclass(frozen=True)
class AuditReport:
    mechanism: str
    epsilon_declared: float
    epsilon_measured: float
    slack: float
    passed: bool
    trials: int
    details: dict = field(default_factory=dict)


def _log_ratio_excess(
    counts_a: np.ndarray, counts_b: np.ndarray, trials: int
) -> tuple[float, float]:
    """Max |log frequency ratio| and the sampling slack at that outcome.

    Zero counts get a half-count correction; the slack is three combined
    standard errors of the log-frequency estimates.
    """
    a = np.where(counts_a == 0, 0.5, counts_a.astype(float))
    b = np.where(counts_b == 0, 0.5, counts_b.astype(float))
    pa = a / trials
    pb = b / trials
    ratios = np.abs(np.log(pa) - np.log(pb))
    se = np.sqrt((1.0 - pa) / a + (1.0 - pb) / b)
    adjusted = ratios - 3.0 * se
    worst = int(np.argmax(adjusted))
    return float(ratios[worst]), float(3.0 * se[worst])


def audit_discrete_frequencies(
    sample_a, sample_b, num_outcomes: int, epsilon: float, trials: int
) -> tuple[float, float, bool]:
    counts_a = np.bincount(sample_a, minlength=num_outcomes)
    counts_b = np.bincount(sample_b, minlength=num_outcomes)
    measured, slack = _log_ratio_excess(counts_a, counts_b, trials)
    return measured, slack, measured - slack <= epsilon


def audit_exponential_mechanism(
    scores,
    neighbor_scores,
    sensitivity: float,
    epsilon: float,
    trials: int,
    seed: int,
) -> AuditReport:
    """Frequency audit of the exponential mechanism on a neighboring pair."""
    rng = RandomSource(seed)
    scores = np.asarray(scores, dtype=float)
    neighbor = np.asarray(neighbor_scores, dtype=float)
    sample_a = exponential_mechanism_sample(
        scores, sensitivity, epsilon, rng.substream(0), trials
    )
    sample_b = exponential_mechanism_sample(
        neighbor, sensitivity, epsilon, rng.substream(1), trials
    )
    measured, slack, ok = audit_discrete_frequencies(
        sample_a, sample_b, scores.size, epsilon, trials
    )
    return AuditReport(
        mechanism="exponential",
        epsilon_declared=epsilon,
        epsilon_measured=measured,
        slack=slack,
        passed=ok,
        trials=trials,
        details={"score_gap": float(np.max(np.abs(scores - neighbor)))},
    )


def audit_dual_oracle(
    instance: ScpInstance,
    neighbor: ScpInstance,
    x,
    epsilon: float,
    sensitivity: float,
    trials: int,
    seed: int,
) -> AuditReport:
    """Frequency audit of the private most-violated-constraint selection,
    which is the exponential mechanism on the two violation-score vectors."""
    report = audit_exponential_mechanism(
        violation_scores(instance, x), violation_scores(neighbor, x),
        sensitivity, epsilon, trials, seed,
    )
    return replace(report, mechanism="dual-oracle")


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_tradeoff_delta(shift: float, sigma: float, epsilon: float) -> float:
    """Exact delta at which two Gaussians of the given shift are eps-close.

    For N(0, sigma^2) vs N(shift, sigma^2) this is
    Phi(shift/(2 sigma) - eps sigma/shift) - e^eps Phi(-shift/(2 sigma) - eps sigma/shift).
    """
    if shift == 0.0:
        return 0.0
    if sigma <= 0.0:
        return 1.0
    a = shift / (2.0 * sigma)
    b = epsilon * sigma / shift
    return max(0.0, _phi(a - b) - math.exp(epsilon) * _phi(-a - b))


def audit_gaussian(
    sensitivity: float, budget: PrivacyBudget, sigma: float | None = None
) -> AuditReport:
    """Analytic audit of a Gaussian release projected on one coordinate.

    The worst neighboring pair shifts a single coordinate by the full
    2-norm sensitivity; the exact likelihood-ratio tail at the declared
    epsilon must not exceed the declared delta.
    """
    if sigma is None:
        sigma = gaussian_sigma(sensitivity, budget)
    achieved = gaussian_tradeoff_delta(sensitivity, sigma, budget.epsilon)
    return AuditReport(
        mechanism="gaussian",
        epsilon_declared=budget.epsilon,
        epsilon_measured=budget.epsilon,
        slack=0.0,
        passed=achieved <= budget.delta,
        trials=0,
        details={"sigma": sigma, "delta_achieved": achieved, "delta_declared": budget.delta},
    )


# ---------------------------------------------------------------------------
# Canonical driver
# ---------------------------------------------------------------------------

_CANONICAL_SCORES = np.array([1.0, 0.6, 0.3, 0.0])


def _canonical_neighbor(scores: np.ndarray, gap: float) -> np.ndarray:
    signs = np.where(np.arange(scores.size) % 2 == 0, 1.0, -1.0)
    return scores + gap * signs


def _canonical_dual_pair(gap: float):
    from conedp.harness.generators import generate_feasible_scp

    alg = AlgebraDescriptor.sym(2)
    instance, _ = generate_feasible_scp(alg, 6, 0.1, seed=2024)
    signs = np.where(np.arange(instance.num_constraints) % 2 == 0, 1.0, -1.0)
    neighbor = replace(instance, scalars=instance.scalars + gap * signs)
    x = identity(alg) / alg.rank
    return instance, neighbor, x


def privacy_audit(
    mechanism: str,
    epsilon: float,
    trials: int,
    seed: int,
    delta: float = 1e-5,
    sensitivity: float = 0.2,
    negative_control: bool = False,
) -> AuditReport:
    """Run a named mechanism on a canonical neighboring pair and audit it.

    With ``negative_control`` the neighbor is moved by twice the declared
    sensitivity while the mechanism is still calibrated to the declared
    value; the audit is expected to fail, which demonstrates it has power.
    """
    gap = 2.0 * sensitivity if negative_control else sensitivity
    if mechanism == "exponential":
        neighbor = _canonical_neighbor(_CANONICAL_SCORES, gap)
        return audit_exponential_mechanism(
            _CANONICAL_SCORES, neighbor, sensitivity, epsilon, trials, seed
        )
    if mechanism == "dual-oracle":
        instance, neighbor, x = _canonical_dual_pair(gap)
        return audit_dual_oracle(
            instance, neighbor, x, epsilon, sensitivity, trials, seed
        )
    if mechanism == "gaussian":
        budget = PrivacyBudget(epsilon, delta)
        sigma = gaussian_sigma(sensitivity, budget)
        if negative_control:
            sigma *= 0.5
        return audit_gaussian(sensitivity, budget, sigma=sigma)
    raise ValueError(f"unknown mechanism {mechanism!r}")
