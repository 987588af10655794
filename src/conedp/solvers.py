"""Feasibility and covering solvers over symmetric cones, private and not.

Five entry points:

* :func:`solve_feasibility` runs multiplicative weights over the primal
  trace-one slice, guided by a most-violated-constraint oracle.
* :func:`solve_scalar_private` privatizes that loop with an
  exponential-mechanism dual oracle (the scalars b are the private data).
* :func:`solve_constraint_private` additionally perturbs the returned
  constraint with a Gaussian element before it enters the loss.
* :func:`solve_covering_high_sensitivity` runs dense multiplicative
  weights over the constraints of a covering program, with a private
  linear-minimization oracle over an idempotent-ray net.
* :func:`solve_objective_private` releases a Gaussian-perturbed objective
  and solves the perturbed program by desk-scale candidate search.

The first three share one loop, :func:`_primal_mwu`; they differ only in
the schedule, the dual oracle's privacy parameters and the loss of the
picked row.

Every solver consumes an explicit RandomSource and is bit-reproducible
for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from conedp.eja import (
    EjaElement,
    _coord_scales,
    _spectral_exp,
    from_coords,
    identity,
    inner,
    min_eigenvalue,
    norm,
    spectral_decompose,
    to_coords,
    zero,
)
from conedp.mechanisms import (
    PrivacyBudget,
    RandomSource,
    Sensitivity,
    _gaussian_noise,
    _gibbs_scale,
    advanced_composition,
    gaussian_mechanism,
)
from conedp.mwu import (
    _check_weights,
    _finite_loss,
    _projected,
    _reweighted,
    _update_factors,
    cone_mwu_init,
    uniform_measure,
)
from conedp.oracles import (
    ScpInstance,
    _covering_pick,
    covering_oracle_sensitivity,
    dual_oracle_private,
    idempotent_ray_net,
    violation_scores,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve_feasibility",
    "solve_scalar_private",
    "solve_constraint_private",
    "solve_covering_high_sensitivity",
    "solve_objective_private",
    "scalar_private_alpha_bound",
    "constraint_private_alpha_bound",
    "constraint_private_step_epsilon",
    "objective_private_alpha_bound",
    "covering_density_lower_bound",
]


@dataclass(frozen=True)
class SolverConfig:
    """Target accuracy, failure probability, privacy budget, and knobs.

    ``density`` is the dense-update mass bound (covering solver only) and
    ``sensitivity`` the worst-case inf-norm perturbation between
    neighboring inputs for the low-sensitivity solvers.
    """

    alpha: float
    beta: float
    budget: PrivacyBudget
    density: int = 1
    sensitivity: Sensitivity = Sensitivity(0.0, "linf")
    collect_trace: bool = False

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if self.density < 1:
            raise ValueError(f"density must be >= 1, got {self.density}")


@dataclass(frozen=True)
class SolveReport:
    """What a solver run produced, plus enough bookkeeping to audit it."""

    solution: EjaElement | None
    iterations: int
    violated: tuple[tuple[int, float], ...]
    max_violation: float
    guarantee_flags: tuple[str, ...] = ()
    trace: tuple[tuple[int, int, float], ...] | None = None
    objective_value: float | None = None
    oracle_invocations: int = 0
    noise_invocations: int = 0

    @property
    def num_violated(self) -> int:
        return len(self.violated)


def _build_report(
    x: EjaElement,
    instance: ScpInstance,
    alpha: float,
    iterations: int,
    flags: tuple[str, ...],
    trace: list[tuple[int, int, float]] | None,
) -> SolveReport:
    """Report for the point x; every step called the oracle once."""
    margins = violation_scores(instance, x)
    violated = tuple(
        (int(i), float(margins[i])) for i in np.flatnonzero(margins > alpha)
    )
    return SolveReport(
        solution=x,
        iterations=iterations,
        violated=violated,
        max_violation=float(margins.max()),
        guarantee_flags=flags,
        trace=tuple(trace) if trace is not None else None,
        oracle_invocations=iterations,
    )


# ---------------------------------------------------------------------------
# Primal multiplicative-weights engine
# ---------------------------------------------------------------------------


def _primal_mwu(
    instance: ScpInstance,
    alpha: float,
    iterations: int,
    eta: float,
    oracle: tuple[float, float] | None,
    loss_of: Callable[[int, RandomSource], Sequence[np.ndarray]],
    rng: RandomSource | None,
    collect_trace: bool,
) -> SolveReport:
    """Shared loop: score the rows, pick one, fold its loss into the iterate.

    ``oracle`` is None for the exact oracle, under which a picked row that
    is already satisfied makes no update.  Otherwise it is the (epsilon,
    sensitivity) of the private dual oracle, and every pick updates, since
    a skip would branch on private data.  ``loss_of`` maps the picked index
    to the loss's per-factor blocks, checked finite (this is where private
    variants inject noise).

    Each step is the arithmetic of :func:`cone_mwu_step` on per-factor
    arrays: the cumulative loss is a list of blocks, and
    ``eja._spectral_exp`` returns the new iterate's sums, which the
    ``eja._coord_scales`` products take straight to coordinates.  Overflow
    is ignored once for the whole loop, for the Jacobi norm's rescale.
    """
    epsilon, sensitivity = oracle or (0.0, 0.0)
    state = cone_mwu_init(instance.algebra, eta)
    factors = instance.algebra.factors
    cumulative = list(state.cumulative_loss.blocks)
    coords = to_coords(state.iterate)
    scales = _coord_scales(instance.algebra)
    neg_eta = -state.eta
    avg_coords = np.zeros(instance.algebra.dim)
    trace_rows: list[tuple[int, int, float]] | None = [] if collect_trace else None
    with np.errstate(over="ignore"):
        for t in range(1, iterations + 1):
            avg_coords += coords
            scores = instance.violations(coords)
            idx = dual_oracle_private(scores, epsilon, sensitivity, rng)
            if trace_rows is not None:
                trace_rows.append((t, idx, float(scores[idx])))
            if oracle is None and scores[idx] <= 0.0:
                continue
            cumulative = [c + l for c, l in zip(cumulative, loss_of(idx, rng))]
            coords = scales * _spectral_exp(factors, [neg_eta * c for c in cumulative], True)
    x_bar = from_coords(instance.algebra, avg_coords / iterations)
    return _build_report(x_bar, instance, alpha, iterations, (), trace_rows)


# Plans above this are refused before any work: at 100 us a step, 10^7
# steps take about 17 minutes.
_MAX_ITERATIONS = 10_000_000


def _planned_iterations(numerator: float, alpha: float) -> int:
    """A schedule's step count T = ceil(numerator / alpha^2), at least 1.

    Raises ValueError when T exceeds ``_MAX_ITERATIONS``, naming T and an
    alpha at most 1.5 % above the smallest that fits (or that no finite
    alpha fits, when the numerator overflows), and when alpha^2 overflows.
    """
    try:
        planned = numerator / alpha**2
    except OverflowError:
        raise ValueError(f"alpha = {alpha:g} is too large: alpha^2 overflows") from None
    if planned > _MAX_ITERATIONS:
        smallest = 1.01 * math.sqrt(numerator / _MAX_ITERATIONS)  # fits once rounded
        fits = f"alpha >= {smallest:.3g} fits" if smallest < math.inf else "no finite alpha fits"
        raise ValueError(
            f"alpha = {alpha:g} plans T = {planned:.3g} iterations, over the cap of "
            f"{_MAX_ITERATIONS:.0e}; {fits}"
        )
    return max(1, math.ceil(planned))


def _feasibility(
    instance: ScpInstance,
    alpha: float,
    budget: PrivacyBudget | None,
    sensitivity: float,
    rng: RandomSource | None,
    collect_trace: bool,
) -> SolveReport:
    """The exact solve (no budget) and the scalar-private solve.

    Runs eta = alpha/(4 rho) for 16 rho^2 log(r) / alpha^2 steps with loss
    a_i / rho on the picked row, scaled for every row once per solve with
    the IEEE products of ``(signs[i] / rho) * row(i)``.  A non-finite row
    (1 / rho overflows at a subnormal width) raises only when picked.
    """
    rho = instance.width
    if rho == 0.0:
        # all-zero constraints: any trace-one point is as good as any other
        x = identity(instance.algebra) / instance.algebra.rank
        return _build_report(x, instance, alpha, 0, (), [] if collect_trace else None)
    eta = alpha / (4.0 * rho)
    rank = instance.algebra.rank
    iterations = _planned_iterations(16.0 * rho * rho * math.log(max(rank, 2)), alpha)
    oracle = None
    if budget is not None:
        oracle = (advanced_composition(budget, iterations), sensitivity)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows raise when picked
        scale = instance.sense_signs / rho
        scaled = [scale.reshape(-1, *[1] * (s.ndim - 1)) * s for s in instance.blocks]
    finite = np.all([np.isfinite(s.reshape(len(s), -1)).all(axis=1) for s in scaled], axis=0)

    def loss_of(idx: int, _rng: RandomSource) -> Sequence[np.ndarray]:
        if not finite.item(idx):
            raise ValueError("loss element contains non-finite values")
        return [s[idx] for s in scaled]

    return _primal_mwu(
        instance, alpha, iterations, eta, oracle, loss_of, rng, collect_trace
    )


def solve_feasibility(
    instance: ScpInstance, alpha: float, *, collect_trace: bool = False
) -> SolveReport:
    """Find a trace-one cone point satisfying every row up to alpha.

    Assumes the instance (its scalars divided by a trace budget if needed)
    admits a feasible trace-one point.  The exact oracle picks the most
    violated row, so the returned average violates no constraint by more
    than alpha; rows that are already satisfied when picked produce no
    movement.  No step draws randomness.
    """
    return _feasibility(instance, alpha, None, 0.0, None, collect_trace)


def solve_scalar_private(
    instance: ScpInstance, config: SolverConfig, rng: RandomSource
) -> SolveReport:
    """Feasibility solve where only the scalar vector b is private.

    The constraint elements are public, so the width and schedule come
    straight from the data; privacy enters solely through the dual oracle,
    run at the per-step epsilon from advanced composition over the T
    oracle calls.  Zero declared sensitivity degenerates to the exact
    oracle, still updating on every pick.

    ``config.sensitivity.value`` is read as a bound on the inf-norm of the
    change in b, whatever its norm tag.  That is sound for every tag,
    since |v|_inf <= |v|_2 <= |v|_1, so an l2 or l1 bound is also an inf-norm
    bound.
    """
    return _feasibility(
        instance,
        config.alpha,
        config.budget,
        config.sensitivity.value,
        rng,
        config.collect_trace,
    )


def constraint_private_step_epsilon(budget: PrivacyBudget, iterations: int) -> float:
    """Per-operation epsilon for T oracle picks plus T Gaussian releases.

    Equals budget.epsilon / (4 sqrt(T log(1/delta))), which is exactly
    advanced composition over 2T operations.
    """
    return advanced_composition(budget, 2 * iterations)


def solve_constraint_private(
    instance: ScpInstance, config: SolverConfig, rng: RandomSource
) -> SolveReport:
    """Feasibility solve where the constraint elements are private.

    Requires every constraint spectrum inside [-1, 1], so the public width
    bound 1 dominates the true width (the data-dependent width must not be
    read).  Each step picks a row with a private dual oracle and loads the
    loss (a_i + z)/2 with z a Gaussian element; schedule
    T = 144 log(r)/alpha^2, eta = alpha/12.

    With zero declared sensitivity the Gaussian scale is zero and the
    noise machinery is bypassed entirely, so the run reduces to the
    scalar-private path and reproduces it bit for bit under a shared
    seed.

    ``config.sensitivity.value`` is read as a bound on the spectral
    inf-norm of the change in a constraint element, whatever its norm tag.
    That is sound for every tag, since the inf-, 2- and 1-norms of a
    spectrum satisfy |v|_inf <= |v|_2 <= |v|_1, so an l2 or l1 bound is
    also an inf-norm bound.
    """
    delta_inf = config.sensitivity.value
    if instance.width > 1.0 + 1e-9:
        raise ValueError(
            f"constraint spectra must lie in [-1, 1]; found inf-norm {instance.width:.6g}"
        )
    if delta_inf == 0.0:
        return solve_scalar_private(instance, config, rng)

    r = instance.algebra.rank
    alpha = config.alpha
    iterations = _planned_iterations(144.0 * math.log(max(r, 2)), alpha)
    step_epsilon = constraint_private_step_epsilon(config.budget, iterations)
    delta = config.budget.delta
    sigma = delta_inf * math.sqrt(2.0 * r * math.log(iterations / delta)) / step_epsilon
    signs = instance.sense_signs
    exceeded = False

    def loss_of(idx: int, rsrc: RandomSource) -> Sequence[np.ndarray]:
        nonlocal exceeded
        loss = 0.5 * _gaussian_noise(signs[idx] * instance.row(idx), sigma, rsrc)
        exceeded = exceeded or norm(loss, math.inf) > 1.0 + 1e-9
        return _finite_loss(loss.blocks)

    report = _primal_mwu(
        instance,
        alpha,
        iterations,
        alpha / 12.0,
        (step_epsilon, delta_inf),
        loss_of,
        rng,
        config.collect_trace,
    )
    flags = ("loss-bound-exceeded",) if exceeded else ()
    return replace(report, guarantee_flags=flags, noise_invocations=iterations)


# ---------------------------------------------------------------------------
# Covering solver (dense updates over constraints)
# ---------------------------------------------------------------------------


def covering_density_lower_bound(
    r: int, epsilon: float, delta: float, beta: float, m: int
) -> float:
    """Density below which the covering guarantee is not established.

    Evaluates (r/epsilon) * sqrt(log(1/delta)) * log(1/beta) * log(m) with
    unit constant.
    """
    return (
        (r / epsilon)
        * math.sqrt(math.log(1.0 / delta))
        * math.log(1.0 / beta)
        * math.log(max(m, 2))
    )


def solve_covering_high_sensitivity(
    instance: ScpInstance,
    opt: float,
    config: SolverConfig,
    rng: RandomSource,
) -> SolveReport:
    """Covering solve private against addition/removal of whole constraints.

    Expects GE-sense rows <a_i, x> >= b_i with unit-bounded constraint
    norms, and a trace budget ``opt`` for the candidate solutions.  A
    dense measure over rows is Bregman-projected each step, the private
    oracle over a grid net of idempotent rays returns an approximately
    minimizing candidate, and losses are affinely mapped into [0, 1]
    before the multiplicative update.  The average of the oracle picks
    satisfies all but fewer than ``density`` rows up to alpha, with high
    probability, when the density meets :func:`covering_density_lower_bound`.
    """
    if not 0.0 < opt < math.inf:
        raise ValueError(f"opt must be positive and finite, got {opt}")
    if any(s != "GE" for s in instance.senses):
        raise ValueError("covering instances use GE sense rows")
    flags: list[str] = []
    if instance.width > 1.0 + 1e-9:
        raise ValueError(
            f"covering rows must be normalized to unit inf-norm; found {instance.width:.6g}"
        )
    m = instance.num_constraints
    s = config.density
    alpha = config.alpha
    rho = 3.0 * opt - 1.0  # width bound for net candidates with trace <= opt
    if rho <= 0.0:
        rho = 1.0
    iterations = _planned_iterations(36.0 * rho * rho * math.log(max(m, 2)), alpha)
    net = idempotent_ray_net(instance.algebra, opt, math.sqrt(opt / 2.0))
    eta = min(0.5, math.sqrt(math.log(max(m, 2)) / iterations))
    step_epsilon = advanced_composition(config.budget, iterations)
    s_floor = covering_density_lower_bound(
        instance.algebra.rank, config.budget.epsilon, config.budget.delta, config.beta, m
    )
    if s < s_floor:
        flags.append("density-below-theory")

    # the loop calls the projection, oracle and update kernels directly.
    # After the pick a step depends only on the picked net point, so each
    # distinct pick's row is computed once, when first picked: at most
    # min(T, |net|) rows, never the whole net (nets reach 2M points).
    constraint_coords = instance.constraint_coords
    net_coords = net.coords
    scale = -_gibbs_scale(covering_oracle_sensitivity(opt, s), step_epsilon)
    rows: dict[int, tuple[np.ndarray, bool, int, float]] = {}
    weights = uniform_measure(m).weights
    avg_coords = np.zeros(instance.algebra.dim)
    trace_rows: list[tuple[int, int, float]] | None = (
        [] if config.collect_trace else None
    )
    for t in range(1, iterations + 1):
        probabilities = _projected(weights, s)
        pick = _covering_pick(probabilities, constraint_coords, net_coords, scale, rng)
        row = rows.get(pick)
        if row is None:
            row = rows[pick] = _covering_row(instance, net_coords[pick], rho, eta)
        factors, width_exceeded, worst, worst_raw = row
        avg_coords += net_coords[pick]
        weights = _reweighted(weights, factors)
        if width_exceeded and "width-exceeded" not in flags:
            flags.append("width-exceeded")
        if trace_rows is not None:
            trace_rows.append((t, worst, worst_raw))
    _check_weights(weights)  # the last update, which no projection checks
    x_bar = from_coords(instance.algebra, avg_coords / iterations)
    return _build_report(x_bar, instance, alpha, iterations, tuple(flags), trace_rows)


def _covering_row(
    instance: ScpInstance, point: np.ndarray, rho: float, eta: float
) -> tuple[np.ndarray, bool, int, float]:
    """What a covering step needs of one net point p: the dense update's
    factors exp(-eta * loss), for the raw losses b_i - <a_i, p> mapped
    affinely into [0, 1] by the width bound rho; whether some raw loss
    passed rho in absolute value; the row of the largest raw loss, and
    that loss."""
    raw = instance.scalars - instance.constraint_coords @ point
    losses = np.clip(raw / (2.0 * rho) + 0.5, 0.0, 1.0)
    worst = int(np.argmax(raw))
    exceeded = bool(np.max(np.abs(raw)) > rho + 1e-9)
    return _update_factors(losses, eta), exceeded, worst, float(raw[worst])


# ---------------------------------------------------------------------------
# Objective-private solve
# ---------------------------------------------------------------------------


def objective_private_alpha_bound(
    sensitivity: float, rank: int, dim: int, epsilon: float, delta: float, beta: float
) -> float:
    """Utility loss bound 4 D sqrt(r log(1/d)) (sqrt(k) + sqrt(log(1/b))) / eps."""
    return (
        4.0
        * sensitivity
        * math.sqrt(rank * math.log(1.0 / delta))
        * (math.sqrt(dim) + math.sqrt(math.log(1.0 / beta)))
        / epsilon
    )


def _unit_sphere_candidates(
    instance: ScpInstance, perturbed: EjaElement, rng: RandomSource, count: int
) -> list[EjaElement]:
    """Feasible unit-2-norm candidates: spectral ones plus random directions."""
    alg = instance.algebra
    candidates: list[EjaElement] = []
    d = spectral_decompose(perturbed)
    positive = np.clip(d.eigenvalues, 0.0, None)
    weight = float(np.sqrt(np.sum(positive**2)))
    if weight > 0.0:
        blocks = zero(alg)
        for v, q in zip(positive / weight, d.frame):
            blocks = blocks + float(v) * q
        candidates.append(blocks)
    candidates.extend(d.frame)  # primitive idempotents have unit 2-norm
    raw = rng.standard_normal(count * alg.dim).reshape(count, alg.dim)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    for row in raw / norms:
        candidates.append(from_coords(alg, row))
    feasible = []
    for x in candidates:
        if min_eigenvalue(x) < -1e-9:
            continue
        if np.any(violation_scores(instance, x) > 1e-9):
            continue
        feasible.append(x)
    return feasible


def solve_objective_private(
    instance: ScpInstance,
    config: SolverConfig,
    rng: RandomSource,
    num_candidates: int = 1024,
) -> tuple[EjaElement, SolveReport]:
    """Release a perturbed objective, then search the perturbed program.

    The released objective is c plus a Gaussian element calibrated to
    ``config.sensitivity`` by :func:`gaussian_mechanism`; it is safe to
    optimize non-privately afterwards.  The downstream program carries a
    unit 2-norm constraint, which is outside the linear solvers here, so
    it is searched over a desk-scale candidate set (spectral candidates of
    the perturbed objective plus random unit directions, filtered by cone
    membership and the linear rows).  The quality transfer holds for the
    candidates examined.
    """
    perturbed = gaussian_mechanism(instance.objective, config.sensitivity, config.budget, rng)
    noise_calls = 1 if config.sensitivity.value > 0.0 else 0
    candidates = _unit_sphere_candidates(instance, perturbed, rng, num_candidates)
    if not candidates:
        report = SolveReport(
            solution=None,
            iterations=0,
            violated=(),
            max_violation=math.nan,
            guarantee_flags=("empty-candidate-set",),
            noise_invocations=noise_calls,
        )
        return perturbed, report
    values = [inner(perturbed, x) for x in candidates]
    best = candidates[int(np.argmax(values))]
    margins = violation_scores(instance, best)
    report = SolveReport(
        solution=best,
        iterations=len(candidates),
        violated=(),
        max_violation=float(margins.max()),
        guarantee_flags=(),
        objective_value=float(inner(instance.objective, best)),
        noise_invocations=noise_calls,
    )
    return perturbed, report


# ---------------------------------------------------------------------------
# Theory bounds used by tests and reporting
# ---------------------------------------------------------------------------


def scalar_private_alpha_bound(
    sensitivity: float,
    rho: float,
    rank: int,
    m: int,
    epsilon: float,
    delta: float,
    beta: float,
) -> float:
    """Accuracy at which the scalar-private guarantee closes.

    Solves the fixed point
    alpha^2 = 8 D rho sqrt(log r log(1/d)) / eps * log(16 m rho^2 log r / (alpha^2 b)).
    """
    if sensitivity == 0.0:
        return 0.0
    log_r = math.log(max(rank, 2))
    lead = 8.0 * sensitivity * rho * math.sqrt(log_r * math.log(1.0 / delta)) / epsilon
    alpha = 1.0
    for _ in range(100):
        arg = max(math.e, 16.0 * m * rho * rho * log_r / (alpha * alpha * beta))
        new = math.sqrt(lead * math.log(arg))
        if abs(new - alpha) <= 1e-12 * max(1.0, alpha):
            alpha = new
            break
        alpha = new
    return alpha


def constraint_private_alpha_bound(
    sensitivity: float, rank: int, dim: int, epsilon: float, delta: float, beta: float
) -> float:
    """Closed-form accuracy for the constraint-private solver (constant 12).

    12 * D^(1/2) r^(1/4) (log r)^(1/4) k^(1/4) / eps^(1/2)
       * log(288 log r / b)^(1/4) * log(288 log r / d)^(1/2).
    """
    log_r = math.log(max(rank, 2))
    return (
        12.0
        * math.sqrt(sensitivity)
        * rank**0.25
        * log_r**0.25
        * dim**0.25
        / math.sqrt(epsilon)
        * math.log(288.0 * log_r / beta) ** 0.25
        * math.log(288.0 * log_r / delta) ** 0.5
    )
