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

Every solver consumes an explicit RandomSource and is bit-reproducible
for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from conedp.eja import (
    EjaElement,
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
    advanced_composition,
    exponential_mechanism,
    gaussian_mechanism,
)
from conedp.mwu import (
    bregman_project,
    cone_mwu_init,
    cone_mwu_step,
    dense_mwu_step,
    uniform_measure,
)
from conedp.oracles import (
    CoveringNet,
    ScpInstance,
    covering_oracle_private,
    idempotent_ray_net,
    violation_scores,
    width_rho,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "BracketError",
    "check_violations",
    "scale_to_distribution",
    "unscale_solution",
    "solve_feasibility",
    "solve_scalar_private",
    "solve_constraint_private",
    "solve_covering_high_sensitivity",
    "solve_objective_private",
    "binary_search_opt",
    "scalar_private_alpha_bound",
    "constraint_private_alpha_bound",
    "constraint_private_step_epsilon",
    "objective_private_alpha_bound",
    "objective_private_sigma",
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
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
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


class BracketError(ValueError):
    """Binary search was given an invalid bracket."""


# ---------------------------------------------------------------------------
# Violation bookkeeping and scaling
# ---------------------------------------------------------------------------


def check_violations(
    x: EjaElement, instance: ScpInstance, alpha: float
) -> dict[int, float]:
    """Constraints violated by more than alpha, with their exact margins.

    Margins are sense-adjusted: positive means violated regardless of
    whether the row reads <= or >=.
    """
    margins = violation_scores(instance, x)
    return {int(i): float(margins[i]) for i in np.flatnonzero(margins > alpha)}


def scale_to_distribution(instance: ScpInstance, scale: float) -> ScpInstance:
    """Divide the scalars by ``scale`` so a trace-one solution can exist.

    A solution x of the scaled program corresponds to scale*x for the
    original one; violations scale by the same factor.
    """
    if not (scale > 0.0):
        raise ValueError(f"scale must be positive, got {scale}")
    return replace(instance, scalars=instance.scalars / scale)


def unscale_solution(x: EjaElement, scale: float) -> EjaElement:
    return scale * x


def _build_report(
    x: EjaElement,
    instance: ScpInstance,
    alpha: float,
    iterations: int,
    flags: tuple[str, ...],
    trace: list[tuple[int, int, float]] | None,
    oracle_calls: int,
    noise_calls: int,
) -> SolveReport:
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
        oracle_invocations=oracle_calls,
        noise_invocations=noise_calls,
    )


# ---------------------------------------------------------------------------
# Primal multiplicative-weights engine
# ---------------------------------------------------------------------------


def _primal_mwu(
    instance: ScpInstance,
    alpha: float,
    iterations: int,
    eta: float,
    pick: Callable[[np.ndarray, RandomSource], int],
    rng: RandomSource,
    loss_of: Callable[[int, RandomSource], EjaElement],
    skip_satisfied: bool,
    collect_trace: bool,
    count_noise: bool = False,
) -> SolveReport:
    """Shared loop: pick a row, fold its loss into the cone iterate, average.

    ``pick`` maps the current violation scores to a constraint index;
    ``loss_of`` maps that index to the loss element (this is where private
    variants inject noise).  When ``skip_satisfied`` is set and the picked
    row is already satisfied, the update is skipped; private solvers must
    leave it off because the skip would branch on private data.
    """
    state = cone_mwu_init(instance.algebra, eta)
    avg_coords = np.zeros(instance.algebra.dim)
    trace_rows: list[tuple[int, int, float]] | None = [] if collect_trace else None
    flags: list[str] = []
    oracle_calls = 0
    noise_calls = 0
    for t in range(1, iterations + 1):
        iterate = state.iterate
        avg_coords += to_coords(iterate)
        scores = violation_scores(instance, iterate)
        idx = pick(scores, rng)
        oracle_calls += 1
        if trace_rows is not None:
            trace_rows.append((t, idx, float(scores[idx])))
        if skip_satisfied and scores[idx] <= 0.0:
            continue
        loss = loss_of(idx, rng)
        if count_noise:
            noise_calls += 1
            if norm(loss, math.inf) > 1.0 + 1e-9 and "loss-bound-exceeded" not in flags:
                flags.append("loss-bound-exceeded")
        state = cone_mwu_step(state, loss)
    x_bar = from_coords(instance.algebra, avg_coords / iterations)
    return _build_report(
        x_bar,
        instance,
        alpha,
        iterations,
        tuple(flags),
        trace_rows,
        oracle_calls,
        noise_calls,
    )


def _feasibility_schedule(rho: float, rank: int, alpha: float) -> tuple[float, int]:
    eta = alpha / (4.0 * rho)
    iterations = max(1, math.ceil(16.0 * rho * rho * math.log(max(rank, 2)) / alpha**2))
    return eta, iterations


def solve_feasibility(
    instance: ScpInstance,
    alpha: float,
    oracle: Callable[[np.ndarray, RandomSource], int] | None = None,
    rng: RandomSource | None = None,
    collect_trace: bool = False,
    skip_satisfied: bool = True,
) -> SolveReport:
    """Find a trace-one cone point satisfying every row up to alpha.

    Assumes the instance (after :func:`scale_to_distribution` if needed)
    admits a feasible trace-one point.  Runs eta = alpha/(4 rho) for
    16 rho^2 log(r) / alpha^2 steps with loss a_i / rho on the picked row.
    With the default exact oracle the returned average violates no
    constraint by more than alpha; rows that are already satisfied when
    picked produce no movement.
    """
    if rng is None:
        rng = RandomSource(0)
    rho = width_rho(instance)
    if rho == 0.0:
        # all-zero constraints: any trace-one point is as good as any other
        x = identity(instance.algebra) / instance.algebra.rank
        return _build_report(x, instance, alpha, 0, (), [] if collect_trace else None, 0, 0)
    eta, iterations = _feasibility_schedule(rho, instance.algebra.rank, alpha)
    if oracle is None:
        oracle = lambda scores, _rng: int(np.argmax(scores))

    signs = instance.sense_signs

    def loss_of(idx: int, _rng: RandomSource) -> EjaElement:
        return (signs[idx] / rho) * instance.constraints[idx]

    return _primal_mwu(
        instance,
        alpha,
        iterations,
        eta,
        oracle,
        rng,
        loss_of,
        skip_satisfied=skip_satisfied,
        collect_trace=collect_trace,
    )


def solve_scalar_private(
    instance: ScpInstance, config: SolverConfig, rng: RandomSource
) -> SolveReport:
    """Feasibility solve where only the scalar vector b is private.

    The constraint elements are public, so the width and schedule come
    straight from the data; privacy enters solely through the dual oracle,
    run at the per-step epsilon from advanced composition over the T
    oracle calls.  Zero declared sensitivity degenerates to the exact
    oracle.
    """
    rho = width_rho(instance)
    if rho == 0.0:
        x = identity(instance.algebra) / instance.algebra.rank
        return _build_report(x, instance, config.alpha, 0, (), None, 0, 0)
    eta, iterations = _feasibility_schedule(
        rho, instance.algebra.rank, config.alpha
    )
    step_epsilon = advanced_composition(config.budget, iterations)
    delta_inf = config.sensitivity.value

    def oracle(scores: np.ndarray, r: RandomSource) -> int:
        if delta_inf == 0.0:
            return int(np.argmax(scores))
        return exponential_mechanism(scores, delta_inf, step_epsilon, r)

    signs = instance.sense_signs

    def loss_of(idx: int, _rng: RandomSource) -> EjaElement:
        return (signs[idx] / rho) * instance.constraints[idx]

    return _primal_mwu(
        instance,
        config.alpha,
        iterations,
        eta,
        oracle,
        rng,
        loss_of,
        skip_satisfied=False,
        collect_trace=config.collect_trace,
    )


def constraint_private_step_epsilon(budget: PrivacyBudget, iterations: int) -> float:
    """Per-operation epsilon for T oracle picks plus T Gaussian releases.

    Equals budget.epsilon / (4 sqrt(T log(1/delta))), which is exactly
    advanced composition over 2T operations.
    """
    return advanced_composition(budget, 2 * iterations)


def solve_constraint_private(
    instance: ScpInstance,
    config: SolverConfig,
    rng: RandomSource,
    public_width: float = 1.0,
) -> SolveReport:
    """Feasibility solve where the constraint elements are private.

    Requires every constraint spectrum inside [-1, 1] (so the supplied
    public width bound, default 1, dominates the true width; the
    data-dependent width must not be read).  Each step picks a row with a
    private dual oracle and loads the loss (a_i + z)/2 with z a Gaussian
    element; schedule T = 144 log(r)/alpha^2, eta = alpha/(12 rho).

    With zero declared sensitivity the Gaussian scale is zero and the
    noise machinery is bypassed entirely, so the run reduces to the
    scalar-private path and reproduces it bit for bit under a shared
    seed.
    """
    delta_inf = config.sensitivity.value
    spectrum_bound = max(norm(a, math.inf) for a in instance.constraints)
    if spectrum_bound > 1.0 + 1e-9:
        raise ValueError(
            f"constraint spectra must lie in [-1, 1]; found inf-norm {spectrum_bound:.6g}"
        )
    if delta_inf == 0.0:
        return solve_scalar_private(instance, config, rng)

    if not (public_width > 0.0):
        raise ValueError(f"public width must be positive, got {public_width}")
    alg = instance.algebra
    r = alg.rank
    alpha = config.alpha
    iterations = max(1, math.ceil(144.0 * math.log(max(r, 2)) / alpha**2))
    step_epsilon = constraint_private_step_epsilon(config.budget, iterations)
    eta = alpha / (12.0 * public_width)
    delta = config.budget.delta
    if delta <= 0.0:
        raise ValueError("constraint-private solving requires delta > 0")
    sigma = delta_inf * math.sqrt(2.0 * r * math.log(iterations / delta)) / step_epsilon

    def oracle(scores: np.ndarray, rsrc: RandomSource) -> int:
        return exponential_mechanism(scores, delta_inf, step_epsilon, rsrc)

    signs = instance.sense_signs

    def loss_of(idx: int, rsrc: RandomSource) -> EjaElement:
        noisy = gaussian_mechanism(signs[idx] * instance.constraints[idx], sigma, rsrc)
        return 0.5 * noisy

    return _primal_mwu(
        instance,
        alpha,
        iterations,
        eta,
        oracle,
        rng,
        loss_of,
        skip_satisfied=False,
        collect_trace=config.collect_trace,
        count_noise=True,
    )


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
    net: CoveringNet | None = None,
    net_mode: str = "grid",
) -> SolveReport:
    """Covering solve private against addition/removal of whole constraints.

    Expects GE-sense rows <a_i, x> >= b_i with unit-bounded constraint
    norms, and a trace budget ``opt`` for the candidate solutions.  A
    dense measure over rows is Bregman-projected each step, the private
    net oracle returns an approximately minimizing candidate, and losses
    are affinely mapped into [0, 1] before the multiplicative update.  The
    average of the oracle picks satisfies all but fewer than ``density``
    rows up to alpha, with high probability, when the density meets
    :func:`covering_density_lower_bound`.
    """
    if opt <= 0.0:
        raise ValueError(f"opt must be positive, got {opt}")
    if any(s != "GE" for s in instance.senses):
        raise ValueError("covering instances use GE sense rows")
    flags: list[str] = []
    max_norm = max(norm(a, math.inf) for a in instance.constraints)
    if max_norm > 1.0 + 1e-9:
        raise ValueError(
            f"covering rows must be normalized to unit inf-norm; found {max_norm:.6g}"
        )
    m = instance.num_constraints
    s = config.density
    alpha = config.alpha
    rho = 3.0 * opt - 1.0  # width bound for net candidates with trace <= opt
    if rho <= 0.0:
        rho = 1.0
    if net is None:
        net = idempotent_ray_net(
            instance.algebra, opt, math.sqrt(opt / 2.0), net_mode, rng
        )
    iterations = max(1, math.ceil(36.0 * rho * rho * math.log(max(m, 2)) / alpha**2))
    eta = min(0.5, math.sqrt(math.log(max(m, 2)) / iterations))
    step_epsilon = advanced_composition(config.budget, iterations)
    s_floor = covering_density_lower_bound(
        instance.algebra.rank, config.budget.epsilon, config.budget.delta, config.beta, m
    )
    if s < s_floor:
        flags.append("density-below-theory")

    measure = uniform_measure(m)
    avg_coords = np.zeros(instance.algebra.dim)
    trace_rows: list[tuple[int, int, float]] | None = (
        [] if config.collect_trace else None
    )
    b = instance.scalars
    oracle_calls = 0
    for t in range(1, iterations + 1):
        projected = bregman_project(measure, s)
        pick = covering_oracle_private(
            projected.probabilities, instance, net, step_epsilon, opt, s, rng
        )
        oracle_calls += 1
        point_coords = net.coords[pick]
        avg_coords += point_coords
        values = instance.constraint_coords @ point_coords
        raw = b - values
        if np.max(np.abs(raw)) > rho + 1e-9 and "width-exceeded" not in flags:
            flags.append("width-exceeded")
        losses = np.clip(raw / (2.0 * rho) + 0.5, 0.0, 1.0)
        measure = dense_mwu_step(measure, losses, eta)
        if trace_rows is not None:
            worst = int(np.argmax(raw))
            trace_rows.append((t, worst, float(raw[worst])))
    x_bar = from_coords(instance.algebra, avg_coords / iterations)
    report = _build_report(
        x_bar,
        instance,
        alpha,
        iterations,
        tuple(flags),
        trace_rows,
        oracle_calls,
        0,
    )
    return report


# ---------------------------------------------------------------------------
# Binary search over the trace budget
# ---------------------------------------------------------------------------


def binary_search_opt(
    instance: ScpInstance,
    lo: float,
    hi: float,
    tol: float,
    feasibility: Callable[[ScpInstance, float, PrivacyBudget | None, RandomSource], tuple[bool, SolveReport | None]],
    budget: PrivacyBudget | None = None,
    rng: RandomSource | None = None,
) -> tuple[float, SolveReport | None]:
    """Bisect the smallest feasible trace budget inside [lo, hi].

    The caller promises lo is infeasible and hi feasible; that promise is
    trusted (mid evaluations can never contradict it).  At most
    ceil(log2((hi-lo)/tol)) feasibility calls are made, and when a total
    privacy budget is supplied it is split evenly across that worst-case
    call count, each call receiving its slice.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if lo > hi:
        raise BracketError(f"invalid bracket: lo={lo} > hi={hi}")
    if lo == hi:
        return lo, None
    if rng is None:
        rng = RandomSource(0)
    planned = max(1, math.ceil(math.log2((hi - lo) / tol)))
    slice_budget = None
    if budget is not None:
        slice_budget = PrivacyBudget(budget.epsilon / planned, budget.delta / planned)
    best_report: SolveReport | None = None
    call = 0
    while hi - lo > tol and call < planned:
        mid = 0.5 * (lo + hi)
        feasible, report = feasibility(instance, mid, slice_budget, rng.substream(call))
        call += 1
        if feasible:
            hi = mid
            best_report = report
        else:
            lo = mid
    return hi, best_report


# ---------------------------------------------------------------------------
# Objective-private solve
# ---------------------------------------------------------------------------


def objective_private_sigma(
    sensitivity: float, rank: int, budget: PrivacyBudget
) -> float:
    """Noise scale Delta_inf * sqrt(2 r log(1/delta)) / epsilon."""
    if budget.delta <= 0.0:
        raise ValueError("objective perturbation requires delta > 0")
    return sensitivity * math.sqrt(2.0 * rank * math.log(1.0 / budget.delta)) / budget.epsilon


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

    The released objective is c plus a Gaussian element at the
    inf-sensitivity scale; it is safe to optimize non-privately
    afterwards.  The downstream program carries a unit 2-norm constraint,
    which is outside the linear solvers here, so it is searched over a
    desk-scale candidate set (spectral candidates of the perturbed
    objective plus random unit directions, filtered by cone membership and
    the linear rows).  The quality transfer holds for the candidates
    examined.
    """
    delta_inf = config.sensitivity.value
    alg = instance.algebra
    sigma = objective_private_sigma(delta_inf, alg.rank, config.budget)
    perturbed = gaussian_mechanism(instance.objective, sigma, rng)
    noise_calls = 0 if sigma == 0.0 else 1
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
