"""Unit tests for the private and non-private solvers."""

import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
    from_coords,
    identity,
    inner,
    min_eigenvalue,
    norm,
    to_coords,
    trace,
    zero,
)
from conedp.harness.generators import generate_covering_sdp, generate_feasible_scp
from conedp.mechanisms import (
    PrivacyBudget,
    RandomSource,
    Sensitivity,
    _gaussian_noise,
    advanced_composition,
    gaussian_sigma,
)
from conedp.mwu import (
    bregman_project,
    cone_mwu_init,
    cone_mwu_step,
    dense_mwu_step,
    uniform_measure,
)
from conedp.oracles import (
    covering_oracle_private,
    dual_oracle_private,
    idempotent_ray_net,
    violation_scores,
)
from conedp.solvers import (
    SolverConfig,
    constraint_private_alpha_bound,
    constraint_private_step_epsilon,
    covering_density_lower_bound,
    objective_private_alpha_bound,
    scalar_private_alpha_bound,
    solve_constraint_private,
    solve_covering_high_sensitivity,
    solve_feasibility,
    solve_objective_private,
    solve_scalar_private,
    _MAX_ITERATIONS,
    _planned_iterations,
)

from conftest import instance_from_rows

R2 = AlgebraDescriptor.real(2)
S2 = AlgebraDescriptor.sym(2)
S3 = AlgebraDescriptor.sym(3)


def lp(rows, b, senses="LE"):
    elems = tuple(EjaElement(R2, [np.array(r, dtype=float)]) for r in rows)
    senses = (senses,) * len(rows) if isinstance(senses, str) else tuple(senses)
    return instance_from_rows(R2, elems, np.array(b, dtype=float), zero(R2), senses)


class TestViolationsAndScaling:
    def test_check_violations_examples(self):
        inst = lp([[1, 0], [0, 1]], [0.25, 1.0])
        feasible = EjaElement(R2, [np.array([0.2, 0.8])])
        assert not (violation_scores(inst, feasible) > 0.0).any()
        tight = EjaElement(R2, [np.array([0.5, 0.5])])
        margins = violation_scores(inst, tight)
        assert np.flatnonzero(margins > 0.0).tolist() == [0]
        assert margins[0] == pytest.approx(0.25)

    def test_margins_invariant_under_reordering(self):
        inst = lp([[1, 0], [0, 1]], [0.25, 1.0])
        swapped = lp([[0, 1], [1, 0]], [1.0, 0.25])
        x = EjaElement(R2, [np.array([0.5, 0.5])])
        a = violation_scores(inst, x)
        b = violation_scores(swapped, x)
        assert sorted(a) == sorted(b)

    def test_scale_roundtrip(self):
        # dividing the scalars by a trace budget scales the margins of
        # the scaled-back point by the same factor
        inst = lp([[1, 0], [0, 1]], [2.0, 4.0])
        scaled = replace(inst, scalars=inst.scalars / 2.0)
        assert np.allclose(scaled.scalars, [1.0, 2.0])
        x = EjaElement(R2, [np.array([0.5, 0.5])])
        margins_scaled = violation_scores(scaled, x)
        margins_back = violation_scores(inst, 2.0 * x)
        assert np.allclose(margins_back, 2.0 * margins_scaled)


class TestNonPrivate:
    def test_trivially_feasible_stays_uniform(self):
        # all b_i >= rho: nothing ever violated, iterates never move
        inst = lp([[1, 0], [0.5, 0.5]], [2.0, 3.0])
        report = solve_feasibility(inst, 0.1)
        assert report.violated == ()
        assert np.allclose(report.solution.blocks[0], [0.5, 0.5])

    def test_hand_lp(self):
        # feasible trace-one point (0.5, 0.5); both rows tight
        inst = lp([[1, -1], [-1, 1]], [0.0, 0.0])
        report = solve_feasibility(inst, 0.1)
        assert report.max_violation <= 0.1
        assert trace(report.solution) == pytest.approx(1.0, abs=1e-8)

    def test_planted_instances(self):
        for seed in range(3):
            inst, meta = generate_feasible_scp(S3, 16, 0.0, seed)
            report = solve_feasibility(inst, 0.1)
            assert report.max_violation <= 0.1
            assert min_eigenvalue(report.solution) >= -1e-8
            assert trace(report.solution) == pytest.approx(1.0, abs=1e-8)

    def test_trace_collection(self):
        inst = lp([[1, -1], [-1, 1]], [0.0, 0.0])
        report = solve_feasibility(inst, 0.5, collect_trace=True)
        assert len(report.trace) == report.iterations
        assert report.oracle_invocations == report.iterations


class TestScalarPrivate:
    def budget(self):
        return PrivacyBudget(2.0, 0.01)

    def test_zero_sensitivity_matches_exact_oracle_quality(self):
        inst, _ = generate_feasible_scp(S3, 8, 0.05, 11)
        cfg = SolverConfig(0.3, 0.05, self.budget(), sensitivity=Sensitivity(0.0, "linf"))
        report = solve_scalar_private(inst, cfg, RandomSource(1))
        assert report.max_violation <= 0.3

    def test_hand_instance_meets_theory_alpha(self):
        inst = lp([[1, -1], [-1, 1]], [0.0, 0.0])
        rho = inst.width
        dinf = 0.02
        alpha = scalar_private_alpha_bound(dinf, rho, 2, 2, 2.0, 0.01, 0.05)
        cfg = SolverConfig(alpha, 0.05, self.budget(), sensitivity=Sensitivity(dinf, "linf"))
        for seed in range(3):
            report = solve_scalar_private(inst, cfg, RandomSource(seed))
            assert report.max_violation <= alpha

    def test_zero_width_honours_collect_trace(self):
        blank = instance_from_rows(
            R2, (zero(R2), zero(R2)), np.array([0.5, 0.5]), zero(R2), ("LE",)
        )
        cfg = SolverConfig(
            0.3, 0.05, self.budget(), sensitivity=Sensitivity(0.1, "linf"), collect_trace=True
        )
        report = solve_scalar_private(blank, cfg, RandomSource(0))
        assert report.iterations == 0 and report.trace == ()
        exact = solve_feasibility(blank, 0.3, collect_trace=True)
        assert exact.trace == ()
        assert np.array_equal(to_coords(report.solution), to_coords(exact.solution))

    def test_epsilon_monotonicity(self):
        inst, _ = generate_feasible_scp(S2, 6, 0.0, 7)
        medians = []
        for eps in (0.5, 1.0, 2.0, 4.0):
            cfg = SolverConfig(
                0.5,
                0.05,
                PrivacyBudget(eps, 0.01),
                sensitivity=Sensitivity(0.5, "linf"),
            )
            vals = [
                solve_scalar_private(inst, cfg, RandomSource(900 + s)).max_violation
                for s in range(20)
            ]
            medians.append(float(np.median(vals)))
        assert all(b <= a + 1e-9 for a, b in zip(medians, medians[1:]))


class TestPerSolveLosses:
    # the exact and scalar-private solvers scale every row's loss once per
    # solve; a row whose scaled loss is not finite fails only when picked

    @staticmethod
    def subnormal_s2(b):
        row = EjaElement(S2, [np.array([[1e-310, 0.0], [0.0, 1e-310]])])
        return instance_from_rows(S2, (row,), np.array([b]), zero(S2), ("LE",))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_subnormal_width_raises_only_at_a_pick(self):
        # 1 / rho overflows to inf, so the scaled row holds inf and NaN
        violated = self.subnormal_s2(-1.0)
        with pytest.raises(ValueError, match="loss element contains non-finite values"):
            solve_feasibility(violated, 0.5)
        # every pick is satisfied, so no loss is needed and the solve ends
        satisfied = self.subnormal_s2(1.0)
        report = solve_feasibility(satisfied, 0.5)
        assert report.iterations == 1 and report.violated == ()

    def test_no_element_per_picked_row(self, monkeypatch):
        instance, _ = generate_feasible_scp(AlgebraDescriptor.from_spec("r2+s3+q4"), 400, 0.05, 3)
        derived = EjaElement._derived.__func__
        counts = []

        def counting(cls, algebra, blocks):
            counts[-1] += 1
            return derived(cls, algebra, blocks)

        monkeypatch.setattr(EjaElement, "_derived", classmethod(counting))
        iterations = []
        for alpha in (0.6, 0.3):
            counts.append(0)
            config = SolverConfig(
                alpha, 0.05, PrivacyBudget(1.0, 1e-5), sensitivity=Sensitivity(0.05, "linf")
            )
            iterations.append(solve_scalar_private(instance, config, RandomSource(3)).iterations)
        assert iterations[0] < iterations[1]
        assert counts[0] == counts[1]


class TestConstraintPrivate:
    def budget(self):
        return PrivacyBudget(2.0, 0.05)

    def test_zero_sensitivity_reproduces_scalar_path(self):
        inst, _ = generate_feasible_scp(S3, 8, 0.05, 3)
        cfg = SolverConfig(0.4, 0.05, self.budget(), sensitivity=Sensitivity(0.0, "linf"))
        a = solve_constraint_private(inst, cfg, RandomSource(5))
        b = solve_scalar_private(inst, cfg, RandomSource(5))
        assert np.array_equal(to_coords(a.solution), to_coords(b.solution))
        assert a.max_violation == b.max_violation
        assert a.violated == b.violated

    def test_spectrum_precondition(self):
        big = instance_from_rows(
            R2,
            (EjaElement(R2, [np.array([3.0, 0.0])]),),
            np.array([1.0]),
            zero(R2),
            ("LE",),
        )
        cfg = SolverConfig(0.4, 0.05, self.budget(), sensitivity=Sensitivity(0.1, "linf"))
        with pytest.raises(ValueError):
            solve_constraint_private(big, cfg, RandomSource(0))

    def test_noisy_run_meets_constant_twelve_bound(self):
        dinf = 0.01
        alpha = constraint_private_alpha_bound(dinf, 2, 3, 2.0, 0.05, 0.05)
        inst, _ = generate_feasible_scp(S2, 8, 0.05, 4)
        cfg = SolverConfig(alpha, 0.05, self.budget(), sensitivity=Sensitivity(dinf, "linf"))
        failures = 0
        for seed in range(10):
            report = solve_constraint_private(inst, cfg, RandomSource(seed))
            failures += int(report.max_violation > alpha)
            assert report.oracle_invocations == report.iterations
            assert report.noise_invocations == report.iterations
        assert failures == 0

    def test_composition_identity(self):
        budget = self.budget()
        for t in (3, 10, 144):
            closed = budget.epsilon / (4.0 * math.sqrt(t * math.log(1.0 / budget.delta)))
            assert constraint_private_step_epsilon(budget, t) == pytest.approx(
                closed, rel=1e-12
            )
            assert constraint_private_step_epsilon(budget, t) == pytest.approx(
                advanced_composition(budget, 2 * t), rel=1e-15
            )

    def test_same_seed_reports_identical(self):
        inst, _ = generate_feasible_scp(S2, 6, 0.05, 8)
        cfg = SolverConfig(
            1.0, 0.05, self.budget(), sensitivity=Sensitivity(0.05, "linf"),
            collect_trace=True,
        )
        a = solve_constraint_private(inst, cfg, RandomSource(21))
        b = solve_constraint_private(inst, cfg, RandomSource(21))
        assert np.array_equal(to_coords(a.solution), to_coords(b.solution))
        assert a.trace == b.trace
        assert a.violated == b.violated and a.max_violation == b.max_violation

    def test_huge_noise_raises_flag(self):
        inst, _ = generate_feasible_scp(S2, 4, 0.05, 5)
        cfg = SolverConfig(
            2.0, 0.05, PrivacyBudget(0.05, 0.05), sensitivity=Sensitivity(1.0, "linf")
        )
        report = solve_constraint_private(inst, cfg, RandomSource(1))
        assert "loss-bound-exceeded" in report.guarantee_flags


class TestCovering:
    def analytic_instance(self, r=3, m=16):
        return generate_covering_sdp(r, m, 0, analytic=True)

    def test_single_constraint_point_mass(self):
        inst, meta = self.analytic_instance(2, 1)
        cfg = SolverConfig(
            1.0, 0.1, PrivacyBudget(1.0, 0.01), density=1
        )
        report = solve_covering_high_sensitivity(inst, 2.0, cfg, RandomSource(0))
        assert report.num_violated < 1 or report.num_violated == 0

    def test_analytic_instance_runs_clean(self):
        inst, meta = self.analytic_instance()
        opt = meta["planted_opt"]
        cfg = SolverConfig(0.5 * opt, 0.1, PrivacyBudget(1.0, 0.01), density=4)
        report = solve_covering_high_sensitivity(inst, opt, cfg, RandomSource(2))
        assert report.num_violated < 4
        assert min_eigenvalue(report.solution) >= -1e-8
        assert "density-below-theory" in report.guarantee_flags  # s=4 is tiny

    def test_density_floor_value(self):
        val = covering_density_lower_bound(3, 1.0, 0.01, 0.1, 64)
        manual = 3.0 * math.sqrt(math.log(100.0)) * math.log(10.0) * math.log(64.0)
        assert val == pytest.approx(manual)

    def test_sense_and_norm_preconditions(self):
        inst, _ = generate_feasible_scp(S2, 4, 0.05, 1)  # LE instance
        cfg = SolverConfig(0.5, 0.1, PrivacyBudget(1.0, 0.01), density=2)
        with pytest.raises(ValueError):
            solve_covering_high_sensitivity(inst, 1.0, cfg, RandomSource(0))


def _reference_covering(instance, opt, config, rng):
    """The covering loop before per-pick rows were cached, kept verbatim: it
    calls the public projection, oracle and update on every step.  Returns
    the averaged point, the flags and the trace."""
    m = instance.num_constraints
    rho = 3.0 * opt - 1.0
    if rho <= 0.0:
        rho = 1.0
    iterations = _planned_iterations(36.0 * rho * rho * math.log(max(m, 2)), config.alpha)
    net = idempotent_ray_net(instance.algebra, opt, math.sqrt(opt / 2.0))
    eta = min(0.5, math.sqrt(math.log(max(m, 2)) / iterations))
    step_epsilon = advanced_composition(config.budget, iterations)
    flags = []
    measure = uniform_measure(m)
    avg_coords = np.zeros(instance.algebra.dim)
    trace_rows = []
    b = instance.scalars
    for t in range(1, iterations + 1):
        projected = bregman_project(measure, config.density)
        pick = covering_oracle_private(
            projected.probabilities, instance, net, step_epsilon, opt, config.density, rng
        )
        point_coords = net.coords[pick]
        avg_coords += point_coords
        values = instance.constraint_coords @ point_coords
        raw = b - values
        if np.max(np.abs(raw)) > rho + 1e-9 and "width-exceeded" not in flags:
            flags.append("width-exceeded")
        losses = np.clip(raw / (2.0 * rho) + 0.5, 0.0, 1.0)
        measure = dense_mwu_step(measure, losses, eta)
        worst = int(np.argmax(raw))
        trace_rows.append((t, worst, float(raw[worst])))
    return from_coords(instance.algebra, avg_coords / iterations), flags, trace_rows


def _unit_rows(alg, m, seed):
    # GE rows of unit inf-norm or less: entries in [0, 1] over a real factor
    gen = np.random.default_rng(seed)
    rows = [EjaElement(alg, [gen.uniform(0.0, 1.0, alg.dim)]) for _ in range(m)]
    return instance_from_rows(alg, rows, gen.uniform(0.2, 0.6, m), zero(alg), ("GE",))


class TestCoveringLoopReference:
    CASES = {
        # (instance, opt or None for the planted one, alpha / opt, density)
        "s2-analytic": (lambda: generate_covering_sdp(2, 8, 0, analytic=True), None, 1.0, 7),
        "s2-random": (lambda: generate_covering_sdp(2, 12, 5), None, 0.6, 9),
        "s3-random": (lambda: generate_covering_sdp(3, 24, 101), None, 0.8, 20),
        "s3-width-exceeded": (lambda: generate_covering_sdp(3, 16, 0, analytic=True), 0.5, 0.6, 12),
        "r3-random": (lambda: (_unit_rows(AlgebraDescriptor.real(3), 10, 3), {}), 1.5, 0.5, 6),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical_to_per_step_engine(self, name):
        make, opt, alpha, s = self.CASES[name]
        instance, meta = make()
        opt = meta["planted_opt"] if opt is None else opt
        config = SolverConfig(
            alpha * opt, 0.1, PrivacyBudget(2.0, 0.01), density=s, collect_trace=True
        )
        for seed in (0, 7):
            report = solve_covering_high_sensitivity(instance, opt, config, RandomSource(seed))
            x, flags, trace_rows = _reference_covering(instance, opt, config, RandomSource(seed))
            assert to_coords(report.solution).tobytes() == to_coords(x).tobytes()
            assert list(report.trace) == trace_rows
            assert [f for f in report.guarantee_flags if f != "density-below-theory"] == flags
        if name == "s3-width-exceeded":
            assert "width-exceeded" in report.guarantee_flags


def _reference_cone(instance, solver, config, rng):
    """The cone loop before picked rows' losses were cached and the
    iterate's coordinates were read from the recombination, kept verbatim:
    each step builds a loss element and goes through the public
    ``cone_mwu_step`` and ``to_coords``.  ``solver`` is "exact", "scalar" or
    "constraint" (the latter at nonzero sensitivity).  Returns the averaged
    point, the step count, the flags and the trace."""
    alg = instance.algebra
    r = alg.rank
    signs = instance.sense_signs
    flags = []
    if solver == "constraint":
        delta_inf = config.sensitivity.value
        iterations = _planned_iterations(144.0 * math.log(max(r, 2)), config.alpha)
        step_epsilon = constraint_private_step_epsilon(config.budget, iterations)
        sigma = delta_inf * math.sqrt(
            2.0 * r * math.log(iterations / config.budget.delta)
        ) / step_epsilon
        eta = config.alpha / 12.0
        oracle = (step_epsilon, delta_inf)

        def loss_of(idx):
            loss = 0.5 * _gaussian_noise(signs[idx] * instance.row(idx), sigma, rng)
            if not flags and norm(loss, math.inf) > 1.0 + 1e-9:
                flags.append("loss-bound-exceeded")
            return loss

    else:
        rho = instance.width
        eta = config.alpha / (4.0 * rho)
        iterations = _planned_iterations(16.0 * rho * rho * math.log(max(r, 2)), config.alpha)
        oracle = None
        if solver == "scalar":
            oracle = (advanced_composition(config.budget, iterations), config.sensitivity.value)

        def loss_of(idx):
            return (signs[idx] / rho) * instance.row(idx)

    epsilon, sensitivity = oracle or (0.0, 0.0)
    state = cone_mwu_init(alg, eta)
    avg_coords = np.zeros(alg.dim)
    trace_rows = []
    for t in range(1, iterations + 1):
        coords = to_coords(state.iterate)
        avg_coords += coords
        scores = instance.violations(coords)
        idx = dual_oracle_private(scores, epsilon, sensitivity, rng)
        trace_rows.append((t, idx, float(scores[idx])))
        if oracle is None and scores[idx] <= 0.0:
            continue
        state = cone_mwu_step(state, loss_of(idx))
    return from_coords(alg, avg_coords / iterations), iterations, flags, trace_rows


def _solve_cone(instance, solver, config, rng):
    if solver == "exact":
        return solve_feasibility(instance, config.alpha, collect_trace=True)
    if solver == "scalar":
        return solve_scalar_private(instance, config, rng)
    return solve_constraint_private(instance, config, rng)


class TestConeLoopReference:
    # (solver, sensitivity, alpha): scalar at zero sensitivity is the exact
    # oracle that still updates on every pick
    SOLVERS = {
        "exact": ("exact", 0.0, 0.4),
        "scalar-exact": ("scalar", 0.0, 0.4),
        "scalar": ("scalar", 0.05, 0.4),
        "constraint": ("constraint", 0.01, 1.5),
    }

    @staticmethod
    def assert_same(instance, solver, config, seed):
        report = _solve_cone(instance, solver, config, RandomSource(seed))
        x, iterations, flags, trace_rows = _reference_cone(
            instance, solver, config, RandomSource(seed)
        )
        assert to_coords(report.solution).tobytes() == to_coords(x).tobytes()
        assert report.iterations == iterations
        assert list(report.trace) == trace_rows
        assert list(report.guarantee_flags) == flags
        return report

    @pytest.mark.parametrize("spec", ["s3", "s8", "r2+s3+q4", "s2+s5"])
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_bit_identical_to_per_step_engine(self, name, spec):
        solver, sensitivity, alpha = self.SOLVERS[name]
        instance, _ = generate_feasible_scp(AlgebraDescriptor.from_spec(spec), 12, 0.05, 4)
        config = SolverConfig(
            alpha, 0.05, PrivacyBudget(1.0, 1e-5),
            sensitivity=Sensitivity(sensitivity, "linf"), collect_trace=True,
        )
        for seed in (0, 7):
            self.assert_same(instance, solver, config, seed)

    def test_overflowing_scaled_loss_rescales_identically(self):
        # Gaussian noise near 1e160 squares past DBL_MAX, so the Jacobi norm
        # of the scaled cumulative loss overflows and takes the rescale
        instance, _ = generate_feasible_scp(S3, 12, 0.05, 4)
        config = SolverConfig(
            2.0, 0.05, PrivacyBudget(1.0, 0.05), sensitivity=Sensitivity(1e160, "linf"),
            collect_trace=True,
        )
        report = self.assert_same(instance, "constraint", config, 3)
        assert report.guarantee_flags == ("loss-bound-exceeded",)

    def test_non_finite_scaled_loss_raises_identically(self):
        # noise near 1e307 overflows the cumulative loss to inf, which the
        # checked prelude of the Jacobi kernel rejects.  Overflow warnings
        # are silenced, as they are outside this suite, so the inf reaches it.
        instance, _ = generate_feasible_scp(S3, 12, 0.05, 4)
        config = SolverConfig(
            2.0, 0.05, PrivacyBudget(1.0, 0.05), sensitivity=Sensitivity(1e305, "linf"),
            collect_trace=True,
        )
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="matrix contains non-finite values") as new:
                _solve_cone(instance, "constraint", config, RandomSource(0))
            with pytest.raises(ValueError) as old:
                _reference_cone(instance, "constraint", config, RandomSource(0))
        assert str(new.value) == str(old.value)
        # raised by the step kernel's Jacobi prelude, not by the noisy loss
        names = [entry.name for entry in new.traceback]
        assert names[-1] == "_jacobi_lists" and "_exp_sums" in names


class TestScheduleCap:
    def test_runaway_covering_plan_fails_fast(self):
        # alpha = 0.1 is the CLI default; this instance's planted opt is 26.8
        inst, meta = generate_covering_sdp(3, 32, seed=8)
        cfg = SolverConfig(0.1, 0.05, PrivacyBudget(1.0, 1e-5))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"plans T = 7\.85e\+07 iterations") as err:
            solve_covering_high_sensitivity(inst, meta["planted_opt"], cfg, RandomSource(0))
        assert time.perf_counter() - start < 1.0
        suggested = float(re.search(r"alpha >= (\S+) fits", str(err.value)).group(1))
        rho = 3.0 * meta["planted_opt"] - 1.0
        numerator = 36.0 * rho * rho * math.log(32)
        assert _planned_iterations(numerator, suggested) <= _MAX_ITERATIONS
        with pytest.raises(ValueError, match="over the cap"):
            _planned_iterations(numerator, 0.985 * suggested)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda inst, cfg: solve_feasibility(inst, cfg.alpha),
            lambda inst, cfg: solve_scalar_private(inst, cfg, RandomSource(0)),
            lambda inst, cfg: solve_constraint_private(inst, cfg, RandomSource(0)),
        ],
        ids=["exact", "scalar", "constraint"],
    )
    def test_feasibility_schedules_share_the_cap(self, solve):
        inst, _ = generate_feasible_scp(S2, 4, 0.05, 1)
        cfg = SolverConfig(
            1e-4, 0.1, PrivacyBudget(1.0, 0.01), sensitivity=Sensitivity(0.01, "linf")
        )
        with pytest.raises(ValueError, match="over the cap of 1e\\+07"):
            solve(inst, cfg)


class TestObjectivePrivate:
    def analytic_instance(self):
        c = EjaElement(S2, [np.diag([1.0, 0.0])])
        return instance_from_rows(S2, (zero(S2),), np.array([1.0]), c, ("LE",))

    def test_zero_sensitivity_recovers_exact_optimum(self):
        inst = self.analytic_instance()
        cfg = SolverConfig(
            0.5, 0.05, PrivacyBudget(1.0, 0.05), sensitivity=Sensitivity(0.0, "linf")
        )
        perturbed, report = solve_objective_private(inst, cfg, RandomSource(0), 128)
        assert np.array_equal(to_coords(perturbed), to_coords(inst.objective))
        assert report.objective_value == pytest.approx(1.0, abs=1e-12)

    def test_release_is_the_linf_gaussian_mechanism(self):
        # the classical calibration, sqrt(r) * dinf * sqrt(2 log(1.25/delta)) / eps
        inst = self.analytic_instance()
        cfg = SolverConfig(
            0.5, 0.05, PrivacyBudget(1.0, 0.05), sensitivity=Sensitivity(0.2, "linf")
        )
        perturbed, report = solve_objective_private(inst, cfg, RandomSource(5), 16)
        sigma = gaussian_sigma(math.sqrt(S2.rank) * 0.2, cfg.budget)
        want = _gaussian_noise(inst.objective, sigma, RandomSource(5))
        assert [b.tobytes() for b in perturbed.blocks] == [b.tobytes() for b in want.blocks]
        assert report.noise_invocations == 1

    def test_infeasible_instance_reports_an_empty_candidate_set(self):
        # trace(x) <= -1 holds at no cone point, so every candidate fails a row
        inst = instance_from_rows(S2, (identity(S2),), np.array([-1.0]), zero(S2), ("LE",))
        cfg = SolverConfig(
            0.5, 0.05, PrivacyBudget(1.0, 0.05), sensitivity=Sensitivity(0.2, "linf")
        )
        _, report = solve_objective_private(inst, cfg, RandomSource(0), 64)
        assert report.solution is None
        assert report.iterations == 0
        assert math.isnan(report.max_violation)
        assert report.noise_invocations == 1
        assert report.guarantee_flags == ("empty-candidate-set",)

    def test_alpha_formula(self):
        val = objective_private_alpha_bound(0.1, 2, 3, 1.0, 0.05, 0.05)
        manual = 0.4 * math.sqrt(2 * math.log(20.0)) * (
            math.sqrt(3.0) + math.sqrt(math.log(20.0))
        )
        assert val == pytest.approx(manual)

    def test_noisy_runs_meet_alpha(self):
        inst = self.analytic_instance()
        dinf = 0.1
        alpha = objective_private_alpha_bound(dinf, 2, 3, 1.0, 0.05, 0.05)
        cfg = SolverConfig(
            alpha, 0.05, PrivacyBudget(1.0, 0.05), sensitivity=Sensitivity(dinf, "linf")
        )
        for seed in range(10):
            _, report = solve_objective_private(inst, cfg, RandomSource(seed), 128)
            assert report.objective_value >= 1.0 - alpha
            assert report.max_violation <= 1e-9

    def test_solution_is_unit_norm_cone_point(self):
        inst = self.analytic_instance()
        cfg = SolverConfig(
            0.5, 0.05, PrivacyBudget(1.0, 0.05), sensitivity=Sensitivity(0.2, "linf")
        )
        _, report = solve_objective_private(inst, cfg, RandomSource(3), 128)
        x = report.solution
        assert inner(x, x) == pytest.approx(1.0, abs=1e-9)
        assert min_eigenvalue(x) >= -1e-9


class TestConfigValidation:
    def test_bad_values(self):
        budget = PrivacyBudget(1.0, 0.01)
        with pytest.raises(ValueError):
            SolverConfig(0.0, 0.5, budget)
        with pytest.raises(ValueError):
            SolverConfig(0.1, 1.0, budget)
        with pytest.raises(ValueError):
            SolverConfig(0.1, 0.5, budget, density=0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                SolverConfig(bad, 0.5, budget)

    def test_huge_alpha_is_a_value_error(self):
        # alpha**2 overflows past about 1.3e154
        with pytest.raises(ValueError, match=r"alpha = 1e\+300 is too large"):
            _planned_iterations(16.0, 1e300)
        assert _planned_iterations(16.0, 1e150) == 1
