"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run pytest with -s to
see them live).  Tolerances and sample counts are pinned here, not
configurable.
"""

import itertools
import math
import time

import numpy as np
from click.testing import CliRunner

from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
    eigenvalues,
    expm,
    from_coords,
    identity,
    inner,
    jordan_product,
    min_eigenvalue,
    norm,
    spectral_decompose,
    to_coords,
    trace,
    zero,
)
from conedp.harness.audit import privacy_audit
from conedp.harness.cli import main as cli_main
from conedp.harness.generators import generate_covering_sdp, generate_feasible_scp
from conedp.harness.runner import run_experiment, write_records
from conedp.mechanisms import (
    PrivacyBudget,
    RandomSource,
    Sensitivity,
    advanced_composition,
    chi_square_tail_thresholds,
    exponential_mechanism_error_bound,
    exponential_mechanism_sample,
    gibbs_probabilities,
)
from conedp.mwu import (
    DenseMeasure,
    bregman_project,
    cone_mwu_init,
    cone_mwu_regret_certificate,
    cone_mwu_step,
    dense_mwu_regret_certificate,
    dense_mwu_step,
    uniform_measure,
)
from conedp.solvers import (
    SolverConfig,
    constraint_private_alpha_bound,
    constraint_private_step_epsilon,
    covering_density_lower_bound,
    objective_private_alpha_bound,
    solve_constraint_private,
    solve_covering_high_sensitivity,
    solve_feasibility,
    solve_objective_private,
    solve_scalar_private,
)

from conftest import instance_from_rows

R2 = AlgebraDescriptor.real(2)
R4 = AlgebraDescriptor.real(4)
R8 = AlgebraDescriptor.real(8)
S2 = AlgebraDescriptor.sym(2)
S3 = AlgebraDescriptor.sym(3)
Q4 = AlgebraDescriptor.spin(4)
MIXED = AlgebraDescriptor.from_spec("r2+s3+q4")

FACTOR_SUITES = (("real", R4), ("sym", S3), ("spin", Q4), ("mixed", MIXED))


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {name}")
    assert ok, f"criterion {num:02d} failed: {name}"


def _random_element(alg, rng, inf_bound=None):
    x = from_coords(alg, np.asarray(rng.standard_normal(alg.dim)))
    if inf_bound is not None:
        top = norm(x, math.inf)
        if top > inf_bound:
            x = x * (inf_bound / top)
    return x


def test_criterion_01_algebra_axioms():
    start = time.perf_counter()
    ok = True
    for tag, alg in FACTOR_SUITES:
        rng = RandomSource(1000 + alg.dim)
        for _ in range(1000):
            x = _random_element(alg, rng, inf_bound=2.0)
            y = _random_element(alg, rng, inf_bound=2.0)
            z = _random_element(alg, rng)
            xy = jordan_product(x, y)
            ok &= norm(xy - jordan_product(y, x), 2) <= 1e-10
            x2 = jordan_product(x, x)
            ok &= norm(
                jordan_product(x2, xy) - jordan_product(x, jordan_product(x2, y)), 2
            ) <= 1e-8
            ok &= abs(inner(xy, z) - inner(x, jordan_product(y, z))) <= 1e-8
            ip = trace(xy)
            ok &= abs(ip) <= norm(x, 2) * norm(y, 2) + 1e-10
            vx = eigenvalues(x)
            vy = eigenvalues(y)
            ok &= abs(ip) <= np.abs(vx).sum() * np.abs(vy).max() + 1e-8
            ok &= abs(ip) <= norm(x, 2) * norm(y, 2) + 1e-8
            ok &= abs(ip) <= np.abs(vx).max() * np.abs(vy).sum() + 1e-8
            ok &= trace(expm(x + y)) <= trace(
                jordan_product(expm(x), expm(y))
            ) + 1e-8
            ok &= inner(x2, jordan_product(y, y)) >= -1e-10
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _verdict(1, f"algebra axiom suite ({elapsed:.1f}s)", ok and elapsed < 10.0)


def test_criterion_02_spectral_fidelity():
    ok = True
    suites = [
        AlgebraDescriptor.sym(2),
        AlgebraDescriptor.sym(5),
        AlgebraDescriptor.sym(8),
        AlgebraDescriptor.spin(3),
        AlgebraDescriptor.spin(9),
        AlgebraDescriptor.spin(16),
        MIXED,
        AlgebraDescriptor.from_spec("r3+s4+q5"),
    ]
    for alg in suites:
        rng = RandomSource(2000 + alg.dim)
        e = identity(alg)
        for _ in range(40):
            x = _random_element(alg, rng)
            d = spectral_decompose(x)
            rebuilt = zero(alg)
            total = zero(alg)
            for lam, q in zip(d.eigenvalues, d.frame):
                rebuilt = rebuilt + float(lam) * q
                total = total + q
                ok &= norm(jordan_product(q, q) - q, 2) <= 1e-9
                ok &= abs(trace(q) - 1.0) <= 1e-9
            for i in range(len(d.frame)):
                for j in range(i + 1, len(d.frame)):
                    ok &= norm(jordan_product(d.frame[i], d.frame[j]), 2) <= 1e-9
            ok &= norm(total - e, 2) <= 1e-9
            ok &= norm(x - rebuilt, 2) <= 1e-10
        for _ in range(15):
            x = _random_element(alg, rng, inf_bound=1.0)
            series = identity(alg)
            term = identity(alg)
            for n in range(1, 21):
                term = jordan_product(term, x) * (1.0 / n)
                series = series + term
            ok &= norm(expm(x) - series, 2) <= 1e-8
        if not ok:
            break
    _verdict(2, "spectral decomposition and exponential fidelity", ok)


def test_criterion_03_isometry():
    ok = True
    for _, alg in FACTOR_SUITES:
        rng = RandomSource(3000 + alg.dim)
        for _ in range(1000):
            x = _random_element(alg, rng)
            y = _random_element(alg, rng)
            ok &= abs(inner(x, y) - to_coords(x) @ to_coords(y)) <= 1e-10
        if not ok:
            break
    _verdict(3, "coordinate map preserves the inner product", ok)


def _run_cone_mwu(alg, losses, eta):
    state = cone_mwu_init(alg, eta)
    iterates = []
    for loss in losses:
        iterates.append(state.iterate)
        state = cone_mwu_step(state, loss)
    return iterates


def test_criterion_04_regret_certificates():
    ok = True
    t_total = 500
    algebras = [S2, S3, R8]
    for seed in range(100):
        alg = algebras[seed % 3]
        rng = RandomSource(4000 + seed)
        eta = math.sqrt(math.log(alg.rank) / t_total)
        if seed % 2 == 0:
            a = _random_element(alg, rng, inf_bound=1.0)
            losses = [a if t % 2 == 0 else -1.0 * a for t in range(t_total)]
        else:
            losses = [
                _random_element(alg, rng, inf_bound=1.0) for _ in range(t_total)
            ]
        iterates = _run_cone_mwu(alg, losses, eta)
        lhs, rhs = cone_mwu_regret_certificate(losses, iterates, eta)
        ok &= lhs <= rhs + 1e-9
        if not ok:
            break

    m, s = 16, 4
    eta = min(0.5, math.sqrt(math.log(m) / t_total))
    subsets = np.array(list(itertools.combinations(range(m), s)))
    for seed in range(100):
        rng = RandomSource(4500 + seed)
        signs = np.where(
            np.asarray(rng.uniform(t_total * m)).reshape(t_total, m) < 0.5, -1.0, 1.0
        )
        measure = uniform_measure(m)
        dists = []
        for row in signs:
            dists.append(bregman_project(measure, s))
            measure = dense_mwu_step(measure, row, eta)
        lhs, rhs = dense_mwu_regret_certificate(signs, dists, s, eta)
        ok &= lhs <= rhs + 1e-9
        cumulative = signs.sum(axis=0)
        sort_value = float(np.sort(cumulative)[:s].sum())
        exhaustive = float(cumulative[subsets].sum(axis=1).min())
        ok &= abs(sort_value - exhaustive) <= 1e-9
        if not ok:
            break
    _verdict(4, "cone and dense regret certificates", ok)


def test_criterion_05_projection_neighbor_stability():
    ok = True
    for s in (2, 4, 8, 16):
        rng = RandomSource(5000 + s)
        sweep = [0.0, 0.25, 0.5, 0.75, 1.0]
        for trial in range(250):
            m = s + int(np.asarray(rng.uniform()) * 16)
            base = np.asarray(rng.uniform(m)) * 0.95 + 0.02
            base *= min(1.0, (s - 1.0) / base.sum())
            if trial % 2 == 0:
                extra = sweep[trial // 2 % len(sweep)]
            else:
                extra = float(np.asarray(rng.uniform()))
            small = bregman_project(DenseMeasure(base), s).probabilities
            big = bregman_project(
                DenseMeasure(np.concatenate((base, [extra]))), s
            ).probabilities
            diff = float(np.abs(np.concatenate((small, [0.0])) - big).sum())
            ok &= diff <= 2.0 / s + 1e-9
        if not ok:
            break
    _verdict(5, "projection moves by at most 2/s on one-action extension", ok)


def test_criterion_06_chi_square_utility():
    ok = True
    t = math.log(100.0)
    draws = 100_000
    for k in (10, 100):
        sigma = 1.0
        upper, lower = chi_square_tail_thresholds(k, sigma, t)
        z = sigma * np.asarray(
            RandomSource(6000 + k).standard_normal(k * draws)
        ).reshape(draws, k)
        sums = np.einsum("ij,ij->i", z, z)
        ok &= float(np.mean(sums >= upper)) <= 1.5 * math.exp(-t)
        ok &= float(np.mean(sums <= lower)) <= 1.5 * math.exp(-t)
    _verdict(6, "chi-square tail thresholds hold empirically", ok)


def test_criterion_07_exponential_mechanism_utility():
    # extremal range: 63 zero scores and one at exactly the error bound,
    # which puts the failure rate just below beta
    size, sensitivity, epsilon, beta = 64, 0.05, 2.0, 0.05
    trials = 10_000
    bound = exponential_mechanism_error_bound(size, sensitivity, epsilon, beta)
    scores = np.zeros(size)
    scores[-1] = bound
    sample = exponential_mechanism_sample(
        scores, sensitivity, epsilon, RandomSource(7000), trials
    )
    failures = float(np.mean(scores[sample] < scores.max() - bound + 1e-12))
    se = math.sqrt(beta * (1.0 - beta) / trials)
    ok = failures <= beta + 3.0 * se
    # and a generic random range
    rng = RandomSource(7001)
    scores2 = np.asarray(rng.uniform(size))
    bound2 = exponential_mechanism_error_bound(size, sensitivity, epsilon, beta)
    sample2 = exponential_mechanism_sample(
        scores2, sensitivity, epsilon, RandomSource(7002), trials
    )
    failures2 = float(np.mean(scores2[sample2] < scores2.max() - bound2))
    ok &= failures2 <= beta + 3.0 * se
    _verdict(7, "selection quality shortfall bound", ok)


def test_criterion_08_empirical_privacy_audit():
    trials = 1_000_000
    exp_report = privacy_audit("exponential", 1.0, trials, seed=80, sensitivity=0.2)
    dual_report = privacy_audit("dual-oracle", 1.0, trials, seed=81, sensitivity=0.2)
    control = privacy_audit(
        "exponential", 1.0, trials, seed=82, sensitivity=0.2, negative_control=True
    )
    gaussian_control = privacy_audit(
        "gaussian", 1.0, 0, seed=83, delta=1e-5, negative_control=True
    )
    ok = (
        exp_report.passed
        and dual_report.passed
        and exp_report.epsilon_measured <= 1.0 + exp_report.slack
        and dual_report.epsilon_measured <= 1.0 + dual_report.slack
        and not control.passed
        and not gaussian_control.passed
    )
    _verdict(8, "empirical privacy audit with working negative control", ok)


def test_criterion_09_nonprivate_solver():
    ok = True
    alpha = 0.1
    for seed in range(20):
        instance, _ = generate_feasible_scp(S3, 32, 0.0, seed=900 + seed)
        report = solve_feasibility(instance, alpha)
        ok &= report.max_violation <= alpha
        ok &= abs(trace(report.solution) - 1.0) <= 1e-8
        ok &= min_eigenvalue(report.solution) >= -1e-8
        if not ok:
            break
    _verdict(9, "exact-oracle feasibility meets alpha on 20 planted instances", ok)


def test_criterion_10_covering_solver():
    ok = True
    epsilon, delta, beta = 1.0, 0.01, 0.1
    instances = [generate_covering_sdp(3, 64, seed=0, analytic=True)]
    instances += [generate_covering_sdp(3, 64, seed=s) for s in (101, 202)]
    for instance, meta in instances:
        opt = meta["planted_opt"]
        s = math.ceil(
            covering_density_lower_bound(3, epsilon, delta, beta, 64)
        )
        s = min(s, 63)
        config = SolverConfig(
            alpha=0.5 * opt,
            beta=beta,
            budget=PrivacyBudget(epsilon, delta),
            density=s,
        )
        good = 0
        worst_wall = 0.0
        for seed in range(20):
            start = time.perf_counter()
            report = solve_covering_high_sensitivity(
                instance, opt, config, RandomSource(seed)
            )
            worst_wall = max(worst_wall, time.perf_counter() - start)
            good += int(report.num_violated < s)
        ok &= good >= 18
        ok &= worst_wall < 60.0
        if not ok:
            break
    _verdict(10, "covering solver violates fewer than s rows", ok)


def test_criterion_11_constraint_private_solver():
    budget = PrivacyBudget(2.0, 0.05)
    beta = 0.05
    instance, _ = generate_feasible_scp(S2, 8, 0.05, seed=1100)

    # noise-free degenerate path reproduces the scalar-private run bit for bit
    cfg0 = SolverConfig(0.4, beta, budget, sensitivity=Sensitivity(0.0, "linf"))
    ok = True
    for seed in (0, 1, 2):
        a = solve_constraint_private(instance, cfg0, RandomSource(seed))
        b = solve_scalar_private(instance, cfg0, RandomSource(seed))
        ok &= np.array_equal(to_coords(a.solution), to_coords(b.solution))
        ok &= a.max_violation == b.max_violation and a.violated == b.violated

    # noisy runs stay below the closed-form bound on >= 1-beta of 50 seeds
    dinf = 0.01
    alpha = constraint_private_alpha_bound(
        dinf, S2.rank, S2.dim, budget.epsilon, budget.delta, beta
    )
    cfg = SolverConfig(alpha, beta, budget, sensitivity=Sensitivity(dinf, "linf"))
    hits = 0
    iterations = None
    for seed in range(50):
        report = solve_constraint_private(instance, cfg, RandomSource(seed))
        hits += int(report.max_violation <= alpha)
        iterations = report.iterations
        ok &= report.oracle_invocations + report.noise_invocations == 2 * iterations
        # at the closed-form alpha the small-noise regime holds: no clamp flag
        ok &= "loss-bound-exceeded" not in report.guarantee_flags
    ok &= hits >= math.ceil((1.0 - beta) * 50)

    # per-step budget equals advanced composition over 2T operations
    closed = budget.epsilon / (
        4.0 * math.sqrt(iterations * math.log(1.0 / budget.delta))
    )
    step = constraint_private_step_epsilon(budget, iterations)
    ok &= math.isclose(step, closed, rel_tol=1e-12)
    ok &= math.isclose(
        step, advanced_composition(budget, 2 * iterations), rel_tol=1e-12
    )
    _verdict(11, "constraint-private solver (degenerate, bound, composition)", ok)


def test_criterion_12_objective_private_mechanism():
    c = EjaElement(S2, [np.diag([1.0, 0.0])])
    instance = instance_from_rows(S2, (zero(S2),), np.array([1.0]), c, ("LE",))
    opt_value = 1.0
    dinf, epsilon, delta, beta = 0.1, 1.0, 0.05, 0.05
    alpha = objective_private_alpha_bound(dinf, S2.rank, S2.dim, epsilon, delta, beta)
    ok = math.isclose(
        alpha,
        0.4 * math.sqrt(2 * math.log(20.0)) * (math.sqrt(3.0) + math.sqrt(math.log(20.0))),
        rel_tol=1e-12,
    )
    config = SolverConfig(
        alpha, beta, PrivacyBudget(epsilon, delta), sensitivity=Sensitivity(dinf, "linf")
    )
    hits = 0
    for seed in range(50):
        _, report = solve_objective_private(instance, config, RandomSource(seed), 256)
        hits += int(
            report.objective_value is not None
            and report.objective_value >= opt_value - alpha
        )
    ok &= hits >= math.ceil((1.0 - beta) * 50)
    _verdict(12, "objective perturbation keeps the optimum within alpha", ok)


def test_criterion_13_determinism(tmp_path):
    runner = CliRunner()
    inst_path = tmp_path / "inst.json"
    gen = runner.invoke(
        cli_main,
        ["gen", "--kind", "feasible-scp", "--alg", "s3", "--m", "12",
         "--seed", "7", "--out", str(inst_path)],
    )
    assert gen.exit_code == 0, gen.output
    ok = True
    for solver, dinf in (("nonprivate", 0.0), ("scalar", 0.05)):
        blobs = []
        for run in range(2):
            csv_path = tmp_path / f"{solver}-{run}.csv"
            result = runner.invoke(
                cli_main,
                ["solve", "--instance", str(inst_path), "--solver", solver,
                 "--eps", "2", "--alpha", "0.4", "--dinf", str(dinf),
                 "--seed", "5", "--csv", str(csv_path)],
            )
            ok &= result.exit_code == 0
            blobs.append(csv_path.read_bytes())
        ok &= blobs[0] == blobs[1]
    _verdict(13, "repeated solve invocations emit byte-identical rows", ok)
