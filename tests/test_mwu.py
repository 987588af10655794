"""Unit tests for both multiplicative-weights engines."""

import itertools
import math

import numpy as np
import pytest

from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
    identity,
    min_eigenvalue,
    norm,
    to_coords,
    trace,
)
from conedp.mechanisms import RandomSource
from conedp.mwu import (
    DenseDistribution,
    DenseMeasure,
    ProjectionInfeasibleError,
    bregman_project,
    cone_mwu_init,
    cone_mwu_regret_certificate,
    cone_mwu_step,
    dense_mwu_regret_certificate,
    dense_mwu_step,
    uniform_measure,
)
from conedp.mwu import _dense_mass

from conftest import random_element_inf_bounded

R2 = AlgebraDescriptor.real(2)
R4 = AlgebraDescriptor.real(4)
S2 = AlgebraDescriptor.sym(2)
S3 = AlgebraDescriptor.sym(3)
Q3 = AlgebraDescriptor.spin(3)


def rvec(alg, values):
    return EjaElement(alg, [np.array(values, dtype=float)])


class TestConeInit:
    def test_examples(self):
        assert np.allclose(cone_mwu_init(S3, 0.1).iterate.blocks[0], np.eye(3) / 3)
        assert np.allclose(cone_mwu_init(R4, 0.1).iterate.blocks[0], [0.25] * 4)
        assert np.allclose(cone_mwu_init(Q3, 0.1).iterate.blocks[0], [0.5, 0.0, 0.0])

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            cone_mwu_init(R2, 0.0)


class TestConeStep:
    def test_closed_form_two_point(self):
        state = cone_mwu_init(R2, 1.0)
        state = cone_mwu_step(state, rvec(R2, [0.0, math.log(4.0)]))
        assert np.allclose(state.iterate.blocks[0], [0.8, 0.2])

    def test_zero_loss_keeps_uniform(self):
        state = cone_mwu_init(S3, 0.5)
        state = cone_mwu_step(state, EjaElement(S3, [np.zeros((3, 3))]))
        assert np.allclose(state.iterate.blocks[0], np.eye(3) / 3)

    def test_diagonal_embedding_tracks_vector_case(self, rng):
        eta = 0.3
        vec_state = cone_mwu_init(R2, eta)
        mat_state = cone_mwu_init(S2, eta)
        for _ in range(25):
            loss = np.asarray(rng.uniform(2)) * 2.0 - 1.0
            vec_state = cone_mwu_step(vec_state, rvec(R2, loss))
            mat_state = cone_mwu_step(mat_state, EjaElement(S2, [np.diag(loss)]))
            diag = np.diag(mat_state.iterate.blocks[0])
            off = mat_state.iterate.blocks[0][0, 1]
            assert np.allclose(diag, vec_state.iterate.blocks[0], atol=1e-12)
            assert abs(off) <= 1e-12

    def test_iterate_invariants(self, rng):
        state = cone_mwu_init(S3, 0.2)
        for _ in range(50):
            loss = random_element_inf_bounded(S3, rng, 1.0)
            state = cone_mwu_step(state, loss)
            assert trace(state.iterate) == pytest.approx(1.0, abs=1e-8)
            assert min_eigenvalue(state.iterate) >= -1e-8

    def test_shift_invariance(self, rng):
        losses = [random_element_inf_bounded(S2, rng, 0.5) for _ in range(10)]
        shift = 0.7
        a = cone_mwu_init(S2, 0.4)
        b = cone_mwu_init(S2, 0.4)
        for loss in losses:
            a = cone_mwu_step(a, loss)
            b = cone_mwu_step(b, loss + shift * identity(S2))
            assert norm(a.iterate - b.iterate, 2) <= 1e-10

    def test_non_finite_rejected(self):
        state = cone_mwu_init(R2, 1.0)
        with pytest.raises(ValueError):
            cone_mwu_step(state, rvec(R2, [math.inf, 0.0]))


class TestConeRegret:
    def run_engine(self, alg, losses, eta):
        state = cone_mwu_init(alg, eta)
        iterates = []
        for loss in losses:
            iterates.append(state.iterate)
            state = cone_mwu_step(state, loss)
        return iterates

    def test_zero_losses(self):
        losses = [EjaElement(S2, [np.zeros((2, 2))]) for _ in range(5)]
        eta = 0.3
        iterates = self.run_engine(S2, losses, eta)
        lhs, rhs = cone_mwu_regret_certificate(losses, iterates, eta)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert lhs <= rhs

    def test_alternating_adversary(self, rng):
        t_total = 400
        eta = math.sqrt(math.log(2.0) / t_total)
        a = random_element_inf_bounded(S2, rng, 1.0)
        losses = [a if t % 2 == 0 else -1.0 * a for t in range(t_total)]
        iterates = self.run_engine(S2, losses, eta)
        lhs, rhs = cone_mwu_regret_certificate(losses, iterates, eta)
        assert lhs <= rhs + 1e-9

    def test_repeated_loss_comparator(self, rng):
        t_total = 200
        eta = math.sqrt(math.log(3.0) / t_total)
        loss = random_element_inf_bounded(S3, rng, 1.0)
        losses = [loss] * t_total
        iterates = self.run_engine(S3, losses, eta)
        lhs, rhs = cone_mwu_regret_certificate(losses, iterates, eta)
        lam_min = min_eigenvalue(loss)
        assert lhs - t_total * lam_min <= eta * t_total + math.log(3.0) / eta + 1e-9
        assert lhs <= rhs + 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cone_mwu_regret_certificate(
                [EjaElement(S2, [np.zeros((2, 2))])], [], 0.1
            )

    def test_eta_range_enforced(self):
        losses = [EjaElement(S2, [np.zeros((2, 2))])]
        iterates = [identity(S2) / 2.0]
        with pytest.raises(ValueError):
            cone_mwu_regret_certificate(losses, iterates, 1.5)
        with pytest.raises(ValueError):
            dense_mwu_regret_certificate(
                np.zeros((1, 4)), [bregman_project(uniform_measure(4), 2)], 2, 0.75
            )


def bisection_projection_oracle(weights, s, iters=200):
    """Independent solve of sum min(1, c*w) = s by plain bisection."""
    w = np.asarray(weights, dtype=float)
    lo, hi = 0.0, 1.0
    while np.minimum(1.0, hi * w).sum() < s:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.minimum(1.0, mid * w).sum() < s:
            lo = mid
        else:
            hi = mid
    return np.minimum(1.0, hi * w) / s


class TestBregman:
    def test_worked_example(self):
        dist = bregman_project(DenseMeasure(np.array([1.0, 0.5, 0.5])), 2)
        assert np.allclose(dist.probabilities, [0.5, 0.25, 0.25])

    def test_uniform_stays_uniform(self):
        for m, s in ((8, 3), (5, 5)):
            dist = bregman_project(DenseMeasure(np.full(m, 0.4)), s)
            assert np.allclose(dist.probabilities, 1.0 / m)

    def test_saturated_support(self):
        weights = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        dist = bregman_project(DenseMeasure(weights), 3)
        assert np.allclose(dist.probabilities, [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0])

    def test_infeasible(self):
        with pytest.raises(ProjectionInfeasibleError):
            bregman_project(DenseMeasure(np.array([1.0, 0.0, 0.0])), 2)

    def test_matches_bisection_oracle(self, rng):
        for s in (2, 4, 8):
            for _ in range(50):
                m = s + int(np.asarray(rng.uniform()) * 20) + 1
                w = np.asarray(rng.uniform(m)) * 0.9 + 0.05
                got = bregman_project(DenseMeasure(w), s).probabilities
                want = bisection_projection_oracle(w, s)
                assert np.allclose(got, want, atol=1e-9)
                assert got.sum() == pytest.approx(1.0, abs=1e-10)
                assert got.max() <= 1.0 / s + 1e-10

    def test_idempotent_on_dense_distribution(self, rng):
        s = 4
        w = np.asarray(rng.uniform(12)) * 0.9 + 0.05
        first = bregman_project(DenseMeasure(w), s)
        again = bregman_project(DenseMeasure(first.probabilities * s / 2.0), s)
        assert np.allclose(first.probabilities, again.probabilities, atol=1e-10)

    def test_neighbor_stability(self, rng):
        # one extra action, shared weights untouched: projections move by <= 2/s
        for s in (2, 4, 8):
            for _ in range(60):
                m = s + int(np.asarray(rng.uniform()) * 16)
                base = np.asarray(rng.uniform(m)) * 0.95 + 0.02
                base *= min(1.0, (s - 1.0) / base.sum())
                extra = float(np.asarray(rng.uniform()))
                small = bregman_project(DenseMeasure(base), s).probabilities
                big = bregman_project(
                    DenseMeasure(np.concatenate((base, [extra]))), s
                ).probabilities
                diff = float(np.abs(np.concatenate((small, [0.0])) - big).sum())
                assert diff <= 2.0 / s + 1e-9


def _loop_bregman_reference(weights, s):
    """The per-segment loop that ``bregman_project`` replaced, kept verbatim."""
    w = DenseMeasure(weights).weights
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
    c_star = None
    for j in range(desc.size):
        # top j entries saturated at 1, the rest still linear in c
        tail_mass = tail[j]
        if tail_mass <= 0.0:
            break
        c = (s - j) / tail_mass
        upper = 1.0 / desc[j]  # segment ends where entry j saturates
        lower = 1.0 / desc[j - 1] if j > 0 else 0.0
        if lower - 1e-12 <= c <= upper + 1e-12:
            c_star = max(c, 0.0)
            break
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


def _reference_measures(gen, m):
    """Random weights in [0, 1] with ties, exact zeros and tiny entries mixed in."""
    for ties, zeros, tiny in itertools.product((False, True), repeat=3):
        w = gen.uniform(0.0, 1.0, m)
        if ties:  # breakpoints shared by many entries; adjacent windows overlap
            w = np.ceil(w * 10.0) / 10.0
        if zeros:
            w[gen.random(m) < 0.3] = 0.0
        if tiny:  # weights down to e^-40, as after many dense updates
            pick = gen.random(m) < 0.5
            w[pick] = np.exp(-40.0 * gen.random(int(pick.sum())))
        yield w
    yield np.full(m, 1.0 / m)
    yield np.ones(m)


def _outcome(project, weights, s):
    try:
        return project(weights, s).probabilities
    except ValueError as exc:
        return type(exc), str(exc)


class TestBregmanLoopReference:
    @pytest.mark.parametrize("m", [2, 64, 4096])
    def test_bit_identical_to_loop(self, m):
        gen = np.random.default_rng(m)
        project = lambda w, s: bregman_project(DenseMeasure(w), s)  # noqa: E731
        infeasible = 0
        for w in _reference_measures(gen, m):
            count = int((w > 0.0).sum())
            if m <= 64:
                densities = range(1, count + 2)
            else:
                densities = {1, 2, count // 2, count - 1, count, count + 1}
                densities |= set(gen.integers(1, count + 1, 8).tolist())
            for s in sorted(d for d in densities if d >= 1):
                want = _outcome(_loop_bregman_reference, w, s)
                got = _outcome(project, w, s)
                if isinstance(want, tuple):
                    assert got == want
                    infeasible += want[0] is ProjectionInfeasibleError
                else:
                    assert got.tobytes() == want.tobytes(), (m, s)
        # s one past the positive count is infeasible for every measure
        assert infeasible == 10


class TestDenseStep:
    def test_zero_loss(self):
        f = DenseMeasure(np.array([0.3, 0.7]))
        out = dense_mwu_step(f, np.zeros(2), 0.5)
        assert np.array_equal(out.weights, f.weights)

    def test_worked_example(self):
        eta = 0.25
        out = dense_mwu_step(
            DenseMeasure(np.array([0.5, 0.5])), np.array([math.log(2.0) / eta, 0.0]), eta
        )
        assert np.allclose(out.weights, [0.25, 0.5])

    def test_negative_loss_clamps_at_one(self):
        out = dense_mwu_step(DenseMeasure(np.array([0.9])), np.array([-10.0]), 1.0)
        assert out.weights[0] == 1.0

    def test_nan_weights_rejected(self):
        # a NaN weight passes elementwise range tests; min/max checks reject it
        for bad in ([0.5, math.nan], [math.nan]):
            with pytest.raises(ValueError, match="weights must lie in"):
                DenseMeasure(np.array(bad))
        with pytest.raises(ValueError, match="nonnegative"):
            DenseDistribution(np.array([0.5, 0.5, math.nan]), 1)

    def test_point_mass_projection(self):
        dist = bregman_project(uniform_measure(1), 1)
        assert np.array_equal(dist.probabilities, [1.0])


class TestDenseRegret:
    def run_engine(self, losses, s, eta):
        measure = uniform_measure(losses.shape[1])
        dists = []
        for row in losses:
            dists.append(bregman_project(measure, s))
            measure = dense_mwu_step(measure, row, eta)
        return dists

    def test_zero_losses(self):
        losses = np.zeros((10, 6))
        dists = self.run_engine(losses, 2, 0.2)
        lhs, rhs = dense_mwu_regret_certificate(losses, dists, 2, 0.2)
        assert lhs == pytest.approx(0.0)
        assert rhs == pytest.approx(0.2 + math.log(6) / (0.2 * 10))

    def test_full_density_single_comparator(self, rng):
        m, t_total = 6, 50
        losses = np.asarray(rng.uniform(t_total * m)).reshape(t_total, m)
        dists = self.run_engine(losses, m, 0.1)
        lhs, rhs = dense_mwu_regret_certificate(losses, dists, m, 0.1)
        # with s == m the only comparator is the full uniform distribution
        assert rhs == pytest.approx(
            float(losses.mean()) + 0.1 + math.log(m) / (0.1 * t_total)
        )
        assert lhs <= rhs + 1e-9

    def test_random_sign_losses_with_exhaustive_comparator(self, rng):
        m, s, t_total = 16, 4, 500
        eta = min(0.5, math.sqrt(math.log(m) / t_total))
        for trial in range(10):
            signs = np.where(
                np.asarray(rng.uniform(t_total * m)).reshape(t_total, m) < 0.5, -1.0, 1.0
            )
            dists = self.run_engine(signs, s, eta)
            lhs, rhs = dense_mwu_regret_certificate(signs, dists, s, eta)
            assert lhs <= rhs + 1e-9
            # the sort-based comparator equals the exhaustive minimum
            cumulative = signs.sum(axis=0)
            best_sort = np.sort(np.argsort(cumulative, kind="stable")[:s])
            exhaustive = min(
                itertools.combinations(range(m), s),
                key=lambda subset: cumulative[list(subset)].sum(),
            )
            assert cumulative[list(best_sort)].sum() == pytest.approx(
                cumulative[list(exhaustive)].sum()
            )
