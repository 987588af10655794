"""Unit tests for nets and minimization/violation oracles."""

import math

import numpy as np
import pytest

from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
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
from conedp.mechanisms import RandomSource, exponential_mechanism_error_bound
from conedp.oracles import (
    CoveringNet,
    NetBudgetError,
    ScpInstance,
    ball_covering_net,
    covering_oracle_exact,
    covering_oracle_private,
    covering_oracle_sensitivity,
    dual_oracle_private,
    idempotent_ray_dimension,
    idempotent_ray_net,
    violation_scores,
)

from conftest import random_element

R2 = AlgebraDescriptor.real(2)
R3 = AlgebraDescriptor.real(3)
S2 = AlgebraDescriptor.sym(2)
Q3 = AlgebraDescriptor.spin(3)


def sym2(entries):
    return EjaElement(S2, [np.array(entries, dtype=float)])


class TestBallNet:
    def test_one_dimensional_lattice(self):
        pts = ball_covering_net(1, 1.0, 0.5)
        assert sorted(pts.ravel().tolist()) == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_count_bound_at_gamma_equals_radius(self):
        for r in (1, 2, 3):
            pts = ball_covering_net(r, 1.0, 1.0)
            assert len(pts) <= 3**r

    @pytest.mark.parametrize("mode", ["grid", "random-sphere"])
    def test_covering_property(self, mode):
        rng = RandomSource(99)
        gamma = 0.4
        pts = ball_covering_net(3, 1.0, gamma, mode, rng)
        probe = RandomSource(100)
        dirs = np.asarray(probe.standard_normal(3 * 1000)).reshape(1000, 3)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.asarray(probe.uniform(1000)) ** (1.0 / 3.0)
        samples = dirs * radii[:, None]
        d2 = ((samples[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        assert math.sqrt(float(d2.min(axis=1).max())) <= gamma

    def test_budget_guard(self):
        with pytest.raises(NetBudgetError):
            ball_covering_net(11, 1.0, 0.5)
        with pytest.raises(NetBudgetError) as err:
            ball_covering_net(8, 1.0, 0.01)
        assert "points" in str(err.value)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ball_covering_net(2, 1.0, 2.0)
        with pytest.raises(ValueError):
            ball_covering_net(2, 0.0, 0.1)


class TestIdempotentNet:
    def test_real_factor_is_scaled_basis(self):
        net = idempotent_ray_net(R3, 1.0, 0.5)
        got = sorted(tuple(p.blocks[0]) for p in net.points)
        assert got == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_sym_points_are_rank_one(self):
        net = idempotent_ray_net(S2, 1.0, math.sqrt(0.5))
        for p in net.points:
            scale = trace(p)  # trace of u u^T is |u|^2
            assert norm(jordan_product(p, p) - scale * p, 2) <= 1e-9

    def test_spin_points_have_zero_second_eigenvalue(self):
        rng = RandomSource(1)
        net = idempotent_ray_net(Q3, 1.0, 0.4, rng=rng)
        for p in net.points:
            vals = spectral_decompose(p).eigenvalues
            assert vals[0] >= -1e-12
            assert abs(vals[1]) <= 1e-12

    def test_trace_budget_and_cone_membership(self):
        opt = 2.5
        for alg, gamma in ((S2, math.sqrt(opt / 2)), (Q3, 0.5), (R3, 0.3)):
            net = idempotent_ray_net(alg, opt, gamma)
            for p in net.points:
                assert min_eigenvalue(p) >= -1e-9
                assert -1e-9 <= trace(p) <= opt + 1e-9

    def test_mixed_algebra_rejected(self):
        with pytest.raises(ValueError):
            idempotent_ray_net(AlgebraDescriptor.from_spec("r2+s2"), 1.0, 0.5)

    def test_ray_dimensions(self):
        assert idempotent_ray_dimension(R3.factors[0]) == 1
        assert idempotent_ray_dimension(S2.factors[0]) == 2
        assert idempotent_ray_dimension(Q3.factors[0]) == 3


def covering_instance(constraints, alg):
    m = len(constraints)
    return ScpInstance(alg, tuple(constraints), np.ones(m), identity(alg), ("GE",) * m)


class TestCoveringOracle:
    def setup_method(self):
        self.net = idempotent_ray_net(S2, 1.0, math.sqrt(0.5))

    def test_minimizer_aligns_with_null_direction(self):
        inst = covering_instance([sym2([[1, 0], [0, 0]])], S2)
        point = covering_oracle_exact(np.array([1.0]), inst, self.net)
        assert inner(sym2([[1, 0], [0, 0]]), point) <= 1e-9

    def test_point_mass_reduces_to_single_constraint(self):
        a = sym2([[0.2, 0.1], [0.1, 0.9]])
        inst2 = covering_instance([a, sym2([[1, 0], [0, 1]])], S2)
        single = covering_instance([a], S2)
        got = covering_oracle_exact(np.array([1.0, 0.0]), inst2, self.net)
        want = covering_oracle_exact(np.array([1.0]), single, self.net)
        assert np.array_equal(to_coords(got), to_coords(want))

    def test_tie_break_lowest_index(self):
        inst = covering_instance([identity(S2) * 0.5], S2)
        scores = self.net.coords @ (0.5 * to_coords(identity(S2)))
        got = covering_oracle_exact(np.array([1.0]), inst, self.net)
        first = int(np.flatnonzero(scores <= scores.min() + 0.0)[0])
        assert np.array_equal(to_coords(got), to_coords(self.net.points[first]))

    def test_brute_force_is_definitional(self):
        rng = RandomSource(4)
        a = sym2(np.asarray(rng.standard_normal(4)).reshape(2, 2))
        inst = covering_instance([jordan_product(a, a)], S2)
        got = covering_oracle_exact(np.array([1.0]), inst, self.net)
        scores = [inner(jordan_product(a, a), p) for p in self.net.points]
        assert inner(jordan_product(a, a), got) == pytest.approx(min(scores))

    def test_private_limit_agrees_with_exact(self):
        rng = RandomSource(5)
        a = sym2([[0.7, 0.2], [0.2, 0.1]])
        inst = covering_instance([a], S2)
        exact = covering_oracle_exact(np.array([1.0]), inst, self.net)
        hits = 0
        trials = 2000
        for _ in range(trials):
            i = covering_oracle_private(
                np.array([1.0]), inst, self.net, 1e6, 1.0, 1, rng
            )
            hits += int(np.array_equal(to_coords(self.net.points[i]), to_coords(exact)))
        assert hits / trials >= 0.999

    def test_private_uniform_scores_uniform_sampling(self):
        rng = RandomSource(6)
        inst = covering_instance([zero(S2)], S2)
        n = len(self.net)
        counts = np.zeros(n)
        trials = 20_000
        for _ in range(trials):
            i = covering_oracle_private(np.array([1.0]), inst, self.net, 1.0, 1.0, 1, rng)
            counts[i] += 1
        assert np.all(np.abs(counts / trials - 1.0 / n) <= 5.0 / math.sqrt(trials))

    def test_neighbor_audit_on_oracle_scores(self):
        # weight vectors from an s-dense update differ by at most 2/s in
        # l1 norm; outputs of the private oracle must stay eps-close
        from conedp.harness.audit import audit_discrete_frequencies
        from conedp.mechanisms import exponential_mechanism_sample

        s, eps, opt = 4, 1.0, 1.0
        a1 = sym2([[0.9, 0.05], [0.05, 0.3]])
        a2 = sym2([[0.2, 0.0], [0.0, 0.8]])
        a3 = sym2([[0.5, 0.25], [0.25, 0.5]])
        inst = covering_instance([a1, a2, a3], S2)
        y = np.array([0.25, 0.25, 0.5])
        y_neighbor = y + np.array([1.0 / s, -1.0 / s, 0.0])
        assert float(np.abs(y - y_neighbor).sum()) <= 2.0 / s
        sens = covering_oracle_sensitivity(opt, s)
        trials = 200_000
        samples = []
        for stream, weights in ((0, y), (1, y_neighbor)):
            combined = weights @ np.stack([to_coords(a) for a in (a1, a2, a3)])
            scores = -(self.net.coords @ combined)
            samples.append(
                exponential_mechanism_sample(
                    scores, sens, eps, RandomSource(321).substream(stream), trials
                )
            )
        measured, slack, ok = audit_discrete_frequencies(
            samples[0], samples[1], len(self.net), eps, trials
        )
        assert ok
        assert measured <= eps + slack

    def test_identity_constraint_optimum_is_one(self):
        # <I, X> >= 1 over PSD X: the cheapest trace meeting it is 1
        inst = covering_instance([identity(S2)], S2)
        feasible_traces = [
            trace(p)
            for p in self.net.points
            if inner(identity(S2), p) >= 1.0 - 1e-9
        ]
        assert feasible_traces
        assert min(feasible_traces) == pytest.approx(1.0, abs=0.26)  # grid resolution
        exact = covering_oracle_exact(np.array([1.0]), inst, self.net)
        assert trace(exact) <= 1.0 + 1e-9

    def test_private_utility_bound(self):
        # score <= exact min + (6 opt / (s eps)) log(|N|/beta) except w.p. beta
        rng = RandomSource(7)
        opt, s, eps, beta = 1.0, 2, 4.0, 0.1
        a1 = sym2([[0.9, 0.05], [0.05, 0.3]])
        a2 = sym2([[0.2, 0.0], [0.0, 0.8]])
        inst = covering_instance([a1, a2], S2)
        y = np.array([0.5, 0.5])
        combined = 0.5 * (to_coords(a1) + to_coords(a2))
        scores = self.net.coords @ combined
        exact_min = float(scores.min())
        bound = exponential_mechanism_error_bound(
            len(self.net), covering_oracle_sensitivity(opt, s), eps, beta
        )
        assert bound == pytest.approx(
            (6.0 * opt / (s * eps)) * math.log(len(self.net) / beta)
        )
        trials = 4000
        failures = 0
        for _ in range(trials):
            p = self.net.points[covering_oracle_private(y, inst, self.net, eps, opt, s, rng)]
            failures += int(inner(a1, p) * 0.5 + inner(a2, p) * 0.5 > exact_min + bound)
        se = math.sqrt(beta * (1 - beta) / trials)
        assert failures / trials <= beta + 3 * se


def exact_pick(inst, x):
    """The dual oracle at zero sensitivity, which draws nothing."""
    return dual_oracle_private(violation_scores(inst, x), 1.0, 0.0, RandomSource(0))


class TestDualOracle:
    def lp_instance(self):
        a1 = EjaElement(R2, [np.array([1.0, 0.0])])
        a2 = EjaElement(R2, [np.array([0.0, 1.0])])
        return ScpInstance(R2, (a1, a2), np.array([0.0, 1.0]), zero(R2), ("LE", "LE"))

    def test_single_constraint(self):
        inst = ScpInstance(
            R2, (EjaElement(R2, [np.array([1.0, 1.0])]),), np.array([0.0]), zero(R2), ("LE",)
        )
        assert exact_pick(inst, identity(R2)) == 0

    def test_hand_example(self):
        inst = self.lp_instance()
        x = EjaElement(R2, [np.array([0.5, 0.5])])
        assert np.allclose(violation_scores(inst, x), [0.5, -0.5])
        assert exact_pick(inst, x) == 0

    def test_feasible_point_returns_least_violated(self):
        inst = self.lp_instance()
        x = EjaElement(R2, [np.array([-1.0, 0.5])])
        scores = violation_scores(inst, x)
        assert np.all(scores <= 0)
        assert exact_pick(inst, x) == int(np.argmax(scores))

    def test_zero_sensitivity_ties_take_lowest_index(self):
        scores = np.array([-1.0, 0.25, 0.25, 0.25])
        assert dual_oracle_private(scores, 1.0, 0.0, RandomSource(0)) == 1

    def test_ge_sense_mirrors(self):
        a = EjaElement(R2, [np.array([1.0, 0.0])])
        inst = ScpInstance(R2, (a,), np.array([0.6]), zero(R2), ("GE",))
        x = EjaElement(R2, [np.array([0.5, 0.5])])
        assert violation_scores(inst, x)[0] == pytest.approx(0.1)

    def test_private_limit(self):
        inst = self.lp_instance()
        x = EjaElement(R2, [np.array([0.9, 0.1])])
        rng = RandomSource(8)
        scores = violation_scores(inst, x)
        picks = [dual_oracle_private(scores, 1e6, 0.1, rng) for _ in range(500)]
        assert all(p == 0 for p in picks)

    def test_zero_sensitivity_is_exact_and_consumes_nothing(self):
        inst = self.lp_instance()
        x = EjaElement(R2, [np.array([0.9, 0.1])])
        rng = RandomSource(9)
        before = rng.uniform()
        rng2 = RandomSource(9)
        scores = violation_scores(inst, x)
        assert dual_oracle_private(scores, 1.0, 0.0, rng2) == int(np.argmax(scores))
        assert rng2.uniform() == before

    def test_tied_scores_split_evenly(self):
        a = EjaElement(R2, [np.array([1.0, 0.0])])
        b = EjaElement(R2, [np.array([0.0, 1.0])])
        inst = ScpInstance(R2, (a, b), np.array([0.0, 0.0]), zero(R2), ("LE", "LE"))
        x = EjaElement(R2, [np.array([0.5, 0.5])])
        rng = RandomSource(10)
        trials = 20_000
        scores = violation_scores(inst, x)
        picks = np.array([dual_oracle_private(scores, 0.7, 0.3, rng) for _ in range(trials)])
        freq = float(np.mean(picks == 0))
        assert abs(freq - 0.5) <= 4.0 / math.sqrt(trials)

    def test_accuracy_quantile(self):
        # failure rate of the (alpha, gamma) guarantee stays near gamma
        rng = RandomSource(11)
        m, eps, dinf, gamma = 8, 2.0, 0.5, 0.05
        coords = np.asarray(rng.standard_normal(m * 2)).reshape(m, 2)
        rows = tuple(EjaElement(R2, [c]) for c in coords)
        inst = ScpInstance(R2, rows, np.zeros(m), zero(R2), ("LE",) * m)
        x = EjaElement(R2, [np.array([0.4, 0.6])])
        scores = violation_scores(inst, x)
        alpha = (2.0 * dinf / eps) * math.log(m / gamma)
        trials = 10_000
        failures = 0
        for _ in range(trials):
            pick = dual_oracle_private(scores, eps, dinf, rng)
            failures += int(scores[pick] < scores.max() - alpha)
        se = math.sqrt(gamma * (1 - gamma) / trials)
        assert failures / trials <= gamma + 3 * se


def wide_instance(spec, rng, m=40):
    """Random rows over several scales, plus rows whose spin parts have zero
    radius (multiples of the identity and zero)."""
    alg = AlgebraDescriptor.from_spec(spec)
    rows = [random_element(alg, rng, 10.0 ** (k % 5 - 2)) for k in range(m)]
    rows += [identity(alg), zero(alg), -2.5 * identity(alg)]
    return ScpInstance(alg, tuple(rows), np.zeros(len(rows)), zero(alg), ("LE",))


class TestWidth:
    def test_examples(self):
        inst = covering_instance([identity(S2), identity(S2)], S2)
        assert inst.width == pytest.approx(1.0)
        inst2 = ScpInstance(
            S2, (sym2([[2, 0], [0, -3]]),), np.array([0.0]), zero(S2), ("LE",)
        )
        assert inst2.width == pytest.approx(3.0)

    def test_mixed_direct_sum(self):
        mixed = AlgebraDescriptor.from_spec("r2+q3")
        blocks = [np.array([0.5, -1.5]), np.array([0.25, 0.25, 0.0])]
        x = EjaElement(mixed, blocks)
        inst = ScpInstance(mixed, (x,), np.array([0.0]), zero(mixed), ("LE",))
        # per-factor maxima: 1.5 on the vector part, 0.5 on the spin part
        assert inst.width == pytest.approx(1.5)

    @pytest.mark.parametrize("spec", ["r4", "s1", "s3", "s6", "q4", "r2+s3+q4", "s2+s5"])
    def test_matches_per_row_norms_bit_for_bit(self, spec, rng):
        inst = wide_instance(spec, rng)
        assert inst.width == max(norm(a, math.inf) for a in inst.constraints)

    def test_zero_radius_spin_rows(self):
        q4 = AlgebraDescriptor.spin(4)
        rows = tuple(c * identity(q4) for c in (0.5, -3.0, 2.0))
        inst = ScpInstance(q4, rows, np.zeros(3), zero(q4), ("LE",))
        assert inst.width == 3.0 == max(norm(a, math.inf) for a in rows)

    @pytest.mark.parametrize("spec", ["r4", "s1", "s3", "q4", "r2+s3+q4", "s2+s5"])
    def test_constraint_coords_match_to_coords(self, spec, rng):
        inst = wide_instance(spec, rng)
        want = np.stack([to_coords(a) for a in inst.constraints])
        assert inst.constraint_coords.tobytes() == want.tobytes()
        assert not inst.constraint_coords.flags.writeable


class TestInstanceValidation:
    def test_constraint_algebra_mismatch(self):
        with pytest.raises(ValueError):
            ScpInstance(
                S2, (identity(R2),), np.array([1.0]), zero(S2), ("LE",)
            )

    def test_sense_broadcast(self):
        inst = covering_instance([identity(S2), identity(S2)], S2)
        assert inst.senses == ("GE", "GE")
        single = ScpInstance(
            S2, (identity(S2), identity(S2)), np.ones(2), zero(S2), ("LE",)
        )
        assert single.senses == ("LE", "LE")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScpInstance(S2, (), np.array([]), zero(S2), ())
