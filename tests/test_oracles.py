"""Unit tests for nets and minimization/violation oracles."""

import math

import numpy as np
import pytest

from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
    RealVector,
    SymMatrix,
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
from conedp.mechanisms import (
    RandomSource,
    exponential_mechanism,
    exponential_mechanism_error_bound,
)
from conedp.oracles import (
    CoveringNet,
    NetBudgetError,
    ScpInstance,
    ball_covering_net,
    covering_oracle_exact,
    covering_oracle_private,
    covering_oracle_sensitivity,
    dual_oracle_private,
    idempotent_ray_net,
    violation_scores,
)

from conftest import instance_from_rows, random_element

R2 = AlgebraDescriptor.real(2)
R3 = AlgebraDescriptor.real(3)
S2 = AlgebraDescriptor.sym(2)
Q2 = AlgebraDescriptor.spin(2)
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

    def test_covering_property(self):
        gamma = 0.4
        pts = ball_covering_net(3, 1.0, gamma)
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
        for radius in (math.inf, math.nan):  # inf used to overflow in the grid axis
            with pytest.raises(ValueError, match=f"positive and finite, got {radius}"):
                ball_covering_net(2, radius, 0.5)


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
        net = idempotent_ray_net(Q3, 1.0, 0.4)
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

    @pytest.mark.parametrize("alg", [R3, S2, Q2, Q3])
    @pytest.mark.parametrize(
        "opt, gamma, bad",
        [
            (math.nan, 0.5, "opt must be positive and finite, got nan"),
            (math.inf, 0.5, "opt must be positive and finite, got inf"),
            (0.0, 0.5, "opt must be positive and finite, got 0.0"),
            (-1.0, 0.5, "opt must be positive and finite, got -1.0"),
            (1.0, 0.0, "got 0.0"),
            (1.0, -0.5, "got -0.5"),
            (1.0, math.nan, "got nan"),
            (1.0, 5.0, "got 5.0"),
            (4.0, 2.5, "got 2.5"),
        ],
    )
    def test_out_of_range_inputs_name_the_value(self, alg, opt, gamma, bad):
        with pytest.raises(ValueError) as err:
            idempotent_ray_net(alg, opt, gamma)
        assert type(err.value) is ValueError
        assert str(err.value).endswith(bad)
        if bad.startswith("got"):
            assert str(err.value).startswith("gamma must lie in (0, sqrt(opt)]")

    def test_gamma_at_sqrt_opt_is_accepted(self):
        for alg in (R3, S2, Q2, Q3):
            assert len(idempotent_ray_net(alg, 4.0, 2.0)) > 0


def _per_point_net(alg, opt, gamma):
    """The net builder from before nets were one stack, kept as the
    reference: one element per point, with spin pairs deduplicated through
    a seen set.  Returns the points and the number of pairs skipped."""
    factor = alg.factors[0]
    points, skipped = [], 0
    if isinstance(factor, RealVector):
        for i in range(factor.k):
            b = np.zeros(factor.k)
            b[i] = opt
            points.append(EjaElement(alg, [b]))
    elif isinstance(factor, SymMatrix):
        us = ball_covering_net(factor.r, math.sqrt(opt), gamma)
        cutoff = 1e-9 * math.sqrt(opt)
        for u in us:
            if np.linalg.norm(u) <= cutoff:
                continue
            points.append(EjaElement(alg, [np.outer(u, u)]))
    else:
        d = factor.n - 1
        scale_pitch = gamma / math.sqrt(2.0)
        scales = np.arange(scale_pitch, math.sqrt(opt) + 1e-12, scale_pitch)
        scales = np.concatenate((scales, [math.sqrt(opt)]))
        theta = gamma / math.sqrt(opt)
        if d == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            raw = ball_covering_net(d, 1.0, min(theta, 1.0) / 2.0)
            raw = raw[np.linalg.norm(raw, axis=1) >= 0.5]
            dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        seen = set()
        for c in scales:
            for w in dirs:
                key = (round(float(c), 12),) + tuple(np.round(w, 12))
                if key in seen:
                    skipped += 1
                    continue
                seen.add(key)
                points.append(EjaElement(alg, [0.5 * c * np.concatenate(([1.0], w))]))
    return points, skipped


# (spec, opt, gamma, whether the reference skips repeated spin pairs)
NET_CASES = [
    ("r1", 1.0, 0.5, False),
    ("r3", 2.5, 0.3, False),
    ("r5", 26.8, 5.0, False),
    ("s1", 1.0, 0.25, False),
    ("s2", 1.0, math.sqrt(0.5), False),
    ("s2", 2.0, 0.3, False),
    ("s3", 26.8, math.sqrt(13.4), False),
    ("s3", 0.3, 0.2, False),
    ("s4", 2.5, 1.0, False),
    ("q2", 2.0, 1.0, True),  # the appended last scale repeats the grid's last
    ("q2", 1.0, 0.3, False),
    ("q3", 1.0, 0.4, True),  # same-ray lattice points give repeated directions
    ("q3", 2.0, 1.0, True),  # both kinds of repeat
    ("q3", 7.0, 1.0, True),
    ("q4", 8.0, 1.0, True),
    ("q4", 2.5, 0.5, True),
    ("q5", 1.0, 0.5, True),
]


@pytest.mark.parametrize(
    "spec, opt, gamma, repeats", NET_CASES, ids=[f"{c[0]}-{c[1]}-{c[2]:.3g}" for c in NET_CASES]
)
def test_net_stack_matches_per_point_reference(spec, opt, gamma, repeats):
    alg = AlgebraDescriptor.from_spec(spec)
    net = idempotent_ray_net(alg, opt, gamma)
    points, skipped = _per_point_net(alg, opt, gamma)
    assert (skipped > 0) == repeats
    want_coords = np.stack([to_coords(p) for p in points])
    assert net.coords.shape == want_coords.shape == (len(points), alg.dim)
    assert net.coords.tobytes() == want_coords.tobytes()
    got_blocks = np.stack([p.blocks[0] for p in net.points])
    want_blocks = np.stack([p.blocks[0] for p in points])
    assert got_blocks.shape == want_blocks.shape
    assert got_blocks.tobytes() == want_blocks.tobytes() == net.blocks.tobytes()


def test_net_build_constructs_no_element(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the net build constructed an element")

    monkeypatch.setattr(EjaElement, "__init__", refuse)
    monkeypatch.setattr(EjaElement, "_derived", classmethod(refuse))
    for spec in ("r3", "s3", "q2", "q5"):
        net = idempotent_ray_net(AlgebraDescriptor.from_spec(spec), 2.0, 0.5)
        assert len(net.coords) == len(net) > 0


def test_net_is_one_read_only_stack():
    stack = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.25, 0.25], [0.25, 0.25]]])
    net = CoveringNet(S2, stack)
    stack[0, 0, 0] = 5.0  # the net keeps its own copy
    assert net.blocks[0, 0, 0] == 1.0 and len(net) == 2
    assert not net.blocks.flags.writeable and not net.coords.flags.writeable
    assert net.blocks.flags.c_contiguous
    assert [p.blocks[0].base is net.blocks for p in net.points] == [True, True]
    with pytest.raises(ValueError, match=r"got shape \(2, 3, 3\) over s2"):
        CoveringNet(S2, np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="single simple factor"):
        CoveringNet(AlgebraDescriptor.from_spec("r2+s2"), np.zeros((1, 2)))


def covering_instance(constraints, alg):
    m = len(constraints)
    return instance_from_rows(alg, tuple(constraints), np.ones(m), identity(alg), ("GE",) * m)


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

    def test_private_oracle_is_the_mechanism_on_negated_scores(self):
        # the oracle runs the mechanism at the negated logit scale, which
        # must pick what the mechanism picks on the negated scores
        gen = np.random.default_rng(12)
        inst = covering_instance([sym2(gen.uniform(-1.0, 1.0, (2, 2))) for _ in range(5)], S2)
        net = idempotent_ray_net(S2, 2.0, 0.3)
        for eps, s in ((1.0, 3), (40.0, 1), (1e5, 2)):
            y = gen.dirichlet(np.ones(5))
            scores = net.coords @ (y @ inst.constraint_coords)
            sens = covering_oracle_sensitivity(2.0, s)
            for seed in range(30):
                got = covering_oracle_private(y, inst, net, eps, 2.0, s, RandomSource(seed))
                want = exponential_mechanism(-scores, sens, eps, RandomSource(seed))
                assert got == want

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
        return instance_from_rows(R2, (a1, a2), np.array([0.0, 1.0]), zero(R2), ("LE", "LE"))

    def test_single_constraint(self):
        inst = instance_from_rows(
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
        inst = instance_from_rows(R2, (a,), np.array([0.6]), zero(R2), ("GE",))
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
        inst = instance_from_rows(R2, (a, b), np.array([0.0, 0.0]), zero(R2), ("LE", "LE"))
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
        inst = instance_from_rows(R2, rows, np.zeros(m), zero(R2), ("LE",) * m)
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
    return instance_from_rows(alg, tuple(rows), np.zeros(len(rows)), zero(alg), ("LE",))


class TestWidth:
    def test_examples(self):
        inst = covering_instance([identity(S2), identity(S2)], S2)
        assert inst.width == pytest.approx(1.0)
        inst2 = instance_from_rows(
            S2, (sym2([[2, 0], [0, -3]]),), np.array([0.0]), zero(S2), ("LE",)
        )
        assert inst2.width == pytest.approx(3.0)

    def test_mixed_direct_sum(self):
        mixed = AlgebraDescriptor.from_spec("r2+q3")
        blocks = [np.array([0.5, -1.5]), np.array([0.25, 0.25, 0.0])]
        x = EjaElement(mixed, blocks)
        inst = instance_from_rows(mixed, (x,), np.array([0.0]), zero(mixed), ("LE",))
        # per-factor maxima: 1.5 on the vector part, 0.5 on the spin part
        assert inst.width == pytest.approx(1.5)

    @pytest.mark.parametrize("spec", ["r4", "s1", "s3", "s6", "q4", "r2+s3+q4", "s2+s5"])
    def test_matches_per_row_norms_bit_for_bit(self, spec, rng):
        inst = wide_instance(spec, rng)
        rows = [inst.row(i) for i in range(inst.num_constraints)]
        assert inst.width == max(norm(a, math.inf) for a in rows)

    def test_zero_radius_spin_rows(self):
        q4 = AlgebraDescriptor.spin(4)
        rows = tuple(c * identity(q4) for c in (0.5, -3.0, 2.0))
        inst = instance_from_rows(q4, rows, np.zeros(3), zero(q4), ("LE",))
        assert inst.width == 3.0 == max(norm(a, math.inf) for a in rows)

    @pytest.mark.parametrize("spec", ["r4", "s1", "s3", "q4", "r2+s3+q4", "s2+s5"])
    def test_constraint_coords_match_to_coords(self, spec, rng):
        inst = wide_instance(spec, rng)
        want = np.stack([to_coords(inst.row(i)) for i in range(inst.num_constraints)])
        assert inst.constraint_coords.tobytes() == want.tobytes()
        assert not inst.constraint_coords.flags.writeable


class TestInstanceValidation:
    def test_constraint_algebra_mismatch(self):
        with pytest.raises(ValueError, match="stack has shape"):
            ScpInstance(S2, (identity(R2).blocks[0][None],), np.array([1.0]), zero(S2), ("LE",))

    def test_sense_broadcast(self):
        inst = covering_instance([identity(S2), identity(S2)], S2)
        assert inst.senses == ("GE", "GE")
        single = instance_from_rows(
            S2, (identity(S2), identity(S2)), np.ones(2), zero(S2), ("LE",)
        )
        assert single.senses == ("LE", "LE")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            instance_from_rows(S2, (), np.array([]), zero(S2), ())

    def test_empty_stacks_rejected(self):
        with pytest.raises(ValueError, match="at least one constraint"):
            ScpInstance(S2, (np.zeros((0, 2, 2)),), np.array([]), zero(S2), ())

    def test_non_symmetric_stack_rejected(self):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = 0.5
        with pytest.raises(ValueError, match="s2 stack is not exactly symmetric$"):
            ScpInstance(S2, (stack,), np.zeros(3), zero(S2), ("LE",))
        stack[1, 1, 0] = 0.5
        ScpInstance(S2, (stack,), np.zeros(3), zero(S2), ("LE",))
        stack[2, 0, 1], stack[2, 1, 0] = 0.0, -0.0  # equal values, unequal bits
        with pytest.raises(ValueError, match="not exactly symmetric$"):
            ScpInstance(S2, (stack,), np.zeros(3), zero(S2), ("LE",))

    @pytest.mark.parametrize(
        "stacks, message",
        [
            ((np.zeros((2, 2)),), "expected 2 constraint stacks, got 1$"),
            ((np.zeros((2, 2)), np.zeros((2, 3, 2))), r"s3 stack has shape \(2, 3, 2\)"),
            ((np.zeros((2, 2)), np.zeros((2, 9))), r"s3 stack has shape \(2, 9\)"),
            ((np.zeros((2, 2)), np.zeros((3, 3, 3))), r"expected \(2, 3, 3\)$"),
            ((np.zeros(2), np.zeros((2, 3, 3))), r"r2 stack has shape \(2,\)"),
        ],
        ids=["stack-count", "block-shape", "flat-block", "row-count", "no-row-axis"],
    )
    def test_stack_shapes_checked(self, stacks, message):
        alg = AlgebraDescriptor.from_spec("r2+s3")
        with pytest.raises(ValueError, match=message):
            ScpInstance(alg, stacks, np.zeros(2), zero(alg), ("LE",))

    @pytest.mark.parametrize("spec", ["r3", "s1", "s4", "q4", "r2+s3+q4"])
    def test_row_is_a_read_only_view_of_the_given_rows(self, spec, rng):
        alg = AlgebraDescriptor.from_spec(spec)
        rows = [random_element(alg, rng) for _ in range(5)]
        inst = instance_from_rows(alg, rows, np.zeros(5), zero(alg), ("LE",))
        for i, want in enumerate(rows):
            got = inst.row(i)
            assert got.algebra == alg
            for block, want_block, stacked in zip(got.blocks, want.blocks, inst.blocks):
                assert block.shape == want_block.shape
                assert block.tobytes() == want_block.tobytes()
                assert not block.flags.writeable
                assert np.shares_memory(block, stacked)
                with pytest.raises(ValueError):
                    block[...] = 0.0

    def test_stacks_are_copied_and_read_only(self):
        stack = np.eye(2)[None].repeat(2, axis=0)
        inst = ScpInstance(S2, (stack,), np.ones(2), zero(S2), ("GE",))
        stack[0, 0, 0] = 5.0
        assert inst.row(0).blocks[0][0, 0] == 1.0
        assert not inst.blocks[0].flags.writeable
