"""Unit tests for both multiplicative-weights engines."""

import itertools
import math
import re

import numpy as np
import pytest

from conedp import eja, mwu
from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
    expm,
    identity,
    min_eigenvalue,
    norm,
    spectral_decompose,
    to_coords,
    trace,
    zero,
)
from conedp.harness.generators import random_element
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
from conedp.mwu import _bisected_scale, _dense_mass, _first_fit, _projected

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

    def test_step_checks_no_symmetry(self, monkeypatch, rng):
        # a cumulative loss is a sum of exactly symmetric blocks; only raw
        # matrices through _jacobi_eigh take the check
        losses = [random_element_inf_bounded(S3, rng, 1.0) for _ in range(5)]
        state = cone_mwu_init(S3, 0.2)
        calls = []
        check = eja._is_symmetric
        monkeypatch.setattr(eja, "_is_symmetric", lambda b: calls.append(b) or check(b))
        for loss in losses:
            state = cone_mwu_step(state, loss)
        assert calls == []

    def test_non_finite_rejected(self):
        state = cone_mwu_init(R2, 1.0)
        with pytest.raises(ValueError):
            cone_mwu_step(state, rvec(R2, [math.inf, 0.0]))


def _frame_cone_step(state, loss):
    """The cone step rebuilt from constructed elements and a full Jordan
    frame: exp(-eta * cumulative) shifted by its top eigenvalue, normalized,
    and summed over every frame element's blocks."""
    alg = state.algebra
    cumulative = EjaElement(alg, [a + b for a, b in zip(state.cumulative_loss.blocks, loss.blocks)])
    d = spectral_decompose(EjaElement(alg, [-state.eta * b for b in cumulative.blocks]))
    weights = np.exp(d.eigenvalues - d.eigenvalues[0])
    weights /= weights.sum()
    blocks = [np.zeros_like(b) for b in zero(alg).blocks]
    for w, q in zip(weights, d.frame):
        for acc, qb in zip(blocks, q.blocks):
            acc += w * qb
    return cumulative, EjaElement(alg, blocks)


class TestConeStepReference:
    @pytest.mark.parametrize("spec", ["s3", "s8", "r2+s3+q4"])
    def test_iterates_match_frame_step_bit_for_bit(self, spec, rng):
        alg = AlgebraDescriptor.from_spec(spec)
        state = cone_mwu_init(alg, 0.05)
        for _ in range(200):
            loss = random_element_inf_bounded(alg, rng, 1.0)
            want_cumulative, want_iterate = _frame_cone_step(state, loss)
            state = cone_mwu_step(state, loss)
            for got, want in zip(state.cumulative_loss.blocks, want_cumulative.blocks):
                assert got.tobytes() == want.tobytes()
            for got, want in zip(state.iterate.blocks, want_iterate.blocks):
                assert not got.flags.writeable
                assert got.tobytes() == want.tobytes()


def _reference_jacobi_lists(mat, tol, max_sweeps):
    """``eja._jacobi_lists`` before its callers took over the overflow guard:
    it copied its input and ignored overflow on every call."""
    a = np.array(mat, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing norm takes the rescale below
        scale = eja._norm2(a)
    if not math.isfinite(scale) and not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite values (NaN or inf)")
    if not math.isfinite(scale):
        exponent = int(np.frexp(np.abs(a).max())[1])  # scaled entries below 1
        vals, vecs = _reference_jacobi_lists(np.ldexp(a, -exponent), tol, max_sweeps)
        return np.ldexp(vals, exponent).tolist(), vecs
    return eja._kernel(len(a))["diagonalize"](a.tolist(), tol * max(1.0, scale), max_sweeps)


def _reference_entries(factors, blocks):
    """``eja._spectral_entries`` as it was: (eigenvalue, factor index, frame
    data) over every factor, sorted descending by one stable sort."""
    entries = []
    for idx, (f, b) in enumerate(zip(factors, blocks)):
        if isinstance(f, eja.RealVector):
            for i, value in enumerate(b.tolist()):
                basis = [0.0] * f.k
                basis[i] = 1.0
                entries.append((value, idx, basis))
        elif isinstance(f, eja.SymMatrix):
            vals, vecs = _reference_jacobi_lists(b, eja._JACOBI_TOL, eja._JACOBI_MAX_SWEEPS)
            entries.extend(zip(vals, itertools.repeat(idx), vecs))
        else:
            radius = eja._norm2(b[1:])
            if radius > 0.0:
                direction = [x / radius for x in b[1:].tolist()]
            else:
                direction = [1.0] + [0.0] * (f.n - 2)
            for sgn in (1.0, -1.0):
                q = [0.5] + [0.5 * (sgn * x) for x in direction]
                entries.append((float(b[0] + sgn * radius), idx, q))
    entries.sort(key=lambda e: -e[0])
    return entries


def _reference_normalized_exp(vals):
    weights = np.exp(vals - vals[0])
    weights /= np.add.reduce(weights)
    return weights


def _reference_sums(factors, blocks, weights_of):
    """``eja._spectral_sums`` as it was: every factor's sums of w_i q_i over
    the terms of its own entries, picked from the global order."""
    entries = _reference_entries(factors, blocks)
    weights = weights_of(np.array([e[0] for e in entries])).tolist()
    sums = []
    for idx, f in enumerate(factors):
        terms = [(w, data) for w, (_, i, data) in zip(weights, entries) if i == idx]
        if isinstance(f, eja.SymMatrix):
            sums.append(eja._kernel(f.r)["recombine"](terms))
            continue
        acc = [0.0] * f.dim
        for w, data in terms:
            acc = [x + w * y for x, y in zip(acc, data)]
        sums.append(acc)
    return sums


def _reference_coords(factors, sums):
    """``eja._sums_coords``: the sums as coordinates, with its sqrt(2) products."""
    out = []
    for f, acc in zip(factors, sums):
        kept = f.k if isinstance(f, eja.RealVector) else f.r if isinstance(f, eja.SymMatrix) else 0
        out += acc[:kept]
        out += [math.sqrt(2.0) * v for v in acc[kept:]]
    return np.array(out)


def _reference_blocks(factors, sums):
    """``eja._sums_element``'s blocks, symmetric ones mirrored from the upper
    triangle."""
    blocks = []
    for f, acc in zip(factors, sums):
        if isinstance(f, eja.SymMatrix):
            rows = [[0.0] * f.r for _ in range(f.r)]
            for (p, q), value in zip(eja._coord_pairs(f.r), acc):
                rows[p][q] = rows[q][p] = value
            acc = rows
        blocks.append(np.array(acc))
    return blocks


REFERENCE_SPECS = ["r1", "r3"] + [f"s{r}" for r in range(1, 11)] + [
    "q2", "q5", "r2+s3+q4", "s3+s3+q3"
]


def _step_cases(alg, rng):
    """Named elements for the step reference: random ones at sub-unit, unit
    and larger scale, the identity (every eigenvalue tied), ties across and
    within factors, zero spin radii, and symmetric blocks whose Frobenius
    norm overflows (the Jacobi rescale)."""
    cases = {f"random-{scale:g}": random_element(alg, rng, scale) for scale in (1e-3, 1.0, 30.0)}
    cases["identity"] = identity(alg)
    tied = []
    for f in alg.factors:  # eigenvalues 1 and 0 in every factor
        if isinstance(f, eja.SymMatrix):
            tied.append(np.diag([1.0] + [0.0] * (f.r - 1)))
        elif isinstance(f, eja.SpinFactor):
            tied.append(np.array([0.5, 0.5] + [0.0] * (f.n - 2)))
        else:
            tied.append(np.array([1.0] + [0.0] * (f.k - 1)))
    cases["ties"] = EjaElement(alg, tied)
    x = random_element(alg, rng)
    flat = [np.concatenate(([b[0]], np.zeros(len(b) - 1))) if isinstance(f, eja.SpinFactor) else b
            for f, b in zip(alg.factors, x.blocks)]
    cases["zero-radius"] = EjaElement(alg, flat)
    if any(isinstance(f, eja.SymMatrix) for f in alg.factors):
        huge = [1e160 * b if isinstance(f, eja.SymMatrix) else b
                for f, b in zip(alg.factors, random_element(alg, rng).blocks)]
        with np.errstate(over="ignore"):
            assert all(math.isinf(eja._norm2(b)) for f, b in zip(alg.factors, huge)
                       if isinstance(f, eja.SymMatrix))
        cases["overflowing-norm"] = EjaElement(alg, huge)
    return cases


class TestSpectralExpReference:
    """``eja._spectral_exp`` against the pipeline it replaced, kept above."""

    @pytest.mark.parametrize("spec", REFERENCE_SPECS)
    def test_step_matches_reference_bit_for_bit(self, spec, rng):
        alg = AlgebraDescriptor.from_spec(spec)
        scales = eja._coord_scales(alg)
        eta = 0.05
        for name, x in _step_cases(alg, rng).items():
            scaled = [-eta * b for b in x.blocks]
            with np.errstate(over="ignore"):
                got = scales * eja._spectral_exp(alg.factors, scaled, True)
            want_sums = _reference_sums(alg.factors, scaled, _reference_normalized_exp)
            want = _reference_coords(alg.factors, want_sums)
            assert got.tobytes() == want.tobytes(), name
            state = cone_mwu_step(cone_mwu_init(alg, eta), x)
            cumulative = [-eta * b for b in state.cumulative_loss.blocks]
            want_sums = _reference_sums(alg.factors, cumulative, _reference_normalized_exp)
            for a, b in zip(state.iterate.blocks, _reference_blocks(alg.factors, want_sums)):
                assert a.tobytes() == b.tobytes(), name
            entries = _reference_entries(alg.factors, x.blocks)
            d = spectral_decompose(x)
            assert d.eigenvalues.tobytes() == np.array([e[0] for e in entries]).tobytes(), name
            for q, (_, idx, data) in zip(d.frame, entries):
                f = alg.factors[idx]
                want_block = np.outer(data, data) if isinstance(f, eja.SymMatrix) else data
                assert q.blocks[idx].tobytes() == np.array(want_block).tobytes(), name
            if name != "overflowing-norm":  # whose exp overflows
                want_sums = _reference_sums(alg.factors, x.blocks, np.exp)
                for a, b in zip(expm(x).blocks, _reference_blocks(alg.factors, want_sums)):
                    assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("spec", ["s3", "r2+s3+q4", "s3+s3+q3"])
    def test_non_finite_block_raises_as_before(self, spec):
        alg = AlgebraDescriptor.from_spec(spec)
        blocks = [np.array(b) for b in zero(alg).blocks]
        where = [isinstance(f, eja.SymMatrix) for f in alg.factors].index(True)
        blocks[where][0, 1] = blocks[where][1, 0] = math.inf
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as new:
                eja._spectral_exp(alg.factors, blocks, True)
        with pytest.raises(ValueError) as old:
            _reference_sums(alg.factors, blocks, _reference_normalized_exp)
        assert str(new.value) == str(old.value) == "matrix contains non-finite values (NaN or inf)"


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


def _positive_measures(gen, m):
    """Named weight vectors in (0, 1] with no zero entry."""
    w = 1.0 - gen.random(m)
    yield "random", w
    yield "ties", np.ceil(w * 10.0) / 10.0
    # within 1e-12 of 1: most entries saturate, and windows overlap by the slack
    yield "near-saturated", 1.0 - gen.uniform(0.0, 1e-12, m)
    yield "all-ones", np.ones(m)
    # down to e^-40, as after many dense updates
    yield "tiny", np.exp(-40.0 * gen.random(m))
    yield "half-tiny", np.where(gen.random(m) < 0.5, np.exp(-40.0 * gen.random(m)), w)


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

    @pytest.mark.parametrize("m", [2, 64, 4096])
    def test_all_positive_weights_take_the_sorted_checks(self, m, monkeypatch):
        # with every weight positive, the checks read the extremes off the
        # sort; they must equal the reductions over the result bit for bit
        gen = np.random.default_rng(700 + m)
        check_extremes = mwu._check_extremes
        seen = []

        def recording(low, total, high, density):
            seen.append((low, high))
            check_extremes(low, total, high, density)

        monkeypatch.setattr(mwu, "_check_extremes", recording)
        for name, w in _positive_measures(gen, m):
            assert (w > 0.0).all(), name
            if m <= 64:
                densities = range(1, m)
            else:
                densities = {1, 2, m // 2, m - 1} | set(gen.integers(1, m, 8).tolist())
            for s in sorted(densities):
                seen.clear()
                got = _projected(w, s)
                (low, high), = seen
                want = _loop_bregman_reference(w, s).probabilities
                assert got.tobytes() == want.tobytes(), (name, m, s)
                assert np.float64(low).tobytes() == got.min().tobytes(), (name, m, s)
                assert np.float64(high).tobytes() == got.max().tobytes(), (name, m, s)

    @pytest.mark.parametrize(
        "weights, s",
        [
            ([0.5, math.nan, 0.5, 0.5], 2),
            ([math.nan, 0.5, 0.5], 3),
            ([0.5, -0.1, 0.5, 0.5], 2),
            ([2.0, 2.0, 2.0], 3),
            ([2.0, 2.0], 3),
            ([0.5, 0.5, 0.5, 2.0], 3),
            ([0.5, 0.5, 0.5, math.inf], 3),
        ],
    )
    def test_projection_checks_its_weights(self, weights, s):
        with pytest.raises(ValueError, match=re.escape("weights must lie in [0, 1]")):
            _projected(np.array(weights), s)


class TestBregmanOverflow:
    # weights below about 5.6e-309 overflowed 1 / F_f and the candidates c_j
    CASES = {
        "all-subnormal": (np.full(10, 1e-310), np.full(10, 0.1)),
        "mixed-scale": (np.array([0.5] + [1e-310] * 9), np.array([1 / 3] + [2 / 27] * 9)),
        "ramp": (np.arange(5.0) * 1e-310, np.array([0.0, 1 / 9, 2 / 9, 1 / 3, 1 / 3])),
        "smallest-subnormal": (
            np.array([1.0, 1.0] + [5e-324] * 9), np.array([1 / 3] * 2 + [1 / 27] * 9)
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_projects_the_rescaled_measure(self, name):
        weights, expected = self.CASES[name]
        got = bregman_project(DenseMeasure(weights), 3).probabilities
        positive = weights[weights > 0.0]
        e_min = np.frexp(positive.min())[1]
        e_max = np.frexp(positive.max())[1]
        k = -((int(e_min) + int(e_max)) // 2)
        with np.errstate(over="ignore"):  # c * w may pass DBL_MAX; min(1, inf) is 1
            want = _first_fit(np.ldexp(weights, k), np.ldexp(positive, k), 3, 2.0**-k)
        assert got.tobytes() == want.tobytes()
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [11, 64, 4096])
    def test_rescaled_measures_take_the_sorted_checks(self, m, monkeypatch):
        # on the rescaled branch the extremes come from c* times the ldexp'd
        # sorted ends as Python floats, while the result saturates in numpy;
        # both must agree with the reductions over the result bit for bit
        gen = np.random.default_rng(800 + m)
        check_extremes, first_fit = mwu._check_extremes, mwu._first_fit
        seen, units = [], []

        def recording(low, total, high, density):
            seen.append((low, high))
            check_extremes(low, total, high, density)

        def rescaling(w, positive, s, unit=1.0):
            units.append(unit)
            return first_fit(w, positive, s, unit)

        monkeypatch.setattr(mwu, "_check_extremes", recording)
        monkeypatch.setattr(mwu, "_first_fit", rescaling)
        measures = [
            ("all-subnormal", np.full(m, 1e-310)),
            ("smallest-subnormal", np.where(np.arange(m) < 2, 1.0, 5e-324)),
        ]
        # 2**-1016 keeps e^-40 positive, so every copy is all-positive
        measures += [(name, np.ldexp(w, -1016)) for name, w in _positive_measures(gen, m)]
        rescaled = 0
        for name, w in measures:
            assert (w > 0.0).all(), name
            densities = range(1, m) if m <= 64 else {1, 2, 3, m // 2, m - 1}
            for s in sorted(densities):
                seen.clear()
                units.clear()
                got = _projected(w, s)
                (low, high), = seen
                rescaled += units[-1] != 1.0
                assert np.float64(low).tobytes() == got.min().tobytes(), (name, m, s)
                assert np.float64(high).tobytes() == got.max().tobytes(), (name, m, s)
                if name.endswith("subnormal"):
                    continue
                # the ldexp'd copy scaled back is exact; same problem at unit scale
                want = _loop_bregman_reference(np.ldexp(w, 1016), s).probabilities
                assert np.allclose(got, want, rtol=1e-9, atol=0.0), (name, m, s)
        assert rescaled > len(measures)

    def test_near_overflow_weights_keep_the_loop_bits(self):
        # the smallest weight is below 2**-970, so the overflow check runs,
        # but nothing overflows: the usual arithmetic
        for weights in ([0.5, 1e-308, 1.5e-308], [0.9, 0.2, 2e-308, 3e-308, 1e-300]):
            w = np.array(weights)
            for s in (1, 2):
                want = _loop_bregman_reference(w, s).probabilities
                got = bregman_project(DenseMeasure(w), s).probabilities
                assert got.tobytes() == want.tobytes()


class TestBisectionFallback:
    # no known measure makes every first-fit candidate miss its window, so
    # the expanding bisection is tested on its own against the first-fit
    # answer

    @pytest.mark.parametrize("m", [2, 9, 64, 4096])
    def test_matches_first_fit(self, m):
        gen = np.random.default_rng(500 + m)
        for w in _reference_measures(gen, m):
            positive = w[w > 0.0]
            count = positive.size
            densities = range(1, count) if m <= 64 else {1, 2, count // 2, count - 1}
            for s in densities:
                c = _bisected_scale(w, positive, s, 1.0)
                assert _dense_mass(c, w) >= s  # the bracket's upper end
                got = np.minimum(1.0, c * w) / s
                want = _first_fit(w, positive, s)
                assert np.allclose(got, want, rtol=1e-9, atol=0.0), (m, s)

    def test_rescaled_unit(self):
        # subnormal weights run on the 2**k-scaled measure with slack 2**-k
        weights = np.array([0.5] + [1e-310] * 9)
        k = -((np.frexp(1e-310)[1] + np.frexp(0.5)[1]) // 2)
        w, positive = np.ldexp(weights, k), np.ldexp(weights, k)
        with np.errstate(over="ignore"):
            c = _bisected_scale(w, positive, 3, 2.0**-k)
            got = np.minimum(1.0, c * w) / 3
            want = _first_fit(w, positive, 3, 2.0**-k)
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)


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

    @pytest.mark.parametrize("bad", [[[0.5, 0.5]], [[1.0]], 1.0, []])
    def test_shapes_other_than_a_nonempty_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be a nonempty 1-d array"):
            DenseMeasure(bad)
        with pytest.raises(ValueError, match="probabilities must be a nonempty 1-d array"):
            DenseDistribution(bad, 1)

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
