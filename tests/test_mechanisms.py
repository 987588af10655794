"""Unit tests for the privacy primitives."""

import math

import numpy as np
import pytest

from conedp.eja import AlgebraDescriptor, identity, norm, to_coords, zero
from conedp.mechanisms import (
    PrivacyBudget,
    RandomSource,
    Sensitivity,
    advanced_composition,
    chi_square_tail_thresholds,
    exponential_mechanism,
    exponential_mechanism_error_bound,
    exponential_mechanism_sample,
    gaussian_mechanism,
    gaussian_sigma,
    gibbs_probabilities,
    l1_gaussian_mechanism,
    linf_gaussian_mechanism,
)
from conedp.mechanisms import CompositionRangeError, _sample_index, _sample_indices

S2 = AlgebraDescriptor.sym(2)


class TestTypes:
    def test_budget_validation(self):
        PrivacyBudget(1.0, 0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(0.0, 0.1)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 1.25)  # the would-be sigma=0 edge is rejected here
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, -0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                PrivacyBudget(bad, 0.01)
            with pytest.raises(ValueError, match="delta must lie in"):
                PrivacyBudget(1.0, bad)

    def test_sensitivity_validation(self):
        Sensitivity(0.0, "linf")
        with pytest.raises(ValueError):
            Sensitivity(-1.0)
        with pytest.raises(ValueError):
            Sensitivity(1.0, "spectral")
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                Sensitivity(bad, "linf")


class TestRandomSource:
    def test_reproducible_streams(self):
        a = RandomSource(123)
        b = RandomSource(123)
        assert np.array_equal(a.uniform(64), b.uniform(64))
        assert np.array_equal(a.standard_normal(65), b.standard_normal(65))
        assert RandomSource(123).uniform() != RandomSource(124).uniform()

    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_scalar_draws_match_array_draws(self, seed):
        # one scalar draw is one raw word: the same value and stream position
        # as one element of uniform(n)
        n = 257
        want = RandomSource(seed).uniform(n)
        scalar = RandomSource(seed)
        got = [scalar.uniform() for _ in range(n)]
        assert all(type(u) is float for u in got)
        assert np.array(got).tobytes() == want.tobytes()
        mixed = RandomSource(seed)
        head = [mixed.uniform() for _ in range(3)]
        tail = mixed.uniform(n - 3)
        assert np.concatenate((head, tail)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, extra", [(1, 0), (2, 1), (9, 0), (12, 1), (25, 3)])
    def test_normal_rows_match_one_row_at_a_time(self, n, extra):
        # the reference is the per-call Box-Muller on 1-d arrays: one radius
        # draw, one angle draw, then the extra uniforms, row after row
        rows = 37
        ref = RandomSource(11)
        want_z, want_u = [], []
        for _ in range(rows):
            pairs = (n + 1) // 2
            radius = np.sqrt(-2.0 * np.log(1.0 - ref.uniform(pairs)))
            angle = 2.0 * math.pi * ref.uniform(pairs)
            want_z.append(np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))[:n])
            want_u.append(ref.uniform(extra))
        rng = RandomSource(11)
        z, u = rng.normal_rows(rows, n, extra)
        assert z.tobytes() == np.array(want_z).tobytes()
        assert u.tobytes() == np.array(want_u).tobytes()
        assert rng.uniform() == ref.uniform()  # the same stream position
        assert RandomSource(11).standard_normal(n).tobytes() == want_z[0].tobytes()
        if n == 1:
            assert RandomSource(11).standard_normal() == want_z[0][0]

    def test_rewind_draws_the_same_words_again(self):
        rng = RandomSource(3)
        head = rng.uniform(10)
        rng.rewind(4)
        assert rng.uniform(4).tobytes() == head[6:].tobytes()

    def test_substreams_are_independent(self):
        root = RandomSource(9)
        s0 = root.substream(0).uniform(8)
        s1 = root.substream(1).uniform(8)
        assert not np.array_equal(s0, s1)
        assert np.array_equal(s0, RandomSource(9).substream(0).uniform(8))

    def test_normal_moments(self):
        z = RandomSource(7).standard_normal(200_000)
        assert abs(float(np.mean(z))) < 0.01
        assert abs(float(np.var(z)) - 1.0) < 0.02


class TestGaussian:
    def test_sigma_formula(self):
        val = gaussian_sigma(Sensitivity(1.0, "l2"), PrivacyBudget(1.0, 0.05))
        assert val == pytest.approx(math.sqrt(2.0 * math.log(25.0)))
        assert val == pytest.approx(2.5373, abs=1e-4)
        quadrupled = gaussian_sigma(Sensitivity(2.0, "l2"), PrivacyBudget(0.5, 0.05))
        assert quadrupled == pytest.approx(4.0 * val)
        with pytest.raises(ValueError):
            gaussian_sigma(Sensitivity(1.0, "l2"), PrivacyBudget(1.0, 0.0))

    def test_sigma_zero_returns_input(self):
        x = identity(S2)
        out = gaussian_mechanism(x, 0.0, RandomSource(0))
        assert out is x

    def test_fixed_seed_is_deterministic(self):
        x = identity(S2)
        a = gaussian_mechanism(x, 1.0, RandomSource(5))
        b = gaussian_mechanism(x, 1.0, RandomSource(5))
        assert np.array_equal(to_coords(a), to_coords(b))

    def test_noise_second_moment(self):
        # E|z|_2^2 = k sigma^2; k=3 for S2
        sigma = 0.7
        rng = RandomSource(11)
        draws = 100_000
        noise = sigma * np.asarray(rng.standard_normal(3 * draws)).reshape(draws, 3)
        mean_sq = float(np.mean(np.sum(noise**2, axis=1)))
        assert mean_sq == pytest.approx(3 * sigma**2, rel=0.02)

    def test_l1_delegates_with_same_scale(self):
        x = zero(S2)
        budget = PrivacyBudget(1.0, 0.01)
        a = l1_gaussian_mechanism(x, Sensitivity(2.0, "l1"), budget, RandomSource(3))
        b = gaussian_mechanism(x, gaussian_sigma(2.0, budget), RandomSource(3))
        assert np.array_equal(to_coords(a), to_coords(b))

    def test_linf_rank_scaling(self):
        x = zero(S2)
        budget = PrivacyBudget(1.0, 0.01)
        one = linf_gaussian_mechanism(x, Sensitivity(1.0, "linf"), 1, budget, RandomSource(3))
        four = linf_gaussian_mechanism(x, Sensitivity(1.0, "linf"), 4, budget, RandomSource(3))
        assert np.allclose(2.0 * to_coords(one), to_coords(four))

    def test_linf_uses_rank_not_dim(self):
        mixed = AlgebraDescriptor.from_spec("r2+s3+q4")
        budget = PrivacyBudget(1.0, 0.01)
        out = linf_gaussian_mechanism(
            zero(mixed), Sensitivity(1.0, "linf"), mixed.rank, budget, RandomSource(3)
        )
        expected_sigma = gaussian_sigma(math.sqrt(mixed.rank), budget)
        direct = gaussian_mechanism(zero(mixed), expected_sigma, RandomSource(3))
        assert np.array_equal(to_coords(out), to_coords(direct))
        assert mixed.rank != mixed.dim


class TestExponential:
    def test_two_point_gibbs(self):
        p = gibbs_probabilities([1.0, 0.0], 1.0, 2.0)
        assert p[0] == pytest.approx(math.e / (math.e + 1.0))
        n = 100_000
        sample = exponential_mechanism_sample([1.0, 0.0], 1.0, 2.0, RandomSource(1), n)
        freq = float(np.mean(sample == 0))
        se = math.sqrt(p[0] * (1 - p[0]) / n)
        assert abs(freq - p[0]) <= 3 * se

    def test_equal_scores_uniform(self):
        n = 50_000
        sample = exponential_mechanism_sample([2.0] * 5, 1.0, 1.0, RandomSource(2), n)
        counts = np.bincount(sample, minlength=5) / n
        assert np.all(np.abs(counts - 0.2) <= 4.0 / math.sqrt(n))

    def test_large_epsilon_selects_argmax(self):
        n = 20_000
        scores = [0.3, 0.9, 0.1, 0.5]
        sample = exponential_mechanism_sample(scores, 1.0, 1e4, RandomSource(3), n)
        assert float(np.mean(sample == 1)) >= 0.999

    def test_batched_matches_single_draw_law(self):
        # same uniform stream position -> identical selections
        scores = [0.2, 0.8, 0.5]
        single = [exponential_mechanism(scores, 1.0, 2.0, RandomSource(s)) for s in range(20)]
        for s, expected in enumerate(single):
            got = exponential_mechanism_sample(scores, 1.0, 2.0, RandomSource(s), 1)[0]
            assert got == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_mechanism([], 1.0, 1.0, RandomSource(0))
        with pytest.raises(ValueError):
            exponential_mechanism([1.0], 0.0, 1.0, RandomSource(0))
        with pytest.raises(ValueError):
            exponential_mechanism([math.nan], 1.0, 1.0, RandomSource(0))

    @pytest.mark.parametrize(
        "case", ["tied", "grid-ties", "dominant", "one", "wide", "wide-dominant"]
    )
    def test_single_draw_matches_batched_kernel(self, case):
        # exponential_mechanism is one draw of _sample_indices over the Gibbs
        # probabilities, at the same uniform
        gen = np.random.default_rng(len(case))
        sensitivity, epsilon = 0.5, 1.5
        if case == "tied":
            scores = np.full(80, 0.25)
        elif case == "grid-ties":
            scores = np.round(gen.uniform(size=80), 1)
        elif case == "dominant":  # every logit but one underflows
            scores, epsilon = gen.uniform(size=80), 1e6
        elif case == "one":
            scores = np.array([0.7])
        elif case == "wide":
            scores = gen.standard_normal(4000)
        else:
            scores, epsilon = gen.standard_normal(4000), 1e4
        p = gibbs_probabilities(scores, sensitivity, epsilon)
        for seed in range(40):
            u = RandomSource(seed).uniform()
            want = int(_sample_indices(p, np.array([u]))[0])
            assert _sample_index(p, u) == want
            assert exponential_mechanism(scores, sensitivity, epsilon, RandomSource(seed)) == want

    def test_uniform_on_a_cdf_entry_takes_the_next_index(self):
        # index i holds [cdf[i-1], cdf[i]): a zero-probability index is never
        # drawn, not even by u = 0
        p = np.array([0.0, 0.25, 0.25, 0.5])
        for u, want in ((0.0, 1), (0.25, 2), (0.5, 3), (0.75, 3)):
            assert _sample_index(p, u) == want
            assert _sample_indices(p, np.array([u])).tolist() == [want]

    def test_uniform_past_the_cdf_takes_the_last_index(self):
        u = 1.0 - 2.0**-53  # the largest uniform a source returns
        gen = np.random.default_rng(3)
        wide = next(
            p for p in (gibbs_probabilities(gen.standard_normal(4000), 1.0, 1.0) for _ in range(50))
            if p.cumsum()[-1] < u
        )
        for p in (np.full(7, 1.0 / 7.0), wide):
            assert p.cumsum()[-1] < u  # rounding leaves the CDF below u
            assert p.cumsum().searchsorted(u, side="right") == p.size
            assert _sample_index(p, u) == p.size - 1
            assert _sample_indices(p, np.array([u, 0.0])).tolist() == [p.size - 1, 0]

    def test_frequencies_match_softmax(self):
        rng = RandomSource(17)
        scores = np.asarray(rng.uniform(10))
        p = gibbs_probabilities(scores, 0.5, 1.5)
        n = 100_000
        sample = exponential_mechanism_sample(scores, 0.5, 1.5, RandomSource(18), n)
        freq = np.bincount(sample, minlength=10) / n
        assert np.all(np.abs(freq - p) <= 4.0 / math.sqrt(n))


class TestErrorBound:
    def test_examples(self):
        # (2*1/2) * log(e / (1/e)) = log(e^2) = 2
        assert exponential_mechanism_error_bound(
            math.e, 1.0, 2.0, 1.0 / math.e
        ) == pytest.approx(2.0)
        # exact form: 2*sens/eps * log(range/beta)
        assert exponential_mechanism_error_bound(8, 1.0, 2.0, 0.5) == pytest.approx(
            math.log(16.0)
        )
        assert exponential_mechanism_error_bound(
            8, 2.0, 2.0, 0.5
        ) == pytest.approx(2 * math.log(16.0))
        assert exponential_mechanism_error_bound(1, 1.0, 1.0, 0.999999) == pytest.approx(
            0.0, abs=1e-5
        )


class TestComposition:
    def test_basic_value(self):
        budget = PrivacyBudget(1.0, 1.0 / math.e)
        assert advanced_composition(budget, 1) == pytest.approx(1.0 / math.sqrt(8.0))

    def test_sqrt_scaling(self):
        budget = PrivacyBudget(2.0, 0.01)
        assert advanced_composition(budget, 4) == pytest.approx(
            advanced_composition(budget, 1) / 2.0
        )

    def test_matches_double_count_form(self):
        # eps/(4 sqrt(T log(1/delta))) is advanced composition over 2T steps
        budget = PrivacyBudget(1.7, 0.03)
        for t in (1, 7, 144):
            closed = budget.epsilon / (4.0 * math.sqrt(t * math.log(1.0 / budget.delta)))
            assert advanced_composition(budget, 2 * t) == pytest.approx(closed, rel=1e-12)

    def test_delta_zero_rejected(self):
        with pytest.raises(ValueError):
            advanced_composition(PrivacyBudget(1.0, 0.0), 3)

    @staticmethod
    def composed(epsilon, delta, k):
        """The advanced composition theorem's total for k steps at the
        closed-form per-step epsilon."""
        step = epsilon / math.sqrt(8.0 * k * math.log(1.0 / delta))
        return math.sqrt(2.0 * k * math.log(1.0 / delta)) * step + k * step * (
            math.exp(step) - 1.0
        )

    def test_grid_never_overspends(self):
        outcomes = set()
        for epsilon in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0):
            for delta in (1e-9, 1e-5, 1e-3, 0.01, 0.05):
                for k in (1, 10, 346, 10_000):
                    budget = PrivacyBudget(epsilon, delta)
                    total = self.composed(epsilon, delta, k)
                    try:
                        step = advanced_composition(budget, k)
                    except CompositionRangeError:
                        outcomes.add("raised")
                        assert total > epsilon
                    else:
                        outcomes.add("returned")
                        assert total <= epsilon * (1.0 + 1e-12)
                        assert step == epsilon / math.sqrt(8.0 * k * math.log(1.0 / delta))
        assert outcomes == {"raised", "returned"}

    def test_overspend_names_the_total(self):
        # eps = 20 > 4 log(20): the closed form would compose to about 28.7
        with pytest.raises(CompositionRangeError, match=r"composes to 28\.7"):
            advanced_composition(PrivacyBudget(20.0, 0.05), 346)
        assert issubclass(CompositionRangeError, ValueError)

    @pytest.mark.parametrize("epsilon, total", [(1.0, 0.51), (4.0, 2.18)])
    def test_private_wide_settings_fit(self, epsilon, total):
        # the scalar-private benchmark sweep: delta 1e-5 over T = 346 picks
        advanced_composition(PrivacyBudget(epsilon, 1e-5), 346)
        assert self.composed(epsilon, 1e-5, 346) == pytest.approx(total, abs=0.005)


class TestChiSquare:
    def test_formula(self):
        t = math.log(100.0)
        upper, lower = chi_square_tail_thresholds(100, 1.0, t)
        assert upper == pytest.approx(100 + 2 * math.sqrt(100 * t) + 2 * t)
        assert upper == pytest.approx(152.12, abs=0.05)
        assert lower == pytest.approx(100 - 2 * math.sqrt(100 * t))

    def test_sigma_zero(self):
        assert chi_square_tail_thresholds(5, 0.0, 1.0) == (0.0, 0.0)

    def test_tail_exceedance(self):
        t = math.log(100.0)
        k, sigma, draws = 10, 1.3, 100_000
        upper, lower = chi_square_tail_thresholds(k, sigma, t)
        z = sigma * np.asarray(RandomSource(23).standard_normal(k * draws)).reshape(
            draws, k
        )
        sums = np.sum(z * z, axis=1)
        assert float(np.mean(sums >= upper)) <= 1.5 * math.exp(-t)
        assert float(np.mean(sums <= lower)) <= 1.5 * math.exp(-t)
