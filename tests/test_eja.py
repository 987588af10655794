"""Unit tests for the algebra layer: operations, examples, and axioms."""

import itertools
import math
import re

import numpy as np
import pytest

from conedp.eja import (
    AlgebraDescriptor,
    AlgebraMismatchError,
    EjaElement,
    JacobiConvergenceError,
    SpinFactor,
    SymMatrix,
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
    _factor_eigenvalues,
    _jacobi_eigh,
    _jacobi_eigvals_stacked,
    _stacked_eigenvalues,
)
from conedp.mechanisms import RandomSource

from conftest import FACTOR_ALGEBRAS, random_element, random_element_inf_bounded

R3 = AlgebraDescriptor.real(3)
S2 = AlgebraDescriptor.sym(2)
S3 = AlgebraDescriptor.sym(3)
Q3 = AlgebraDescriptor.spin(3)
MIXED = AlgebraDescriptor.from_spec("r2+s3+q4")


def sym(entries) -> EjaElement:
    return EjaElement(S2, [np.array(entries, dtype=float)])


class TestDescriptors:
    def test_rank_dim(self):
        assert R3.rank == 3 and R3.dim == 3
        assert S3.rank == 3 and S3.dim == 6
        assert Q3.rank == 2 and Q3.dim == 3
        assert MIXED.rank == 2 + 3 + 2 and MIXED.dim == 2 + 6 + 4

    def test_spec_roundtrip(self):
        assert AlgebraDescriptor.from_spec(MIXED.spec) == MIXED
        assert AlgebraDescriptor.from_spec("S3").spec == "s3"
        with pytest.raises(ValueError):
            AlgebraDescriptor.from_spec("z3")
        with pytest.raises(ValueError):
            AlgebraDescriptor(())

    def test_element_validation(self):
        with pytest.raises(ValueError):
            EjaElement(S2, [np.zeros(3)])
        with pytest.raises(ValueError):
            EjaElement(MIXED, [np.zeros(2)])
        # asymmetric input is symmetrized at construction
        x = EjaElement(S2, [np.array([[1.0, 2.0], [0.0, 1.0]])])
        assert np.array_equal(x.blocks[0], x.blocks[0].T)
        assert x.blocks[0][0, 1] == 1.0

    def test_huge_symmetric_entries_stay_finite(self):
        # 0.5 * (b + b.T) overflowed entries above DBL_MAX / 2 to inf
        for big in (1e308, -1.7e308, np.finfo(float).max):
            block = np.array([[big, 0.0], [0.0, 1.0]])
            x = EjaElement(S2, [block])
            assert x.blocks[0].tobytes() == block.tobytes()
        off = np.array([[1.0, 1.5e308], [1.5e308, 1.0]])
        assert EjaElement(S2, [off]).blocks[0].tobytes() == off.tobytes()

    def test_construction_keeps_the_averaged_bits(self):
        # every block whose averaged result is finite keeps those bits
        rng = np.random.default_rng(3)
        blocks = [rng.standard_normal((3, 3)) * scale for scale in (1e-300, 1.0, 1e300)]
        blocks += [g + g.T for g in blocks]
        blocks.append(np.array([[1.0, 0.0, -0.0], [-0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]))
        blocks.append(np.array([[1.0, -0.0, 0.0], [-0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]))
        for b in blocks:
            want = 0.5 * (b + b.T)
            got = EjaElement(S3, [b]).blocks[0]
            assert got.tobytes() == want.tobytes()


class TestIdentityAndProduct:
    def test_identity_blocks(self):
        assert np.array_equal(identity(R3).blocks[0], np.ones(3))
        assert np.array_equal(identity(S2).blocks[0], np.eye(2))
        assert np.array_equal(identity(Q3).blocks[0], np.array([1.0, 0.0, 0.0]))

    def test_identity_is_neutral(self, rng):
        for alg in FACTOR_ALGEBRAS.values():
            y = random_element(alg, rng)
            assert norm(jordan_product(identity(alg), y) - y, 2) < 1e-12

    def test_sym_anticommuting_pair(self):
        x = sym([[0, 1], [1, 0]])
        y = sym([[1, 0], [0, -1]])
        assert np.allclose(jordan_product(x, y).blocks[0], 0.0)

    def test_spin_identity_case(self):
        x = EjaElement(Q3, [np.array([3.0, 4.0, 0.0])])
        assert np.allclose(jordan_product(x, identity(Q3)).blocks[0], [3, 4, 0])

    def test_spin_square(self):
        x = EjaElement(Q3, [np.array([3.0, 4.0, 0.0])])
        assert np.allclose(jordan_product(x, x).blocks[0], [25.0, 24.0, 0.0])

    def test_spin_square_matches_spectral_reconstruction(self, rng):
        x = random_element(Q3, rng)
        d = spectral_decompose(x)
        rebuilt = zero(Q3)
        for lam, q in zip(d.eigenvalues, d.frame):
            rebuilt = rebuilt + float(lam) ** 2 * q
        assert norm(jordan_product(x, x) - rebuilt, 2) < 1e-10

    def test_algebra_mismatch(self):
        with pytest.raises(AlgebraMismatchError):
            jordan_product(identity(R3), identity(S2))
        with pytest.raises(AlgebraMismatchError):
            inner(identity(R3), identity(Q3))


class TestTraceInner:
    def test_trace_examples(self):
        assert trace(sym([[2, 0], [0, -1]])) == 1.0
        assert trace(EjaElement(Q3, [np.array([3.0, 4.0, 0.0])])) == 6.0
        for alg in FACTOR_ALGEBRAS.values():
            assert trace(identity(alg)) == alg.rank

    def test_spin_trace_matches_eigenvalue_sum(self):
        x = EjaElement(Q3, [np.array([3.0, 4.0, 0.0])])
        d = spectral_decompose(x)
        assert np.allclose(d.eigenvalues, [7.0, -1.0])
        assert trace(x) == pytest.approx(d.eigenvalues.sum())

    def test_inner_examples(self):
        assert inner(identity(S3), identity(S3)) == 3.0
        assert inner(sym([[2, 0], [0, -1]]), sym([[1, 0], [0, 1]])) == 1.0

    def test_inner_equals_trace_of_product(self, rng):
        for alg in FACTOR_ALGEBRAS.values():
            x = random_element(alg, rng)
            y = random_element(alg, rng)
            assert inner(x, y) == pytest.approx(trace(jordan_product(x, y)), abs=1e-10)


class TestSpectral:
    def test_diagonal_matrix(self):
        d = spectral_decompose(sym([[2, 0], [0, -1]]))
        assert np.array_equal(d.eigenvalues, [2.0, -1.0])
        assert np.allclose(d.frame[0].blocks[0], [[1, 0], [0, 0]])
        assert np.allclose(d.frame[1].blocks[0], [[0, 0], [0, 1]])

    def test_spin_example_frame(self):
        x = EjaElement(Q3, [np.array([3.0, 4.0, 0.0])])
        d = spectral_decompose(x)
        assert np.allclose(d.frame[0].blocks[0], [0.5, 0.5, 0.0])
        assert np.allclose(d.frame[1].blocks[0], [0.5, -0.5, 0.0])

    def test_degenerate_spin_uses_first_axis(self):
        x = EjaElement(Q3, [np.array([2.0, 0.0, 0.0])])
        d = spectral_decompose(x)
        assert np.allclose(d.eigenvalues, [2.0, 2.0])
        assert np.allclose(d.frame[0].blocks[0], [0.5, 0.5, 0.0])

    def _check_frame(self, alg, x, tol_resid=1e-10, tol_frame=1e-9):
        d = spectral_decompose(x)
        assert np.all(np.diff(d.eigenvalues) <= 1e-12)
        rebuilt = zero(alg)
        total = zero(alg)
        for lam, q in zip(d.eigenvalues, d.frame):
            rebuilt = rebuilt + float(lam) * q
            total = total + q
            assert norm(jordan_product(q, q) - q, 2) <= tol_frame
            assert abs(trace(q) - 1.0) <= tol_frame
        for i in range(len(d.frame)):
            for j in range(i + 1, len(d.frame)):
                assert norm(jordan_product(d.frame[i], d.frame[j]), 2) <= tol_frame
        assert norm(total - identity(alg), 2) <= tol_frame
        assert norm(x - rebuilt, 2) <= tol_resid

    def test_random_reconstruction(self, rng):
        for alg in (AlgebraDescriptor.sym(5), Q3, MIXED):
            for _ in range(10):
                self._check_frame(alg, random_element(alg, rng))

    def test_jacobi_against_lapack(self, rng):
        for r in (2, 4, 8):
            mat = np.asarray(rng.standard_normal(r * r)).reshape(r, r)
            mat = mat + mat.T
            vals, vecs = _jacobi_eigh(mat)
            assert np.allclose(np.sort(vals), np.linalg.eigvalsh(mat), atol=1e-10)
            assert np.allclose(vecs @ np.diag(vals) @ vecs.T, mat, atol=1e-10)

    def test_jacobi_nonconvergence_error(self):
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(JacobiConvergenceError) as err:
            _jacobi_eigh(mat, max_sweeps=0)
        assert err.value.residual > 0.0

    def test_tie_break_is_factor_order(self):
        d = spectral_decompose(identity(MIXED))
        # all eigenvalues equal one; frame enumerates factors in order
        assert np.array_equal(d.eigenvalues, np.ones(MIXED.rank))
        first = d.frame[0]
        assert first.blocks[0][0] == 1.0  # first real coordinate


def _jacobi_edge_matrices():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4))
    generic = g + g.T
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return {
        "n1": np.array([[3.5]]),
        "diagonal": np.diag([3.0, -1.0, 2.0]),
        # block diagonal: the zero entries stay exactly zero, so every sweep
        # takes the apq == 0 skip on them
        "exact-zero-offdiag": np.array(
            [[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
             [0.0, 0.0, 5.0, 1.0], [0.0, 0.0, 1.0, 5.0]]
        ),
        # pair (0, 1) has theta = 1 / 2e-200, past the 1e150 overflow guard,
        # while the (1, 2) entry keeps the sweep loop running
        "huge-theta": np.array([[0.0, 1e-200, 0.0], [1e-200, 1.0, 1.0], [0.0, 1.0, 2.0]]),
        "repeated": q @ np.diag([2.0, 2.0, -1.0, -1.0]) @ q.T,
        "all-ones": np.ones((4, 4)),
        "zero": np.zeros((3, 3)),
        "scaled-up": 1e150 * generic,
        "scaled-down": 1e-150 * generic,
    }


def _overflowing_norm_matrix():
    g = np.random.default_rng(7).standard_normal((3, 3))
    return 1e160 * (g + g.T)


class TestSpinRadiusOverflow:
    """A spin radius whose sum of squares overflows on finite entries."""

    def test_spectrum_and_frame_are_finite(self):
        x = EjaElement(Q3, [np.array([0.0, 1e200, 1e200])])
        want = [math.sqrt(2.0) * 1e200, -math.sqrt(2.0) * 1e200]
        assert eigenvalues(x).tolist() == pytest.approx(want, rel=1e-15)
        d = spectral_decompose(x)
        assert d.eigenvalues.tolist() == eigenvalues(x).tolist()
        half = 0.5 / math.sqrt(2.0)
        assert d.frame[0].blocks[0].tolist() == pytest.approx([0.5, half, half], rel=1e-15)
        assert d.frame[1].blocks[0].tolist() == pytest.approx([0.5, -half, -half], rel=1e-15)

    @pytest.mark.parametrize(
        "xbar, want",
        [
            ([1.5e308, 1.5e308], [math.inf, -math.inf]),  # the radius is beyond DBL_MAX
            ([math.inf, 1.0], [math.inf, -math.inf]),
            ([math.nan, 1.0], [math.nan, math.nan]),
        ],
    )
    def test_unrepresentable_radius_keeps_its_result(self, xbar, want):
        block = np.array([0.0, *xbar])
        assert _factor_eigenvalues(Q3.factors[0], block).tolist() == pytest.approx(
            want, nan_ok=True
        )
        stacked = _stacked_eigenvalues(Q3.factors[0], block[None])
        assert stacked.tobytes() == _factor_eigenvalues(Q3.factors[0], block).tobytes()


class TestJacobiEdgeCases:
    @pytest.mark.parametrize("name", sorted(_jacobi_edge_matrices()))
    def test_matches_lapack_and_reconstructs(self, name):
        mat = _jacobi_edge_matrices()[name]
        vals, vecs = _jacobi_eigh(mat)
        assert np.all(np.diff(vals) <= 0.0)
        # the convergence threshold is absolute below unit scale
        tol = 1e-10 * max(1.0, float(np.linalg.norm(mat)))
        assert np.allclose(vals, np.linalg.eigvalsh(mat)[::-1], rtol=0.0, atol=tol)
        assert np.allclose(vecs.T @ vecs, np.eye(len(mat)), rtol=0.0, atol=1e-12)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, mat, rtol=0.0, atol=tol)

    def test_no_rotation_cases_are_exact(self):
        mats = _jacobi_edge_matrices()
        vals, vecs = _jacobi_eigh(mats["n1"])
        assert vals.tolist() == [3.5] and vecs.tolist() == [[1.0]]
        vals, vecs = _jacobi_eigh(mats["diagonal"])
        assert vals.tolist() == [3.0, 2.0, -1.0]
        assert vecs.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        vals, vecs = _jacobi_eigh(mats["zero"])
        assert vals.tolist() == [0.0, 0.0, 0.0]
        assert np.array_equal(vecs, np.eye(3))

    def test_exact_zero_blocks_stay_separate(self):
        vals, vecs = _jacobi_eigh(_jacobi_edge_matrices()["exact-zero-offdiag"])
        assert np.allclose(vals, [6.0, 4.0, 3.0, -1.0], rtol=0.0, atol=1e-14)
        # eigenvectors of one 2x2 block have exact zeros in the other block
        assert np.all(vecs[:2, :2] == 0.0) and np.all(vecs[2:, 2:] == 0.0)

    def test_overflowing_norm_still_rotates(self):
        # the Frobenius norm of this matrix overflows to inf, which used to
        # leave the threshold infinite and the diagonal unrotated; the
        # overflow itself emits no RuntimeWarning
        mat = _overflowing_norm_matrix()
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.norm(mat))
        want = np.linalg.eigvalsh(mat)[::-1]
        vals, vecs = _jacobi_eigh(mat)
        assert np.allclose(vals, want, rtol=0.0, atol=1e-10 * np.abs(want).max())
        assert np.allclose(vecs.T @ vecs, np.eye(3), rtol=0.0, atol=1e-12)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.allclose(recon, mat, rtol=0.0, atol=1e-10 * np.abs(mat).max())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_raise(self, bad):
        # a non-finite norm used to leave the threshold non-finite, so no
        # sweep ran and the diagonal came back as the eigenvalues
        mat = np.array([[1.0, bad], [bad, 2.0]])
        with pytest.raises(ValueError, match="non-finite"):
            _jacobi_eigh(mat)
        with pytest.raises(ValueError, match="non-finite"):
            _jacobi_eigh(np.array([[bad, 0.0], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="non-finite"):  # a 1 x 1 matrix too
            _jacobi_eigh(np.array([[bad]]))

    def test_not_exactly_symmetric_raises(self):
        near = np.array([[1.0, 2.0], [np.nextafter(2.0, 3.0), 1.0]])
        signed_zero = np.array([[1.0, 0.0, 0.5], [-0.0, 2.0, 0.0], [0.5, 0.0, 3.0]])
        for mat in (near, signed_zero):
            with pytest.raises(ValueError, match="not exactly symmetric"):
                _jacobi_eigh(mat)
        with pytest.raises(ValueError, match="not exactly symmetric"):
            _jacobi_eigh(1e160 * near)  # the overflowing-norm path checks too

    def test_sweep_limit_still_raises(self):
        mat = _jacobi_edge_matrices()["scaled-up"]
        with pytest.raises(JacobiConvergenceError) as err:
            _jacobi_eigh(mat, max_sweeps=1)
        assert err.value.sweeps == 1 and err.value.residual > 0.0


def _padded_edge_stack(n=4):
    """The edge-case matrices and an overflowing-norm one, each zero-padded
    to n x n, stacked between random matrices that need different sweeps."""
    rng = np.random.default_rng(13)
    # theta = 5e159 on pair (0, 1): theta**2 overflows, and the limit t = 0.5 /
    # theta leaves a[0][0] at -1.05e-310 where t = 0 would leave 0.0
    visible_limit = np.array([[0.0, 1e-150, 0.0], [1e-150, 1e10, 1e9], [0.0, 1e9, 2e9]])
    edges = list(_jacobi_edge_matrices().values())
    edges += [_overflowing_norm_matrix(), visible_limit]
    mats = []
    for k, edge in enumerate(edges):
        g = (10.0 ** (k - 4)) * rng.standard_normal((n, n))
        mats.append(g + g.T)
        padded = np.zeros((n, n))
        padded[: len(edge), : len(edge)] = edge
        mats.append(padded)
    return np.array(mats)


class TestStackedJacobi:
    @staticmethod
    def assert_rows_match(stack, **kwargs):
        got = _jacobi_eigvals_stacked(stack, **kwargs)
        assert got.shape == stack.shape[:2]
        for row, mat in zip(got, stack):
            want, _ = _jacobi_eigh(mat, **kwargs)
            assert row.tobytes() == want.tobytes()

    def test_edge_cases_in_one_stack(self):
        self.assert_rows_match(_padded_edge_stack())

    @pytest.mark.parametrize("r", range(1, 11))
    def test_random_stacks_match_bytes(self, r):
        rng = np.random.default_rng(100 + r)
        mats = []
        for scale in (1e-150, 1e-3, 1.0, 1e4, 1e150):
            g = scale * rng.standard_normal((6, r, r))
            mats.extend(g + g.transpose(0, 2, 1))
        mats.append(np.diag(np.arange(r, 0, -1.0)))  # already diagonal
        mats.append(np.zeros((r, r)))
        mats.append(np.ones((r, r)))  # theta == 0 on every pair
        self.assert_rows_match(np.array(mats))

    def test_non_finite_entries_raise(self):
        stack = _padded_edge_stack()
        stack[5, 0, 1] = stack[5, 1, 0] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            _jacobi_eigvals_stacked(stack)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_1x1_rows_raise(self, bad):
        stack = np.array([[[2.0]], [[bad]], [[-1.0]]])
        with pytest.raises(ValueError, match="non-finite"):
            _jacobi_eigvals_stacked(stack)

    @pytest.mark.parametrize("max_sweeps", [0, 1, 2, 3])
    def test_convergence_error_names_first_failing_row(self, max_sweeps):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((12, 6, 6))
        stack = g + g.transpose(0, 2, 1)
        stack[:4] = np.diag(np.arange(6.0))  # converged before any sweep
        want = None
        for mat in stack:
            try:
                _jacobi_eigh(mat, max_sweeps=max_sweeps)
            except JacobiConvergenceError as err:
                want = err
                break
        assert want is not None
        with pytest.raises(JacobiConvergenceError) as got:
            _jacobi_eigvals_stacked(stack, max_sweeps=max_sweeps)
        assert got.value.sweeps == want.sweeps == max_sweeps
        assert got.value.residual == want.residual

    @pytest.mark.parametrize("spec", ["r3", "s1", "s4", "q2", "q5", "r2+s3+q4"])
    def test_factor_eigenvalues_per_row(self, spec, rng):
        alg = AlgebraDescriptor.from_spec(spec)
        rows = [random_element(alg, rng, scale) for scale in (1e-3, 1.0, 30.0)]
        rows += [zero(alg), identity(alg)]  # spin rows with zero radius
        for j, factor in enumerate(alg.factors):
            stack = np.stack([x.blocks[j] for x in rows])
            got = _stacked_eigenvalues(factor, stack)
            for row, x in zip(got, rows):
                assert row.tobytes() == _factor_eigenvalues(factor, x.blocks[j]).tobytes()


def _numpy_jacobi_reference(mat, tol=1e-12, max_sweeps=30):
    """The cyclic Jacobi loop on numpy slices that ``_jacobi_eigh`` replaced."""
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a[0, :1].copy(), v
    iu, ju = np.triu_indices(n, k=1)

    def off_norm():
        upper, lower = a[iu, ju], a[ju, iu]
        return math.sqrt(float(upper @ upper + lower @ lower))

    thresh = tol * max(1.0, float(np.linalg.norm(a)))
    off = off_norm()
    sweeps = 0
    while off > thresh:
        assert sweeps < max_sweeps
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 0.5 / theta
                else:
                    sign = 1.0 if theta >= 0.0 else -1.0
                    t = sign / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        sweeps += 1
        off = off_norm()
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]


class TestBitIdentityReferences:
    def test_jacobi_matches_numpy_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        mats = list(_jacobi_edge_matrices().values())
        # r = 11 and 12, past desk scale: the generated kernels need no size cut-off
        for r in range(1, 13):
            for scale in (1e-3, 1.0, 1e4):
                g = scale * rng.standard_normal((r, r))
                mats.append(g + g.T)
        for mat in mats:
            vals, vecs = _jacobi_eigh(mat)
            ref_vals, ref_vecs = _numpy_jacobi_reference(mat)
            assert np.array_equal(vals, ref_vals)
            assert np.array_equal(vecs, ref_vecs)

    @pytest.mark.parametrize("spec", ["r3", "s4", "q5", "r2+s3+q4", "s2+s5"])
    def test_expm_matches_frame_recombination_bit_for_bit(self, spec, rng):
        alg = AlgebraDescriptor.from_spec(spec)
        for scale in (0.1, 1.0, 20.0):
            x = random_element(alg, rng, scale)
            d = spectral_decompose(x)
            blocks = [np.zeros_like(b) for b in zero(alg).blocks]
            for w, q in zip(np.exp(d.eigenvalues), d.frame):
                for acc, qb in zip(blocks, q.blocks):
                    acc += w * qb
            ref = EjaElement(alg, blocks)
            got = expm(x)
            for a, b in zip(got.blocks, ref.blocks):
                assert np.array_equal(a, b)


class TestDerivedElements:
    @pytest.mark.parametrize("name", sorted(FACTOR_ALGEBRAS))
    def test_arithmetic_is_read_only_and_matches_construction(self, name, rng):
        alg = FACTOR_ALGEBRAS[name]
        for scale in (1e-3, 1.0, 1e150):
            x = random_element(alg, rng, scale)
            y = random_element(alg, rng, scale)
            results = {
                "add": (x + y, [a + b for a, b in zip(x.blocks, y.blocks)]),
                "sub": (x - y, [a - b for a, b in zip(x.blocks, y.blocks)]),
                "neg": (-x, [-a for a in x.blocks]),
                "mul": (x * -0.37, [-0.37 * a for a in x.blocks]),
                "rmul": (3.0 * y, [3.0 * a for a in y.blocks]),
                "div": (x / 7.0, [(1.0 / 7.0) * a for a in x.blocks]),
            }
            for op, (got, raw) in results.items():
                want = EjaElement(alg, raw)
                for g, w, r in zip(got.blocks, want.blocks, raw):
                    assert not g.flags.writeable, op
                    assert g.tobytes() == w.tobytes() == r.tobytes(), op
                    for src in x.blocks + y.blocks:
                        assert not np.shares_memory(g, src), op


class TestExp:
    def test_exp_zero_is_identity(self):
        for alg in FACTOR_ALGEBRAS.values():
            assert norm(expm(zero(alg)) - identity(alg), 2) < 1e-12

    def test_exp_diagonal(self):
        out = expm(sym([[math.log(2.0), 0.0], [0.0, 0.0]]))
        assert np.allclose(out.blocks[0], [[2.0, 0.0], [0.0, 1.0]])

    def test_overflowing_spectrum_raises(self):
        # exp(800) overflows; the real block's second entry used to come back
        # as NaN, from inf * 0.0 in the recombination over the standard basis
        alg = AlgebraDescriptor.from_spec("r2+q3")
        with pytest.raises(ValueError, match=r"exp of the eigenvalue 800\.0 is not finite"):
            expm(from_coords(alg, [800.0, 1.0, 0.0, 0.0, 0.0]))
        real = expm(from_coords(alg, [709.0, 1.0, 0.0, 0.0, 0.0])).blocks[0]
        assert real.tolist() == np.exp([709.0, 1.0]).tolist()
        for x in (sym([[0.0, 800.0], [800.0, 0.0]]), EjaElement(Q3, [np.array([0.0, 0.0, -710.0])])):
            top = float(eigenvalues(x)[0])
            with pytest.raises(ValueError, match=re.escape(f"exp of the eigenvalue {top!r} is not")):
                expm(x)

    def test_exp_matches_power_series(self, rng):
        for alg in FACTOR_ALGEBRAS.values():
            x = random_element_inf_bounded(alg, rng, 1.0)
            series = identity(alg)
            term = identity(alg)
            for n in range(1, 21):
                term = jordan_product(term, x) * (1.0 / n)
                series = series + term
            assert norm(expm(x) - series, 2) <= 1e-8


class TestNorms:
    def test_norm_examples(self):
        x = sym([[2, 0], [0, -1]])
        assert norm(x, 1) == pytest.approx(3.0)
        assert norm(x, 2) == pytest.approx(math.sqrt(5.0))
        assert norm(x, math.inf) == pytest.approx(2.0)
        for alg in FACTOR_ALGEBRAS.values():
            assert norm(identity(alg), 1) == pytest.approx(alg.rank)
            assert norm(identity(alg), math.inf) == pytest.approx(1.0)

    def test_two_norm_closed_form_matches_spectrum(self, rng):
        for alg in FACTOR_ALGEBRAS.values():
            x = random_element(alg, rng)
            d = spectral_decompose(x)
            assert norm(x, 2) ** 2 == pytest.approx(inner(x, x), rel=1e-12)
            assert norm(x, 2) == pytest.approx(
                math.sqrt(np.sum(d.eigenvalues**2)), rel=1e-10
            )

    def test_bad_order(self):
        with pytest.raises(ValueError):
            norm(identity(R3), 3)


class TestIsometry:
    def test_roundtrip(self, rng):
        for alg in FACTOR_ALGEBRAS.values():
            x = random_element(alg, rng)
            assert np.allclose(to_coords(from_coords(alg, to_coords(x))), to_coords(x))

    def test_sym_coordinate_layout(self):
        x = sym([[1, 3], [3, 2]])
        assert np.allclose(to_coords(x), [1.0, 2.0, 3.0 * math.sqrt(2.0)])
        assert inner(x, x) == pytest.approx(23.0)

    def test_inner_product_preserved(self, rng):
        for alg in FACTOR_ALGEBRAS.values():
            for _ in range(50):
                x = random_element(alg, rng)
                y = random_element(alg, rng)
                assert abs(inner(x, y) - to_coords(x) @ to_coords(y)) <= 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            from_coords(S2, np.zeros(2))

    @pytest.mark.parametrize("spec", ["r3", "s1", "s4", "q5", "r2+s3+q4"])
    def test_codec_matches_an_explicit_layout_bit_for_bit(self, spec, rng):
        # the map written out entry by entry: the diagonal, then sqrt(2)
        # times the strict upper triangle row-major; spin blocks times sqrt(2)
        alg = AlgebraDescriptor.from_spec(spec)
        x = random_element(alg, rng)
        want = []
        for f, b in zip(alg.factors, x.blocks):
            if isinstance(f, SymMatrix):
                want += [b[p, p] for p in range(f.r)]
                want += [math.sqrt(2.0) * b[p, q] for p, q in itertools.combinations(range(f.r), 2)]
            elif isinstance(f, SpinFactor):
                want += [math.sqrt(2.0) * v for v in b]
            else:
                want += list(b)
        got = to_coords(x)
        assert got.flags.c_contiguous
        assert got.tobytes() == np.array(want).tobytes()
        coords = iter(got.tolist())
        for f, block in zip(alg.factors, from_coords(alg, got).blocks):
            want = np.zeros(block.shape)
            if isinstance(f, SymMatrix):
                for p in range(f.r):
                    want[p, p] = next(coords)
                for p, q in itertools.combinations(range(f.r), 2):
                    want[p, q] = want[q, p] = next(coords) / math.sqrt(2.0)
            else:
                scale = math.sqrt(2.0) if isinstance(f, SpinFactor) else 1.0
                want[:] = [next(coords) / scale for _ in range(f.dim)]
            assert block.tobytes() == want.tobytes()


class TestCone:
    def test_examples(self):
        assert min_eigenvalue(identity(S2)) >= -1e-9
        assert not min_eigenvalue(sym([[2, 0], [0, -1]])) >= -1e-9
        assert min_eigenvalue(sym([[2, 0], [0, -1]])) == pytest.approx(-1.0)

    def test_squares_are_members(self, rng):
        for alg in FACTOR_ALGEBRAS.values():
            x = random_element(alg, rng)
            assert min_eigenvalue(jordan_product(x, x)) >= -1e-9


class TestAxioms:
    """Algebra axioms on random samples; the acceptance suite scales these up."""

    N = 60

    @pytest.mark.parametrize("name", list(FACTOR_ALGEBRAS))
    def test_axioms(self, name, rng):
        alg = FACTOR_ALGEBRAS[name]
        for _ in range(self.N):
            x = random_element_inf_bounded(alg, rng, 2.0)
            y = random_element_inf_bounded(alg, rng, 2.0)
            z = random_element(alg, rng)
            assert norm(jordan_product(x, y) - jordan_product(y, x), 2) <= 1e-10
            x2 = jordan_product(x, x)
            lhs = jordan_product(x2, jordan_product(x, y))
            rhs = jordan_product(x, jordan_product(x2, y))
            assert norm(lhs - rhs, 2) <= 1e-8
            assert abs(
                inner(jordan_product(x, y), z) - inner(x, jordan_product(y, z))
            ) <= 1e-8
            assert abs(inner(x, y)) <= norm(x, 2) * norm(y, 2) + 1e-10
            for p, q in ((1, math.inf), (2, 2), (math.inf, 1)):
                assert abs(inner(x, y)) <= norm(x, p) * norm(y, q) + 1e-8
            assert inner(jordan_product(x, x), jordan_product(y, y)) >= -1e-10

    @pytest.mark.parametrize("name", list(FACTOR_ALGEBRAS))
    def test_golden_thompson(self, name, rng):
        alg = FACTOR_ALGEBRAS[name]
        for _ in range(self.N):
            x = random_element_inf_bounded(alg, rng, 2.0)
            y = random_element_inf_bounded(alg, rng, 2.0)
            lhs = trace(expm(x + y))
            rhs = trace(jordan_product(expm(x), expm(y)))
            assert lhs <= rhs + 1e-8
