"""Euclidean Jordan algebras: products, traces, spectra, norms, cone tests.

Supported simple factors are real coordinate algebras (componentwise
product), real symmetric matrices (symmetrized matrix product), and spin
factors (whose cone of squares is the second-order cone).  Arbitrary
direct sums of these are handled by operating blockwise.

All values are immutable after construction and every operation is a pure
function, so elements can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "EjaError",
    "AlgebraMismatchError",
    "JacobiConvergenceError",
    "RealVector",
    "SymMatrix",
    "SpinFactor",
    "Factor",
    "AlgebraDescriptor",
    "EjaElement",
    "SpectralDecomposition",
    "identity",
    "zero",
    "jordan_product",
    "trace",
    "inner",
    "spectral_decompose",
    "eigenvalues",
    "expm",
    "norm",
    "to_coords",
    "from_coords",
    "min_eigenvalue",
    "in_cone",
]


class EjaError(Exception):
    """Base class for algebra errors."""


class AlgebraMismatchError(EjaError):
    """Raised when two elements from different algebras are combined."""


class JacobiConvergenceError(EjaError):
    """Eigensolver failed to converge; carries the residual off-diagonal norm."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = residual
        self.sweeps = sweeps
        super().__init__(
            f"Jacobi eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {residual:.3e})"
        )


# ---------------------------------------------------------------------------
# Factors and descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealVector:
    """The algebra R^k with componentwise product; rank k, dimension k."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"RealVector needs k >= 1, got {self.k}")

    @property
    def rank(self) -> int:
        return self.k

    @property
    def dim(self) -> int:
        return self.k

    @property
    def spec(self) -> str:
        return f"r{self.k}"


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric r x r matrices; rank r, dimension r(r+1)/2."""

    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"SymMatrix needs r >= 1, got {self.r}")

    @property
    def rank(self) -> int:
        return self.r

    @property
    def dim(self) -> int:
        return self.r * (self.r + 1) // 2

    @property
    def spec(self) -> str:
        return f"s{self.r}"


@dataclass(frozen=True)
class SpinFactor:
    """Spin factor on n ambient coordinates (x0, xbar); rank 2, dimension n."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"SpinFactor needs n >= 2, got {self.n}")

    @property
    def rank(self) -> int:
        return 2

    @property
    def dim(self) -> int:
        return self.n

    @property
    def spec(self) -> str:
        return f"q{self.n}"


Factor = Union[RealVector, SymMatrix, SpinFactor]

_FACTOR_PREFIX = {"r": RealVector, "s": SymMatrix, "q": SpinFactor}


@dataclass(frozen=True)
class AlgebraDescriptor:
    """An ordered direct sum of simple factors."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("an algebra needs at least one factor")
        for f in factors:
            if not isinstance(f, (RealVector, SymMatrix, SpinFactor)):
                raise TypeError(f"unsupported factor {f!r}")
        object.__setattr__(self, "factors", factors)

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def spec(self) -> str:
        """Compact text form, e.g. ``"r2+s3+q4"``."""
        return "+".join(f.spec for f in self.factors)

    @classmethod
    def from_spec(cls, spec: str) -> "AlgebraDescriptor":
        """Parse a descriptor from its compact text form."""
        factors = []
        for part in spec.strip().lower().split("+"):
            part = part.strip()
            if len(part) < 2 or part[0] not in _FACTOR_PREFIX:
                raise ValueError(f"cannot parse factor {part!r} in {spec!r}")
            try:
                size = int(part[1:])
            except ValueError as exc:
                raise ValueError(f"cannot parse factor {part!r} in {spec!r}") from exc
            factors.append(_FACTOR_PREFIX[part[0]](size))
        return cls(tuple(factors))

    @classmethod
    def real(cls, k: int) -> "AlgebraDescriptor":
        return cls((RealVector(k),))

    @classmethod
    def sym(cls, r: int) -> "AlgebraDescriptor":
        return cls((SymMatrix(r),))

    @classmethod
    def spin(cls, n: int) -> "AlgebraDescriptor":
        return cls((SpinFactor(n),))

    def __str__(self) -> str:
        return self.spec


def _block_shape(factor: Factor) -> tuple[int, ...]:
    if isinstance(factor, SymMatrix):
        return (factor.r, factor.r)
    return (factor.dim,)


class EjaElement:
    """An element of an algebra, stored as per-factor coefficient blocks.

    Symmetric-matrix blocks are symmetrized at construction, so stored
    blocks always satisfy M == M.T exactly.  Blocks are read-only.
    """

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: AlgebraDescriptor, blocks: Sequence[np.ndarray]):
        blocks = tuple(blocks)
        if len(blocks) != len(algebra.factors):
            raise ValueError(
                f"expected {len(algebra.factors)} blocks, got {len(blocks)}"
            )
        frozen = []
        for factor, raw in zip(algebra.factors, blocks):
            b = np.array(raw, dtype=float)
            if b.shape != _block_shape(factor):
                raise ValueError(
                    f"block shape {b.shape} does not match factor {factor.spec}"
                )
            if isinstance(factor, SymMatrix):
                b = 0.5 * (b + b.T)
            b.setflags(write=False)
            frozen.append(b)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", tuple(frozen))

    def __setattr__(self, name, value):
        raise AttributeError("EjaElement is immutable")

    # -- arithmetic ---------------------------------------------------------

    def _check_same(self, other: "EjaElement") -> None:
        if not isinstance(other, EjaElement):
            raise TypeError(f"expected EjaElement, got {type(other).__name__}")
        if other.algebra != self.algebra:
            raise AlgebraMismatchError(
                f"algebra mismatch: {self.algebra.spec} vs {other.algebra.spec}"
            )

    def __add__(self, other: "EjaElement") -> "EjaElement":
        self._check_same(other)
        return EjaElement(
            self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other: "EjaElement") -> "EjaElement":
        self._check_same(other)
        return EjaElement(
            self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __neg__(self) -> "EjaElement":
        return EjaElement(self.algebra, [-a for a in self.blocks])

    def __mul__(self, scalar) -> "EjaElement":
        s = float(scalar)
        return EjaElement(self.algebra, [s * a for a in self.blocks])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "EjaElement":
        return self * (1.0 / float(scalar))

    def __repr__(self) -> str:
        return f"EjaElement({self.algebra.spec})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order paired with a Jordan frame."""

    eigenvalues: np.ndarray
    frame: tuple[EjaElement, ...]

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "frame", tuple(self.frame))


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def identity(alg: AlgebraDescriptor) -> EjaElement:
    """The multiplicative identity e of the algebra."""
    blocks = []
    for f in alg.factors:
        if isinstance(f, RealVector):
            blocks.append(np.ones(f.k))
        elif isinstance(f, SymMatrix):
            blocks.append(np.eye(f.r))
        else:
            b = np.zeros(f.n)
            b[0] = 1.0
            blocks.append(b)
    return EjaElement(alg, blocks)


def zero(alg: AlgebraDescriptor) -> EjaElement:
    return EjaElement(alg, [np.zeros(_block_shape(f)) for f in alg.factors])


# ---------------------------------------------------------------------------
# Product, trace, inner product
# ---------------------------------------------------------------------------


def jordan_product(x: EjaElement, y: EjaElement) -> EjaElement:
    """The commutative (generally non-associative) algebra product."""
    x._check_same(y)
    blocks = []
    for f, a, b in zip(x.algebra.factors, x.blocks, y.blocks):
        if isinstance(f, RealVector):
            blocks.append(a * b)
        elif isinstance(f, SymMatrix):
            blocks.append(0.5 * (a @ b + b @ a))
        else:
            head = a[0] * b[0] + a[1:] @ b[1:]
            tail = a[0] * b[1:] + b[0] * a[1:]
            blocks.append(np.concatenate(([head], tail)))
    return EjaElement(x.algebra, blocks)


def trace(x: EjaElement) -> float:
    """Sum of eigenvalues, computed blockwise in closed form."""
    total = 0.0
    for f, b in zip(x.algebra.factors, x.blocks):
        if isinstance(f, RealVector):
            total += float(b.sum())
        elif isinstance(f, SymMatrix):
            total += float(np.trace(b))
        else:
            total += 2.0 * float(b[0])
    return total


def inner(x: EjaElement, y: EjaElement) -> float:
    """Trace inner product <x, y> = Tr(x o y), computed in closed form."""
    x._check_same(y)
    total = 0.0
    for f, a, b in zip(x.algebra.factors, x.blocks, y.blocks):
        if isinstance(f, RealVector):
            total += float(a @ b)
        elif isinstance(f, SymMatrix):
            total += float(np.sum(a * b))
        else:
            total += 2.0 * float(a @ b)
    return total


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------

_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 30


def _offdiag_norm(rows: list[list[float]], pairs: tuple[tuple[int, int], ...]) -> float:
    # plain loops, not sum(): sum() compensates its rounding from Python 3.12 on
    upper = 0.0
    for p, q in pairs:
        x = rows[p][q]
        upper += x * x
    lower = 0.0
    for p, q in pairs:
        x = rows[q][p]
        lower += x * x
    return math.sqrt(upper + lower)


def _jacobi_eigh(
    mat: np.ndarray,
    tol: float = _JACOBI_TOL,
    max_sweeps: int = _JACOBI_MAX_SWEEPS,
    vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Sweeps rotate every off-diagonal pair in a fixed row-major order until
    the off-diagonal Frobenius norm falls below ``tol * max(1, ||A||_F)``:
    relative to the matrix scale at or above unit norm, absolute below it.
    Deterministic: no pivot search, no randomness.

    The sweeps run on Python float lists: each rotation updates columns p
    and q, then rows p and q, zeroes a[p][q] and a[q][p], then rotates the
    eigenvector columns, one IEEE multiply and add per entry.  That is the
    arithmetic of the earlier numpy slice loop, so eigenvalues and vectors
    are bit-identical to it (``tests/test_golden.py`` pins them, and
    ``tests/test_eja.py`` compares against that loop).  The one
    sum that differs is the convergence test's off-diagonal norm, summed
    sequentially here where the numpy loop used a BLAS dot; a last-bit
    difference there could only change the sweep count if the norm landed
    within an ulp of the threshold.

    When the Frobenius norm of a finite matrix overflows, the threshold
    would be infinite and no sweep would run.  Only then, the same sweeps
    run on the matrix scaled by an exact power of two, and the eigenvalues
    are scaled back.  A matrix holding NaN or inf raises ValueError.
    """
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy(), np.eye(1) if vectors else None
    with np.errstate(over="ignore"):  # an overflowing norm takes the rescale below
        scale = float(np.linalg.norm(a))
    if not math.isfinite(scale):
        if not np.isfinite(a).all():
            raise ValueError("matrix contains non-finite values (NaN or inf)")
        exponent = int(np.frexp(np.abs(a).max())[1])  # scaled entries below 1
        vals, vecs = _jacobi_eigh(np.ldexp(a, -exponent), tol, max_sweeps, vectors)
        return np.ldexp(vals, exponent), vecs
    thresh = tol * max(1.0, scale)
    rows = a.tolist()
    # eigenvector columns, stored as rows so each rotation is two list builds
    vt = [[float(i == j) for j in range(n)] for i in range(n)] if vectors else None
    pairs = tuple(itertools.combinations(range(n), 2))  # (p, q), p < q, row-major
    off = _offdiag_norm(rows, pairs)
    sweeps = 0
    while off > thresh:
        if sweeps >= max_sweeps:
            raise JacobiConvergenceError(off, sweeps)
        for p, q in pairs:
            row_p = rows[p]
            row_q = rows[q]
            apq = row_p[q]
            if apq == 0.0:
                continue
            theta = (row_q[q] - row_p[p]) / (2.0 * apq)
            if abs(theta) > 1e150:  # theta**2 would overflow; use the limit
                t = 0.5 / theta
            else:
                sign = 1.0 if theta >= 0.0 else -1.0
                t = sign / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            for row in rows:
                x = row[p]
                y = row[q]
                row[p] = c * x - s * y
                row[q] = s * x + c * y
            new_p = [c * x - s * y for x, y in zip(row_p, row_q)]
            new_q = [s * x + c * y for x, y in zip(row_p, row_q)]
            new_p[q] = 0.0
            new_q[p] = 0.0
            rows[p] = new_p
            rows[q] = new_q
            if vt is not None:
                vp = vt[p]
                vq = vt[q]
                vt[p] = [c * x - s * y for x, y in zip(vp, vq)]
                vt[q] = [s * x + c * y for x, y in zip(vp, vq)]
        sweeps += 1
        off = _offdiag_norm(rows, pairs)
    vals = np.array([rows[i][i] for i in range(n)])
    order = np.argsort(-vals, kind="stable")
    if vt is None:
        return vals[order], None
    return vals[order], np.array(vt).T[:, order]


def _rotate_stacked(a: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation of pair (p, q) in place on every matrix of a stack.

    The per-matrix arithmetic of one pair in ``_jacobi_eigh``: the same
    theta/t/c/s formulas, then columns p and q, then rows p and q.
    """
    apq = a[:, p, q]
    # np.where evaluates both branches on every matrix: theta**2 overflows on
    # the rows that take the limit, and 0.5 / theta divides by zero on rows
    # with theta == 0; neither value is kept
    with np.errstate(over="ignore", divide="ignore"):
        theta = (a[:, q, q] - a[:, p, p]) / (2.0 * apq)
        sign = np.where(theta >= 0.0, 1.0, -1.0)
        t = np.where(
            np.abs(theta) > 1e150,
            0.5 / theta,
            sign / (np.abs(theta) + np.sqrt(theta * theta + 1.0)),
        )
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = (t * c)[:, None]
    c = c[:, None]
    x = a[:, :, p]
    y = a[:, :, q]
    new_p = c * x - s * y
    new_q = s * x + c * y
    a[:, :, p] = new_p
    a[:, :, q] = new_q
    x = a[:, p, :]
    y = a[:, q, :]
    new_p = c * x - s * y
    new_q = s * x + c * y
    new_p[:, q] = 0.0
    new_q[:, p] = 0.0
    a[:, p, :] = new_p
    a[:, q, :] = new_q


def _offdiag_norms(a: np.ndarray, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    # the sequential sums of _offdiag_norm, one per matrix
    upper = np.zeros(len(a))
    for p, q in pairs:
        x = a[:, p, q]
        upper = upper + x * x
    lower = np.zeros(len(a))
    for p, q in pairs:
        x = a[:, q, p]
        lower = lower + x * x
    return np.sqrt(upper + lower)


def _jacobi_eigvals_stacked(
    mats: np.ndarray, tol: float = _JACOBI_TOL, max_sweeps: int = _JACOBI_MAX_SWEEPS
) -> np.ndarray:
    """Eigenvalues of every matrix in an (m, r, r) stack, each row descending.

    Runs the cyclic Jacobi of ``_jacobi_eigh(vectors=False)`` on all
    matrices at once and returns, row for row, its values bit for bit.
    Each matrix keeps its own threshold from the same ``np.linalg.norm``
    call, pairs whose a[p][q] is exactly zero are skipped per matrix, and
    a matrix freezes once its off-diagonal norm is at or below its
    threshold, so it takes no rotation the single-matrix loop would not.
    A matrix whose norm is not finite goes through ``_jacobi_eigh``
    itself.  When matrices are still unconverged after ``max_sweeps``
    sweeps, the error names the first of them, as a loop over the rows
    calling ``_jacobi_eigh`` would.
    """
    a = np.array(mats, dtype=float)
    m, n = a.shape[:2]
    if n == 1:
        return a[:, 0]
    with np.errstate(over="ignore"):  # an overflowing norm takes _jacobi_eigh
        scales = np.array([float(np.linalg.norm(mat)) for mat in a])
    finite = np.isfinite(scales)
    out = np.empty((m, n))
    for i in np.flatnonzero(~finite):
        out[i] = _jacobi_eigh(a[i], tol, max_sweeps, vectors=False)[0]
    live = np.flatnonzero(finite)
    work = a[live]
    thresh = tol * np.maximum(1.0, scales[live])
    pairs = tuple(itertools.combinations(range(n), 2))  # (p, q), p < q, row-major
    diag = np.arange(n)
    off = _offdiag_norms(work, pairs)
    sweeps = 0
    while True:
        going = off > thresh
        if not going.all():
            done = ~going
            vals = work[done][:, diag, diag]
            order = np.argsort(-vals, axis=1, kind="stable")
            out[live[done]] = np.take_along_axis(vals, order, axis=1)
            live, work, off, thresh = live[going], work[going], off[going], thresh[going]
        if not len(live):
            return out
        if sweeps >= max_sweeps:
            raise JacobiConvergenceError(float(off[0]), sweeps)
        for p, q in pairs:
            hit = work[:, p, q] != 0.0
            if hit.all():
                _rotate_stacked(work, p, q)
            elif hit.any():
                rows = np.flatnonzero(hit)
                sub = work[rows]
                _rotate_stacked(sub, p, q)
                work[rows] = sub
        sweeps += 1
        off = _offdiag_norms(work, pairs)


def _factor_eigenvalues(factor: Factor, block: np.ndarray) -> np.ndarray:
    if isinstance(factor, RealVector):
        return block.copy()
    if isinstance(factor, SymMatrix):
        vals, _ = _jacobi_eigh(block, vectors=False)
        return vals
    radius = float(np.linalg.norm(block[1:]))
    return np.array([block[0] + radius, block[0] - radius])


def _stacked_eigenvalues(factor: Factor, blocks: np.ndarray) -> np.ndarray:
    """Row i is ``_factor_eigenvalues(factor, blocks[i])``, bit for bit."""
    if isinstance(factor, RealVector):
        return blocks
    if isinstance(factor, SymMatrix):
        return _jacobi_eigvals_stacked(blocks)
    # per-row norms: a batched reduction sums in another order
    radius = np.array([float(np.linalg.norm(b[1:])) for b in blocks])
    return np.stack((blocks[:, 0] + radius, blocks[:, 0] - radius), axis=1)


def eigenvalues(x: EjaElement) -> np.ndarray:
    """All eigenvalues of x, sorted in descending order (no frame built)."""
    vals = np.concatenate(
        [_factor_eigenvalues(f, b) for f, b in zip(x.algebra.factors, x.blocks)]
    )
    return vals[np.argsort(-vals, kind="stable")]


def _spectral_entries(x: EjaElement) -> list[tuple[float, int, np.ndarray]]:
    """(eigenvalue, factor index, idempotent block) sorted descending.

    The block is the frame element's coefficients within its own factor;
    ties keep factor order (the sort is stable).
    """
    entries: list[tuple[float, int, np.ndarray]] = []
    for idx, (f, b) in enumerate(zip(x.algebra.factors, x.blocks)):
        if isinstance(f, RealVector):
            for i in range(f.k):
                basis = np.zeros(f.k)
                basis[i] = 1.0
                entries.append((float(b[i]), idx, basis))
        elif isinstance(f, SymMatrix):
            vals, vecs = _jacobi_eigh(b)
            for i in range(f.r):
                u = vecs[:, i]
                entries.append((float(vals[i]), idx, np.outer(u, u)))
        else:
            radius = float(np.linalg.norm(b[1:]))
            if radius > 0.0:
                direction = b[1:] / radius
            else:
                direction = np.zeros(f.n - 1)
                direction[0] = 1.0
            for sgn in (1.0, -1.0):
                q = 0.5 * np.concatenate(([1.0], sgn * direction))
                entries.append((float(b[0] + sgn * radius), idx, q))
    entries.sort(key=lambda e: -e[0])
    return entries


def spectral_decompose(x: EjaElement) -> SpectralDecomposition:
    """Eigenvalues and a Jordan frame with x = sum(lambda_i * q_i).

    Per factor: real coordinates decompose against the standard basis,
    symmetric matrices via cyclic Jacobi (frame elements are u u^T for the
    eigenvector columns), and spin factors split along x0 +- |xbar| with
    frame (1, +-xbar/|xbar|)/2.  A zero xbar splits along the first axis;
    any split is valid there because the two eigenvalues coincide.  The
    combined spectrum is sorted descending with ties kept in factor order.
    """
    alg = x.algebra
    entries = _spectral_entries(x)
    frame = []
    for _, idx, block in entries:
        blocks = [np.zeros(_block_shape(f)) for f in alg.factors]
        blocks[idx] = block
        frame.append(EjaElement(alg, blocks))
    return SpectralDecomposition(np.array([e[0] for e in entries]), tuple(frame))


def _spectral_apply(
    x: EjaElement, weights_of: Callable[[np.ndarray], np.ndarray]
) -> EjaElement:
    """sum w_i q_i with w = weights_of(descending spectrum), no frame built.

    Each w_i q_i is added into its own factor's block only, as sequential
    rank-one updates in descending eigenvalue order.  For finite weights
    the sums match a recombination over the full frame bit for bit: the
    skipped terms are the frame's zero blocks, and adding w * 0.0 changes
    nothing.
    """
    entries = _spectral_entries(x)
    weights = weights_of(np.array([e[0] for e in entries]))
    blocks = [np.zeros(_block_shape(f)) for f in x.algebra.factors]
    for w, (_, idx, block) in zip(weights, entries):
        blocks[idx] += w * block
    return EjaElement(x.algebra, blocks)


def expm(x: EjaElement) -> EjaElement:
    """Spectral exponential, sum exp(lambda_i) q_i."""
    return _spectral_apply(x, np.exp)


# ---------------------------------------------------------------------------
# Norms, isometry, cone
# ---------------------------------------------------------------------------


def norm(x: EjaElement, p) -> float:
    """Spectral p-norm for p in {1, 2, inf}.

    p=2 is computed in closed form as sqrt(<x, x>); the others read the
    spectrum.
    """
    if p == 2:
        return math.sqrt(max(0.0, inner(x, x)))
    vals = eigenvalues(x)
    if p == 1:
        return float(np.sum(np.abs(vals)))
    if p == math.inf:
        return float(np.max(np.abs(vals)))
    raise ValueError(f"unsupported norm order {p!r}; use 1, 2 or math.inf")


_SQRT2 = math.sqrt(2.0)
_SYM_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu_indices(r: int) -> tuple[np.ndarray, np.ndarray]:
    if r not in _SYM_TRIU_CACHE:
        _SYM_TRIU_CACHE[r] = np.triu_indices(r, k=1)
    return _SYM_TRIU_CACHE[r]


def _factor_coords(factor: Factor, block: np.ndarray) -> np.ndarray:
    """One factor's part of :func:`to_coords`; ``block`` may carry leading
    batch axes, so a stack of m blocks maps to m rows of coordinates."""
    if isinstance(factor, RealVector):
        return block
    if isinstance(factor, SymMatrix):
        iu, ju = _triu_indices(factor.r)
        diag = np.diagonal(block, axis1=-2, axis2=-1)
        return np.concatenate((diag, _SQRT2 * block[..., iu, ju]), axis=-1)
    return _SQRT2 * block


def to_coords(x: EjaElement) -> np.ndarray:
    """Orthonormal-basis coordinates; preserves the trace inner product.

    Symmetric blocks map to (diagonal, then sqrt(2) times the strict upper
    triangle row-major); spin blocks are scaled by sqrt(2).  The ordering
    is fixed so the map is reproducible bit for bit.
    """
    return np.concatenate(
        [_factor_coords(f, b) for f, b in zip(x.algebra.factors, x.blocks)]
    )


def from_coords(alg: AlgebraDescriptor, v: Sequence[float]) -> EjaElement:
    """Inverse of :func:`to_coords`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (alg.dim,):
        raise ValueError(f"expected {alg.dim} coordinates, got shape {v.shape}")
    blocks = []
    pos = 0
    for f in alg.factors:
        chunk = v[pos : pos + f.dim]
        pos += f.dim
        if isinstance(f, RealVector):
            blocks.append(chunk)
        elif isinstance(f, SymMatrix):
            r = f.r
            m = np.zeros((r, r))
            np.fill_diagonal(m, chunk[:r])
            iu, ju = _triu_indices(r)
            off = chunk[r:] / _SQRT2
            m[iu, ju] = off
            m[ju, iu] = off
            blocks.append(m)
        else:
            blocks.append(chunk / _SQRT2)
    return EjaElement(alg, blocks)


def min_eigenvalue(x: EjaElement) -> float:
    vals = eigenvalues(x)
    return float(vals[-1])


def in_cone(x: EjaElement, tol: float = 1e-9) -> bool:
    """Membership in the cone of squares, up to eigenvalue tolerance."""
    return min_eigenvalue(x) >= -tol
