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

    Symmetric-matrix blocks satisfy M == M.T exactly, bit for bit: an
    exactly symmetric block is stored as given, any other is replaced by
    0.5 * (M + M.T).  Blocks are read-only.
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
            # averaging an exactly symmetric block is a no-op, except that
            # b + b.T overflows entries above DBL_MAX / 2 to inf
            if isinstance(factor, SymMatrix) and not _is_symmetric(b):
                b = 0.5 * (b + b.T)
            frozen.append(b)
        _freeze(self, algebra, frozen)

    @classmethod
    def _derived(cls, algebra: AlgebraDescriptor, blocks: list[np.ndarray]) -> "EjaElement":
        """Wrap exactly symmetric blocks without the copy, shape check and
        symmetrization of ``__init__``: sums, differences, negations and
        scalar multiples of such blocks, and rows of an instance's stacks.
        """
        x = object.__new__(cls)
        _freeze(x, algebra, blocks)
        return x

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
        return EjaElement._derived(
            self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other: "EjaElement") -> "EjaElement":
        self._check_same(other)
        return EjaElement._derived(
            self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __neg__(self) -> "EjaElement":
        return EjaElement._derived(self.algebra, [-a for a in self.blocks])

    def __mul__(self, scalar) -> "EjaElement":
        s = float(scalar)
        return EjaElement._derived(self.algebra, [s * a for a in self.blocks])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "EjaElement":
        return self * (1.0 / float(scalar))

    def __repr__(self) -> str:
        return f"EjaElement({self.algebra.spec})"


def _is_symmetric(b: np.ndarray) -> bool:
    """M == M.T bit for bit, for M = b or every matrix of a stack b, so
    signed zeros and NaN payloads must match too."""
    bits = b.view(np.uint64)
    return bool((bits == bits.swapaxes(-1, -2)).all())


def _norm2(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` by its own arithmetic, without its Python wrapper."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def _freeze(x: EjaElement, algebra: AlgebraDescriptor, blocks: list[np.ndarray]) -> None:
    for b in blocks:
        b.setflags(write=False)
    object.__setattr__(x, "algebra", algebra)
    object.__setattr__(x, "blocks", tuple(blocks))


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


_KERNELS: dict[tuple[int, bool], dict] = {}
_COORD_PAIRS: dict[int, tuple[tuple[int, int], ...]] = {}


def _coord_pairs(r: int) -> tuple[tuple[int, int], ...]:
    """The entry (p, q) behind each orthonormal coordinate of an r x r
    symmetric block: the diagonal, then the strict upper triangle row-major."""
    pairs = _COORD_PAIRS.get(r)
    if pairs is None:
        upper = tuple(itertools.combinations(range(r), 2))
        pairs = _COORD_PAIRS[r] = tuple((p, p) for p in range(r)) + upper
    return pairs


def _kernel_source(n: int, vectors: bool) -> str:
    """Python source of the straight-line kernels for n x n blocks; only
    integer indices enter the text.

    ``diagonalize(rows, thresh, max_sweeps)`` runs :func:`_jacobi_sweeps` with
    entry (p, q), p <= q, in the local ``a{p}_{q}`` and, when ``vectors``,
    entry k of eigenvector i in ``v{i}_{k}``.  The off-diagonal norm adds
    the squares of the upper triangle row-major, left to right, not with
    sum(), which compensates its rounding from Python 3.12 on; the lower
    triangle's sum is the same sequence.  With ``vectors``,
    ``recombine(terms)`` adds each (w, u) of ``terms`` in order as
    acc + w * (u_p * u_q), one local ``e{p}_{q}`` per coordinate of
    :func:`_coord_pairs`.
    """

    def a(p: int, q: int) -> str:  # the local of entries (p, q) and (q, p)
        return f"a{min(p, q)}_{max(p, q)}"

    span = range(n)
    pairs = list(itertools.combinations(span, 2))
    v = [[f"v{i}_{k}" for k in span] for i in span]
    lines = ["def diagonalize(rows, thresh, max_sweeps):"]
    for p in span:
        lines.append(f"    {', '.join(a(p, q) if q >= p else '_' for q in span)}, = rows[{p}]")
    if vectors:
        for i in span:
            ones = ("1.0" if k == i else "0.0" for k in span)
            lines.append(f"    {', '.join(v[i])}, = {', '.join(ones)},")
    squares = " + ".join(f"{a(p, q)} * {a(p, q)}" for p, q in pairs) or "0.0"
    lines += [
        "    sweeps = 0",
        "    while True:",
        f"        upper = {squares}",
        "        off = sqrt(upper + upper)",
        "        if not off > thresh:",
        "            break",
        "        if sweeps >= max_sweeps:",
        "            raise JacobiConvergenceError(off, sweeps)",
    ]
    for p, q in pairs:
        app, aqq, apq = a(p, p), a(q, q), a(p, q)
        # row r's column update c*a[r][p] - s*a[r][q] is, by symmetry, the row
        # update of a[p][r]: one value for both places.  The diagonal takes
        # the column update, then the row update.
        others = [(a(r, p), a(r, q)) for r in span if r != p and r != q]
        lines += [
            f"        if {apq} != 0.0:",
            f"            theta = ({aqq} - {app}) / (2.0 * {apq})",
            "            size = abs(theta)",
            "            if size > 1e150:",  # theta**2 would overflow; use the limit
            "                t = 0.5 / theta",
            "            else:",
            "                sign = 1.0 if theta >= 0.0 else -1.0",
            "                t = sign / (size + sqrt(theta * theta + 1.0))",
            "            c = 1.0 / sqrt(t * t + 1.0)",
            "            s = t * c",
            *(f"            {x}, {y} = c * {x} - s * {y}, s * {x} + c * {y}" for x, y in others),
            f"            {app}, {aqq}, {apq} = (",
            f"                c * (c * {app} - s * {apq}) - s * (c * {apq} - s * {aqq}),",
            f"                s * (s * {app} + c * {apq}) + c * (s * {apq} + c * {aqq}),",
            "                0.0,",
            "            )",
        ]
        if vectors:
            for x, y in zip(v[p], v[q]):
                lines.append(f"            {x}, {y} = c * {x} - s * {y}, s * {x} + c * {y}")
    lines += [
        "        sweeps += 1",
        f"    diag = [{', '.join(a(i, i) for i in span)}]",
        # stable, like np.argsort(-diag, kind="stable"); finite input keeps
        # the diagonal finite, so no NaN reaches the comparison
        f"    order = sorted(range({n}), key=diag.__getitem__, reverse=True)",
    ]
    if not vectors:
        return "\n".join(lines + ["    return [diag[i] for i in order], None"])
    entries = _coord_pairs(n)
    coords = [f"e{p}_{q}" for p, q in entries]
    lines += [
        f"    vt = [{', '.join('[' + ', '.join(row) + ']' for row in v)}]",
        "    return [diag[i] for i in order], [vt[i] for i in order]",
        "def recombine(terms):",
        f"    {' = '.join(coords)} = 0.0",
        f"    for w, ({', '.join(f'u{i}' for i in span)},) in terms:",
        *(f"        {e} += w * (u{p} * u{q})" for e, (p, q) in zip(coords, entries)),
        f"    return [{', '.join(coords)}]",
    ]
    return "\n".join(lines)


def _kernel(n: int, vectors: bool) -> dict:
    """The namespace of :func:`_kernel_source`'s kernels for n x n blocks,
    compiled on first use and kept for the process.  Threads that miss the
    cache together each build the same kernel; the last one is kept."""
    kernel = _KERNELS.get((n, vectors))
    if kernel is None:
        kernel = {"sqrt": math.sqrt, "JacobiConvergenceError": JacobiConvergenceError}
        code = compile(_kernel_source(n, vectors), f"<jacobi kernel n={n}>", "exec")
        exec(code, kernel)
        _KERNELS[n, vectors] = kernel
    return kernel


def _jacobi_lists(
    mat: np.ndarray, tol: float, max_sweeps: int, vectors: bool
) -> tuple[list[float], list[list[float]] | None]:
    """:func:`_jacobi_eigh` as float lists: the eigenvalues in descending
    order and, when ``vectors``, the matching unit eigenvectors, one list
    each.  This is the prelude (finiteness, the threshold and the overflow
    rescale) of :func:`_jacobi_sweeps` for an exactly symmetric ``mat``."""
    a = np.array(mat, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing norm takes the rescale below
        scale = _norm2(a)
    if not math.isfinite(scale) and not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite values (NaN or inf)")
    if not math.isfinite(scale):
        exponent = int(np.frexp(np.abs(a).max())[1])  # scaled entries below 1
        vals, vecs = _jacobi_lists(np.ldexp(a, -exponent), tol, max_sweeps, vectors)
        return np.ldexp(vals, exponent).tolist(), vecs
    return _jacobi_sweeps(a.tolist(), tol * max(1.0, scale), max_sweeps, vectors)


def _jacobi_sweeps(
    rows: list[list[float]], thresh: float, max_sweeps: int, vectors: bool
) -> tuple[list[float], list[list[float]] | None]:
    """The sweeps of :func:`_jacobi_eigh` on the rows of a finite, exactly
    symmetric n x n matrix until the off-diagonal norm is at or below
    ``thresh``, run by the generated kernel for n (:func:`_kernel_source`)."""
    return _kernel(len(rows), vectors)["diagonalize"](rows, thresh, max_sweeps)


def _jacobi_eigh(
    mat: np.ndarray,
    tol: float = _JACOBI_TOL,
    max_sweeps: int = _JACOBI_MAX_SWEEPS,
    vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Cyclic Jacobi diagonalization of an exactly symmetric matrix.

    Sweeps rotate every off-diagonal pair in a fixed row-major order until
    the off-diagonal Frobenius norm falls below ``tol * max(1, ||A||_F)``:
    relative to the matrix scale at or above unit norm, absolute below it.
    Deterministic: no pivot search, no randomness.  Returns the eigenvalues
    in descending order (ties keep diagonal order) and the eigenvectors as
    columns.

    The sweeps run in a straight-line Python kernel generated from one
    template for each size n and vectors flag, compiled on first use and
    cached for the process (:func:`_kernel_source`); the upper triangle
    and the eigenvector entries are float locals.  A rotation of pair
    (p, q) is the arithmetic of the earlier numpy slice loop, which updated
    columns p and q, then rows p and q, then zeroed a[p][q] and a[q][p]: on
    an exactly symmetric matrix the column update of a[r][p], r not in
    {p, q}, is the same IEEE expression as the row update of a[p][r], so it
    is computed once for both, and only a[p][p] and a[q][q] take the two
    stages.  The matrix stays exactly symmetric, so eigenvalues and vectors
    are bit-identical to that loop (``tests/test_golden.py`` pins them, and
    ``tests/test_eja.py`` compares against the loop).  The one sum that
    differs is the convergence test's off-diagonal norm, summed
    sequentially here where the numpy loop used a BLAS dot; a last-bit
    difference there could only change the sweep count if the norm landed
    within an ulp of the threshold.

    When the Frobenius norm of a finite matrix overflows, the threshold
    would be infinite and no sweep would run.  Only then, the same sweeps
    run on the matrix scaled by an exact power of two, and the eigenvalues
    are scaled back.  A matrix holding NaN or inf, 1 x 1 included, or one
    that is not exactly symmetric (bit for bit), raises ValueError.
    """
    a = np.asarray(mat, dtype=float)
    if not _is_symmetric(a) and np.isfinite(a).all():  # non-finite: _jacobi_lists raises
        raise ValueError("matrix is not exactly symmetric")
    vals, vecs = _jacobi_lists(a, tol, max_sweeps, vectors)
    return np.array(vals), np.array(vecs).T if vecs is not None else None


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
    # the sequential off-diagonal sums of the generated kernels, one per matrix
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
    Each matrix keeps its own threshold from the same ``_norm2``
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
    with np.errstate(over="ignore"):  # an overflowing norm takes _jacobi_eigh
        scales = np.array([_norm2(mat) for mat in a])
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
        return np.array(_jacobi_lists(block, _JACOBI_TOL, _JACOBI_MAX_SWEEPS, False)[0])
    radius = _norm2(block[1:])
    return np.array([block[0] + radius, block[0] - radius])


def _stacked_eigenvalues(factor: Factor, blocks: np.ndarray) -> np.ndarray:
    """Row i is ``_factor_eigenvalues(factor, blocks[i])``, bit for bit."""
    if isinstance(factor, RealVector):
        return blocks
    if isinstance(factor, SymMatrix):
        return _jacobi_eigvals_stacked(blocks)
    # per-row norms: a batched reduction sums in another order
    radius = np.array([_norm2(b[1:]) for b in blocks])
    return np.stack((blocks[:, 0] + radius, blocks[:, 0] - radius), axis=1)


def eigenvalues(x: EjaElement) -> np.ndarray:
    """All eigenvalues of x, sorted in descending order (no frame built)."""
    vals = np.concatenate(
        [_factor_eigenvalues(f, b) for f, b in zip(x.algebra.factors, x.blocks)]
    )
    return vals[np.argsort(-vals, kind="stable")]


def _spectral_entries(
    factors: Sequence[Factor], blocks: Sequence[np.ndarray]
) -> list[tuple[float, int, list[float]]]:
    """(eigenvalue, factor index, frame data) sorted descending.

    The frame data is a float list: the frame element's coefficients within
    its own factor, except in a symmetric factor, where it is the unit
    eigenvector u and the coefficients are u u^T.  Ties keep factor order
    (the sort is stable).  The spin factor's frame (1, +-xbar/|xbar|)/2 is
    formed with the arithmetic of the numpy expression
    0.5 * concatenate(([1], sgn * xbar / |xbar|)).
    """
    entries: list[tuple[float, int, list[float]]] = []
    for idx, (f, b) in enumerate(zip(factors, blocks)):
        if isinstance(f, RealVector):
            for i, value in enumerate(b.tolist()):
                basis = [0.0] * f.k
                basis[i] = 1.0
                entries.append((value, idx, basis))
        elif isinstance(f, SymMatrix):
            vals, vecs = _jacobi_lists(b, _JACOBI_TOL, _JACOBI_MAX_SWEEPS, True)
            entries.extend(zip(vals, itertools.repeat(idx), vecs))
        else:
            radius = _norm2(b[1:])
            if radius > 0.0:
                direction = [x / radius for x in b[1:].tolist()]
            else:
                direction = [1.0] + [0.0] * (f.n - 2)
            for sgn in (1.0, -1.0):
                q = [0.5] + [0.5 * (sgn * x) for x in direction]
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
    entries = _spectral_entries(alg.factors, x.blocks)
    frame = []
    for _, idx, data in entries:
        blocks = [np.zeros(_block_shape(f)) for f in alg.factors]
        blocks[idx] = np.outer(data, data) if isinstance(alg.factors[idx], SymMatrix) else data
        frame.append(EjaElement(alg, blocks))
    return SpectralDecomposition(np.array([e[0] for e in entries]), tuple(frame))


def _spectral_sums(
    factors: Sequence[Factor],
    blocks: Sequence[np.ndarray],
    weights_of: Callable[[np.ndarray], np.ndarray],
) -> list[list[float]]:
    """sum w_i q_i with w = weights_of(descending spectrum), as float lists.

    Per factor, one flat list: a symmetric block's diagonal, then its
    strict upper triangle row-major (the order of :func:`to_coords`,
    unscaled); any other block as it is.  Each w_i q_i is added into its own
    factor only, as sequential rank-one updates in descending eigenvalue
    order: entry (p, q) of a symmetric block takes acc + w * (u_p * u_q),
    the arithmetic of ``acc += w * np.outer(u, u)``, in the block's
    generated ``recombine`` (:func:`_kernel_source`), and entry q of another
    block acc + w * q_q, that of ``acc += w * q``.  For finite weights the
    sums match a recombination over the full frame bit for bit: the
    skipped terms are the frame's zero blocks, and adding w * 0.0 changes
    nothing.
    """
    entries = _spectral_entries(factors, blocks)
    weights = weights_of(np.array([e[0] for e in entries])).tolist()
    sums = []
    for idx, f in enumerate(factors):
        terms = [(w, data) for w, (_, i, data) in zip(weights, entries) if i == idx]
        if isinstance(f, SymMatrix):
            sums.append(_kernel(f.r, True)["recombine"](terms))
            continue
        acc = [0.0] * f.dim
        for w, data in terms:
            acc = [x + w * y for x, y in zip(acc, data)]
        sums.append(acc)
    return sums


def _sums_element(alg: AlgebraDescriptor, sums: list[list[float]]) -> EjaElement:
    """The element of :func:`_spectral_sums`' lists, symmetric blocks
    mirrored from their upper triangle."""
    blocks = []
    for f, acc in zip(alg.factors, sums):
        if isinstance(f, SymMatrix):
            rows = [[0.0] * f.r for _ in range(f.r)]
            for (p, q), value in zip(_coord_pairs(f.r), acc):
                rows[p][q] = rows[q][p] = value
            acc = rows
        blocks.append(np.array(acc))
    return EjaElement._derived(alg, blocks)


def expm(x: EjaElement) -> EjaElement:
    """Spectral exponential, sum exp(lambda_i) q_i, with no frame built (see
    :func:`_spectral_sums`)."""
    return _sums_element(x.algebra, _spectral_sums(x.algebra.factors, x.blocks, np.exp))


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


def _sums_coords(factors: Sequence[Factor], sums: list[list[float]]) -> np.ndarray:
    """``to_coords(_sums_element(alg, sums))`` read straight from the lists
    of :func:`_spectral_sums`, with the same products by sqrt(2)."""
    out: list[float] = []
    for f, acc in zip(factors, sums):
        # all but a real block and a symmetric block's diagonal take sqrt(2)
        kept = f.k if isinstance(f, RealVector) else f.r if isinstance(f, SymMatrix) else 0
        out += acc[:kept]
        out += [_SQRT2 * v for v in acc[kept:]]
    return np.array(out)


def _coords_blocks(alg: AlgebraDescriptor, v: np.ndarray) -> list[np.ndarray]:
    """The blocks of :func:`from_coords`; ``v`` may carry leading batch
    axes, so m rows of coordinates map to one (m, *block shape) stack per
    factor."""
    blocks = []
    pos = 0
    for f in alg.factors:
        chunk = v[..., pos : pos + f.dim]
        pos += f.dim
        if isinstance(f, RealVector):
            blocks.append(chunk)
        elif isinstance(f, SymMatrix):
            r = f.r
            m = np.zeros(v.shape[:-1] + (r, r))
            diag = np.arange(r)
            m[..., diag, diag] = chunk[..., :r]
            iu, ju = _triu_indices(r)
            off = chunk[..., r:] / _SQRT2
            m[..., iu, ju] = off
            m[..., ju, iu] = off
            blocks.append(m)
        else:
            blocks.append(chunk / _SQRT2)
    return blocks


def from_coords(alg: AlgebraDescriptor, v: Sequence[float]) -> EjaElement:
    """Inverse of :func:`to_coords`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (alg.dim,):
        raise ValueError(f"expected {alg.dim} coordinates, got shape {v.shape}")
    return EjaElement(alg, _coords_blocks(alg, v))


def min_eigenvalue(x: EjaElement) -> float:
    vals = eigenvalues(x)
    return float(vals[-1])


def in_cone(x: EjaElement, tol: float = 1e-9) -> bool:
    """Membership in the cone of squares, up to eigenvalue tolerance."""
    return min_eigenvalue(x) >= -tol
