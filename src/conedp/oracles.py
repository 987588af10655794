"""Constraint-system types, covering nets, and minimization/violation oracles.

The covering oracles do linear minimization over a finite net of scaled
primitive-idempotent rays; the dual oracles return a most violated
constraint index from a vector of violation scores.  The covering oracles
come in an exact flavor and a private flavor backed by the exponential
mechanism; the dual oracle is private, with the exact argmax as its
zero-sensitivity case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
    Factor,
    RealVector,
    SpinFactor,
    SymMatrix,
    _factor_coords,
    _stacked_eigenvalues,
    to_coords,
)
from conedp.mechanisms import RandomSource, exponential_mechanism

__all__ = [
    "ScpInstance",
    "CoveringNet",
    "NetBudgetError",
    "ball_covering_net",
    "idempotent_ray_net",
    "idempotent_ray_dimension",
    "covering_oracle_exact",
    "covering_oracle_private",
    "covering_oracle_sensitivity",
    "violation_scores",
    "dual_oracle_private",
]

_MAX_NET_RANK = 10
_MAX_NET_POINTS = 2_000_000

_SENSES = ("LE", "GE")


@dataclass(frozen=True)
class ScpInstance:
    """A symmetric cone program: constraints, scalars, objective, senses.

    Constraints read <a_i, x> <= b_i for sense "LE" and >= for "GE".  All
    elements must live over the same algebra, and every scalar and
    coefficient must be finite; construction raises ValueError otherwise.
    """

    algebra: AlgebraDescriptor
    constraints: tuple[EjaElement, ...]
    scalars: np.ndarray
    objective: EjaElement
    senses: tuple[str, ...]

    def __post_init__(self):
        constraints = tuple(self.constraints)
        if not constraints:
            raise ValueError("an instance needs at least one constraint")
        for a in constraints:
            if a.algebra != self.algebra:
                raise ValueError(
                    f"constraint over {a.algebra.spec} does not match instance "
                    f"algebra {self.algebra.spec}"
                )
        if self.objective.algebra != self.algebra:
            raise ValueError("objective algebra does not match instance algebra")
        b = np.array(self.scalars, dtype=float)
        if b.shape != (len(constraints),):
            raise ValueError(
                f"scalar shape {b.shape} does not match {len(constraints)} constraints"
            )
        if not np.isfinite(b).all():
            raise ValueError("scalars contain non-finite values (NaN or inf)")
        # each factor's blocks stacked over the rows, shape (m, *block shape)
        stacks = tuple(
            np.stack([a.blocks[j] for a in constraints])
            for j in range(len(self.algebra.factors))
        )
        finite_rows = np.ones(len(constraints), dtype=bool)
        for stacked in stacks:
            stacked.setflags(write=False)
            finite_rows &= np.isfinite(stacked.reshape(len(constraints), -1)).all(axis=1)
        if not finite_rows.all():
            raise ValueError(
                "constraints contain non-finite values (NaN or inf), "
                f"first in row {int(np.argmin(finite_rows))}"
            )
        if not all(np.isfinite(blk).all() for blk in self.objective.blocks):
            raise ValueError("objective contains non-finite values (NaN or inf)")
        b.setflags(write=False)
        senses = tuple(self.senses)
        if len(senses) == 1 and len(constraints) > 1:
            senses = senses * len(constraints)
        if len(senses) != len(constraints):
            raise ValueError("one sense per constraint required")
        for sense in senses:
            if sense not in _SENSES:
                raise ValueError(f"sense must be LE or GE, got {sense!r}")
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "_stacks", stacks)
        object.__setattr__(self, "scalars", b)
        object.__setattr__(self, "senses", senses)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @cached_property
    def constraint_coords(self) -> np.ndarray:
        """Constraint elements as rows of orthonormal coordinates."""
        mat = np.concatenate(
            [_factor_coords(f, s) for f, s in zip(self.algebra.factors, self._stacks)],
            axis=1,
        )
        mat.setflags(write=False)
        return mat

    @cached_property
    def sense_signs(self) -> np.ndarray:
        """+1 for LE constraints, -1 for GE, so violation = sign*(<a,x>-b)."""
        signs = np.array([1.0 if s == "LE" else -1.0 for s in self.senses])
        signs.setflags(write=False)
        return signs

    @cached_property
    def width(self) -> float:
        """Width of the constraint system: the largest spectral inf-norm.

        Equal bit for bit to ``max(norm(a, math.inf) for a in constraints)``,
        with each factor's eigenvalues computed for all rows at once.
        """
        return max(
            float(np.abs(_stacked_eigenvalues(f, s)).max())
            for f, s in zip(self.algebra.factors, self._stacks)
        )

    def violations(self, coords: np.ndarray) -> np.ndarray:
        """Signed violations at the point with these orthonormal coordinates."""
        values = self.constraint_coords @ coords
        return self.sense_signs * (values - self.scalars)


class NetBudgetError(ValueError):
    """The requested net would exceed the desk-scale point budget."""


@dataclass(frozen=True)
class CoveringNet:
    """A finite set of cone points with a stated covering resolution."""

    points: tuple[EjaElement, ...]
    radius: float
    construction: str

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    @cached_property
    def coords(self) -> np.ndarray:
        mat = np.stack([to_coords(p) for p in self.points])
        mat.setflags(write=False)
        return mat

    def __len__(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# Net construction
# ---------------------------------------------------------------------------


def _grid_axis(limit: float, pitch: float) -> np.ndarray:
    n = int(math.floor(limit / pitch + 1e-12))
    return pitch * np.arange(-n, n + 1)


def ball_covering_net(
    r: int,
    radius: float,
    gamma: float,
    mode: str = "grid",
    rng: RandomSource | None = None,
) -> np.ndarray:
    """Points covering the Euclidean ball of the given radius in R^r.

    Grid mode lays an axis-aligned lattice of pitch gamma/sqrt(r), whose
    cell diameter is gamma, so every ball point sits within gamma of a
    kept lattice point; the cover is deterministic and provable.  The
    random-sphere mode places shells spaced gamma/2 apart with uniformly
    sampled directions, sized so the cover holds empirically with margin;
    it produces smaller nets in moderate dimension.
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not (0.0 < gamma <= radius):
        raise ValueError(f"gamma must lie in (0, radius], got {gamma}")
    if r < 1:
        raise ValueError(f"dimension must be >= 1, got {r}")
    if r > _MAX_NET_RANK:
        raise NetBudgetError(
            f"net dimension {r} exceeds the desk-scale limit {_MAX_NET_RANK}; "
            f"roughly {(2.0 * radius * math.sqrt(r) / gamma) ** r:.2e} points "
            "would be required"
        )
    if mode == "grid":
        pitch = gamma / math.sqrt(r)
        per_axis = _grid_axis(radius, pitch)
        estimate = float(len(per_axis)) ** r
        if estimate > _MAX_NET_POINTS:
            raise NetBudgetError(
                f"grid net would need about {estimate:.2e} points "
                f"(budget {_MAX_NET_POINTS})"
            )
        grids = np.meshgrid(*([per_axis] * r), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        keep = np.einsum("ij,ij->i", pts, pts) <= radius * radius + 1e-12
        return pts[keep]
    if mode == "random-sphere":
        if rng is None:
            raise ValueError("random-sphere mode needs a RandomSource")
        shells = [0.0]
        rho = gamma / 2.0
        while rho < radius - 1e-12:
            shells.append(rho)
            rho += gamma / 2.0
        shells.append(radius)
        chunks = [np.zeros((1, r))]
        for rho in shells[1:]:
            count = max(8, int(math.ceil(3.0 * (4.0 * rho / gamma) ** (r - 1))))
            if count > _MAX_NET_POINTS:
                raise NetBudgetError(
                    f"random-sphere shell would need {count} points "
                    f"(budget {_MAX_NET_POINTS})"
                )
            dirs = rng.standard_normal(count * r).reshape(count, r)
            norms = np.linalg.norm(dirs, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            chunks.append(rho * dirs / norms)
        return np.concatenate(chunks, axis=0)
    raise ValueError(f"unknown net mode {mode!r}")


def idempotent_ray_dimension(factor: Factor) -> int:
    """Dimension of the scaled primitive-idempotent rays of one factor."""
    if isinstance(factor, RealVector):
        return 1
    if isinstance(factor, SymMatrix):
        return factor.r  # Peirce constant 1: 1*(r-1) + 1
    return factor.n  # Peirce constant n-1 at rank 2: (n-1)*1 + 1


def idempotent_ray_net(
    alg: AlgebraDescriptor,
    opt: float,
    gamma: float,
    mode: str = "grid",
    rng: RandomSource | None = None,
) -> CoveringNet:
    """Candidate minimizers for covering programs over one simple factor.

    Linear minimization over the trace-capped cone is attained on scaled
    primitive-idempotent rays, so the net enumerates those rays up to the
    requested resolution: symmetric matrices take u u^T over a ball net of
    u (near-zero u dropped to keep the points genuinely rank one), spin
    factors take c * (1, w)/2 over a direction net and a scale grid, and
    real coordinate factors need only the scaled standard basis.
    """
    if len(alg.factors) != 1:
        raise ValueError("idempotent nets are defined for a single simple factor")
    if opt <= 0.0:
        raise ValueError(f"opt must be positive, got {opt}")
    factor = alg.factors[0]
    points: list[EjaElement] = []
    if isinstance(factor, RealVector):
        for i in range(factor.k):
            b = np.zeros(factor.k)
            b[i] = opt
            points.append(EjaElement(alg, [b]))
    elif isinstance(factor, SymMatrix):
        us = ball_covering_net(factor.r, math.sqrt(opt), gamma, mode, rng)
        cutoff = 1e-9 * math.sqrt(opt)
        for u in us:
            if np.linalg.norm(u) <= cutoff:
                continue
            points.append(EjaElement(alg, [np.outer(u, u)]))
    elif isinstance(factor, SpinFactor):
        d = factor.n - 1
        # Split the resolution between the scale grid and the direction net:
        # |c q(w) - c' q(w')|^2 <= (c-c')^2 + opt * (angle gap)^2 / 2.
        scale_pitch = gamma / math.sqrt(2.0)
        scales = np.arange(scale_pitch, math.sqrt(opt) + 1e-12, scale_pitch)
        scales = np.concatenate((scales, [math.sqrt(opt)]))
        theta = gamma / math.sqrt(opt)
        if d == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            raw = ball_covering_net(d, 1.0, min(theta, 1.0) / 2.0, mode, rng)
            keep = np.linalg.norm(raw, axis=1) >= 0.5
            raw = raw[keep]
            dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        seen = set()
        for c in scales:
            for w in dirs:
                key = (round(float(c), 12),) + tuple(np.round(w, 12))
                if key in seen:
                    continue
                seen.add(key)
                block = 0.5 * c * np.concatenate(([1.0], w))
                points.append(EjaElement(alg, [block]))
    else:
        raise ValueError(f"unsupported factor {factor!r}")
    if not points:
        raise NetBudgetError("net construction produced no points")
    if len(points) > _MAX_NET_POINTS:
        raise NetBudgetError(f"net has {len(points)} points (budget {_MAX_NET_POINTS})")
    return CoveringNet(tuple(points), float(gamma), mode)


# ---------------------------------------------------------------------------
# Covering oracles
# ---------------------------------------------------------------------------


def _covering_scores(y, instance: ScpInstance, net: CoveringNet) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (instance.num_constraints,):
        raise ValueError(
            f"weight shape {y.shape} does not match {instance.num_constraints} constraints"
        )
    combined = y @ instance.constraint_coords
    return net.coords @ combined


def covering_oracle_exact(y, instance: ScpInstance, net: CoveringNet) -> EjaElement:
    """The net point minimizing <sum_i y_i a_i, p>; ties take the lowest index."""
    if len(net) == 0:
        raise ValueError("empty net")
    scores = _covering_scores(y, instance, net)
    return net.points[int(np.argmin(scores))]


def covering_oracle_sensitivity(opt: float, s: int) -> float:
    """Score sensitivity 3*opt/s for weight vectors from an s-dense update."""
    return 3.0 * opt / s


def covering_oracle_private(
    y,
    instance: ScpInstance,
    net: CoveringNet,
    epsilon: float,
    opt: float,
    s: int,
    rng: RandomSource,
) -> int:
    """Net index of an approximately minimizing point, by exponential mechanism.

    The index addresses both ``net.points`` and the cached ``net.coords``
    rows.  Scores are negated because the mechanism maximizes quality while
    the oracle minimizes.  The caller guarantees the weight vector comes
    from a 1/s-dense distribution, which bounds the score sensitivity by
    3*opt/s.
    """
    scores = _covering_scores(y, instance, net)
    sensitivity = covering_oracle_sensitivity(opt, s)
    return exponential_mechanism(-scores, sensitivity, epsilon, rng)


# ---------------------------------------------------------------------------
# Dual (most violated constraint) oracles
# ---------------------------------------------------------------------------


def violation_scores(instance: ScpInstance, x: EjaElement) -> np.ndarray:
    """Signed violations: <a_i, x> - b_i for LE rows, b_i - <a_i, x> for GE."""
    return instance.violations(to_coords(x))


def dual_oracle_private(
    scores: np.ndarray,
    epsilon: float,
    sensitivity: float,
    rng: RandomSource,
) -> int:
    """Exponential-mechanism selection of an approximately most violated row.

    ``scores`` are the violation scores of a trace-one cone point, which
    move by at most the given sensitivity between neighboring instances
    (scalar or constraint perturbations alike).  Zero sensitivity is the
    exact oracle: the argmax, ties to the lowest index, consuming no
    randomness.  The index is returned even when every row is satisfied.
    """
    if sensitivity == 0.0:
        return int(np.argmax(scores))
    return exponential_mechanism(scores, sensitivity, epsilon, rng)
