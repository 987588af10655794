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
    RealVector,
    SymMatrix,
    _block_shape,
    _factor_coords,
    _is_symmetric,
    _stacked_eigenvalues,
    to_coords,
)
from conedp.mechanisms import (
    RandomSource,
    _exponential_pick,
    _gibbs_scale,
    exponential_mechanism,
)

__all__ = [
    "ScpInstance",
    "CoveringNet",
    "NetBudgetError",
    "ball_covering_net",
    "idempotent_ray_net",
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

    Constraints read <a_i, x> <= b_i for sense "LE" and >= for "GE".  They
    are one read-only C-ordered stack per factor, shaped (m, *block shape),
    whose row i is a_i (see :meth:`row`); the BLAS products over them round
    by memory layout.  Symmetric stacks must be exactly symmetric, every
    number finite and the objective over the same algebra; construction
    raises ValueError otherwise.
    """

    algebra: AlgebraDescriptor
    blocks: tuple[np.ndarray, ...]
    scalars: np.ndarray
    objective: EjaElement
    senses: tuple[str, ...]

    def __post_init__(self):
        factors = self.algebra.factors
        blocks = tuple(np.array(s, dtype=float, order="C") for s in self.blocks)
        if len(blocks) != len(factors):
            raise ValueError(f"expected {len(factors)} constraint stacks, got {len(blocks)}")
        m = len(blocks[0]) if blocks[0].ndim else 0
        if m == 0:
            raise ValueError("an instance needs at least one constraint")
        finite_rows = np.ones(m, dtype=bool)
        for factor, stacked in zip(factors, blocks):
            if stacked.shape != (m, *_block_shape(factor)):
                raise ValueError(
                    f"constraint {factor.spec} stack has shape {stacked.shape}, "
                    f"expected {(m, *_block_shape(factor))}"
                )
            if isinstance(factor, SymMatrix) and not _is_symmetric(stacked):
                raise ValueError(f"constraint {factor.spec} stack is not exactly symmetric")
            finite_rows &= np.isfinite(stacked.reshape(m, -1)).all(axis=1)
            stacked.setflags(write=False)
        if not finite_rows.all():
            raise ValueError(
                "constraints contain non-finite values (NaN or inf), "
                f"first in row {int(np.argmin(finite_rows))}"
            )
        if self.objective.algebra != self.algebra:
            raise ValueError("objective algebra does not match instance algebra")
        if not all(np.isfinite(blk).all() for blk in self.objective.blocks):
            raise ValueError("objective contains non-finite values (NaN or inf)")
        b = np.array(self.scalars, dtype=float)
        if b.shape != (m,):
            raise ValueError(f"scalar shape {b.shape} does not match {m} constraints")
        if not np.isfinite(b).all():
            raise ValueError("scalars contain non-finite values (NaN or inf)")
        b.setflags(write=False)
        senses = tuple(self.senses)
        if len(senses) == 1 and m > 1:
            senses = senses * m
        if len(senses) != m:
            raise ValueError("one sense per constraint required")
        for sense in senses:
            if sense not in _SENSES:
                raise ValueError(f"sense must be LE or GE, got {sense!r}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "scalars", b)
        object.__setattr__(self, "senses", senses)

    def row(self, i: int) -> EjaElement:
        """Constraint a_i as an element whose blocks are views of the stacks."""
        return EjaElement._derived(self.algebra, [s[i] for s in self.blocks])

    @property
    def num_constraints(self) -> int:
        return len(self.scalars)

    @cached_property
    def constraint_coords(self) -> np.ndarray:
        """Constraint elements as rows of orthonormal coordinates."""
        mat = np.concatenate(
            [_factor_coords(f, s) for f, s in zip(self.algebra.factors, self.blocks)],
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

        Equal bit for bit to the largest ``norm(self.row(i), math.inf)``,
        with each factor's eigenvalues computed for all rows at once.
        """
        return max(
            float(np.abs(_stacked_eigenvalues(f, s)).max())
            for f, s in zip(self.algebra.factors, self.blocks)
        )

    def violations(self, coords: np.ndarray) -> np.ndarray:
        """Signed violations at the point with these orthonormal coordinates."""
        values = self.constraint_coords @ coords
        return self.sense_signs * (values - self.scalars)


class NetBudgetError(ValueError):
    """The requested net would exceed the desk-scale point budget."""


@dataclass(frozen=True)
class CoveringNet:
    """Cone points over one simple factor, stored as a read-only C-ordered
    copy of their (n, *block shape) stack, with coordinates cached."""

    algebra: AlgebraDescriptor
    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.array(self.blocks, dtype=float, order="C")
        factors = self.algebra.factors
        if len(factors) != 1 or blocks.shape[1:] != _block_shape(factors[0]):
            raise ValueError(
                f"a net is one (n, *block shape) stack over a single simple factor; "
                f"got shape {blocks.shape} over {self.algebra.spec}"
            )
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @property
    def points(self) -> tuple[EjaElement, ...]:
        """The points as elements whose blocks are views of the stack."""
        return tuple(EjaElement._derived(self.algebra, [b]) for b in self.blocks)

    @cached_property
    def coords(self) -> np.ndarray:
        mat = _factor_coords(self.algebra.factors[0], self.blocks)
        mat.setflags(write=False)
        return mat

    def __len__(self) -> int:
        return len(self.blocks)


# ---------------------------------------------------------------------------
# Net construction
# ---------------------------------------------------------------------------


def _grid_axis(limit: float, pitch: float) -> np.ndarray:
    n = int(math.floor(limit / pitch + 1e-12))
    return pitch * np.arange(-n, n + 1)


def ball_covering_net(r: int, radius: float, gamma: float) -> np.ndarray:
    """Points covering the Euclidean ball of the given radius in R^r.

    An axis-aligned lattice of pitch gamma/sqrt(r), whose cell diameter is
    gamma, so every ball point sits within gamma of a kept lattice point;
    the cover is deterministic and provable.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not (0.0 < gamma <= radius):
        raise ValueError(f"gamma must lie in (0, radius], got {gamma}")
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"dimension r must be an integer >= 1, got {r!r}")
    if r > _MAX_NET_RANK:
        raise NetBudgetError(
            f"net dimension {r} exceeds the desk-scale limit {_MAX_NET_RANK}; "
            f"roughly {(2.0 * radius * math.sqrt(r) / gamma) ** r:.2e} points "
            "would be required"
        )
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


def _first_occurrences(keys) -> list[int]:
    """Indices of the first occurrence of each key, in order."""
    first: dict = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    return list(first.values())


def idempotent_ray_net(alg: AlgebraDescriptor, opt: float, gamma: float) -> CoveringNet:
    """Candidate minimizers for covering programs over one simple factor.

    Linear minimization over the trace-capped cone is attained on scaled
    primitive-idempotent rays, so the net enumerates those rays up to the
    requested resolution: symmetric matrices take u u^T over a ball net of
    u (u = 0 dropped to keep the points genuinely rank one), spin
    factors take c * (1, w)/2 over a direction net and a scale grid, and
    real coordinate factors need only the scaled standard basis.  Each
    stack is built in one pass.  Requires 0 < opt < inf, 0 < gamma <= sqrt(opt).
    """
    if len(alg.factors) != 1:
        raise ValueError("idempotent nets are defined for a single simple factor")
    if not 0.0 < opt < math.inf:
        raise ValueError(f"opt must be positive and finite, got {opt}")
    if not 0.0 < gamma <= math.sqrt(opt):
        raise ValueError(f"gamma must lie in (0, sqrt(opt)], got {gamma}")
    factor = alg.factors[0]
    if isinstance(factor, RealVector):
        blocks = opt * np.eye(factor.k)
    elif isinstance(factor, SymMatrix):
        us = ball_covering_net(factor.r, math.sqrt(opt), gamma)
        # lattice vectors are exactly zero or at least one pitch long
        us = us[(us != 0.0).any(axis=1)]
        blocks = us[:, :, None] * us[:, None, :]
    else:
        d = factor.n - 1
        # Split the resolution between the scale grid and the direction net:
        # |c q(w) - c' q(w')|^2 <= (c-c')^2 + opt * (angle gap)^2 / 2.
        scale_pitch = gamma / math.sqrt(2.0)
        scales = np.arange(scale_pitch, math.sqrt(opt) + 1e-12, scale_pitch)
        scales = np.concatenate((scales, [math.sqrt(opt)]))
        if d == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            raw = ball_covering_net(d, 1.0, gamma / math.sqrt(opt) / 2.0)
            raw = raw[np.linalg.norm(raw, axis=1) >= 0.5]
            dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        # a pair repeats an earlier one exactly when its rounded scale or its
        # rounded direction does: deduplicate each, then form the scale-major grid
        scales = scales[_first_occurrences(round(c, 12) for c in scales.tolist())]
        dirs = dirs[_first_occurrences(map(tuple, np.round(dirs, 12).tolist()))]
        rays = np.concatenate((np.ones((len(dirs), 1)), dirs), axis=1)
        blocks = ((0.5 * scales)[:, None, None] * rays).reshape(-1, factor.n)
    if len(blocks) > _MAX_NET_POINTS:
        raise NetBudgetError(f"net has {len(blocks)} points (budget {_MAX_NET_POINTS})")
    return CoveringNet(alg, blocks)


# ---------------------------------------------------------------------------
# Covering oracles
# ---------------------------------------------------------------------------


def _covering_weights(y, instance: ScpInstance) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (instance.num_constraints,):
        raise ValueError(
            f"weight shape {y.shape} does not match {instance.num_constraints} constraints"
        )
    return y


def _covering_scores(
    y: np.ndarray, constraint_coords: np.ndarray, net_coords: np.ndarray
) -> np.ndarray:
    """<sum_i y_i a_i, p> for every net point p."""
    return net_coords @ (y @ constraint_coords)


def covering_oracle_exact(y, instance: ScpInstance, net: CoveringNet) -> EjaElement:
    """The net point minimizing <sum_i y_i a_i, p>; ties take the lowest index."""
    if len(net) == 0:
        raise ValueError("empty net")
    y = _covering_weights(y, instance)
    scores = _covering_scores(y, instance.constraint_coords, net.coords)
    return EjaElement._derived(net.algebra, [net.blocks[int(np.argmin(scores))]])


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

    The index addresses the rows of both ``net.blocks`` and the cached
    ``net.coords``.  The mechanism maximizes quality while the oracle
    minimizes, so it runs at the negated logit scale, which equals negating
    the scores.  The caller guarantees the weight vector comes from a 1/s-dense
    distribution, which bounds the score sensitivity by 3*opt/s.
    """
    y = _covering_weights(y, instance)
    scale = -_gibbs_scale(covering_oracle_sensitivity(opt, s), epsilon)
    return _covering_pick(y, instance.constraint_coords, net.coords, scale, rng)


def _covering_pick(
    y: np.ndarray,
    constraint_coords: np.ndarray,
    net_coords: np.ndarray,
    scale: float,
    rng: RandomSource,
) -> int:
    """The private covering oracle for checked weights y at the negative
    logit scale ``scale``; the solver's loop calls it directly."""
    return _exponential_pick(_covering_scores(y, constraint_coords, net_coords), scale, rng)


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
