"""Random and planted instance generators.

Each generator takes an explicit seed and documents its stream layout in
the returned metadata, so every published number can be regenerated.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
    from_coords,
    identity,
    inner,
    jordan_product,
    norm,
    to_coords,
    trace,
    zero,
)
from conedp.eja import _jacobi_eigh
from conedp.mechanisms import RandomSource
from conedp.oracles import ScpInstance

__all__ = [
    "random_element",
    "random_cone_distribution",
    "random_spectrum_bounded",
    "generate_covering_sdp",
    "generate_feasible_scp",
]


def random_element(alg: AlgebraDescriptor, rng: RandomSource, scale: float = 1.0) -> EjaElement:
    """Isotropic Gaussian element: standard normal in orthonormal coordinates."""
    return from_coords(alg, scale * np.asarray(rng.standard_normal(alg.dim)))


def random_cone_distribution(alg: AlgebraDescriptor, rng: RandomSource) -> EjaElement:
    """A random trace-one cone point, built as a normalized square."""
    y = random_element(alg, rng)
    sq = jordan_product(y, y)
    t = trace(sq)
    if t <= 0.0:  # squares have nonnegative trace; zero only for y == 0
        return identity(alg) / alg.rank
    return sq / t


def random_spectrum_bounded(
    alg: AlgebraDescriptor, rng: RandomSource, bound: float = 1.0
) -> EjaElement:
    """A random element rescaled so its spectrum lies within [-bound, bound]."""
    x = random_element(alg, rng)
    top = norm(x, math.inf)
    if top == 0.0:
        return x
    return x * (bound * rng.uniform() / top)


def generate_covering_sdp(
    r: int,
    m: int,
    seed: int,
    analytic: bool = False,
) -> tuple[ScpInstance, dict]:
    """A covering program over r x r symmetric matrices with m GE rows.

    Random mode draws PSD rows as Gram squares scaled to unit spectral
    norm, then plants a rank-one witness: the witness is scaled until the
    loosest row is tight, so its trace is a feasible trace budget and is
    recorded as ``planted_opt``.  Analytic mode emits m copies of e/r,
    whose optimum is exactly r.
    """
    if r < 1 or r > 10:
        raise ValueError(f"r must lie in [1, 10], got {r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    alg = AlgebraDescriptor.sym(r)
    e = identity(alg)
    metadata: dict = {
        "generator": "covering-sdp",
        "seed": seed,
        "r": r,
        "m": m,
        "seed_derivation": "RandomSource(seed); rows then witness from one stream",
    }
    if analytic:
        constraints = tuple(e / r for _ in range(m))
        metadata["generator"] = "covering-sdp-analytic"
        metadata["planted_opt"] = float(r)
        instance = ScpInstance.from_rows(alg, constraints, np.ones(m), e, ("GE",) * m)
        return instance, metadata
    rng = RandomSource(seed)
    constraints = []
    for _ in range(m):
        g = np.asarray(rng.standard_normal(r * r)).reshape(r, r)
        gram = g.T @ g
        vals, _ = _jacobi_eigh(gram, vectors=False)
        constraints.append(EjaElement(alg, [gram / vals[0]]))
    v = np.asarray(rng.standard_normal(r))
    v /= np.linalg.norm(v)
    witness = EjaElement(alg, [np.outer(v, v)])
    slack = min(inner(a, witness) for a in constraints)
    if slack <= 1e-12:
        raise RuntimeError("degenerate witness; try another seed")
    witness = witness / slack
    metadata["planted_opt"] = float(trace(witness))
    metadata["witness_coords"] = to_coords(witness).tolist()
    instance = ScpInstance.from_rows(alg, constraints, np.ones(m), e, ("GE",) * m)
    return instance, metadata


def generate_feasible_scp(
    alg: AlgebraDescriptor,
    m: int,
    margin: float,
    seed: int,
) -> tuple[ScpInstance, dict]:
    """An LE-sense feasibility instance with a planted trace-one solution.

    Rows have spectra inside [-1, 1]; scalars are set to the planted
    point's value plus the margin, so the witness satisfies every row
    with that slack.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if margin < 0.0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    rng = RandomSource(seed)
    witness = random_cone_distribution(alg, rng)
    constraints = tuple(random_spectrum_bounded(alg, rng) for _ in range(m))
    # scalars go through the same matrix-vector path the violation check
    # uses, so a zero margin is exactly tight rather than off by rounding
    draft = ScpInstance.from_rows(alg, constraints, np.zeros(m), zero(alg), ("LE",) * m)
    values = draft.constraint_coords @ to_coords(witness)
    instance = replace(draft, scalars=values + margin)
    metadata = {
        "generator": "feasible-scp",
        "seed": seed,
        "algebra": alg.spec,
        "m": m,
        "margin": margin,
        "witness_coords": to_coords(witness).tolist(),
        "seed_derivation": "RandomSource(seed); witness then rows from one stream",
    }
    return instance, metadata
