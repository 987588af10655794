"""Random and planted instance generators.

Each generator takes an explicit seed and documents its stream layout in
the returned metadata, so every published number can be regenerated.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
    from_coords,
    identity,
    jordan_product,
    to_coords,
    trace,
    zero,
)
from conedp.eja import _coords_blocks, _jacobi_eigvals_stacked, _stacked_eigenvalues
from conedp.mechanisms import RandomSource
from conedp.oracles import ScpInstance

__all__ = [
    "random_element",
    "random_cone_distribution",
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


def _spectrum_bounded_rows(alg: AlgebraDescriptor, rng: RandomSource, m: int) -> list[np.ndarray]:
    """Per-factor (m, *block shape) stacks of m rows with spectra in [-1, 1]:
    row i is the stream's next :func:`random_element` times one more uniform
    over its spectral inf-norm, or as drawn if it is zero, which takes no
    uniform.  All rows are drawn at once; after a zero row the stream steps
    back to the word after its normals and the later rows are drawn again."""
    words = 2 * ((alg.dim + 1) // 2) + 1  # one row's normals and its uniform
    parts = []
    while m:
        z, u = rng.normal_rows(m, alg.dim, extra=1)
        stacks = _coords_blocks(alg, z)
        spectra = [_stacked_eigenvalues(f, s) for f, s in zip(alg.factors, stacks)]
        top = np.abs(np.concatenate(spectra, axis=1)).max(axis=1)
        zero_rows = np.flatnonzero(top == 0.0)
        kept = int(zero_rows[0]) + 1 if len(zero_rows) else m
        if len(zero_rows):
            rng.rewind((m - kept) * words + 1)
        scale = np.divide(u[:kept, 0], top[:kept], out=np.ones(kept), where=top[:kept] != 0.0)
        parts.append([s[:kept] * scale.reshape((-1,) + (1,) * (s.ndim - 1)) for s in stacks])
        m -= kept
    return [np.concatenate(stacked) for stacked in zip(*parts)]


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
        rows = np.broadcast_to((e / r).blocks[0], (m, r, r))
        metadata["generator"] = "covering-sdp-analytic"
        metadata["planted_opt"] = float(r)
        return ScpInstance(alg, (rows,), np.ones(m), e, ("GE",) * m), metadata
    rng = RandomSource(seed)
    g = rng.normal_rows(m, r * r)[0].reshape(m, r, r)
    gram = np.matmul(g.transpose(0, 2, 1), g)
    rows = gram / _jacobi_eigvals_stacked(gram)[:, :1, None]
    v = np.asarray(rng.standard_normal(r))
    v /= np.linalg.norm(v)
    witness = EjaElement(alg, [np.outer(v, v)])
    # <a_i, witness> with inner()'s arithmetic: one sum over each row's products
    slack = float((rows * witness.blocks[0]).reshape(m, -1).sum(axis=1).min())
    if slack <= 1e-12:
        raise RuntimeError("degenerate witness; try another seed")
    witness = witness / slack
    metadata["planted_opt"] = float(trace(witness))
    metadata["witness_coords"] = to_coords(witness).tolist()
    return ScpInstance(alg, (rows,), np.ones(m), e, ("GE",) * m), metadata


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
    blocks = tuple(_spectrum_bounded_rows(alg, rng, m))
    # scalars go through the same matrix-vector path the violation check
    # uses, so a zero margin is exactly tight rather than off by rounding
    draft = ScpInstance(alg, blocks, np.zeros(m), zero(alg), ("LE",) * m)
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
