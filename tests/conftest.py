"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conedp.eja import AlgebraDescriptor, EjaElement, norm
from conedp.harness.generators import random_element
from conedp.mechanisms import RandomSource
from conedp.oracles import ScpInstance


def random_element_inf_bounded(
    alg: AlgebraDescriptor, rng: RandomSource, bound: float
) -> EjaElement:
    x = random_element(alg, rng)
    top = norm(x, math.inf)
    if top > bound:
        x = x * (bound / top)
    return x


def instance_from_rows(alg: AlgebraDescriptor, rows, scalars, objective, senses) -> ScpInstance:
    """An instance whose per-factor stacks hold these elements row by row."""
    stacks = [np.stack([a.blocks[j] for a in rows]) for j in range(len(alg.factors))]
    return ScpInstance(alg, tuple(stacks), scalars, objective, senses)


@pytest.fixture
def rng():
    return RandomSource(20240801)


FACTOR_ALGEBRAS = {
    "real": AlgebraDescriptor.real(4),
    "sym": AlgebraDescriptor.sym(3),
    "spin": AlgebraDescriptor.spin(4),
    "mixed": AlgebraDescriptor.from_spec("r2+s3+q4"),
}
