"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import pytest

from conedp.eja import AlgebraDescriptor, EjaElement, norm
from conedp.harness.generators import random_element
from conedp.mechanisms import RandomSource


def random_element_inf_bounded(
    alg: AlgebraDescriptor, rng: RandomSource, bound: float
) -> EjaElement:
    x = random_element(alg, rng)
    top = norm(x, math.inf)
    if top > bound:
        x = x * (bound / top)
    return x


@pytest.fixture
def rng():
    return RandomSource(20240801)


FACTOR_ALGEBRAS = {
    "real": AlgebraDescriptor.real(4),
    "sym": AlgebraDescriptor.sym(3),
    "spin": AlgebraDescriptor.spin(4),
    "mixed": AlgebraDescriptor.from_spec("r2+s3+q4"),
}
