"""Property tests of the instance file loader."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedp.eja import AlgebraDescriptor
from conedp.harness.instances import (
    SCHEMA_VERSION,
    instance_from_dict,
    load_instance,
    save_instance,
)

SPECS = ("r2+s3+q4", "s1", "s5", "q4")
FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=6,
)


@st.composite
def payloads(draw):
    """A valid instance file body: random finite floats over a random algebra."""
    spec = draw(st.sampled_from(SPECS))
    alg = AlgebraDescriptor.from_spec(spec)
    m = draw(st.integers(1, 12))

    def packed_row():
        return [draw(st.lists(FINITE, min_size=f.dim, max_size=f.dim)) for f in alg.factors]

    return {
        "schema_version": SCHEMA_VERSION,
        "algebra": spec,
        "constraints": [packed_row() for _ in range(m)],
        "b": draw(st.lists(FINITE, min_size=m, max_size=m)),
        "c": packed_row(),
        "sense": draw(st.lists(st.sampled_from(["LE", "GE"]), min_size=m, max_size=m)),
        "metadata": {"seed": draw(st.integers(0, 2**32))},
    }


def node_paths(value, prefix=()):
    """The key path of every node below a JSON value."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (list, dict)):
            yield from node_paths(child, prefix + (key,))


@settings(max_examples=60, deadline=None)
@given(payloads())
def test_save_load_save_is_byte_identical(payload):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        save_instance(first, *instance_from_dict(payload))
        save_instance(second, *load_instance(first))
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text() == json.dumps(payload, indent=1) + "\n"


@settings(max_examples=300, deadline=None)
@given(payloads(), st.data())
def test_corrupted_payloads_raise_only_value_error(payload, data):
    path = data.draw(st.sampled_from(list(node_paths(payload))))
    kind = data.draw(st.sampled_from(["truncate", "retype", "non-finite"]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "truncate":
        if isinstance(parent[key], list):
            parent[key] = parent[key][: data.draw(st.integers(0, len(parent[key])))]
        else:
            del parent[key]
    elif kind == "retype":
        parent[key] = data.draw(JSON_VALUES)
    else:
        parent[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if kind == "non-finite" and path[0] != "metadata":
        with pytest.raises(ValueError):
            instance_from_dict(payload)
        return
    try:
        instance_from_dict(payload)
    except ValueError:
        pass
