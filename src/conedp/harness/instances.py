"""Self-describing JSON instance files.

One file holds the algebra descriptor, the constraint blocks, scalars,
objective, senses, and generator metadata.  Symmetric blocks are stored
as the packed upper triangle (row-major, diagonal included); floats go
through Python's shortest round-trip repr, so write -> read is exact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from conedp.eja import AlgebraDescriptor, EjaElement, SymMatrix
from conedp.oracles import ScpInstance

__all__ = [
    "SCHEMA_VERSION",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
]

SCHEMA_VERSION = 1

_REQUIRED_FIELDS = ("algebra", "constraints", "b", "c", "sense")
_SEQUENCES = (list, tuple, np.ndarray)


def _describe(value) -> str:
    if isinstance(value, _SEQUENCES):
        return f"{len(value)}"
    return type(value).__name__


def _packed(alg: AlgebraDescriptor, stacks) -> list[np.ndarray]:
    """Each factor's (m, *block shape) stack as (m, packed length): each
    symmetric stack is packed upper-triangular with one fancy index."""
    packed = []
    for factor, stacked in zip(alg.factors, stacks):
        if isinstance(factor, SymMatrix):
            iu, ju = np.triu_indices(factor.r)
            stacked = stacked[:, iu, ju]
        packed.append(stacked)
    return packed


def _read_rows(alg: AlgebraDescriptor, rows, field: str) -> list[np.ndarray]:
    """Each factor's packed blocks over all rows as one (m, *block shape) array.

    Every row's block count and packed lengths are checked first, so errors
    name the ``field`` ("constraint" or "objective", which is one row) and
    the first bad row; then each factor is read with one ``np.array`` and
    symmetric blocks are unpacked with one scatter.
    """
    sizes = [f.dim for f in alg.factors]  # packed length of each block
    for i, row in enumerate(rows):
        where = f"constraint row {i}" if field == "constraint" else field
        if not isinstance(row, _SEQUENCES) or len(row) != len(sizes):
            raise ValueError(
                f"{where}: expected a list of {len(sizes)} blocks, got {_describe(row)}"
            )
        for factor, size, block in zip(alg.factors, sizes, row):
            if not isinstance(block, _SEQUENCES) or len(block) != size:
                raise ValueError(
                    f"{where}: packed {factor.spec} block needs "
                    f"{size} entries, got {_describe(block)}"
                )
    stacks = []
    for j, (factor, size) in enumerate(zip(alg.factors, sizes)):
        try:
            packed = np.array([row[j] for row in rows], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            message = f"{field} {factor.spec} blocks must hold numbers: {exc}"
            raise ValueError(message) from None
        if packed.shape != (len(rows), size):
            message = f"{field} {factor.spec} blocks must hold numbers, not lists"
            raise ValueError(message)
        if isinstance(factor, SymMatrix):
            full = np.zeros((len(rows), factor.r, factor.r))
            iu, ju = np.triu_indices(factor.r)
            full[:, iu, ju] = packed
            full[:, ju, iu] = packed
            packed = full
        stacks.append(packed)
    return stacks


def _fields(instance: ScpInstance, metadata, constraints, b) -> dict:
    """An instance file's fields in file order, around these constraints and b."""
    alg = instance.algebra
    objective = _packed(alg, [blk[None] for blk in instance.objective.blocks])
    return {
        "schema_version": SCHEMA_VERSION,
        "algebra": alg.spec,
        "constraints": constraints,
        "b": b,
        "c": [p[0].tolist() for p in objective],
        "sense": list(instance.senses),
        "metadata": dict(metadata or {}),
    }


def instance_to_dict(instance: ScpInstance, metadata: dict[str, Any] | None = None) -> dict:
    rows = zip(*(p.tolist() for p in _packed(instance.algebra, instance.blocks)))
    return _fields(instance, metadata, [list(row) for row in rows], instance.scalars.tolist())


def instance_from_dict(data: dict) -> tuple[ScpInstance, dict[str, Any]]:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    missing = [f for f in _REQUIRED_FIELDS if f not in data]
    if missing:
        raise ValueError(f"instance is missing field(s): {', '.join(missing)}")
    spec, rows, senses = data["algebra"], data["constraints"], data["sense"]
    metadata = data.get("metadata", {})
    if not isinstance(spec, str):
        raise ValueError(f"algebra must be a spec string, got {type(spec).__name__}")
    if not isinstance(rows, _SEQUENCES):
        raise ValueError(f"constraints must be a list of rows, got {_describe(rows)}")
    if not len(rows):
        raise ValueError("an instance needs at least one constraint")
    if not isinstance(senses, _SEQUENCES):
        raise ValueError(f"sense must be a list, got {_describe(senses)}")
    if not isinstance(metadata, dict):
        raise ValueError(f"metadata must be an object, got {type(metadata).__name__}")
    try:
        scalars = np.array(data["b"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"b must be a list of numbers: {exc}") from None
    alg = AlgebraDescriptor.from_spec(spec)
    blocks = tuple(_read_rows(alg, rows, "constraint"))
    objective = [stacked[0] for stacked in _read_rows(alg, [data["c"]], "objective")]
    instance = ScpInstance(
        algebra=alg,
        blocks=blocks,
        scalars=scalars,
        objective=EjaElement(alg, objective),
        senses=tuple(senses),
    )
    return instance, dict(metadata)


def _json_list(items, depth: int) -> str:
    """``json.dumps(..., indent=1)`` of a nonempty list nested ``depth``
    levels deep, from the text of its items."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def save_instance(
    path: str | Path, instance: ScpInstance, metadata: dict[str, Any] | None = None
) -> None:
    """Write ``json.dumps(instance_to_dict(instance, metadata), indent=1)``
    and a newline.  json formats all but the constraints and ``b``: every
    row has the same lines, so one row's text with a ``%r`` per float (the
    repr json writes for a finite float) is repeated and filled at once."""
    packed = _packed(instance.algebra, instance.blocks)
    row = _json_list([_json_list(["%r"] * p.shape[1], 3) for p in packed], 2)
    floats = tuple(np.concatenate(packed, axis=1).ravel().tolist())
    constraints = _json_list([row] * instance.num_constraints, 1) % floats
    b = _json_list(map(float.__repr__, instance.scalars.tolist()), 1)
    fields = []
    for key, value in _fields(instance, metadata, constraints, b).items():
        if key not in ("constraints", "b"):
            value = json.dumps(value, indent=1).replace("\n", "\n ")
        fields.append(f" {json.dumps(key)}: {value}")
    Path(path).write_text("{\n" + ",\n".join(fields) + "\n}\n")


def load_instance(path: str | Path) -> tuple[ScpInstance, dict[str, Any]]:
    return instance_from_dict(json.loads(Path(path).read_text()))
