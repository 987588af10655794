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
    "pack_element",
    "unpack_element",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
]

SCHEMA_VERSION = 1


def pack_element(x: EjaElement) -> list[list[float]]:
    """Per-factor block lists; symmetric blocks packed upper-triangular."""
    packed = []
    for factor, block in zip(x.algebra.factors, x.blocks):
        if isinstance(factor, SymMatrix):
            iu, ju = np.triu_indices(factor.r)
            packed.append(block[iu, ju].tolist())
        else:
            packed.append(block.tolist())
    return packed


def unpack_element(alg: AlgebraDescriptor, packed: list[list[float]]) -> EjaElement:
    if not isinstance(packed, _SEQUENCES) or len(packed) != len(alg.factors):
        raise ValueError(
            f"expected a list of {len(alg.factors)} blocks, got {_describe(packed)}"
        )
    blocks = []
    for factor, data in zip(alg.factors, packed):
        arr = np.asarray(data, dtype=float)
        if isinstance(factor, SymMatrix):
            expected = factor.r * (factor.r + 1) // 2
            if arr.shape != (expected,):
                raise ValueError(
                    f"packed symmetric block needs {expected} entries, got {arr.shape}"
                )
            m = np.zeros((factor.r, factor.r))
            iu, ju = np.triu_indices(factor.r)
            m[iu, ju] = arr
            m[ju, iu] = arr
            blocks.append(m)
        else:
            blocks.append(arr)
    return EjaElement(alg, blocks)


def instance_to_dict(instance: ScpInstance, metadata: dict[str, Any] | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "algebra": instance.algebra.spec,
        "constraints": [pack_element(a) for a in instance.constraints],
        "b": instance.scalars.tolist(),
        "c": pack_element(instance.objective),
        "sense": list(instance.senses),
        "metadata": dict(metadata or {}),
    }


_REQUIRED_FIELDS = ("algebra", "constraints", "b", "c", "sense")
_SEQUENCES = (list, tuple, np.ndarray)


def _describe(value) -> str:
    if isinstance(value, _SEQUENCES):
        return f"{len(value)}"
    return type(value).__name__


def _constraint_stacks(alg: AlgebraDescriptor, rows) -> list[np.ndarray]:
    """Each factor's blocks over all constraint rows as one (m, ...) array.

    Every row's block count and packed lengths are checked first, so a
    malformed file names its first bad row; then each factor is read with
    one ``np.array`` and symmetric blocks are unpacked with one scatter.
    """
    if not isinstance(rows, _SEQUENCES):
        raise ValueError(f"constraints must be a list of rows, got {_describe(rows)}")
    if not len(rows):
        raise ValueError("an instance needs at least one constraint")
    sizes = [f.dim for f in alg.factors]  # packed length of each block
    for i, row in enumerate(rows):
        if not isinstance(row, _SEQUENCES) or len(row) != len(sizes):
            raise ValueError(
                f"constraint row {i}: expected a list of {len(sizes)} blocks, "
                f"got {_describe(row)}"
            )
        for factor, size, block in zip(alg.factors, sizes, row):
            if not isinstance(block, _SEQUENCES) or len(block) != size:
                raise ValueError(
                    f"constraint row {i}: packed {factor.spec} block needs "
                    f"{size} entries, got {_describe(block)}"
                )
    stacks = []
    for j, (factor, size) in enumerate(zip(alg.factors, sizes)):
        try:
            packed = np.array([row[j] for row in rows], dtype=float)
        except (TypeError, ValueError) as exc:
            message = f"constraint {factor.spec} blocks must hold numbers: {exc}"
            raise ValueError(message) from None
        if packed.shape != (len(rows), size):
            message = f"constraint {factor.spec} blocks must hold numbers, not lists"
            raise ValueError(message)
        if isinstance(factor, SymMatrix):
            full = np.zeros((len(rows), factor.r, factor.r))
            iu, ju = np.triu_indices(factor.r)
            full[:, iu, ju] = packed
            full[:, ju, iu] = packed
            packed = full
        stacks.append(packed)
    return stacks


def instance_from_dict(data: dict) -> tuple[ScpInstance, dict[str, Any]]:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    missing = [f for f in _REQUIRED_FIELDS if f not in data]
    if missing:
        raise ValueError(f"instance is missing field(s): {', '.join(missing)}")
    alg = AlgebraDescriptor.from_spec(data["algebra"])
    stacks = _constraint_stacks(alg, data["constraints"])
    constraints = tuple(EjaElement(alg, blocks) for blocks in zip(*stacks))
    objective = unpack_element(alg, data["c"])
    instance = ScpInstance(
        algebra=alg,
        constraints=constraints,
        scalars=np.asarray(data["b"], dtype=float),
        objective=objective,
        senses=tuple(data["sense"]),
    )
    return instance, dict(data.get("metadata", {}))


def save_instance(
    path: str | Path, instance: ScpInstance, metadata: dict[str, Any] | None = None
) -> None:
    payload = instance_to_dict(instance, metadata)
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_instance(path: str | Path) -> tuple[ScpInstance, dict[str, Any]]:
    return instance_from_dict(json.loads(Path(path).read_text()))
