"""Canonical JSON and CSV forms for walks, operators, and reports.

The JSON emitter is deterministic: keys are sorted, floats are printed at 12
significant digits, complex numbers become ``[re, im]`` pairs, and matrices
become nested lists of such pairs.  Identical inputs therefore produce
byte-identical output.  Non-finite floats have no JSON representation and
are emitted as the strings ``"inf"``, ``"-inf"``, ``"nan"``.  A rectangular
grid of finite floats, such as a matrix, is formatted in one ``%`` call; its
text is the same as entry by entry.
"""

from __future__ import annotations

import enum
import json
import math
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import RelationViolation
from .finite import SweepRecord, TempleKatoCertificate, join_crossover
from .lattice import CellStructure, LatticeOperator, LocalSymmetryRep
from .symmetry import IndexValue, SymmetryClass, SymmetryRep
from .tolerances import DEFAULT_TOL, Tolerances
from .walks import CoinFactor, ShiftFactor, TIWalk, build_lattice, builtin_walk, truncate_ti

__all__ = [
    "dumps_canonical",
    "matrix_to_json",
    "matrix_from_json",
    "rep_to_json",
    "rep_from_json",
    "cells_to_json",
    "cells_from_json",
    "lattice_operator_to_json",
    "lattice_operator_from_json",
    "tiwalk_to_json",
    "tiwalk_from_json",
    "walk_from_spec",
    "operator_from_spec",
    "index_value_to_json",
    "certificate_to_json",
    "sweep_csv",
]


# -- canonical JSON ----------------------------------------------------------------


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        return json.dumps(str(x))
    text = format(float(x), ".12g")
    # "%.12g" of an integral value has no decimal point; that is still a
    # valid JSON number and stays stable across runs
    return text


def _float_grid(obj: list) -> str | None:
    """The text of a rectangular nest of exact lists of finite floats, else None."""
    dims = []
    level = [obj]
    while True:
        lengths = set(map(len, level))
        if len(lengths) != 1:
            return None
        dims.append(lengths.pop())
        level = list(chain.from_iterable(level))
        kinds = set(map(type, level))
        if kinds != {list}:
            break
    # a float sum is finite only if every term is; an overflow merely falls back
    if kinds != {float} or not math.isfinite(sum(level)):
        return None
    template = "%.12g"
    for n in reversed(dims):
        template = "[" + ",".join([template] * n) + "]"
    return template % tuple(level)


def _encode(obj) -> str:
    # matrices arrive as nested lists of float pairs: a rectangular grid of
    # finite floats takes one C-level "%" call ("%.12g" % x is format(x, ".12g"),
    # so the text is unchanged); other exact types are tested before the slower
    # abstract-base-class checks
    kind = type(obj)
    if kind is list and (text := _float_grid(obj)) is not None:
        return text
    if kind is float:
        return _float_text(obj)
    if kind is list or kind is tuple:
        return "[" + ",".join([_encode(v) for v in obj]) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, enum.Enum):
        return _encode(obj.value)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_float_text(obj.real)},{_float_text(obj.imag)}]"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, Mapping):
        items = sorted(((str(k), v) for k, v in obj.items()), key=lambda kv: kv[0])
        body = ",".join(f"{json.dumps(k)}:{_encode(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, Sequence):
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic compact JSON: sorted keys, 12-significant-digit floats."""
    return _encode(obj)


# -- matrices and representations --------------------------------------------------


def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists with every entry as an ``[re, im]`` pair."""
    arr = np.asarray(m, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError("matrix entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def rep_to_json(rep: SymmetryRep) -> dict:
    return {
        "class": rep.cls.value,
        "dim": rep.dim,
        "operators": {
            name: {"matrix": matrix_to_json(op.matrix), "antiunitary": op.antiunitary}
            for name, op in sorted(rep.ops.items())
        },
    }


def rep_from_json(data: Mapping, tol: Tolerances = DEFAULT_TOL) -> SymmetryRep:
    """Read a representation and validate its class relations (``RelationViolation``)."""
    try:
        cls = SymmetryClass(data["class"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"unknown symmetry class in rep: {exc}") from exc
    ops = data.get("operators", {})
    mats = {name: matrix_from_json(entry["matrix"]) for name, entry in ops.items()}
    unknown = set(mats) - {"eta", "tau", "gamma"}
    if unknown:
        raise ValueError(f"unknown symmetry operators {sorted(unknown)}")
    rep = SymmetryRep.from_matrices(cls, int(data["dim"]), **mats)
    for name, entry in ops.items():
        if "antiunitary" in entry and bool(entry["antiunitary"]) != rep.ops[name].antiunitary:
            raise ValueError(f"operator {name} has the wrong antiunitarity flag")
    rep.validate(tol)
    return rep


# -- lattice operators --------------------------------------------------------------


def cells_to_json(cells: CellStructure) -> dict:
    return {
        "cell_dims": list(cells.cell_dims),
        "topology": cells.topology,
        "x_min": cells.x_min,
        "proxy_ends": sorted(cells.proxy_ends),
    }


def cells_from_json(data: Mapping) -> CellStructure:
    return CellStructure(
        tuple(int(d) for d in data["cell_dims"]),
        str(data.get("topology", "line")),
        int(data.get("x_min", 0)),
        frozenset(data.get("proxy_ends", ())),
    )


def lattice_operator_to_json(op: LatticeOperator) -> dict:
    """An ``explicit`` walk spec: readable back by :func:`walk_from_spec`."""
    out = {
        "type": "explicit",
        "matrix": matrix_to_json(op.matrix),
        "cells": cells_to_json(op.cells),
        "band": op.band,
        "meta": dict(op.meta),
    }
    if op.local_rep is not None:
        out["local_rep"] = {
            "class": op.local_rep.cls.value,
            "per_cell": [rep_to_json(r) for r in op.local_rep.per_cell],
        }
    return out


def lattice_operator_from_json(data: Mapping, tol: Tolerances = DEFAULT_TOL) -> LatticeOperator:
    """Read a stored operator; its per-cell reps must be valid and of the declared class."""
    cells = cells_from_json(data["cells"])
    local = None
    if data.get("local_rep") is not None:
        entry = data["local_rep"]
        # stored lattices repeat one cell rep; read and validate each distinct entry once
        distinct: dict[str, SymmetryRep] = {}
        per_cell = []
        for r in entry["per_cell"]:
            key = json.dumps(r, sort_keys=True)
            if key not in distinct:
                distinct[key] = rep_from_json(r, tol)
            per_cell.append(distinct[key])
        cls = SymmetryClass(entry["class"])
        other = sorted({r.cls.value for r in distinct.values()} - {cls.value})
        if other:
            raise RelationViolation(
                f"local_rep class {cls.value} disagrees with per-cell class(es) {other}"
            )
        local = LocalSymmetryRep(cls, tuple(per_cell))
    return LatticeOperator(
        matrix_from_json(data["matrix"]),
        cells,
        int(data["band"]),
        local,
        dict(data.get("meta", {})),
    )


# -- walk specs ---------------------------------------------------------------------


def _factor_to_json(f) -> dict:
    if isinstance(f, ShiftFactor):
        return {"kind": "shift", "components": list(f.components), "step": f.step}
    return {"kind": "coin", "matrix": matrix_to_json(f.matrix)}


def _factor_from_json(data: Mapping):
    if data["kind"] == "shift":
        return ShiftFactor(tuple(int(c) for c in data["components"]), int(data["step"]))
    if data["kind"] == "coin":
        return CoinFactor(matrix_from_json(data["matrix"]))
    raise ValueError(f"unknown factor kind {data['kind']!r}")


def tiwalk_to_json(ti: TIWalk) -> dict:
    out = {
        "type": "ti",
        "name": ti.name,
        "class": ti.cls.value,
        "cell_dim": ti.cell_dim,
        "blocks": {str(off): matrix_to_json(b) for off, b in sorted(ti.blocks.items())},
        "rep": rep_to_json(ti.cell_rep),
        "coin_params": dict(ti.params),
    }
    if ti.factors is not None:
        out["factors"] = [_factor_to_json(f) for f in ti.factors]
    return out


def tiwalk_from_json(data: Mapping, tol: Tolerances = DEFAULT_TOL) -> TIWalk:
    if "builtin" in data:
        return builtin_walk(data["builtin"], **data.get("coin_params", {}))
    if "blocks" not in data:
        raise ValueError("a ti walk spec needs either 'builtin' or 'blocks'")
    if "rep" not in data:
        raise ValueError("a ti walk spec with explicit blocks needs 'rep'")
    rep = rep_from_json(data["rep"], tol)
    blocks = {int(off): matrix_from_json(b) for off, b in data["blocks"].items()}
    factors = None
    if data.get("factors") is not None:
        factors = tuple(_factor_from_json(f) for f in data["factors"])
    return TIWalk(
        str(data.get("name", "explicit_ti")),
        rep.cls,
        int(data.get("cell_dim", rep.dim)),
        blocks,
        rep,
        factors,
        dict(data.get("coin_params", {})),
    )


def walk_from_spec(data: Mapping, tol: Tolerances = DEFAULT_TOL):
    """Parse a walk spec into a ``TIWalk`` or ``LatticeOperator``.

    ``type`` selects: ``ti`` (translation invariant, optionally realized by
    ``geometry``), ``explicit`` (a stored lattice operator), or ``join`` (two
    bulks on one finite lattice).
    """
    if not isinstance(data, Mapping):
        raise ValueError("walk spec must be a JSON object")
    kind = data.get("type")
    if kind == "ti":
        return tiwalk_from_json(data, tol)
    if kind == "explicit":
        return lattice_operator_from_json(data, tol)
    if kind == "join":
        geometry = data.get("geometry", {})
        left = tiwalk_from_json(data["left"], tol)
        right = tiwalk_from_json(data["right"], tol)
        return join_crossover(
            left,
            right,
            int(geometry["n_left"]),
            int(geometry["n_right"]),
            str(geometry.get("topology", "circle")),
            tol,
        )
    raise ValueError(f"walk spec type must be ti, explicit, or join, got {kind!r}")


def operator_from_spec(data: Mapping, tol: Tolerances = DEFAULT_TOL) -> LatticeOperator:
    """Parse a walk spec and realize it as a finite lattice operator.

    A ``ti`` spec is realized on its ``geometry``: ``n_cells`` plus
    ``topology`` (circle or line) and, for a line, ``boundary``
    (``compress`` or ``decoupled_unitary``).
    """
    obj = walk_from_spec(data, tol)
    if isinstance(obj, LatticeOperator):
        return obj
    geometry = data.get("geometry")
    if not geometry or "n_cells" not in geometry:
        raise ValueError("a ti spec needs geometry.n_cells to become a finite operator")
    n = int(geometry["n_cells"])
    topology = str(geometry.get("topology", "line"))
    if topology == "circle":
        return build_lattice(obj, n, "circle", tol)
    if topology != "line":
        raise ValueError(f"geometry.topology must be 'circle' or 'line', got {topology!r}")
    boundary = str(geometry.get("boundary", "compress"))
    return truncate_ti(obj, n, boundary, tol)


# -- reports ------------------------------------------------------------------------


def index_value_to_json(value: IndexValue) -> dict:
    return {"group": value.group.label, "value": int(value.value)}


def certificate_to_json(cert: TempleKatoCertificate) -> dict:
    return {
        "k": cert.k,
        "theta": complex(cert.theta),
        "eps1": cert.eps1,
        "eps2": cert.eps2,
        "r_min": cert.r_min,
        "valid": cert.valid,
    }


SWEEP_CSV_COLUMNS = (
    "n_A",
    "n_B",
    "delta",
    "count_near_plus",
    "count_near_minus",
    "max_localization_radius",
)


def sweep_csv(records: Sequence[SweepRecord]) -> str:
    """Stable-header CSV, one line per sweep record, in input order."""
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for rec in records:
        row = rec.as_row()
        lines.append(
            ",".join(
                format(row[c], ".12g") if isinstance(row[c], float) else str(row[c])
                for c in SWEEP_CSV_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"
