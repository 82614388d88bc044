"""Canonical JSON and CSV forms for walks, operators, and reports.

Reports use the canonical emitter: keys are sorted, floats are printed at
12 significant digits, complex numbers become ``[re, im]`` pairs, and
matrices become nested lists of such pairs.  Identical inputs therefore
produce byte-identical output.  Non-finite floats have no JSON
representation and are emitted as the strings ``"inf"``, ``"-inf"``,
``"nan"``.

Stored operators (:func:`dumps_operator`) are the block stacks they hold
in memory within their band, with ``repr`` floats, which read back bit for
bit, and their cell reps once per run of cells.  Reading one builds the
stacks without placing its matrix.
"""

from __future__ import annotations

import enum
import json
import math
from typing import Mapping, Sequence

import numpy as np

from .errors import IncompatibleCells, RelationViolation
from .finite import SweepRecord, TempleKatoCertificate, join_crossover
from .lattice import CellStructure, LatticeOperator, LocalSymmetryRep, assemble_blocks, matrix_blocks
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
    "dumps_operator",
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


def _encode(obj) -> str:
    # exact types are tested before the slower abstract-base-class checks
    kind = type(obj)
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
    """The complex array of nested ``[re, im]`` pairs, each float as read."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError("matrix entries must be [re, im] pairs")
    return np.ascontiguousarray(arr).view(complex)[..., 0]


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
    dim = _integer(data["dim"], "rep dim")
    # the operators of a zero-dimensional cell are written as []
    mats = {
        name: matrix_from_json(entry["matrix"]) if dim else np.zeros((0, 0), dtype=complex)
        for name, entry in ops.items()
    }
    unknown = set(mats) - {"eta", "tau", "gamma"}
    if unknown:
        raise ValueError(f"unknown symmetry operators {sorted(unknown)}")
    rep = SymmetryRep.from_matrices(cls, dim, **mats)
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


def _integer(value, name: str) -> int:
    """An integer field of a spec or a stored operator; a bool, a float (even
    an integral one) or any other type is refused (exit 1), not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def cells_from_json(data: Mapping) -> CellStructure:
    dims = tuple(data["cell_dims"])
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 0 for d in dims):
        raise IncompatibleCells(f"cell dimensions must be integers >= 0, got {list(dims)}")
    return CellStructure(
        tuple(int(d) for d in dims),
        str(data.get("topology", "line")),
        _integer(data.get("x_min", 0), "x_min"),
        frozenset(data.get("proxy_ends", ())),
    )


def _plain(obj):
    """``obj`` as JSON data: string keys, lists for tuples and arrays, Python scalars."""
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return _plain(obj.value)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def lattice_operator_to_json(op: LatticeOperator, tol: Tolerances = DEFAULT_TOL) -> dict:
    """An ``explicit`` walk spec of the operator's cell band, readable back by
    :func:`walk_from_spec`.

    ``blocks[j]`` is the operator's ``(n, d, d)`` stack of the blocks (cell
    x + j <- cell x) for |j| <= band (see
    :class:`~walkindex.lattice.LatticeOperator`); mixed or zero-dimensional
    cells, and a lattice of at most 4 band cells, are one block holding the
    whole matrix (:class:`~walkindex.lattice.CellBand`).
    Everything outside the band is dropped and its Frobenius norm written as
    ``offband``; a norm above ``tol.band`` raises ``IncompatibleCells``.  The
    cell reps are written once per run of cells, as ``[cell count, rep]``.
    """
    cb = op.cell_band
    if cb.offband > tol.band:
        raise IncompatibleCells(
            f"declared band {op.band} drops off-band entries of norm {cb.offband:.3e} > {tol.band}"
        )
    if cb.n_cells == 1:
        stacks = {0: cb.blocks[0]}
    else:
        zero = np.zeros((cb.n_cells, cb.cell_dim, cb.cell_dim), dtype=complex)
        stacks = {j: op.blocks.get(j, zero) for j in range(-op.band, op.band + 1)}
    out = {
        "type": "explicit",
        "cells": cells_to_json(op.cells),
        "band": op.band,
        "blocks": {str(j): matrix_to_json(stack) for j, stack in stacks.items()},
        "offband": cb.offband,
        "meta": _plain(op.meta),
    }
    if op.local_rep is not None:
        out["local_rep"] = {
            "class": op.local_rep.cls.value,
            "runs": [[count, rep_to_json(rep)] for _, count, rep in op.local_rep.runs()],
        }
    return out


def dumps_operator(op: LatticeOperator, tol: Tolerances = DEFAULT_TOL) -> str:
    """The text of :func:`lattice_operator_to_json`: compact, sorted keys, and
    ``repr`` floats, so every stored entry reads back bit for bit."""
    payload = lattice_operator_to_json(op, tol)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _blocks_from_json(data: Mapping, cells: CellStructure) -> dict[int, np.ndarray]:
    """The stacks of a stored operator (see :func:`lattice_operator_to_json`) as
    a :class:`~walkindex.lattice.LatticeOperator` holds them; one stored block
    is split by offset."""
    stacks = {int(j): matrix_from_json(stack) for j, stack in data.items()}
    total = cells.total_dim
    if stacks.keys() == {0} and stacks[0].shape == (1, total, total):
        return matrix_blocks(stacks[0][0], cells)
    uniform = len(set(cells.cell_dims)) == 1
    shape = (cells.n_cells, cells.cell_dims[0], cells.cell_dims[0])
    for j, stack in stacks.items():
        if not uniform or stack.shape != shape:
            want = f"{shape} stacks or " if uniform else ""
            raise IncompatibleCells(
                f"blocks at offset {j} have shape {stack.shape}; "
                f"these cells take {want}one {(1, total, total)} block"
            )
    if cells.one_block:  # zero-dimensional cells
        return {0: np.zeros((1, 0, 0), dtype=complex)}
    return assemble_blocks(cells, ((j, 0, stack) for j, stack in stacks.items()))


def _local_rep_from_json(data: Mapping, cells: CellStructure, tol: Tolerances) -> LocalSymmetryRep:
    """Cell reps from ``[cell count, rep]`` runs, each rep read and validated once."""
    cls = SymmetryClass(data["class"])
    n = cells.n_cells
    runs = data["runs"]
    per_cell: list[SymmetryRep] = []
    for k, (count, entry) in enumerate(runs):
        first, count = len(per_cell), _integer(count, f"local_rep run {k} count")
        if count < 1 or first + count > n:
            raise IncompatibleCells(
                f"local_rep run {k} of {count} cells from cell {first} does not fit in {n} cells"
            )
        rep = rep_from_json(entry, tol)
        dims = sorted(set(cells.cell_dims[first : first + count]))
        if dims != [rep.dim]:
            raise IncompatibleCells(
                f"local_rep run {k} (cells {first}..{first + count - 1}) has rep dim {rep.dim}, "
                f"its cells dim {dims}"
            )
        if rep.cls is not cls:
            raise RelationViolation(
                f"local_rep class {cls.value} disagrees with per-cell class(es) "
                f"{[rep.cls.value]} of run {k}"
            )
        per_cell += [rep] * count
    if len(per_cell) != n:
        raise IncompatibleCells(
            f"local_rep runs cover {len(per_cell)} of {n} cells: run {len(runs) - 1} "
            f"ends at cell {len(per_cell) - 1}"
        )
    return LocalSymmetryRep(cls, tuple(per_cell))


def lattice_operator_from_json(data: Mapping, tol: Tolerances = DEFAULT_TOL) -> LatticeOperator:
    """Read a stored operator; its run reps must be valid, of the declared class,
    and fit their cells.  Every stored offset is kept, whatever the declared band."""
    cells = cells_from_json(data["cells"])
    local = None
    if data.get("local_rep") is not None:
        local = _local_rep_from_json(data["local_rep"], cells, tol)
    return LatticeOperator(
        _blocks_from_json(data["blocks"], cells),
        cells,
        _integer(data["band"], "band"),
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
        components = tuple(_integer(c, "shift component") for c in data["components"])
        return ShiftFactor(components, _integer(data["step"], "shift step"))
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
        _integer(data.get("cell_dim", rep.dim), "cell_dim"),
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
            _integer(geometry["n_left"], "geometry.n_left"),
            _integer(geometry["n_right"], "geometry.n_right"),
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
    n = _integer(geometry["n_cells"], "geometry.n_cells")
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
