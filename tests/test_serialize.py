"""Canonical JSON / CSV forms: determinism, round trips, spec parsing."""

import copy
import json

import numpy as np
import pytest

from helpers import dense_rep, reference_dumps, rng
from walkindex import serialize
from walkindex.errors import IncompatibleCells
from walkindex.finite import SweepRecord, temple_kato
from walkindex.lattice import CellStructure, LatticeOperator
from walkindex.serialize import (
    SWEEP_CSV_COLUMNS,
    cells_from_json,
    cells_to_json,
    certificate_to_json,
    dumps_canonical,
    index_value_to_json,
    lattice_operator_from_json,
    lattice_operator_to_json,
    matrix_from_json,
    matrix_to_json,
    operator_from_spec,
    rep_from_json,
    rep_to_json,
    sweep_csv,
    tiwalk_from_json,
    tiwalk_to_json,
    walk_from_spec,
)
from walkindex.symmetry import SymmetryClass, SymmetryRep
from walkindex.tolerances import DEFAULT_TOL
from walkindex.walks import (
    build_lattice,
    make_doubled,
    make_generating_example,
    make_shift,
    make_split_step,
    make_trivial,
    truncate_ti,
    winding_number,
)

RNG = np.random.default_rng(20260815)


# -- canonical JSON ------------------------------------------------------------------


def test_canonical_json_is_deterministic_and_sorted():
    payload = {"beta": 1.0 / 3.0, "alpha": [1 + 2j, True, None], "n": 7}
    text = dumps_canonical(payload)
    assert text == dumps_canonical(dict(reversed(list(payload.items()))))
    assert text == '{"alpha":[[1,2],true,null],"beta":0.333333333333,"n":7}'
    json.loads(text)


def test_canonical_json_twelve_significant_digits():
    assert dumps_canonical(np.pi) == "3.14159265359"
    assert dumps_canonical(1e-30) == "1e-30"
    assert dumps_canonical(-17.0) == "-17"
    assert dumps_canonical(0.1 + 0.2) == "0.3"


def test_canonical_json_non_finite_floats_are_quoted():
    assert dumps_canonical(float("inf")) == '"inf"'
    assert dumps_canonical(float("-inf")) == '"-inf"'
    assert dumps_canonical(float("nan")) == '"nan"'
    json.loads(dumps_canonical({"delta": float("-inf")}))


def test_canonical_json_numpy_scalars_and_arrays():
    assert dumps_canonical(np.int64(5)) == "5"
    assert dumps_canonical(np.float64(2.5)) == "2.5"
    assert dumps_canonical(np.complex128(1 - 1j)) == "[1,-1]"
    assert dumps_canonical(np.arange(3)) == "[0,1,2]"


def test_canonical_json_enum_uses_value():
    assert dumps_canonical(SymmetryClass.AIII) == '"AIII"'


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_canonical(object())


_SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e-300, 1e300)


def _random_float(gen) -> float:
    if gen.random() < 0.3:
        return _SPECIAL_FLOATS[gen.integers(len(_SPECIAL_FLOATS))]
    return float(gen.normal() * 10.0 ** gen.integers(-20, 20))


def _random_leaf(gen):
    choice = gen.integers(9)
    if choice == 0:
        return _random_float(gen)
    if choice == 1:
        return np.float64(_random_float(gen))
    if choice == 2:
        return np.complex128(complex(_random_float(gen), _random_float(gen)))
    if choice == 3:
        return complex(_random_float(gen), _random_float(gen))
    if choice == 4:
        return [1.0, True, None, 3, np.int64(-4), "x"]
    if choice == 5:
        return SymmetryClass.BDI
    if choice == 6:
        return [_random_float(gen) for _ in range(gen.integers(0, 5))]
    if choice == 7:
        return tuple(_random_float(gen) for _ in range(gen.integers(0, 5)))
    n = int(gen.integers(1, 5))
    m = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    m.flat[gen.integers(n * n)] = complex(_random_float(gen), _random_float(gen))
    return matrix_to_json(m)


def _random_payload(gen, depth: int = 0):
    if depth >= 3 or gen.random() < 0.3:
        return _random_leaf(gen)
    children = [_random_payload(gen, depth + 1) for _ in range(gen.integers(0, 4))]
    shape = gen.integers(3)
    if shape == 0:
        return children
    if shape == 1:
        return tuple(children)
    keys = [7, "b", SymmetryClass.AIII, 2.5, "a", (1, 2)]
    return {keys[k]: child for k, child in zip(gen.permutation(len(keys)), children)}


@pytest.mark.parametrize("seed", range(30))
def test_canonical_json_matches_reference_encoder(seed):
    payload = _random_payload(rng(3000 + seed))
    assert dumps_canonical(payload) == reference_dumps(payload)


def test_canonical_json_matrices_match_reference_encoder():
    gen = rng(7)
    m = gen.normal(size=(24, 24)) + 1j * gen.normal(size=(24, 24))
    m[0, :8] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-300, complex(-0.0, np.nan), 0.0]
    payload = {"matrix": matrix_to_json(m), "empty": [], "nested": [[], [[]]]}
    assert dumps_canonical(payload) == reference_dumps(payload)


def _grid(*shape, seed: int = 11) -> list:
    gen = rng(seed)
    return (gen.normal(size=shape) * 10.0 ** gen.integers(-20, 20, size=shape)).tolist()


def _with(grid: list, path: tuple, value) -> list:
    """A deep copy of ``grid`` with the entry at ``path`` replaced (``...`` drops it)."""
    out = copy.deepcopy(grid)
    parent = out
    for i in path[:-1]:
        parent = parent[i]
    if value is ...:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


# (payload, whether it is one rectangular grid of finite floats)
GRID_CASES = {
    "empty": ([], False),
    "empty_row": ([[]], False),
    "empty_rows": ([[], []], False),
    "one_by_one": ([[0.5]], True),
    "flat": (_grid(5), True),
    "3x4x2": (_grid(3, 4, 2), True),
    "depth4": (_grid(2, 3, 2, 2), True),
    "matrix": (matrix_to_json(np.array(_grid(6, 6)) + 1j * np.array(_grid(6, 6, seed=12))), True),
    "tiny_and_huge": (_with(_with(_with(_grid(3, 4, 2), (0, 0, 0), -0.0), (1, 2, 1), 5e-324),
                            (2, 3, 0), 1e300), True),
    "nan": (_with(_grid(3, 4, 2), (1, 1, 0), float("nan")), False),
    "inf": (_with(_grid(3, 4, 2), (2, 3, 1), float("inf")), False),
    "minus_inf": (_with(_grid(2, 3, 2, 2), (0, 0, 0, 0), float("-inf")), False),
    "overflowing_sum": ([[1e308, 1e308], [-1e308, 5.0]], False),
    "bool": (_with(_grid(3, 4, 2), (0, 1, 1), True), False),
    "int": (_with(_grid(3, 4, 2), (2, 0, 0), 3), False),
    "np_float64": (_with(_grid(3, 4, 2), (1, 3, 1), np.float64(2.5)), False),
    "none": (_with(_grid(3, 4, 2), (0, 0, 1), None), False),
    "str": (_with(_grid(3, 4, 2), (2, 2, 0), "x"), False),
    "float_beside_lists": (_with(_grid(3, 4, 2), (1,), 0.25), False),
    "ragged_depth1": (_with(_grid(3, 4, 2), (1, 0), ...), False),
    "ragged_depth2": (_with(_grid(3, 4, 2), (2, 3, 1), ...), False),
    "ragged_depth3": (_with(_grid(2, 3, 2, 2), (1, 2, 0, 1), ...), False),
    "row_of_empties": (_with(_grid(3, 4, 2), (0,), []), False),
    "tuple_pairs": ([(1.5, -2.0), (3.0, 4.25)], False),
    "tuple_row": ([[0.5, 1.0], (0.5, 1.0)], False),
}


@pytest.mark.parametrize("name", GRID_CASES)
def test_float_grids_match_reference_encoder(name):
    payload, one_call = GRID_CASES[name]
    assert (serialize._float_grid(payload) is not None) == one_call
    for wrapped in (payload, {"grid": payload, "rows": [payload, payload]}, (payload, 1.0)):
        assert dumps_canonical(wrapped) == reference_dumps(wrapped)


def test_payloads_are_plain_json_data():
    # every *_to_json returns lists, dicts and scalars that compare equal after a
    # JSON round trip; an operator's meta keeps the walk's own tuples, which come
    # back as lists, so it is only dumped
    bulk = {"type": "ti", "builtin": "split_step"}
    join = walk_from_spec(
        {
            "type": "join",
            "left": {**bulk, "coin_params": {"theta1": 0.9, "theta2": 0.2}},
            "right": {**bulk, "coin_params": {"theta1": -0.9, "theta2": 0.2}},
            "geometry": {"n_left": 4, "n_right": 4, "topology": "line"},
        }
    )
    doubled = make_doubled("CII")
    payloads = {
        "circle": lattice_operator_to_json(build_lattice(make_split_step(1.1, 0.3), 6, "circle")),
        "line_join": lattice_operator_to_json(join),
        "decoupled_line": lattice_operator_to_json(
            truncate_ti(make_generating_example(), 8, "decoupled_unitary")
        ),
        "tiwalk": tiwalk_to_json(make_split_step(1.1, 0.3)),
        "tiwalk_doubled": tiwalk_to_json(doubled),
        "rep": rep_to_json(doubled.cell_rep),
    }
    for name, payload in payloads.items():
        json.dumps(payload.pop("meta", {}))
        assert json.loads(json.dumps(payload)) == payload, name


# -- matrices ------------------------------------------------------------------------


def test_matrix_round_trip_is_exact():
    m = RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5))
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)


def test_matrix_round_trip_through_text():
    m = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    back = matrix_from_json(json.loads(dumps_canonical(matrix_to_json(m))))
    assert np.max(np.abs(back - m)) < 1e-11 * np.max(np.abs(m))


def test_matrix_from_json_rejects_bad_pairs():
    with pytest.raises(ValueError):
        matrix_from_json([[1.0, 2.0, 3.0]])


# -- representations -----------------------------------------------------------------


def test_rep_round_trip():
    rep = make_generating_example().cell_rep
    back = rep_from_json(rep_to_json(rep))
    assert back.cls is rep.cls
    assert back.dim == rep.dim
    assert set(back.ops) == set(rep.ops)
    for name, op in rep.ops.items():
        assert np.allclose(back.ops[name].matrix, op.matrix)
        assert back.ops[name].antiunitary == op.antiunitary


def test_rep_round_trip_without_operators():
    rep = SymmetryRep.from_matrices(SymmetryClass.A, 3)
    back = rep_from_json(rep_to_json(rep))
    assert back.cls is SymmetryClass.A and back.dim == 3 and not back.ops


def test_rep_from_json_rejects_wrong_antiunitary_flag():
    data = rep_to_json(make_generating_example().cell_rep)
    data["operators"]["eta"]["antiunitary"] = False
    with pytest.raises(ValueError, match="antiunitarity"):
        rep_from_json(data)


def test_rep_from_json_rejects_unknown_operator():
    data = rep_to_json(make_generating_example().cell_rep)
    data["operators"]["sigma"] = data["operators"]["eta"]
    with pytest.raises(ValueError, match="unknown symmetry operators"):
        rep_from_json(data)


def test_rep_from_json_rejects_unknown_class():
    with pytest.raises(ValueError, match="unknown symmetry class"):
        rep_from_json({"class": "E8", "dim": 2, "operators": {}})


# -- lattice operators ---------------------------------------------------------------


def test_cells_round_trip():
    circle = CellStructure.uniform(6, 2, "circle")
    line = truncate_ti(make_generating_example(), 5).cells
    for cells in (circle, line):
        assert cells_from_json(cells_to_json(cells)) == cells


def test_lattice_operator_round_trip():
    op = build_lattice(make_generating_example(), 8)
    op.meta["note"] = {"cut": (3, np.int64(5))}
    back = lattice_operator_from_json(
        json.loads(dumps_canonical(lattice_operator_to_json(op)))
    )
    assert np.max(np.abs(back.matrix - op.matrix)) < 1e-11
    assert back.cells == op.cells
    assert back.band == op.band
    assert back.meta["note"] == {"cut": [3, 5]}
    assert back.local_rep is not None
    assert np.allclose(dense_rep(back).ops["eta"].matrix, dense_rep(op).ops["eta"].matrix)


def test_lattice_operator_round_trip_without_rep():
    op = build_lattice(make_generating_example(), 6)
    op = LatticeOperator(op.matrix, op.cells, op.band, None, {})
    back = lattice_operator_from_json(lattice_operator_to_json(op))
    assert back.local_rep is None
    assert np.array_equal(back.matrix, op.matrix)


# -- walk specs ----------------------------------------------------------------------


def test_tiwalk_round_trip_preserves_walk():
    for ti in (
        make_generating_example(),
        make_generating_example(True),
        make_split_step(0.3, -0.7),
        make_doubled("CII"),
        make_doubled("DIII"),
        make_trivial(),
        make_shift(),
    ):
        back = tiwalk_from_json(json.loads(dumps_canonical(tiwalk_to_json(ti))))
        assert back.cls is ti.cls and back.cell_dim == ti.cell_dim
        assert set(back.blocks) == set(ti.blocks)
        for off in ti.blocks:
            assert np.max(np.abs(back.blocks[off] - ti.blocks[off])) < 1e-11
        assert (back.factors is None) == (ti.factors is None)
        a = build_lattice(back, 6).matrix
        b = build_lattice(ti, 6).matrix
        assert np.max(np.abs(a - b)) < 1e-11


def test_builtin_specs_match_constructors():
    spec = {"type": "ti", "builtin": "split_step", "coin_params": {"theta1": 0.5, "theta2": -0.25}}
    ti = walk_from_spec(spec)
    ref = make_split_step(0.5, -0.25)
    for off in ref.blocks:
        assert np.array_equal(ti.blocks[off], ref.blocks[off])
    inv = walk_from_spec({"type": "ti", "builtin": "generating", "coin_params": {"inverse": True}})
    assert np.array_equal(
        build_lattice(inv, 4).matrix, build_lattice(make_generating_example(True), 4).matrix
    )


def test_explicit_blocks_spec_supports_invariants():
    data = tiwalk_to_json(make_doubled("CII"))
    data.pop("factors", None)
    ti = walk_from_spec(json.loads(dumps_canonical(data)))
    assert int(winding_number(ti).value) == 2


def test_join_spec_builds_crossover():
    spec = {
        "type": "join",
        "left": {"type": "ti", "builtin": "generating"},
        "right": {"type": "ti", "builtin": "generating"},
        "geometry": {"n_left": 4, "n_right": 4, "topology": "circle"},
    }
    op = walk_from_spec(spec)
    assert op.cells.n_cells == 8 and op.meta["interfaces"] == (0, 4)


def test_walk_from_spec_rejects_bad_input():
    with pytest.raises(ValueError, match="type must be"):
        walk_from_spec({"type": "matrix"})
    with pytest.raises(ValueError, match="unknown builtin"):
        walk_from_spec({"type": "ti", "builtin": "teleport"})
    with pytest.raises(ValueError, match="missing coin parameter"):
        walk_from_spec({"type": "ti", "builtin": "split_step"})
    with pytest.raises(ValueError, match="needs 'rep'"):
        walk_from_spec({"type": "ti", "blocks": {"0": matrix_to_json(np.eye(2))}})
    with pytest.raises(ValueError, match="'builtin' or 'blocks'"):
        walk_from_spec({"type": "ti"})


def test_operator_from_spec_geometries():
    gen = {"type": "ti", "builtin": "generating"}
    circle = operator_from_spec({**gen, "geometry": {"n_cells": 6, "topology": "circle"}})
    assert np.array_equal(circle.matrix, build_lattice(make_generating_example(), 6).matrix)
    line = operator_from_spec({**gen, "geometry": {"n_cells": 6, "topology": "line"}})
    assert np.array_equal(
        line.matrix, truncate_ti(make_generating_example(), 6, "compress").matrix
    )
    dec = operator_from_spec(
        {**gen, "geometry": {"n_cells": 6, "topology": "line", "boundary": "decoupled_unitary"}}
    )
    assert np.max(np.abs(dec.matrix.conj().T @ dec.matrix - np.eye(dec.dim))) < 1e-12


def test_operator_from_spec_passes_explicit_through():
    op = build_lattice(make_generating_example(), 5)
    data = json.loads(dumps_canonical(lattice_operator_to_json(op)))
    back = operator_from_spec({"type": "explicit", **data})
    assert np.max(np.abs(back.matrix - op.matrix)) < 1e-11


def test_operator_from_spec_rejects_missing_or_bad_geometry():
    gen = {"type": "ti", "builtin": "generating"}
    with pytest.raises(ValueError, match="geometry.n_cells"):
        operator_from_spec(gen)
    with pytest.raises(ValueError, match="topology"):
        operator_from_spec({**gen, "geometry": {"n_cells": 6, "topology": "torus"}})
    with pytest.raises(IncompatibleCells):
        walk_from_spec(
            {
                "type": "join",
                "left": gen,
                "right": {"type": "ti", "builtin": "shift"},
                "geometry": {"n_left": 4, "n_right": 4},
            }
        )


# -- reports -------------------------------------------------------------------------


def test_index_value_json_shape():
    gen = make_generating_example()
    report = winding_number(gen)
    assert index_value_to_json(report.value) == {"group": "Z", "value": 1}


def test_certificate_json_round_trips_through_text():
    u = np.diag(np.exp(1j * np.array([0.0, 0.4, 1.1])))
    cert = temple_kato(u, 1.0 + 0j, np.eye(3)[:, :1], DEFAULT_TOL)
    data = json.loads(dumps_canonical(certificate_to_json(cert)))
    assert data["k"] == 1 and data["valid"] is True
    assert data["theta"] == [1.0, 0.0]
    assert data["r_min"] <= 1e-9


def test_sweep_csv_golden_row():
    rec = SweepRecord(10, 20, -17.0374522936, (1 + 0j,), 2, 1, 4)
    text = sweep_csv([rec])
    assert text == (
        "n_A,n_B,delta,count_near_plus,count_near_minus,max_localization_radius\n"
        "10,20,-17.0374522936,2,1,4\n"
    )
    assert text == sweep_csv([rec])


def test_sweep_csv_header_only_when_empty():
    assert sweep_csv([]) == ",".join(SWEEP_CSV_COLUMNS) + "\n"


def test_sweep_csv_negative_infinity_delta():
    rec = SweepRecord(4, 4, float("-inf"), (), 0, 0, 0)
    assert sweep_csv([rec]).splitlines()[1] == "4,4,-inf,0,0,0"
