"""Canonical JSON / CSV forms: determinism, round trips, spec parsing."""

import copy
import json

import numpy as np
import pytest

from helpers import (
    TEN_CLASS_WALKS,
    check_stacks,
    dense_offband,
    dense_rep,
    dense_view,
    mixed_cell_walk,
    placed_ti,
    record_dense_inputs,
    reference_dumps,
    rng,
    stack_fuzz_cases,
    with_cell_bases,
)
from walkindex.errors import IncompatibleCells
from walkindex.finite import SweepRecord, temple_kato
from walkindex.lattice import CellStructure, LatticeOperator
from walkindex.serialize import (
    SWEEP_CSV_COLUMNS,
    cells_from_json,
    cells_to_json,
    certificate_to_json,
    dumps_canonical,
    dumps_operator,
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
    builtin_walk,
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


# rectangular grids of floats and the nests next to them
GRID_CASES = {
    "empty": [],
    "empty_row": [[]],
    "empty_rows": [[], []],
    "one_by_one": [[0.5]],
    "flat": _grid(5),
    "3x4x2": _grid(3, 4, 2),
    "depth4": _grid(2, 3, 2, 2),
    "matrix": matrix_to_json(np.array(_grid(6, 6)) + 1j * np.array(_grid(6, 6, seed=12))),
    "tiny_and_huge": _with(_with(_with(_grid(3, 4, 2), (0, 0, 0), -0.0), (1, 2, 1), 5e-324),
                           (2, 3, 0), 1e300),
    "nan": _with(_grid(3, 4, 2), (1, 1, 0), float("nan")),
    "inf": _with(_grid(3, 4, 2), (2, 3, 1), float("inf")),
    "minus_inf": _with(_grid(2, 3, 2, 2), (0, 0, 0, 0), float("-inf")),
    "overflowing_sum": [[1e308, 1e308], [-1e308, 5.0]],
    "bool": _with(_grid(3, 4, 2), (0, 1, 1), True),
    "int": _with(_grid(3, 4, 2), (2, 0, 0), 3),
    "np_float64": _with(_grid(3, 4, 2), (1, 3, 1), np.float64(2.5)),
    "none": _with(_grid(3, 4, 2), (0, 0, 1), None),
    "str": _with(_grid(3, 4, 2), (2, 2, 0), "x"),
    "float_beside_lists": _with(_grid(3, 4, 2), (1,), 0.25),
    "ragged_depth1": _with(_grid(3, 4, 2), (1, 0), ...),
    "ragged_depth2": _with(_grid(3, 4, 2), (2, 3, 1), ...),
    "ragged_depth3": _with(_grid(2, 3, 2, 2), (1, 2, 0, 1), ...),
    "row_of_empties": _with(_grid(3, 4, 2), (0,), []),
    "tuple_pairs": [(1.5, -2.0), (3.0, 4.25)],
    "tuple_row": [[0.5, 1.0], (0.5, 1.0)],
}


@pytest.mark.parametrize("name", GRID_CASES)
def test_float_grids_match_reference_encoder(name):
    payload = GRID_CASES[name]
    for wrapped in (payload, {"grid": payload, "rows": [payload, payload]}, (payload, 1.0)):
        assert dumps_canonical(wrapped) == reference_dumps(wrapped)


def test_payloads_are_plain_json_data():
    # every *_to_json returns lists, dicts and scalars that compare equal after a
    # JSON round trip, an operator's meta included
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


def _stored(op: LatticeOperator) -> LatticeOperator:
    """The operator written by :func:`dumps_operator` and read back."""
    return lattice_operator_from_json(json.loads(dumps_operator(op)))


def test_lattice_operator_round_trip():
    op = build_lattice(make_generating_example(), 8)
    op.meta["note"] = {"cut": (3, np.int64(5))}
    back = _stored(op)
    assert np.array_equal(back.matrix, op.matrix)
    assert back.cells == op.cells
    assert back.band == op.band
    assert back.meta["note"] == {"cut": [3, 5]}
    assert back.local_rep is not None
    assert np.allclose(dense_rep(back).ops["eta"].matrix, dense_rep(op).ops["eta"].matrix)


def test_lattice_operator_round_trip_without_rep():
    op = build_lattice(make_generating_example(), 6)
    op = LatticeOperator.from_matrix(op.matrix, op.cells, op.band, None, {})
    back = lattice_operator_from_json(lattice_operator_to_json(op))
    assert back.local_rep is None
    assert np.array_equal(back.matrix, op.matrix)


BUILTIN_SPECS = {
    "generating": {},
    "generating_inverse": {"inverse": True},
    "trivial": {},
    "shift": {},
    "split_step": {"theta1": 1.1, "theta2": -0.3},
    "doubled_cii": {"inverse": True},
    "doubled_diii": {},
}


@pytest.mark.parametrize("name", BUILTIN_SPECS)
def test_every_builtin_lattice_reads_back_bit_for_bit(name):
    ti = builtin_walk(name.removesuffix("_inverse"), **BUILTIN_SPECS[name])
    for n, topology in ((9, "circle"), (9, "line"), (3, "circle")):
        op = build_lattice(ti, n, topology)
        back = _stored(op)
        assert np.array_equal(back.matrix, op.matrix), (n, topology)
        assert back.cells == op.cells and back.band == op.band
        assert dense_offband(op) == 0.0
        assert dumps_operator(back) == dumps_operator(op)


def stored_fuzz_cases(cls, ti, gen):
    """Operators of one class: circles and lines in one run of cell reps or
    in a run per cell, a short circle (n <= 4b), a squared walk (band 2b),
    mixed and zero-dimensional cells, and rounding-size entries off the band."""
    b = ti.band
    n = int(gen.integers(4 * b + 1, 4 * b + 9))
    ring = build_lattice(ti, n, "circle")
    yield "circle", ring
    yield "circle by cell", with_cell_bases(ring, gen)
    yield "line by cell", with_cell_bases(build_lattice(ti, n, "line"), gen)
    yield "short circle", with_cell_bases(build_lattice(ti, int(gen.integers(2 * b + 1, 4 * b + 1)), "circle"), gen)
    long_ring = build_lattice(ti, int(gen.integers(8 * b + 1, 8 * b + 9)), "circle")
    yield "squared", LatticeOperator.from_matrix(long_ring.matrix @ long_ring.matrix, long_ring.cells, 2 * b, long_ring.local_rep)
    yield "mixed cells", mixed_cell_walk(cls, ti.cell_rep, gen)
    x = np.arange(n)
    dist = np.abs(x[:, None] - x[None, :])
    far = np.kron(np.minimum(dist, n - dist) > b, np.ones((ti.cell_dim, ti.cell_dim)))
    noise = (gen.normal(size=far.shape) + 1j * gen.normal(size=far.shape)) * far
    yield "off-band", LatticeOperator.from_matrix(ring.matrix + 1e-16 * noise, ring.cells, b, ring.local_rep)


def _kept(op: LatticeOperator, dense: np.ndarray) -> np.ndarray:
    """The dense oracle of a stored operator: ``dense`` within the band, or
    whole where the file holds one block."""
    cells = op.cells
    n = cells.n_cells
    if cells.one_block or n <= 4 * op.band:
        return dense
    x = np.arange(n)
    dist = np.abs(x[:, None] - x[None, :])
    if cells.topology == "circle":
        dist = np.minimum(dist, n - dist)
    return np.where(np.kron(dist <= op.band, np.ones((cells.cell_dims[0],) * 2)) > 0, dense, 0)


def test_stored_operators_match_the_dense_oracle_fuzz(monkeypatch):
    # within the band every entry reads back bit for bit; off it the file holds
    # zeros and records the norm of what it dropped.  Each operator and its
    # read-back hold their dense oracles (check_stacks), also for the ways an
    # operator is built, cut, decoupled and joined
    gen = rng(2026)
    more = rng(2030)
    inputs = record_dense_inputs(monkeypatch)
    for cls, make in TEN_CLASS_WALKS.items():
        for what, op in stack_fuzz_cases(cls, make(), more, inputs):
            dense = dense_view(op, inputs)
            check_stacks(op, dense)
            check_stacks(_stored(op), _kept(op, dense))
    seen = set()
    for cls, make in TEN_CLASS_WALKS.items():
        ti = make()
        for what, op in stored_fuzz_cases(cls, ti, gen):
            seen.add(what)
            dense = placed_ti(ti, op.cells) if what == "circle" else dense_view(op, inputs)
            check_stacks(op, dense)
            check_stacks(_stored(op), _kept(op, dense))
            payload = lattice_operator_to_json(op)
            back = _stored(op)
            kept = back.matrix != 0
            assert np.array_equal(back.matrix[kept], op.matrix[kept]), (cls, what)
            assert np.array_equal(back.cell_band.blocks, op.cell_band.blocks), (cls, what)
            oracle = dense_offband(op)
            assert payload["offband"] == pytest.approx(oracle, rel=1e-12, abs=1e-140), (cls, what)
            assert np.linalg.norm(op.matrix - back.matrix) == pytest.approx(oracle, rel=1e-12), (cls, what)
            assert (oracle > 0) == (what == "off-band"), (cls, what)
            assert back.cells == op.cells and back.band == op.band
            assert [(count, rep.cls) for _, count, rep in back.local_rep.runs()] == [
                (count, rep.cls) for _, count, rep in op.local_rep.runs()
            ]
            for (_, _, a), (_, _, b) in zip(back.local_rep.runs(), op.local_rep.runs()):
                assert all(np.array_equal(a.ops[k].matrix, b.ops[k].matrix) for k in b.ops)
    assert len(seen) == 7


def test_writer_refuses_off_band_entries_above_tol_band():
    ring = build_lattice(make_split_step(1.1, 0.3), 9, "circle")
    m = ring.matrix.copy()
    m[0, 8] = 1e-11
    op = LatticeOperator.from_matrix(m, ring.cells, 1, ring.local_rep)
    with pytest.raises(IncompatibleCells, match="declared band 1 drops off-band entries of norm 1.000e-11"):
        dumps_operator(op)
    assert json.loads(dumps_operator(op, DEFAULT_TOL.with_(band=1e-10)))["offband"] == pytest.approx(1e-11)


def test_reader_refuses_blocks_that_do_not_fit_the_cells():
    data = json.loads(dumps_operator(build_lattice(make_split_step(1.1, 0.3), 9, "circle")))
    data["blocks"]["1"] = data["blocks"]["1"][:-1]
    with pytest.raises(IncompatibleCells, match=r"offset 1 have shape \(8, 2, 2\); these cells take \(9, 2, 2\)"):
        lattice_operator_from_json(data)
    data["cells"]["cell_dims"][0] = 4
    del data["local_rep"]
    with pytest.raises(IncompatibleCells, match=r"these cells take one \(1, 20, 20\) block"):
        lattice_operator_from_json(data)


def test_stored_operators_are_exact_json():
    ring = build_lattice(make_split_step(np.pi / 7, 0.3), 9, "circle")
    text = dumps_operator(ring)
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    # the meta keeps every digit too
    assert json.loads(text)["meta"]["params"]["theta1"] == np.pi / 7
    m = ring.matrix.copy()
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps_operator(LatticeOperator.from_matrix(m, ring.cells, 1))


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
    data = json.loads(dumps_operator(op))
    back = operator_from_spec({"type": "explicit", **data})
    assert np.array_equal(back.matrix, op.matrix)


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
