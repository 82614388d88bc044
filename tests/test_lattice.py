"""Cell structures, projections, compression, locality, weight splitting."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import walkindex.lattice as lattice_module
from helpers import (
    STACK_CASES,
    TEN_CLASS_WALKS,
    cell_block_reduce_at,
    check_stacks,
    dense_admissibility,
    dense_decoupling,
    dense_offband,
    dense_unitarity,
    dense_view,
    haar_unitary,
    locality_profile,
    mixed_cell_walk,
    normal_form_rep,
    profile_band,
    record_dense_inputs,
    record_gate_measurements,
    rng,
    stack_fuzz_cases,
    with_cell_bases,
)
from walkindex.errors import CutOutOfRange, IncompatibleCells
from walkindex.lattice import (
    CellProjection,
    CellStructure,
    LatticeOperator,
    LocalSymmetryRep,
    arc_projection,
    cells_near_bond,
    compress,
    half_space_projection,
    half_spaces,
    measured_band,
    split_by_weight,
)
from walkindex.operators import check_admissible, check_unitary
from walkindex.symmetry import SymmetryClass, spectral_norm
from walkindex.tolerances import DEFAULT_TOL
from walkindex.serialize import dumps_operator, lattice_operator_from_json, lattice_operator_to_json
from walkindex.walks import build_lattice, make_split_step


def shift_matrix(n: int, step: int, topology: str = "circle") -> np.ndarray:
    """Permutation sending cell x to x + step (scalar cells)."""
    m = np.zeros((n, n), dtype=complex)
    for x in range(n):
        y = x + step
        if topology == "circle":
            m[y % n, x] = 1.0
        elif 0 <= y < n:
            m[y, x] = 1.0
    return m


def test_cell_structure_offsets_and_slices():
    cells = CellStructure((2, 3, 1), "line")
    assert cells.n_cells == 3
    assert cells.total_dim == 6
    assert cells.offsets == (0, 2, 5, 6)
    assert cells.cell_slice(1) == slice(2, 5)


def test_cell_structure_uniform_defaults():
    line = CellStructure.uniform(4, 2)
    assert line.proxy_ends == frozenset({"left", "right"})
    ring = CellStructure.uniform(4, 2, topology="circle")
    assert ring.proxy_ends == frozenset()


def test_cell_structure_rejects_bad_input():
    with pytest.raises(ValueError):
        CellStructure((1, 1), "torus")
    with pytest.raises(ValueError):
        CellStructure((1, 1), "circle", proxy_ends=frozenset({"left"}))
    with pytest.raises(ValueError):
        CellStructure((1, 1), "line", proxy_ends=frozenset({"top"}))


def test_index_mask_selects_cells():
    cells = CellStructure((2, 3, 1), "line")
    mask = cells.index_mask([0, 2])
    assert mask.tolist() == [True, True, False, False, False, True]


def test_bond_distance_line():
    cells = CellStructure.uniform(6, 1)
    # bond 2 separates cells 1 and 2; the adjacent cells are at distance 0
    assert cells.bond_distance(2, 2) == 0
    assert cells.bond_distance(1, 2) == 0
    assert cells.bond_distance(4, 2) == 2
    assert cells.bond_distance(0, 2) == 1


def test_bond_distance_circle_wraps():
    cells = CellStructure.uniform(6, 1, topology="circle")
    assert cells.bond_distance(0, 0) == 0
    assert cells.bond_distance(5, 0) == 0
    # from cell 4 to bond 0: 2 steps around the short way (4 -> 5 -> bond)
    assert cells.bond_distance(4, 0) == 1
    assert cells.bond_distance(3, 0) == 2


def test_local_rep_assembled_and_restrict():
    rep = normal_form_rep(SymmetryClass.AIII)
    local = LocalSymmetryRep.uniform(rep, 3)
    assert local.total_dim == 6
    big = local.assembled()
    assert big.dim == 6
    gamma = big.ops["gamma"].matrix
    assert np.allclose(gamma, np.kron(np.eye(3), rep.ops["gamma"].matrix))
    cut = local.restrict_cells([1, 2])
    assert cut.total_dim == 4


def test_lattice_operator_validates_shape():
    cells = CellStructure.uniform(3, 2)
    with pytest.raises(IncompatibleCells):
        LatticeOperator.from_matrix(np.eye(5), cells, band=1)
    rep = normal_form_rep(SymmetryClass.D, p=2)
    local = LocalSymmetryRep.uniform(rep, 2)
    with pytest.raises(IncompatibleCells):
        LatticeOperator.from_matrix(np.eye(6), cells, band=1, local_rep=local)


def test_lattice_operator_refuses_negative_band():
    with pytest.raises(IncompatibleCells, match="band -1 is negative"):
        LatticeOperator.from_matrix(np.eye(6), CellStructure.uniform(3, 2), band=-1)


def test_lattice_operator_blocks():
    cells = CellStructure.uniform(4, 1, topology="circle")
    op = LatticeOperator.from_matrix(shift_matrix(4, 1), cells, band=1)
    assert op.block(1, 0) == pytest.approx(np.array([[1.0]]))
    assert op.block(0, 0) == pytest.approx(np.array([[0.0]]))
    assert op.block(0, 3) == pytest.approx(np.array([[1.0]]))


def test_one_cell_copies_the_matrix_into_a_stack_without_negative_zeros():
    # a plain matrix is one cell at band 0; its stack is a read-only complex
    # copy with every -0.0 cleared, so writing into the input afterwards
    # changes neither the operator's matrix nor its gate records
    m = np.array(build_lattice(make_split_step(0.9, 0.3), 12, "circle").matrix)
    assert m[0, 10] == 0 and m[0, 11] == 0
    m.real[0, 10] = m.imag[0, 11] = -0.0
    original = m.copy()
    op = LatticeOperator.one_cell(m)
    stack = op.blocks[0]
    assert (op.cells, op.band, list(op.blocks)) == (CellStructure((24,)), 0, [0])
    assert not np.shares_memory(stack, m) and not stack.flags.writeable
    assert np.array_equal(stack[0], m)
    parts = stack.view(float)
    assert not np.any(np.signbit(parts[parts == 0]))
    real = LatticeOperator.one_cell(np.eye(3)).blocks[0]
    assert real.dtype == complex and np.array_equal(real[0], np.eye(3))
    m *= 2
    assert np.array_equal(op.matrix, original)
    assert op.unitarity.bound == LatticeOperator.one_cell(original).unitarity.bound <= DEFAULT_TOL.unit


def test_projection_matrix_and_complement():
    cells = CellStructure((1, 2, 1), "line")
    proj = CellProjection(cells, (1,))
    assert np.allclose(proj.matrix, np.diag([0, 1, 1, 0]).astype(float))


def test_cut_bonds_line_ignores_outer_edges():
    cells = CellStructure.uniform(6, 1)
    proj = half_space_projection(cells, 2, side="geq")
    assert proj.members == (2, 3, 4, 5)
    assert proj.cut_bonds() == (2,)
    assert CellProjection(cells, (0, 1)).cut_bonds() == (2,)


def test_cut_bonds_circle_arc_has_two():
    cells = CellStructure.uniform(8, 1, topology="circle")
    proj = arc_projection(cells, 6, 2)
    assert proj.members == (6, 7, 0, 1)
    assert set(proj.cut_bonds()) == {2, 6}


def test_half_space_projection_bounds():
    cells = CellStructure.uniform(5, 1)
    with pytest.raises(CutOutOfRange):
        half_space_projection(cells, 0)
    with pytest.raises(CutOutOfRange):
        half_space_projection(cells, 5)
    lt = half_space_projection(cells, 3, side="lt")
    assert lt.members == (0, 1, 2)
    with pytest.raises(ValueError):
        half_space_projection(cells, 2, side="above")


def test_arc_projection_rejects_improper():
    line = CellStructure.uniform(4, 1)
    with pytest.raises(CutOutOfRange):
        arc_projection(line, 2, 6)
    ring = CellStructure.uniform(4, 1, topology="circle")
    with pytest.raises(CutOutOfRange):
        arc_projection(ring, 1, 1)


def test_compress_line_marks_cut_and_proxy_ends():
    cells = CellStructure.uniform(6, 1)
    op = LatticeOperator.from_matrix(shift_matrix(6, 1, "line"), cells, band=1)
    right = compress(op, half_space_projection(cells, 2, side="geq"))
    assert right.cells.n_cells == 4
    assert right.cells.x_min == 2
    # left end was created by the cut at bond 2; right end inherits the proxy
    assert right.meta["end_bonds"] == {"left": 2, "right": None}
    assert right.cells.proxy_ends == frozenset({"right"})
    left = compress(op, half_space_projection(cells, 2, side="lt"))
    assert left.meta["end_bonds"] == {"left": None, "right": 2}
    assert left.cells.proxy_ends == frozenset({"left"})


def test_compress_circle_arc_has_two_cut_ends():
    cells = CellStructure.uniform(8, 1, topology="circle")
    op = LatticeOperator.from_matrix(shift_matrix(8, 1), cells, band=1)
    sub = compress(op, arc_projection(cells, 6, 2))
    assert sub.cells.topology == "line"
    assert sub.cells.n_cells == 4
    assert sub.meta["end_bonds"] == {"left": 6, "right": 2}
    assert sub.cells.proxy_ends == frozenset()
    assert sub.meta["parent_cells"] == (6, 7, 0, 1)
    # the wrapped submatrix keeps the hop 7 -> 0 but cuts 1 -> 2 and 5 -> 6
    expect = shift_matrix(4, 1, "line")
    assert np.allclose(sub.matrix, expect)


def test_half_spaces_line_and_circle():
    cells = CellStructure.uniform(6, 1)
    line = LatticeOperator.from_matrix(shift_matrix(6, 1, "line"), cells, band=1)
    left, right = half_spaces(line, 2)
    assert (left.cells.n_cells, right.cells.n_cells) == (2, 4)
    assert left.cells.proxy_ends == frozenset({"left"})
    assert right.cells.proxy_ends == frozenset({"right"})
    with pytest.raises(CutOutOfRange):
        half_spaces(line, 2, second_cut=4)
    ring = LatticeOperator.from_matrix(shift_matrix(8, 1), CellStructure.uniform(8, 1, "circle"), band=1)
    # default second bond is the antipode; the ends there become proxy ends
    left, right = half_spaces(ring, 2)
    assert left.meta["parent_cells"] == (6, 7, 0, 1)
    assert right.meta["parent_cells"] == (2, 3, 4, 5)
    assert left.cells.proxy_ends == frozenset({"left"})
    assert right.cells.proxy_ends == frozenset({"right"})
    assert left.meta["end_bonds"] == {"left": 6, "right": 2}
    left, right = half_spaces(ring, 2, second_cut=3)
    assert (left.cells.n_cells, right.cells.n_cells) == (7, 1)
    assert np.allclose(right.matrix, ring.matrix[2:3, 2:3])


def test_compress_matrix_entries_match_parent():
    gen = rng(7)
    cells = CellStructure((2, 1, 2, 1), "line")
    m = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
    op = LatticeOperator.from_matrix(m, cells, band=1)
    sub = compress(op, arc_projection(cells, 1, 3))
    assert sub.cells.cell_dims == (1, 2)
    assert np.allclose(sub.matrix, m[2:5, 2:5])


def test_compress_rejects_non_contiguous():
    cells = CellStructure.uniform(5, 1)
    op = LatticeOperator.from_matrix(np.eye(5, dtype=complex), cells, band=0)
    with pytest.raises(IncompatibleCells):
        compress(op, CellProjection(cells, (0, 2)))
    with pytest.raises(IncompatibleCells):
        compress(op, CellProjection(cells, ()))
    with pytest.raises(IncompatibleCells):
        compress(op, CellProjection(cells, tuple(range(5))))


def test_locality_profile_of_shift():
    cells = CellStructure.uniform(6, 1, topology="circle")
    op = LatticeOperator.from_matrix(shift_matrix(6, -1), cells, band=1)
    profile = locality_profile(op)
    assert profile[-1] == pytest.approx(1.0)
    assert profile[0] == pytest.approx(0.0)
    assert profile[1] == pytest.approx(0.0)
    assert measured_band(op) == 1


def test_measured_band_identity_is_zero():
    cells = CellStructure.uniform(4, 2)
    op = LatticeOperator.from_matrix(np.eye(8, dtype=complex), cells, band=1)
    assert measured_band(op) == 0


def _offset(cells: CellStructure, i: int, j: int) -> int:
    n = cells.n_cells
    d = abs(i - j)
    return min(d, n - d) if cells.topology == "circle" else d


def _random_block(gen, rows: int, cols: int, norm: float) -> np.ndarray:
    b = gen.normal(size=(rows, cols)) + 1j * gen.normal(size=(rows, cols))
    return norm * b / spectral_norm(b)


# block spectral norms beyond the intended band, as multiples of the band
# tolerance: mostly at or below it, now and then just or far above it
_QUIET_MULTIPLES = (0.0, 1e-3, 0.5, 0.999999, 1.0)
_LOUD_MULTIPLES = (1.000001, 2.0, 1e6)


@pytest.mark.parametrize("seed", range(40))
def test_measured_band_matches_svd_oracle(seed):
    gen = rng(2000 + seed)
    topology = ("line", "circle")[seed % 2]
    n = int(gen.integers(3, 10))
    cells = CellStructure(tuple(int(d) for d in gen.integers(1, 4, size=n)), topology)
    band_tol = (1e-12, 1e-6, 0.25)[seed % 3]
    intended = int(gen.integers(0, n // 2 + 1))
    m = np.zeros((cells.total_dim, cells.total_dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            multiples = _LOUD_MULTIPLES if gen.random() < 0.05 else _QUIET_MULTIPLES
            norm = band_tol * multiples[gen.integers(len(multiples))]
            if _offset(cells, i, j) <= intended:
                norm = 1.0
            m[cells.cell_slice(i), cells.cell_slice(j)] = _random_block(
                gen, cells.cell_dims[i], cells.cell_dims[j], norm
            )
    op = LatticeOperator.from_matrix(m, cells, band=0)
    tol = DEFAULT_TOL.with_(band=band_tol)
    assert measured_band(op, tol) == profile_band(op, band_tol)


@pytest.mark.parametrize("topology", ["line", "circle"])
@pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-9])
def test_measured_band_settles_screen_gap_by_svd(topology, factor):
    # blocks at offset 3 have largest entry <= tol.band < Frobenius norm, and
    # a spectral norm just above or just below tol.band
    band_tol = 1e-6
    cells = CellStructure((2,) * 8, topology)
    m = np.eye(16, dtype=complex)
    for i in range(7):
        m[cells.cell_slice(i + 1), cells.cell_slice(i)] = 0.5
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    gap_block = factor * band_tol * hadamard
    for i in range(8 - 3):
        m[cells.cell_slice(i + 3), cells.cell_slice(i)] = gap_block
    op = LatticeOperator.from_matrix(m, cells, band=0)
    assert np.abs(gap_block).max() <= band_tol < np.linalg.norm(gap_block)
    tol = DEFAULT_TOL.with_(band=band_tol)
    expected = 3 if factor > 1 else 1
    assert measured_band(op, tol) == profile_band(op, band_tol) == expected


def test_measured_band_split_step_circle_takes_no_svd(monkeypatch):
    ring = build_lattice(make_split_step(1.2, 0.4), 256, "circle")
    calls = []

    def counted(x):
        calls.append(x.shape)
        return spectral_norm(x)

    monkeypatch.setattr(lattice_module, "spectral_norm", counted)
    assert measured_band(ring) == ring.band == 1
    assert calls == []


def test_cells_near_bond_radius():
    cells = CellStructure.uniform(8, 1, topology="circle")
    assert cells_near_bond(cells, 4, 1) == (3, 4)
    assert cells_near_bond(cells, 4, 2) == (2, 3, 4, 5)
    assert cells_near_bond(cells, 0, 1) == (0, 7)
    # the cells whose bond_distance is below the radius, on lines and circles
    # of every size, also where the radius covers the whole circle
    for topology in ("line", "circle"):
        for n in range(1, 9):
            cells = CellStructure.uniform(n, 1, topology=topology)
            for bond in range(n) if topology == "circle" else range(1, n):
                for radius in range(0, n + 2):
                    want = tuple(i for i in range(n) if cells.bond_distance(i, bond) < radius)
                    assert cells_near_bond(cells, bond, radius) == want, (topology, n, bond, radius)


def test_split_by_weight_clean_separation():
    cells = CellStructure.uniform(4, 2)
    basis = np.zeros((8, 2), dtype=complex)
    basis[0, 0] = 1.0  # sits in cell 0
    basis[7, 1] = 1.0  # sits in cell 3
    inside, outside, weights, n_amb = split_by_weight(basis, cells, [0, 1])
    assert inside.shape[1] == 1
    assert outside.shape[1] == 1
    assert n_amb == 0
    assert np.allclose(sorted(weights), [0.0, 1.0])
    assert abs(inside[0, 0]) == pytest.approx(1.0)


def test_split_by_weight_flags_straddlers():
    cells = CellStructure.uniform(2, 1)
    basis = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
    inside, outside, weights, n_amb = split_by_weight(basis, cells, [0])
    assert n_amb == 1
    assert weights[0] == pytest.approx(0.5)


def test_split_by_weight_rotates_within_span():
    gen = rng(11)
    cells = CellStructure.uniform(3, 2)
    u = haar_unitary(gen, 2)
    basis = np.zeros((6, 2), dtype=complex)
    basis[0] = u[0]
    basis[5] = u[1]
    inside, outside, _, n_amb = split_by_weight(basis, cells, [0])
    assert n_amb == 0
    # the rotated columns re-localize onto single cells
    assert abs(inside[0, 0]) == pytest.approx(1.0)
    assert abs(outside[5, 0]) == pytest.approx(1.0)


def test_split_by_weight_empty_basis():
    cells = CellStructure.uniform(2, 1)
    basis = np.zeros((2, 0), dtype=complex)
    inside, outside, weights, n_amb = split_by_weight(basis, cells, [0])
    assert inside.shape[1] == 0 and outside.shape[1] == 0 and n_amb == 0


def test_local_rep_runs_group_consecutive_shared_cell_reps():
    a = normal_form_rep(SymmetryClass.AIII, 1, 1)
    b = normal_form_rep(SymmetryClass.AIII, 2, 1)
    a_copy = normal_form_rep(SymmetryClass.AIII, 1, 1)
    local = LocalSymmetryRep(SymmetryClass.AIII, (a, a, b, b, b, a_copy, a))
    # runs follow object identity, so an equal but distinct cell rep starts a run
    assert local.runs() == [(0, 2, a), (4, 3, b), (13, 1, a_copy), (15, 1, a)]
    assert LocalSymmetryRep.uniform(a, 5).runs() == [(0, 5, a)]
    assert local.restrict_cells([2, 3]).runs() == [(0, 2, b)]


def test_cell_block_reduce_matches_ufunc_at_on_mixed_cells():
    gen = rng(2404)
    for dims in ((2, 0, 3, 1, 0, 2), (0, 1), (3, 3, 3), (0, 2, 0)):
        cells = CellStructure(dims, "line")
        x = np.abs(gen.normal(size=(cells.total_dim, cells.total_dim)))
        for ufunc in (np.add, np.maximum):
            got = lattice_module._cell_block_reduce(ufunc, x, cells)
            assert np.array_equal(got, cell_block_reduce_at(ufunc, x, cells))


def test_lattice_operator_matrix_is_read_only():
    op = build_lattice(make_split_step(1.2, 0.4), 8, "circle")
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 0
    with pytest.raises(AttributeError):
        op.band = 2
    # pieces and relabelled operators share the read-only matrix or copy it
    left, right = half_spaces(op, 4)
    assert not left.matrix.flags.writeable and left.compressed_from is op


def _negative_zeros(op) -> int:
    floats = np.concatenate([s.reshape(-1).view(float) for s in op.blocks.values()])
    return int(np.sum(np.signbit(floats[floats == 0])))


def _signed_zeros(x):
    """Every zero of nested lists or of a complex array, real part or
    imaginary, as -0.0."""
    if isinstance(x, list):
        return [_signed_zeros(v) for v in x]
    if isinstance(x, np.ndarray):
        parts = x.astype(complex).view(float)
        return np.where(parts == 0, -0.0, parts).view(complex)
    return -0.0 if x == 0 else x


def test_stacks_hold_no_negative_zero():
    # placing a stack adds it into +0.0, so a stack that kept -0.0 would be
    # written as "-0.0" where its matrix holds 0.0
    ti = make_split_step(1.2, 0.4)
    signed = replace(ti, blocks={j: _signed_zeros(b) for j, b in ti.blocks.items()})
    ring = build_lattice(signed, 8, "circle")
    m = _signed_zeros(ring.matrix)
    stored = lattice_operator_to_json(ring)
    stored["blocks"] = {j: _signed_zeros(stack) for j, stack in stored["blocks"].items()}
    assert "-0.0" in json.dumps(stored)
    ops = [ring, build_lattice(signed, 8, "line"), LatticeOperator.from_matrix(m, ring.cells)]
    ops.append(lattice_operator_from_json(stored))
    assert [_negative_zeros(op) for op in ops] == [0, 0, 0, 0]
    assert "-0.0" not in dumps_operator(ops[-1])


def test_offband_within_the_band_is_its_padding():
    # no stack lies beyond the band: the norm is sqrt((N d)^2 tiny) exactly
    for topology in ("circle", "line"):
        op = build_lattice(make_split_step(1.1, 0.3), 9, topology)
        assert op.band == 1 and set(op.blocks) <= {-1, 0, 1}
        assert op.cell_band.offband == np.sqrt((9 * 2) ** 2 * np.finfo(float).tiny)


def test_offband_of_a_read_back_operator_keeps_its_bits():
    # a W' of the full-size route, with rounding-size entries of scales
    # 1e-17..1e-13 at offsets 2..6, stored at band 6 and read back at band 1
    # holds its stacks in the file's string-sorted key order; summed by
    # offset, its off-band norm is bit for bit that of from_matrix of its
    # matrix (for this seed the sum in the file's order rounds differently)
    ring = build_lattice(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 36, "circle")
    w_prime = LatticeOperator.from_matrix(dense_decoupling(ring, 0, 32)[1], ring.cells, 1, ring.local_rep)
    gen = rng(11)
    blocks = dict(w_prime.blocks)
    for j in [*range(-6, -1), *range(2, 7)]:
        scale = 10.0 ** gen.uniform(-17, -13)
        blocks[j] = blocks[j] + scale * (gen.normal(size=blocks[j].shape) + 1j * gen.normal(size=blocks[j].shape))
    data = json.loads(dumps_operator(LatticeOperator(blocks, ring.cells, 6, ring.local_rep)))
    data["band"] = 1
    back = lattice_operator_from_json(data)
    assert list(back.blocks) == [-1, -2, -3, -4, -5, -6, 0, 1, 2, 3, 4, 5, 6]
    in_file_order = sum(float(np.vdot(s, s).real) for j, s in back.blocks.items() if abs(j) > 1)
    assert np.sqrt(in_file_order + 72**2 * np.finfo(float).tiny) != back.cell_band.offband
    again = LatticeOperator.from_matrix(back.matrix, back.cells, back.band)
    assert list(again.blocks) == sorted(back.blocks)
    assert back.cell_band.offband == again.cell_band.offband
    assert back.cell_band.offband == pytest.approx(dense_offband(back), rel=1e-12)


def gate_fuzz_cases(cls, ti, gen):
    """Operators of one class: a circle, a line, a short circle (n <= 4b),
    mixed and zero-dimensional cells, off-band mass (a circle's matrix on a
    line has it in the corners) and an understated band."""
    b = ti.band
    n = int(gen.integers(4 * b + 1, 4 * b + 9))
    ring = with_cell_bases(build_lattice(ti, n, "circle"), gen)
    yield "circle", ring
    yield "line", with_cell_bases(build_lattice(ti, n, "line"), gen)
    yield "short circle", with_cell_bases(build_lattice(ti, int(gen.integers(2 * b + 1, 4 * b + 1)), "circle"), gen)
    yield "mixed cells", mixed_cell_walk(cls, ti.cell_rep, gen)
    # entries between cells more than b apart, at rounding size and above every gate
    x = np.arange(n)
    dist = np.abs(x[:, None] - x[None, :])
    far = np.kron(np.minimum(dist, n - dist) > b, np.ones((ti.cell_dim, ti.cell_dim)))
    noise = (gen.normal(size=far.shape) + 1j * gen.normal(size=far.shape)) * far
    for scale in (1e-14, 1e-11, 1e-6, 1e-2):
        yield f"off-band {scale:g}", LatticeOperator.from_matrix(ring.matrix + scale * noise, ring.cells, b, ring.local_rep)
    yield "off-band corners", LatticeOperator.from_matrix(ring.matrix, CellStructure(ring.cells.cell_dims), b, ring.local_rep)
    if b:
        yield "understated band", LatticeOperator.from_matrix(ring.matrix, ring.cells, b - 1, ring.local_rep)


def _near(exact: float) -> list[float]:
    """Thresholds just either side of a norm, clear of its rounding (about eps ||W||)."""
    gap = max(1e-6 * exact, 1e-13)
    return [exact - gap, exact + gap] if exact > 1e-12 else []


def _check_gate(gate, exact: float, thresholds) -> None:
    assert gate.bound >= exact
    for t in thresholds:
        value = gate.screened(t)
        assert (value <= t) == (exact <= t)
        if value != gate.bound:  # measured: the norm itself
            assert value == pytest.approx(exact, rel=1e-14, abs=1e-15)


def _check_gates(op, tol) -> None:
    exact = dense_unitarity(op.matrix)
    _check_gate(op.unitarity, exact, [tol.unit, *_near(exact)])
    if exact <= tol.unit:
        assert check_unitary(LatticeOperator.one_cell(op.matrix), tol) <= tol.unit
    if op.local_rep is None:
        return
    oracle = dense_admissibility(op.matrix, op.local_rep.assembled())
    assert list(op.admissibility) == list(oracle)
    for name, gate in op.admissibility.items():
        _check_gate(gate, oracle[name], [tol.adm, *_near(oracle[name])])
    worst = max(oracle.values(), default=0.0)
    for w in (op, LatticeOperator.one_cell(op.matrix)):
        assert check_admissible(w, op.local_rep, strict=False).ok == (worst <= tol.adm)


def test_gates_match_the_dense_oracle_fuzz(monkeypatch):
    # verdicts are the dense ones, a bound is never below the dense norm, and
    # a measured norm is the dense SVD's within 1e-14 relative; every
    # operator's stacks hold its dense oracle (check_stacks), also for the
    # ways an operator is built, cut, decoupled and joined
    gen = rng(2024)
    more = rng(2028)
    tol = DEFAULT_TOL
    inputs = record_dense_inputs(monkeypatch)
    seen = set()
    made = set()
    for cls, make in TEN_CLASS_WALKS.items():
        ti = make()
        for what, op in gate_fuzz_cases(cls, ti, gen):
            seen.add(what.split()[0])
            _check_gates(op, tol)
            check_stacks(op, dense_view(op, inputs), tol)
        for what, op in stack_fuzz_cases(cls, ti, more, inputs):
            made.add(what)
            _check_gates(op, tol)
            check_stacks(op, dense_view(op, inputs), tol)
    assert seen == {"circle", "line", "short", "mixed", "off-band", "understated"}
    assert made == STACK_CASES


def test_compressed_pieces_inherit_the_admissibility_bound(monkeypatch):
    gen = rng(7)
    ring = with_cell_bases(build_lattice(make_split_step(1.2, 0.4), 24, "circle"), gen)
    seen = record_gate_measurements(monkeypatch)
    for piece in half_spaces(ring, 5) + half_spaces(ring, 3, 17):
        for name, gate in piece.admissibility.items():
            assert gate.bound == ring.admissibility[name].bound
        assert check_admissible(piece).ok
    assert [m is ring.matrix for m in seen["admissibility"]] == [True]
    # a parent that fails leaves the verdict to the piece's own measurement
    broken = LatticeOperator.from_matrix(ring.matrix + 1e-3 * np.eye(ring.dim), ring.cells, ring.band, ring.local_rep)
    for piece in half_spaces(broken, 5):
        oracle = dense_admissibility(piece.matrix, piece.local_rep.assembled())
        report = check_admissible(piece, strict=False)
        assert report.ok == (max(oracle.values()) <= DEFAULT_TOL.adm)


def test_compressed_line_defect_is_exact_from_its_end_cells(monkeypatch):
    # the defect of a compressed line reaches the b cells at each end: an
    # eigvalsh there, no SVD, and the dense SVD's value
    line = build_lattice(make_split_step(1.2, 0.4), 192, "line")
    svds = []
    monkeypatch.setattr(lattice_module, "spectral_norm", lambda x: svds.append(x.shape) or spectral_norm(x))
    eigs = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: eigs.append(h.shape) or original(h))
    value = line.unitarity.screened(DEFAULT_TOL.unit)
    assert eigs == [(4, 4)] and svds == []
    assert value == pytest.approx(dense_unitarity(line.matrix), rel=1e-14)
