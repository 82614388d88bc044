"""Canonical gentle decoupling: projection pairs, transfer swaps, segments.

Expected values are frozen from the exactly solvable walks: the generating
example transfers one state per bond and its correction parks both defect
eigenvalues at +1, the coin-only walk needs no correction at all, and the
bare shift is obstructed at every bond.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag

import walkindex
import walkindex.decoupling
from helpers import (
    TEN_CLASS_WALKS,
    ProjectionPair,
    contraction_path,
    dense_decoupling,
    dense_rotation,
    haar_unitary,
    identity_defects,
    record_gate_measurements,
    rng,
    zero_dim_rep,
)
from walkindex.decoupling import (
    DecouplingResult,
    attribute_transfers,
    decouple_segment,
    direct_rotation,
    gentle_decoupling,
    split_transfer_modes,
)
from walkindex.errors import (
    CutOutOfRange,
    DecouplingFailed,
    IncompatibleCells,
    NotAdmissible,
    Obstructed,
    WalkIndexError,
)
from walkindex.indices import contract_perturbation, si_left_right, twiddle_rep
from walkindex.lattice import (
    CellStructure,
    LatticeOperator,
    LocalSymmetryRep,
    arc_projection,
    cells_near_bond,
    half_space_projection,
    second_bond,
)
from walkindex.operators import check_admissible, check_unitary
from walkindex.symmetry import (
    IndexGroup,
    IndexValue,
    SymmetryClass,
    SymmetryRep,
)
from walkindex.walks import (
    build_lattice,
    make_doubled,
    make_generating_example,
    make_shift,
    make_split_step,
    make_trivial,
    truncate_ti,
)


def ring(ti, n):
    return build_lattice(ti, n, "circle")


def gen_ring(n=12):
    return build_lattice(make_generating_example(), n, "circle")


# -- two-projection algebra --------------------------------------------------------


def test_projection_pair_identities_exact_for_generating():
    r = gen_ring(12)
    pair = ProjectionPair.from_walk(r.matrix, arc_projection(r.cells, 0, 6))
    for name, value in identity_defects(pair).items():
        assert value <= 1e-12, name


@pytest.mark.parametrize(
    "ti,n",
    [
        (make_generating_example(), 10),
        (make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 12),
        (make_split_step(-5 * np.pi / 16, 2 * np.pi / 16), 12),
        (make_trivial(), 8),
        (make_doubled("CII"), 10),
        (make_doubled("DIII"), 10),
    ],
    ids=["gen", "split_a", "split_b", "trivial", "cii", "diii"],
)
def test_projection_pair_identities_hold_on_every_pair(ti, n):
    # anticommutation, the pythagorean identity, alignment intertwining,
    # the reflection-product identity and the spectral circle must hold
    # for every region of every unitary walk
    r = ring(ti, n)
    for a, b in [(0, n // 2), (1, n // 2 + 2), (2, n - 2)]:
        pair = ProjectionPair.from_walk(r.matrix, arc_projection(r.cells, a, b))
        for name, value in identity_defects(pair).items():
            assert value <= 1e-8, f"{name} at cut ({a}, {b})"


def test_projection_pair_line_half_space():
    seg = truncate_ti(make_generating_example(), 12, "decoupled_unitary")
    pair = ProjectionPair.from_walk(seg.matrix, half_space_projection(seg.cells, 6))
    for name, value in identity_defects(pair).items():
        assert value <= 1e-10, name


# -- transfer modes ----------------------------------------------------------------


def embedded(r, groups, columns=lambda modes: modes.support):
    """The columns of every window group placed on the rows of the whole space."""
    parts = []
    for modes in groups:
        cols = columns(modes)
        part = np.zeros((r.dim, cols.shape[1]), dtype=complex)
        part[modes.rows] = cols
        parts.append(part)
    return np.hstack(parts)


def test_split_transfer_modes_generating():
    r = gen_ring(12)
    proj = arc_projection(r.cells, 0, 6)
    groups, leak = split_transfer_modes(r, proj)
    # one group per cut bond, each window of the two cells next to it
    assert [m.dims for m in groups] == [(1, 1), (1, 1)]
    assert [m.bonds for m in groups] == [(0,), (6,)]
    assert [list(m.window) for m in groups] == [[0, 11], [5, 6]]
    assert leak == 0.0
    # incoming states lie inside the region, outgoing states outside
    p = proj.matrix
    incoming, outgoing = (embedded(r, groups, lambda m, k=k: getattr(m, k)) for k in ("incoming", "outgoing"))
    assert np.linalg.norm(p @ incoming - incoming) <= 1e-9
    assert np.linalg.norm(p @ outgoing) <= 1e-9


def test_split_transfer_modes_refuses_dead_band():
    # a region rotated by slightly less than a full transfer leaves
    # eigenvalues of P - Q near but not at +-1: no clean swap exists
    theta = np.arcsin(1.0 - 1e-4)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    proj = half_space_projection(CellStructure((1, 1)), 1, side="lt")
    assert np.allclose(proj.matrix, np.diag([1.0, 0.0]))
    with pytest.raises(DecouplingFailed, match="not cleanly separated"):
        split_transfer_modes(LatticeOperator.from_matrix(rot, proj.cells, 1), proj)
    # the same rotation at the second cut of a ring, whose first window is
    # clean: each window group is guarded, and the message names the worst
    ring = np.eye(8, dtype=complex)
    ring[3:5, 3:5] = rot
    arc = arc_projection(CellStructure.uniform(8, 1, "circle"), 0, 4)
    edge = 1 - np.linalg.eigvalsh(np.diag([1.0, 0.0]) - rot @ np.diag([1.0, 0.0]) @ rot.conj().T).max()
    with pytest.raises(DecouplingFailed, match=f"transfer eigenvalue {edge:.3e} away from"):
        split_transfer_modes(LatticeOperator.from_matrix(ring, arc.cells, 1), arc)


def test_attribute_transfers_generating():
    r = gen_ring(12)
    groups, _ = split_transfer_modes(r, arc_projection(r.cells, 0, 6))
    assert attribute_transfers(groups, r.cells, 2) == {0: (1, 1), 6: (1, 1)}


def test_attribute_transfers_needs_matching_windows():
    r = gen_ring(12)
    groups, _ = split_transfer_modes(r, arc_projection(r.cells, 0, 6))
    with pytest.raises(DecouplingFailed):
        attribute_transfers([replace(m, bonds=(3,)) for m in groups], r.cells, 1)


# -- direct rotation ---------------------------------------------------------------


def rotation_on_whole_space(r, a, b):
    """``direct_rotation`` of each window group of the arc ``[a, b)`` embedded
    as ``1 + S(U - 1)S*``, with the groups."""
    groups, _ = split_transfer_modes(r, arc_projection(r.cells, a, b))
    v = np.eye(r.dim, dtype=complex)
    for modes in groups:
        u = direct_rotation(modes)
        s = embedded(r, [modes])
        assert u.shape == (s.shape[1], s.shape[1])
        v += s @ (u - np.eye(s.shape[1])) @ s.conj().T
    return v, groups


def test_direct_rotation_identity_for_coin_walk():
    # a coin-only walk preserves every region, so the alignment map is the
    # identity and no rotation is needed (a declared band of 1 gives the
    # rotation a nonempty window to work on)
    r = ring(make_trivial(), 8)
    v, _ = rotation_on_whole_space(LatticeOperator.from_matrix(r.matrix, r.cells, 1, r.local_rep), 0, 4)
    assert np.linalg.norm(v - np.eye(v.shape[0])) <= 1e-10


def test_direct_rotation_vanishes_on_transfers():
    r = gen_ring(12)
    v, groups = rotation_on_whole_space(r, 0, 6)
    assert tuple(map(sum, zip(*(m.dims for m in groups)))) == (2, 2)
    basis = embedded(r, groups, lambda m: m.basis())
    assert np.linalg.norm(v @ basis) <= 1e-10
    assert np.linalg.norm(v.conj().T @ basis) <= 1e-10


def test_direct_rotation_spectrum_in_right_half_plane():
    v, _ = rotation_on_whole_space(ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 16), 0, 8)
    check_unitary(LatticeOperator.one_cell(v))
    assert float(np.min(np.linalg.eigvals(v).real)) >= -1e-9


@pytest.mark.parametrize("name", ["generating_12", "split_step_16", "doubled_cii_10", "decoupled_line_12"])
def test_direct_rotation_is_the_whole_alignment_polar_factor(name):
    # the r x r factor on range(P - Q), embedded, is the polar factor of the
    # whole alignment map compressed off the transfer modes
    op, cut = DECOUPLED_WALKS[name]()
    n = op.cells.n_cells
    b = (cut + n // 2) % n if op.cells.topology == "circle" else n
    v, groups = rotation_on_whole_space(op, cut, b)
    basis = embedded(op, groups, lambda m: m.basis())
    pair = ProjectionPair.from_walk(op.matrix, arc_projection(op.cells, cut, b))
    assert np.linalg.norm(v - dense_rotation(pair, basis), 2) <= 1e-12


# -- gentle decoupling -------------------------------------------------------------


def test_gentle_decoupling_generating_ring():
    r = gen_ring(12)
    res = gentle_decoupling(r, 0)
    assert res.ok
    assert res.commutator_norm <= 1e-12
    assert res.transfer_counts == {0: (1, 1), 6: (1, 1)}
    assert [int(x) for x in res.si_before] == [-1, 1]
    assert [int(x) for x in res.si_after] == [-1, 1]
    # gentle: no correction eigenvalue reaches -1; the swap sits at +-i
    assert float(np.min(np.linalg.eigvals(res.v.matrix).real)) >= -1e-9


def test_gentle_decoupling_path_is_admissible_homotopy():
    r = gen_ring(12)
    rep = r.local_rep
    res = gentle_decoupling(r, 0)
    path = [sample @ r.matrix for sample in contraction_path(res.generator.matrix, 8)]
    assert len(path) == 9
    assert np.linalg.norm(path[0] - res.w_prime.matrix) <= 1e-12
    assert np.linalg.norm(path[-1] - r.matrix) <= 1e-12
    for sample in path:
        op = LatticeOperator.one_cell(sample)
        check_unitary(op)
        assert check_admissible(op, rep, kind="walk", strict=False).max_residual <= 1e-8


def test_gentle_decoupling_checks_each_matrix_once(monkeypatch):
    # at full size the walk's unitarity and admissibility and the decoupled
    # walk's admissibility, each measured once; the half-space pieces inherit
    # their parent's admissibility bound, and the correction and the
    # generator are measured on range(P - Q)
    seen = record_gate_measurements(monkeypatch)
    r = ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 24)
    res = gentle_decoupling(r, 0)
    full = {gate: [m for m in ms if m.shape == (r.dim, r.dim)] for gate, ms in seen.items()}
    assert [m is r.matrix for m in full["unitarity"]] == [True]
    assert [m is r.matrix for m in full["admissibility"]] == [True, False]
    assert full["admissibility"][1] is res.w_prime.matrix
    small = [m.shape for ms in seen.values() for m in ms if m.shape != (r.dim, r.dim)]
    assert small and all(max(shape) < r.dim // 2 for shape in small)


def test_gentle_decoupling_trivial_needs_no_correction():
    r = ring(make_trivial(), 8)
    res = gentle_decoupling(r, 0)
    assert res.ok
    assert np.linalg.norm(res.v.matrix - np.eye(r.dim)) <= 1e-10
    assert np.linalg.norm(res.w_prime.matrix - r.matrix) <= 1e-10


def test_gentle_decoupling_split_step_is_rotation_only():
    # partial coins never transfer a full state, so the correction is the
    # direct rotation alone and stays clear of the imaginary axis
    r = ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 16)
    res = gentle_decoupling(r, 0)
    assert res.ok
    assert res.transfer_counts == {0: (0, 0), 8: (0, 0)}
    assert [int(x) for x in res.si_before] == [-1, 1]
    assert [int(x) for x in res.si_after] == [-1, 1]
    assert float(np.min(np.linalg.eigvals(res.v.matrix).real)) >= 0.6


@pytest.mark.parametrize(
    "variant,si", [("CII", [-2, 2]), ("DIII", [2, 2])], ids=["cii", "diii"]
)
def test_gentle_decoupling_doubled_classes(variant, si):
    r = ring(make_doubled(variant), 10)
    res = gentle_decoupling(r, 0)
    assert res.ok
    assert res.transfer_counts == {0: (2, 2), 5: (2, 2)}
    assert [int(x) for x in res.si_before] == si
    assert [int(x) for x in res.si_after] == si


def test_gentle_decoupling_shift_is_obstructed():
    r = ring(make_shift(), 10)
    with pytest.raises(Obstructed):
        gentle_decoupling(r, 0)


def test_gentle_decoupling_recuts_decoupled_line():
    seg = truncate_ti(make_generating_example(), 12, "decoupled_unitary")
    res = gentle_decoupling(seg, 6)
    assert res.ok
    assert [int(x) for x in res.si_before] == [-1, 1]
    assert [int(x) for x in res.si_after] == [-1, 1]


def test_gentle_decoupling_argument_errors():
    seg = truncate_ti(make_generating_example(), 12, "decoupled_unitary")
    with pytest.raises(CutOutOfRange):
        gentle_decoupling(seg, 6, second_cut=9)
    r = gen_ring(12)
    with pytest.raises(CutOutOfRange):
        gentle_decoupling(r, 3, second_cut=3)
    bare = LatticeOperator.from_matrix(r.matrix, r.cells, r.band, None)
    with pytest.raises(NotAdmissible):
        gentle_decoupling(bare, 0)


def test_half_space_indices_resolve_cuts_like_decoupling():
    line = truncate_ti(make_split_step(1.2, 0.4), 24)
    with pytest.raises(CutOutOfRange, match="single bond"):
        si_left_right(line, 12, second_cut=3)
    r = gen_ring(12)
    messages = set()
    for cut_walk in (si_left_right, gentle_decoupling):
        with pytest.raises(CutOutOfRange) as info:
            cut_walk(r, 3, second_cut=15)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_gentle_decoupling_refuses_singular_swap_seed(monkeypatch):
    # the swap has one seed; when its projection loses rank there is no fallback
    monkeypatch.setattr(
        walkindex.decoupling,
        "admissible_hamiltonian_projection",
        lambda k, rep: np.zeros_like(k),
    )
    with pytest.raises(DecouplingFailed, match="swap seed is singular"):
        gentle_decoupling(gen_ring(12), 0)


# -- contraction on range(P - Q) ---------------------------------------------------

# every walk the decoupling tests above cut, with its cut
DECOUPLED_WALKS = {
    "generating_12": lambda: (gen_ring(12), 0),
    "generating_16": lambda: (gen_ring(16), 0),
    "generating_inverse_14": lambda: (ring(make_generating_example(True), 14), 3),
    "split_step_16": lambda: (ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 16), 0),
    "split_step_24": lambda: (ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 24), 0),
    "trivial_8": lambda: (ring(make_trivial(), 8), 0),
    "doubled_cii_10": lambda: (ring(make_doubled("CII"), 10), 0),
    "doubled_diii_10": lambda: (ring(make_doubled("DIII"), 10), 0),
    "decoupled_line_12": lambda: (truncate_ti(make_generating_example(), 12, "decoupled_unitary"), 6),
}


@pytest.mark.parametrize("name", sorted(DECOUPLED_WALKS))
def test_generator_matches_full_route(name):
    # the generator contracted on range(P - Q) is the one of the whole space
    op, cut = DECOUPLED_WALKS[name]()
    res = gentle_decoupling(op, cut)
    full = contract_perturbation(res.v.matrix, twiddle_rep(op))
    assert np.linalg.norm(res.generator.matrix - full, 2) <= 1e-12


def test_support_spans_range_of_p_minus_q():
    r = ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 16)
    proj = arc_projection(r.cells, 0, 8)
    groups, _ = split_transfer_modes(r, proj)
    s = embedded(r, groups)
    a = ProjectionPair.from_walk(r.matrix, proj).odd_part()
    assert s.shape[1] == np.linalg.matrix_rank(a, tol=1e-8)
    assert np.linalg.norm(s.conj().T @ s - np.eye(s.shape[1])) <= 1e-12
    assert np.linalg.norm(a - s @ (s.conj().T @ a @ s) @ s.conj().T, 2) <= 1e-12
    # exact zeros off the cells within one band of the two cut bonds
    assert [list(m.window) for m in groups] == [[0, 15], [7, 8]]
    assert [sorted(set(m.rows // 2)) for m in groups] == [[0, 15], [7, 8]]
    off = np.setdiff1d(np.arange(r.dim), np.concatenate([m.rows for m in groups]))
    assert not np.any(s[off])


def test_obstructed_names_the_same_index_on_both_routes():
    # -1 on a three-dimensional eigenspace where tr(gamma) = 1, in a random basis;
    # V is the identity off the first four columns of u
    u = haar_unitary(rng(2110), 6)
    gamma = u @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]) @ u.conj().T
    rep = SymmetryRep.from_matrices(SymmetryClass.AIII, 6, gamma=gamma)
    v = u @ np.diag([-1.0, -1.0, 1.0, -1.0, 1.0, 1.0]) @ u.conj().T
    s = u[:, :4]
    messages = []
    for v_s, rep_s in ((v, rep), (s.conj().T @ v @ s, rep.restrict(s))):
        with pytest.raises(Obstructed, match="index 1 in Z") as info:
            contract_perturbation(v_s, rep_s)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_passing_decoupling_takes_no_full_size_factorization(monkeypatch):
    # P - Q is diagonalized on the cut window; the rotation, its gate and the
    # contraction work on range(P - Q)
    r = ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 24)
    shapes = {"eigh": [], "eigvals": [], "svd": []}
    for name, seen in shapes.items():
        original = getattr(np.linalg, name)

        def counting(a, *args, _original=original, _seen=seen, **kwargs):
            _seen.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    norm = np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            shapes["svd"].append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    assert gentle_decoupling(r, 0).ok
    assert shapes["eigh"] and shapes["eigvals"] and shapes["svd"]
    for name, seen in shapes.items():
        assert (r.dim, r.dim) not in seen, name


# -- the full-size route as the oracle ----------------------------------------------


def full_size_answer(op, cut, second_cut=None):
    """``dense_decoupling`` with the measured band of its W' and the half-space
    indices before and after, taken in the order ``gentle_decoupling`` takes them."""
    v, w2, k, counts = dense_decoupling(op, cut, second_cut)
    w2_op = LatticeOperator.from_matrix(w2, op.cells, local_rep=op.local_rep)
    si_before = si_left_right(op, cut, second_cut=second_cut)
    si_after = si_left_right(w2_op, cut, second_cut=second_cut)
    return v, w2, k, counts, w2_op.band, (si_before, si_after)


def assert_matches(res, answer, op, cut, second_cut=None):
    """V, W' and K within 1e-12 of the full-size answer; equal counts, band and
    indices; and the blocks of V, W' and K only where the window groups reach."""
    v, w2, k, counts, band, si = answer
    assert np.linalg.norm(res.v.matrix - v, 2) <= 1e-12
    assert np.linalg.norm(res.w_prime.matrix - w2, 2) <= 1e-12
    assert np.linalg.norm(res.generator.matrix - k, 2) <= 1e-12
    assert res.transfer_counts == counts
    assert res.w_prime.band == band
    assert (res.si_before, res.si_after) == si
    assert_window_blocks(res, op, cut, second_cut)


def assert_window_blocks(res, op, cut, second_cut=None):
    """``V - 1`` and ``K`` have blocks only between the window cells of one
    group, and ``W' - W`` only from the reach cells of a group into its window
    cells; each stack of V, K and W' lies at the offset of such a block, or
    at 0 (V) or an offset of W (W'), so none couples two groups."""
    cells = op.cells
    second = second_bond(cells, cut, second_cut)
    proj = half_space_projection(cells, cut) if second is None else arc_projection(cells, cut, second)
    groups, _ = split_transfer_modes(op, proj)
    n, d = cells.n_cells, cells.cell_dims[0]
    square, rows = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
    for modes in groups:
        square[np.ix_(modes.window, modes.window)] = True
        rows[np.ix_(modes.window, modes.reach)] = True
    changes = {
        "V": (res.v, res.v.matrix - np.eye(op.dim), square, {0}),
        "K": (res.generator, res.generator.matrix, square, set()),
        "W'": (res.w_prime, res.w_prime.matrix - op.matrix, rows, set(op.blocks)),
    }
    x = np.arange(n)
    for name, (made, change, allowed, kept) in changes.items():
        live = np.abs(change).reshape(n, d, n, d).max(axis=(1, 3)) > 0
        assert not np.any(live & ~allowed), name
        reached = set(cells.stored_offset(x[:, None] - x[None, :])[allowed].tolist())
        assert set(made.blocks) <= kept | reached, name


def with_band(op, band):
    return LatticeOperator.from_matrix(op.matrix, op.cells, band, op.local_rep, dict(op.meta))


# beyond DECOUPLED_WALKS: a second cut, the segment geometry of truncate_ti
# (a 4-cell pad), the same with one more declared band so that the two cut
# windows merge across the pad, and a ring that the window covers
ORACLE_WALKS = {
    **{name: lambda make=make: (*make(), None) for name, make in DECOUPLED_WALKS.items()},
    "generating_second_cut": lambda: (gen_ring(16), 2, 7),
    "split_step_pad": lambda: (ring(make_split_step(-5 * np.pi / 16, 2 * np.pi / 16), 16), 0, 12),
    "doubled_cii_merged_pad": lambda: (with_band(ring(make_doubled("CII"), 16), 2), 0, 12),
    "doubled_diii_covered": lambda: (with_band(ring(make_doubled("DIII"), 8), 2), 1, None),
}


@pytest.mark.parametrize("name", sorted(ORACLE_WALKS))
def test_decoupling_matches_the_full_size_route(name):
    op, cut, second_cut = ORACLE_WALKS[name]()
    res = gentle_decoupling(op, cut, second_cut=second_cut)
    assert res.ok
    assert_matches(res, full_size_answer(op, cut, second_cut), op, cut, second_cut)


@pytest.mark.parametrize(
    "name,cells",
    [
        ("doubled_cii_merged_pad", [0, 1, 10, 11, 12, 13, 14, 15]),
        ("doubled_diii_covered", list(range(8))),
    ],
)
def test_cut_windows_merge_and_cover_short_rings(name, cells):
    op, cut, second_cut = ORACLE_WALKS[name]()
    proj = arc_projection(op.cells, cut, second_bond(op.cells, cut, second_cut))
    groups, _ = split_transfer_modes(op, proj)
    assert [m.bonds for m in groups] == [proj.cut_bonds()]
    assert list(groups[0].window) == cells
    assert sorted(set(groups[0].rows // 4)) == cells


def test_far_cuts_leave_no_coupling_between_their_windows():
    # the two cuts of a split-step ring have oblique modes of equal weight; an
    # eigh over both windows mixed them and left couplings of about 3e-16
    # between the windows in V - 1 and K, and stacks at 10 offsets in W'
    r = ring(make_split_step(0.9, 0.3), 24)
    res = gentle_decoupling(r, 0, second_cut=12)
    a, b = [23, 0], [11, 12]
    for name, change in (("V", res.v.matrix - np.eye(r.dim)), ("K", res.generator.matrix)):
        blocks = np.abs(change).reshape(24, 2, 24, 2).max(axis=(1, 3))
        assert blocks[np.ix_(a, a)].any() and blocks[np.ix_(b, b)].any(), name
        assert not blocks[np.ix_(a, b)].any() and not blocks[np.ix_(b, a)].any(), name
    assert sorted(res.w_prime.blocks) == [-2, -1, 0, 1, 2]
    assert_window_blocks(res, r, 0, 12)


def test_mixed_cells_decouple_as_one_block():
    # a zero-dimensional cell in a window makes the cells mixed, so the walk
    # is one block: the windows, the leak and the window updates read it
    r = gen_ring(24)
    per_cell = list(r.local_rep.per_cell)
    per_cell.insert(1, zero_dim_rep(r.local_rep.cls))
    cells = CellStructure(tuple(rep.dim for rep in per_cell), "circle")
    op = LatticeOperator.from_matrix(r.matrix, cells, 2, LocalSymmetryRep(r.local_rep.cls, tuple(per_cell)))
    assert cells.one_block
    res = gentle_decoupling(op, 0, second_cut=13)
    assert res.ok and res.transfer_counts == {0: (1, 1), 13: (1, 1)}
    v, w2, k, counts, band, si = full_size_answer(op, 0, 13)
    assert np.linalg.norm(res.v.matrix - v, 2) <= 1e-12
    assert np.linalg.norm(res.w_prime.matrix - w2, 2) <= 1e-12
    assert np.linalg.norm(res.generator.matrix - k, 2) <= 1e-12
    assert (res.transfer_counts, res.w_prime.band, (res.si_before, res.si_after)) == (counts, band, si)
    with pytest.raises(DecouplingFailed, match="declared band 0 understates"):
        gentle_decoupling(replace(op, band=0), 0, second_cut=13)


SPLIT_A = (9 * np.pi / 32, 7 * np.pi / 32)


def conjugated(op: LatticeOperator, gen, band: int) -> LatticeOperator:
    """The walk in a random cell-local basis, with a declared band."""
    us = [haar_unitary(gen, d) for d in op.cells.cell_dims]
    v = block_diag(*us)
    per_cell = tuple(r.conjugated(u) for r, u in zip(op.local_rep.per_cell, us))
    rep = LocalSymmetryRep(op.local_rep.cls, per_cell)
    return LatticeOperator.from_matrix(v @ op.matrix @ v.conj().T, op.cells, band, rep, dict(op.meta))


def fuzz_case(ti, geometry: str, gen):
    """``(op, cut, second_cut)`` of one geometry: a circle cut at a random bond
    and its antipode or a random second bond, a line cut, the segment
    geometry of ``truncate_ti`` (4-cell pad) with the declared band or one
    more (merged windows), or a ring of 8 cells that the window covers."""
    n = int(gen.integers(10, 15))
    if geometry == "line":
        seg = truncate_ti(ti, n, "decoupled_unitary")
        return conjugated(seg, gen, seg.band), int(gen.integers(4, n - 3)), None
    if geometry == "covered":
        return conjugated(ring(ti, 8), gen, 2), int(gen.integers(0, 8)), None
    r = ring(ti, n + 4)
    if geometry in ("pad", "merged_pad"):
        return conjugated(r, gen, r.band + (geometry == "merged_pad")), 0, n
    cut = int(gen.integers(0, n + 4))
    second = None if geometry == "circle" else (cut + int(gen.integers(5, n))) % (n + 4)
    return conjugated(r, gen, r.band), cut, second


def test_decoupling_matches_the_full_size_route_fuzz():
    # every class on every geometry; transfer modes on the generating and
    # doubled walks, rotation only on the split-step walks.  A refusal must
    # be the full-size route's too, with the same message
    gen = rng(20261022)
    geometries = ("circle", "second_cut", "line", "pad", "merged_pad", "covered")
    answered = transfers = 0
    for t in range(30):
        cls = list(TEN_CLASS_WALKS)[t % 10]
        ti = TEN_CLASS_WALKS[cls]()
        assert ti.cls is cls
        op, cut, second_cut = fuzz_case(ti, geometries[t % len(geometries)], gen)
        try:
            res = gentle_decoupling(op, cut, second_cut=second_cut)
        except WalkIndexError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                full_size_answer(op, cut, second_cut)
            continue
        assert_matches(res, full_size_answer(op, cut, second_cut), op, cut, second_cut)
        answered += 1
        transfers += sum(n_in for n_in, _ in res.transfer_counts.values())
    assert answered >= 25 and transfers > 0


@pytest.mark.parametrize("power,band", [(1, 0), (2, 1), (3, 1), (3, 2)])
def test_understated_band_is_refused_not_decoupled(power, band):
    # W^power hops `power` cells; declared as `band`, part of P - Q lies
    # outside the cut window, and [P, W] there is the refusal's residual
    # (its spectral norm on the rows off the windows, as the full matrix gives it)
    r = ring(make_split_step(*SPLIT_A), 16)
    m = np.linalg.matrix_power(r.matrix, power)
    op = LatticeOperator.from_matrix(m, r.cells, band, r.local_rep)
    for cut, second_cut in ((0, None), (3, 9)):
        proj = arc_projection(r.cells, cut, second_bond(r.cells, cut, second_cut))
        near = [i for bond in proj.cut_bonds() for i in cells_near_bond(r.cells, bond, band)]
        outside = ~r.cells.index_mask(near)
        p = proj.mask().astype(float)
        leak = np.linalg.norm((p[outside, None] - p[None, :]) * m[outside], 2)
        message = f"residual coupling {leak:.3e} outside the cut window: the declared band {band} understates"
        with pytest.raises(DecouplingFailed, match=re.escape(message)):
            gentle_decoupling(op, cut, second_cut=second_cut)


def test_a_correction_that_leaves_a_coupling_is_refused_with_its_exact_norm(monkeypatch):
    # with the rotation replaced by the identity W' is W, and the refusal
    # names the spectral norm of [P, W], read from W's blocks across the cut
    r = ring(make_split_step(*SPLIT_A), 16)
    monkeypatch.setattr(
        walkindex.decoupling, "direct_rotation", lambda modes, tol: np.eye(modes.support.shape[1], dtype=complex)
    )
    p = arc_projection(r.cells, 0, 8).mask().astype(float)
    want = np.linalg.norm((p[:, None] - p[None, :]) * r.matrix, 2)
    with pytest.raises(DecouplingFailed, match=re.escape(f"residual coupling {want:.3e} after correction")):
        gentle_decoupling(r, 0)


def test_obstructed_shift_is_refused_alike_on_both_routes():
    r = ring(make_shift(), 10)
    messages = []
    for route in (gentle_decoupling, dense_decoupling):
        with pytest.raises(Obstructed) as info:
            route(r, 0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_passing_decoupling_takes_no_svd_in_thin_gates(monkeypatch):
    # proxy-window agreement and restriction invariance pass on their screens
    r = ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 24)
    gates = {"_drop_window": walkindex.indices._drop_window, "restrict_runs": walkindex.symmetry.restrict_runs}
    entered = dict.fromkeys(gates, 0)
    inside = []
    svds = []
    for name, original in gates.items():

        def tracking(*args, _original=original, _name=name, **kwargs):
            entered[_name] += 1
            inside.append(_name)
            try:
                return _original(*args, **kwargs)
            finally:
                inside.pop()

        for module in vars(walkindex).values():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, tracking)
    svd, norm = np.linalg.svd, np.linalg.norm

    def counting_svd(a, *args, **kwargs):
        if inside:
            svds.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if inside and ord == 2:
            svds.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    assert gentle_decoupling(r, 0).ok
    assert entered["_drop_window"] and entered["restrict_runs"]
    assert svds == []


# -- segment extraction ------------------------------------------------------------


def test_decouple_segment_generating():
    seg = decouple_segment(gen_ring(16), 12)
    dim = seg.matrix.shape[0]
    assert np.linalg.norm(seg.matrix @ seg.matrix.conj().T - np.eye(dim)) <= 1e-12
    assert seg.band == 1
    assert seg.cells.topology == "line"
    assert sorted(seg.cells.proxy_ends) == ["left", "right"]
    assert seg.meta["boundary"] == "decoupled_unitary"
    # the canonical swap parks one defect eigenvalue at +1 per cut bond
    evals = np.linalg.eigvals(seg.matrix)
    assert int(np.sum(np.abs(evals - 1.0) <= 1e-9)) == 2
    sl, sr = si_left_right(seg, 6)
    assert (int(sl), int(sr)) == (-1, 1)


def test_decouple_segment_argument_errors():
    with pytest.raises(IncompatibleCells):
        decouple_segment(truncate_ti(make_generating_example(), 12, "compress"), 6)
    with pytest.raises(CutOutOfRange):
        decouple_segment(gen_ring(12), 12)
    with pytest.raises(CutOutOfRange):
        decouple_segment(gen_ring(12), 0)


def test_decouple_segment_refuses_changed_indices(monkeypatch):
    calls = []

    def drifting_indices(op, cut, **kwargs):
        calls.append(cut)
        z = IndexValue(IndexGroup.Z, len(calls))
        return -z, z

    monkeypatch.setattr(walkindex.decoupling, "si_left_right", drifting_indices)
    with pytest.raises(DecouplingFailed, match=r"\[-1, 1\] -> \[-2, 2\]"):
        decouple_segment(gen_ring(16), 12)


def test_result_ok_is_index_preservation():
    # gentle_decoupling gates the commutator at 10 * tol.unit; ok does not re-gate it
    si = (IndexValue(IndexGroup.Z, -1), IndexValue(IndexGroup.Z, 1))
    result = DecouplingResult(None, None, None, 5e-9, {}, si, si)
    assert result.ok
    assert not DecouplingResult(None, None, None, 0.0, {}, si, si[::-1]).ok


def test_truncate_ti_decoupled_matches_segment_extraction():
    seg = truncate_ti(make_generating_example(), 12, "decoupled_unitary")
    assert seg.cells.n_cells == 12
    assert seg.meta["boundary"] == "decoupled_unitary"
    dim = seg.matrix.shape[0]
    assert np.linalg.norm(seg.matrix @ seg.matrix.conj().T - np.eye(dim)) <= 1e-12
    sl, sr = si_left_right(seg, 6)
    assert (int(sl), int(sr)) == (-1, 1)


@pytest.mark.parametrize("n", [8, 16, 24])
def test_decoupled_segments_hold_no_stack_beyond_their_band(n):
    # the two cuts of the padded ring are solved apart, so nothing couples the
    # segment's two ends: its stacks lie within its band and its off-band norm
    # is the padding
    for ti in (make_split_step(0.9, 0.3), make_generating_example(), make_doubled("CII")):
        seg = truncate_ti(ti, n, "decoupled_unitary")
        assert seg.band == 1 and sorted(seg.blocks) == [-1, 0, 1]
        assert seg.cell_band.offband == np.sqrt((n * ti.cell_dim) ** 2 * np.finfo(float).tiny)


def test_decoupled_segment_admissible():
    seg = truncate_ti(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 14, "decoupled_unitary")
    rep = seg.local_rep
    assert rep is not None
    assert check_admissible(LatticeOperator.one_cell(seg.matrix), rep, kind="walk", strict=False).max_residual <= 1e-8
    dim = seg.matrix.shape[0]
    assert np.linalg.norm(seg.matrix @ seg.matrix.conj().T - np.eye(dim)) <= 1e-10
