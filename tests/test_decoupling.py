"""Canonical gentle decoupling: projection pairs, transfer swaps, segments.

Expected values are frozen from the exactly solvable walks: the generating
example transfers one state per bond and its correction parks both defect
eigenvalues at +1, the coin-only walk needs no correction at all, and the
bare shift is obstructed at every bond.
"""

from __future__ import annotations

import numpy as np
import pytest

import walkindex
import walkindex.decoupling
from helpers import contraction_path, haar_unitary, identity_defects, rng
from walkindex.decoupling import (
    DecouplingResult,
    ProjectionPair,
    attribute_transfers,
    decouple_segment,
    direct_rotation,
    gentle_decoupling,
    split_transfer_modes,
)
from walkindex.errors import (
    CutOutOfRange,
    DecouplingFailed,
    EigenFailure,
    IncompatibleCells,
    NotAdmissible,
    Obstructed,
)
from walkindex.indices import contract_perturbation, si_left_right, twiddle_rep
from walkindex.lattice import LatticeOperator, arc_projection, half_space_projection
from walkindex.operators import check_admissible, check_unitary
from walkindex.symmetry import IndexGroup, IndexValue, SymmetryClass, SymmetryRep
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


def test_split_transfer_modes_generating():
    r = gen_ring(12)
    pair = ProjectionPair.from_walk(r.matrix, arc_projection(r.cells, 0, 6))
    modes = split_transfer_modes(pair)
    assert modes.dims == (2, 2)
    # incoming states lie inside the region, outgoing states outside
    p = pair.p
    assert np.linalg.norm(p @ modes.incoming - modes.incoming) <= 1e-9
    assert np.linalg.norm(p @ modes.outgoing) <= 1e-9


def test_split_transfer_modes_refuses_dead_band():
    # a region rotated by slightly less than a full transfer leaves
    # eigenvalues of P - Q near but not at +-1: no clean swap exists
    theta = np.arcsin(1.0 - 1e-4)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    p = np.diag([1.0, 0.0]).astype(complex)
    pair = ProjectionPair(p, rot @ p @ rot.conj().T)
    with pytest.raises(DecouplingFailed):
        split_transfer_modes(pair)


def test_attribute_transfers_generating():
    r = gen_ring(12)
    pair = ProjectionPair.from_walk(r.matrix, arc_projection(r.cells, 0, 6))
    modes = split_transfer_modes(pair)
    assert attribute_transfers(modes, r.cells, (0, 6), 2) == {0: (1, 1), 6: (1, 1)}


def test_attribute_transfers_needs_matching_windows():
    r = gen_ring(12)
    pair = ProjectionPair.from_walk(r.matrix, arc_projection(r.cells, 0, 6))
    modes = split_transfer_modes(pair)
    with pytest.raises(DecouplingFailed):
        attribute_transfers(modes, r.cells, (3,), 1)


# -- direct rotation ---------------------------------------------------------------


def test_direct_rotation_identity_for_coin_walk():
    # a coin-only walk preserves every region, so the alignment map is the
    # identity and no rotation is needed
    r = ring(make_trivial(), 8)
    pair = ProjectionPair.from_walk(r.matrix, arc_projection(r.cells, 0, 4))
    assert np.linalg.norm(direct_rotation(pair) - np.eye(pair.dim)) <= 1e-10


def test_direct_rotation_vanishes_on_transfers():
    r = gen_ring(12)
    pair = ProjectionPair.from_walk(r.matrix, arc_projection(r.cells, 0, 6))
    modes = split_transfer_modes(pair)
    v = direct_rotation(pair, transfer_basis=modes.basis())
    assert np.linalg.norm(v @ modes.basis()) <= 1e-10
    assert np.linalg.norm(v.conj().T @ modes.basis()) <= 1e-10


def test_direct_rotation_spectrum_in_right_half_plane():
    r = ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 16)
    pair = ProjectionPair.from_walk(r.matrix, arc_projection(r.cells, 0, 8))
    v = direct_rotation(pair)
    check_unitary(v)
    assert float(np.min(np.linalg.eigvals(v).real)) >= -1e-9


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
    assert float(np.min(np.linalg.eigvals(res.v).real)) >= -1e-9


def test_gentle_decoupling_path_is_admissible_homotopy():
    r = gen_ring(12)
    rep = r.local_rep
    res = gentle_decoupling(r, 0)
    path = [sample @ r.matrix for sample in contraction_path(res.generator, 8)]
    assert len(path) == 9
    assert np.linalg.norm(path[0] - res.w_prime.matrix) <= 1e-12
    assert np.linalg.norm(path[-1] - r.matrix) <= 1e-12
    for sample in path:
        check_unitary(sample)
        assert check_admissible(sample, rep, kind="walk", strict=False).max_residual <= 1e-8


def test_gentle_decoupling_checks_each_matrix_once(monkeypatch):
    # the walk (in twiddle_rep), the decoupled walk and the generator
    r = ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 24)
    calls = {"check_admissible": [], "check_unitary": []}
    for name, seen in calls.items():
        original = getattr(walkindex.operators, name)

        def counting(m, *args, _original=original, _seen=seen, **kwargs):
            _seen.append(np.shape(m))
            return _original(m, *args, **kwargs)

        for module in vars(walkindex).values():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    gentle_decoupling(r, 0)
    full = {name: sum(shape == (r.dim, r.dim) for shape in seen) for name, seen in calls.items()}
    assert full["check_admissible"] == 3
    assert full["check_unitary"] <= 3


def test_gentle_decoupling_trivial_needs_no_correction():
    r = ring(make_trivial(), 8)
    res = gentle_decoupling(r, 0)
    assert res.ok
    assert np.linalg.norm(res.v - np.eye(r.dim)) <= 1e-10
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
    assert float(np.min(np.linalg.eigvals(res.v).real)) >= 0.6


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
    bare = LatticeOperator(r.matrix, r.cells, r.band, None)
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
    full = contract_perturbation(res.v, twiddle_rep(op))
    assert np.linalg.norm(res.generator - full, 2) <= 1e-12


def test_support_spans_range_of_p_minus_q():
    r = ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 16)
    pair = ProjectionPair.from_walk(r.matrix, arc_projection(r.cells, 0, 8))
    s = split_transfer_modes(pair).support
    a = pair.odd_part()
    assert s.shape[1] == np.linalg.matrix_rank(a, tol=1e-8)
    assert np.linalg.norm(s.conj().T @ s - np.eye(s.shape[1])) <= 1e-12
    assert np.linalg.norm(a - s @ (s.conj().T @ a @ s) @ s.conj().T, 2) <= 1e-12


def test_obstructed_names_the_same_index_on_both_routes():
    # -1 on a three-dimensional eigenspace where tr(gamma) = 1, in a random basis
    u = haar_unitary(rng(2110), 6)
    gamma = u @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]) @ u.conj().T
    rep = SymmetryRep.from_matrices(SymmetryClass.AIII, 6, gamma=gamma)
    v = u @ np.diag([-1.0, -1.0, 1.0, -1.0, 1.0, 1.0]) @ u.conj().T
    messages = []
    for support in (None, u[:, :4]):
        with pytest.raises(Obstructed, match="index 1 in Z") as info:
            contract_perturbation(v, rep, support=support)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_perturbation_off_its_support_is_refused():
    r = ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 16)
    trep = twiddle_rep(r)
    pair = ProjectionPair.from_walk(r.matrix, arc_projection(r.cells, 0, 8))
    s = split_transfer_modes(pair).support
    v = gentle_decoupling(r, 0).v
    contract_perturbation(v, trep, support=s)
    x = np.eye(r.dim)[:, 0] - s @ s.conj().T[:, 0]
    x /= np.linalg.norm(x)
    kicked = v @ (np.eye(r.dim) + (np.exp(1e-6j) - 1) * np.outer(x, x.conj()))
    with pytest.raises(EigenFailure, match="off its support"):
        contract_perturbation(kicked, trep, support=s)


def test_gentle_decoupling_takes_one_full_size_eigh(monkeypatch):
    # the eigh of P - Q in split_transfer_modes; V is contracted on its range
    r = ring(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 24)
    shapes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    gentle_decoupling(r, 0)
    assert shapes.count((r.dim, r.dim)) == 1


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


def test_decoupled_segment_admissible():
    seg = truncate_ti(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 14, "decoupled_unitary")
    rep = seg.local_rep
    assert rep is not None
    assert check_admissible(seg.matrix, rep, kind="walk", strict=False).max_residual <= 1e-8
    dim = seg.matrix.shape[0]
    assert np.linalg.norm(seg.matrix @ seg.matrix.conj().T - np.eye(dim)) <= 1e-10
