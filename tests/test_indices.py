"""Half-space, Fredholm, and relative indices; bulk-boundary verification."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import walkindex.indices
import walkindex.lattice

from helpers import (
    CHIRAL_PLUS,
    TEN_CLASS_WALKS,
    cell_layouts,
    conjugate_ti,
    contraction_path,
    dense_decoupling,
    dense_kernel_basis,
    dense_kernel_cluster,
    dense_near_spectrum,
    dense_rep,
    drop_window_projectors,
    haar_unitary,
    mixed_cell_walk,
    normal_form_rep,
    pm_one_gap,
    random_admissible_walk,
    random_rep,
    rng,
    with_cell_bases,
)
from test_acceptance import FAMILIES
from walkindex.errors import (
    EigenFailure,
    IncompatibleCells,
    NonIntegerTrace,
    NotAdmissible,
    NotDecoupled,
    NotUnitary,
    Obstructed,
    TooShort,
    WindowAmbiguous,
)
from walkindex.indices import (
    CHIRAL_EVEN_FLOOR,
    CHIRAL_MIN_ROWS,
    ESSENTIAL_KERNEL_CEILING,
    WINDOW_AGREEMENT,
    _chiral_block,
    _chord_reach,
    _drop_window,
    _gap_certified,
    _NearRecord,
    _near_basis,
    _pm_eigenspaces,
    bulk_right_index,
    contract_perturbation,
    fredholm_index,
    index_matrix,
    near_spectrum,
    relative_index,
    si_left_right,
    si_pm,
    si_total,
    twiddle_rep,
    verify_bulk_boundary,
    verify_locpert,
)
from walkindex.lattice import (
    CellStructure,
    LatticeOperator,
    LocalSymmetryRep,
    compress,
    half_space_projection,
    half_spaces,
    split_by_weight,
)
from walkindex.cli import main
from walkindex.decoupling import gentle_decoupling
from walkindex.finite import join_crossover
from walkindex.operators import (
    admissible_hamiltonian_projection,
    check_admissible,
    eig_unitary,
    imaginary_part,
)
from walkindex.symmetry import (
    IndexGroup,
    SymmetryClass,
    SymmetryRep,
    block_diagonal,
    frobenius_bound,
    screened_norm,
    spectral_norm,
    trace_runs,
)
from walkindex.tolerances import DEFAULT_TOL
from walkindex.walks import (
    TIWalk,
    build_lattice,
    make_doubled,
    make_generating_example,
    make_shift,
    make_split_step,
    make_trivial,
    truncate_ti,
    winding_number,
)

C = SymmetryClass


one = LatticeOperator.one_cell  # a plain matrix as an operator on one cell


def generating_ring(n: int = 12) -> LatticeOperator:
    return build_lattice(make_generating_example(), n, "circle")


def decoupled_generating_segment(n: int) -> LatticeOperator:
    """Exactly unitary segment of the generating walk, defects pinned at +1.

    The compression has a one-dimensional kernel at each end (an up mover at
    the left, a down mover at the right); since range and kernel coincide for
    this walk, adding the two rank-1 corrections restores unitarity.
    """
    seg = truncate_ti(make_generating_example(), n, "compress")
    m = seg.matrix.copy()
    m[0, 0] += 1.0
    m[2 * n - 1, 2 * n - 1] += 1.0
    return LatticeOperator.from_matrix(m, seg.cells, seg.band, seg.local_rep, dict(seg.meta))


def local_reflection(ring: LatticeOperator, cell: int) -> tuple[np.ndarray, np.ndarray]:
    """A rank-1 admissible reflection supported near one cell of the ring.

    The vector is a normalized column of the +1 spectral projection of the
    companion chiral operator, so the reflection has relative index +1.
    """
    trep = twiddle_rep(ring)
    gt = trep.ops["gamma"].matrix
    col = ((np.eye(ring.dim) + gt) / 2)[:, ring.cells.cell_slice(cell).start]
    v = (col / np.linalg.norm(col)).reshape(-1, 1)
    return np.eye(ring.dim) - 2 * v @ v.conj().T, v


# -- si of eigenspaces --------------------------------------------------------------


def test_si_pm_balanced_minus_one():
    rep = make_generating_example().cell_rep
    minus, plus = si_pm(one(-np.eye(2)), rep)
    assert int(minus) == 0 and int(plus) == 0


def test_si_pm_diagonal_chiral():
    rep = SymmetryRep.from_matrices(C.AIII, 2, gamma=np.diag([1.0, -1.0]))
    minus, plus = si_pm(one(np.diag([-1.0 + 0j, 1.0])), rep)
    assert int(minus) == 1 and int(plus) == -1


def test_si_pm_class_d_det_parity():
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    w = np.array([[c, -s, 0], [s, c, 0], [0, 0, -1]], dtype=complex)
    rep = SymmetryRep.from_matrices(C.D, 3, eta=np.eye(3))
    minus, plus = si_pm(one(w), rep)
    assert int(minus) == 1 and int(plus) == 0
    assert minus.group is IndexGroup.Z2


def test_si_pm_generating_ring_is_balanced():
    ring = generating_ring()
    minus, plus = si_pm(ring)
    assert int(minus) == 0 and int(plus) == 0


def test_si_pm_decoupled_segment_sums_to_zero():
    seg = decoupled_generating_segment(8)
    minus, plus = si_pm(seg)
    assert int(minus) + int(plus) == 0
    # two defect eigenvalues at +1 with opposite chiral weights
    vals = np.linalg.eigvals(seg.matrix)
    assert np.sum(np.abs(vals - 1) < 1e-9) == 2


def test_si_pm_requires_unitary():
    seg = truncate_ti(make_generating_example(), 8, "compress")
    with pytest.raises(NotUnitary):
        si_pm(seg)


# a phase breaks gamma W gamma^-1 = W*, so neither input below is admissible
CHECKED_ENTRY_POINTS = {
    "si_pm": lambda op: si_pm(op),
    "twiddle_rep": lambda op: twiddle_rep(op),
    "contract_perturbation": lambda op: contract_perturbation(op.matrix, dense_rep(op)),
    "verify_bulk_boundary": lambda op: verify_bulk_boundary(make_trivial(), make_trivial(), op),
}


@pytest.mark.parametrize("entry", sorted(CHECKED_ENTRY_POINTS))
def test_unitarity_is_checked_before_admissibility(entry):
    seg = truncate_ti(make_trivial(), 6, "compress")
    phase = np.exp(0.3j) * np.eye(seg.dim)
    call = CHECKED_ENTRY_POINTS[entry]
    with pytest.raises(NotUnitary):
        call(LatticeOperator.from_matrix(1.5 * phase, seg.cells, 0, seg.local_rep))
    with pytest.raises(NotAdmissible):
        call(LatticeOperator.from_matrix(phase, seg.cells, 0, seg.local_rep))


def test_pm_eigenspaces_pick_target():
    gen = rng(14)
    u = haar_unitary(gen, 5)
    w = u @ np.diag([1.0, 1.0, -1.0, 1j, -1j]) @ u.conj().T
    minus, plus = _pm_eigenspaces(one(w), DEFAULT_TOL)
    assert plus.shape[1] == 2 and minus.shape[1] == 1
    assert np.linalg.norm(w @ plus - plus) < 1e-9


def test_pm_eigenspaces_orthonormal_on_near_degenerate_pairs():
    # eigh of Im W returns the two +-1 pairs of this circle join as vectors
    # with an orthonormality defect of about 6e-10; used as they came, the
    # +1 pair read an invariance residual of 7.7e-10 against the 1e-9 gate
    left = make_split_step(-1.1539442633140755, 0.45381585750015385)
    right = make_split_step(1.196500742480596, -0.3849940163793574)
    m = join_crossover(left, right, 16, 16, "circle").matrix
    for basis in _pm_eigenspaces(one(m), DEFAULT_TOL):
        assert basis.shape[1] == 2
        assert spectral_norm(basis.conj().T @ basis - np.eye(2)) <= 1e-12
        assert spectral_norm(m @ basis - basis @ (basis.conj().T @ m @ basis)) <= 1e-12


@pytest.mark.parametrize("anchor", [1.0, -1.0, np.exp(0.7j)])
def test_near_spectrum_matches_dense_eigenbasis(anchor):
    # eigenphases 0 to 0.3 away from +-anchor and the rest at chord distance
    # above 1; every radius sits far from each of them, so the chord rule and
    # the dense eigenbasis of eig_unitary select the same eigenpairs
    phases = np.array([0.0, 1e-9, -1e-4, 0.05, np.pi - 1e-4, np.pi + 0.3, 1.2, -1.5, 2.0])
    u = haar_unitary(rng(1600), phases.size)
    w = u @ np.diag(anchor * np.exp(1j * phases)) @ u.conj().T
    eig = eig_unitary(w)
    for radius in (1e-3, 0.1, 0.4):
        near, min_im = near_spectrum(one(w), anchor, radius=radius)
        mask = (np.abs(eig.values - anchor) <= radius) | (np.abs(eig.values + anchor) <= radius)
        np.testing.assert_allclose(near.values, eig.values[mask], rtol=0, atol=1e-12)
        ref = eig.vectors[:, mask]
        assert spectral_norm(near.vectors @ near.vectors.conj().T - ref @ ref.conj().T) <= 1e-12
        assert min_im == pytest.approx(np.min(np.abs(np.sin(phases))), abs=1e-14)


def test_si_pm_refuses_non_invariant_span():
    # a non-normal matrix let through by a loose unitarity tolerance: W does
    # not map the kernel vector of Im W into its span
    w = np.diag([1.0, 1j, -1j])
    w[0, 1] = 0.01
    loose = DEFAULT_TOL.with_(unit=0.1)
    with pytest.raises(EigenFailure, match="invariance residual"):
        si_pm(one(w), SymmetryRep.from_matrices(C.A, 3), tol=loose)


def test_si_pm_window_guard():
    # the pair sits just past the old fixed 1e-7 radius; it is balanced, so
    # every ceiling gives the same indices
    eps = 1.05e-7
    w = np.diag([np.exp(1j * eps), np.exp(-1j * eps)])
    rep = SymmetryRep.from_matrices(C.AIII, 2, gamma=np.array([[0, 1], [1, 0]], dtype=complex))
    for ceiling in (1e-7, 1e-3, ESSENTIAL_KERNEL_CEILING):
        minus, plus = si_pm(one(w), rep, ceiling=ceiling)
        assert (int(minus), int(plus)) == (0, 0)


def test_si_pm_class_d_parity_reads_tol_idx():
    # det W of a random class-D walk is +-1 only to rounding; a tiny tol.idx
    # must reach the parity gate
    gen = rng(31)
    rep = random_rep(C.D, gen, p=6)
    w = one(random_admissible_walk(rep, gen))
    si_pm(w, rep)
    with pytest.raises(NonIntegerTrace, match="det W"):
        si_pm(w, rep, tol=DEFAULT_TOL.with_(idx=1e-18))


def test_si_total_gapped_coin_is_zero():
    rep = SymmetryRep.from_matrices(C.A, 2)
    assert int(si_total(one(1j * np.eye(2)), rep)) == 0


def test_si_total_equals_si_pm_sum_random():
    gen = rng(23)
    for cls in (C.AIII, C.BDI, C.D, C.CII, C.DIII):
        for _ in range(5):
            rep = random_rep(cls, gen, p=2, q=2)
            w = one(random_admissible_walk(rep, gen))
            minus, plus = si_pm(w, rep)
            assert int(si_total(w, rep)) == int(minus + plus)


def test_si_total_one_sided_compression():
    seg = truncate_ti(make_generating_example(), 12, "compress")
    right = compress(seg, half_space_projection(seg.cells, 4, side="geq"))
    assert int(si_total(right)) == 1
    # one cell has no proxy ends: the far-end mode cancels the cut mode
    assert int(si_total(one(right.matrix), right.local_rep)) == 0


def test_si_left_right_generating_segment():
    seg = truncate_ti(make_generating_example(), 12, "compress")
    left, right = si_left_right(seg, 6)
    assert int(left) == -1 and int(right) == 1


def test_si_left_right_cut_independence_line():
    seg = truncate_ti(make_generating_example(), 14, "compress")
    values = {si_left_right(seg, a) for a in range(3, 12)}
    assert len({(int(l), int(r)) for l, r in values}) == 1


def test_si_left_right_cut_independence_circle():
    ring = generating_ring(14)
    results = {(int(l), int(r)) for l, r in (si_left_right(ring, a) for a in range(14))}
    assert results == {(-1, 1)}


def test_si_left_right_additivity():
    ring = generating_ring(12)
    left, right = si_left_right(ring, 3)
    assert int(si_total(ring)) == int(left + right)
    seg = truncate_ti(make_generating_example(), 12, "compress")
    left, right = si_left_right(seg, 6)
    assert int(si_total(seg)) == int(left + right)


def test_si_left_right_trivial_walk():
    ring = build_lattice(make_trivial(), 10, "circle")
    left, right = si_left_right(ring, 4)
    assert int(left) == 0 and int(right) == 0


def test_si_left_right_doubled_walks():
    dring = build_lattice(make_doubled("DIII"), 12, "circle")
    left, right = si_left_right(dring, 3)
    assert int(right) == 2 and right.group is IndexGroup.TWO_Z2
    assert int(left) == 2  # -2 and 2 coincide mod 4
    cring = build_lattice(make_doubled("CII"), 12, "circle")
    left, right = si_left_right(cring, 3)
    assert (int(left), int(right)) == (-2, 2)


def test_si_left_right_cut_too_close():
    seg = truncate_ti(make_generating_example(), 12, "compress")
    with pytest.raises(TooShort):
        si_left_right(seg, 1)


def test_si_left_right_stable_under_distant_perturbation():
    ring = generating_ring(20)
    refl, _ = local_reflection(ring, 8)
    perturbed = LatticeOperator.from_matrix(refl @ ring.matrix, ring.cells, 2, ring.local_rep)
    assert int(relative_index(ring, one(refl @ ring.matrix))) == 1
    before = tuple(int(x) for x in si_left_right(ring, 4, second_cut=14))
    after = tuple(int(x) for x in si_left_right(perturbed, 4, second_cut=14))
    assert before == after == (-1, 1)


def test_si_left_right_mid_piece_perturbation_is_ambiguous():
    # a perturbation dead in the middle of a 10-cell piece cannot be told
    # apart from a slowly decaying far-end mode, so attribution must refuse
    ring = generating_ring(20)
    refl, _ = local_reflection(ring, 9)
    perturbed = LatticeOperator.from_matrix(refl @ ring.matrix, ring.cells, 2, ring.local_rep)
    with pytest.raises(WindowAmbiguous):
        si_left_right(perturbed, 4, second_cut=14)


def test_si_pm_homotopy_stability():
    # perturb an anchored walk admissibly below the gap bound: the
    # unbalanced +-1 eigenvalues cannot move at all
    ring = generating_ring(10)
    rep = ring.local_rep
    refl, _ = local_reflection(ring, 0)
    wp = refl @ ring.matrix
    assert [int(x) for x in si_pm(one(wp), rep)] == [1, -1]
    gen = rng(11)
    trep = twiddle_rep(one(wp), rep)
    z = gen.normal(size=(20, 20)) + 1j * gen.normal(size=(20, 20))
    k = admissible_hamiltonian_projection(z, trep)
    margin = pm_one_gap(wp)
    d = 1  # anchored eigenspace dimension per phase
    eps = margin / (2 * (2 * d + 1)) / np.linalg.norm(k, 2) * 0.9
    w1 = expm(1j * eps * k) @ wp
    assert [int(x) for x in si_pm(one(w1), rep)] == [1, -1]
    vals = np.linalg.eigvals(w1)
    assert np.min(np.abs(vals + 1)) < 1e-12
    assert np.min(np.abs(vals - 1)) < 1e-12


# -- Fredholm index -----------------------------------------------------------------


def test_fredholm_shift_is_one():
    seg = truncate_ti(make_shift(), 12, "compress")
    report = fredholm_index(seg, 5)
    assert report.index == 1
    assert (report.kernel_dim, report.cokernel_dim) == (1, 0)
    assert report.trace_route == pytest.approx(1.0, abs=1e-12)
    assert int(report) == 1


def test_fredholm_gapped_walk_is_zero():
    seg = truncate_ti(make_generating_example(), 12, "compress")
    report = fredholm_index(seg, 5)
    assert report.index == 0
    assert report.trace_route == pytest.approx(0.0, abs=1e-12)


def test_fredholm_opposite_shifts_cancel():
    blocks = {
        -1: np.diag([1.0, 0.0]).astype(complex),
        1: np.diag([0.0, 1.0]).astype(complex),
    }
    both = TIWalk(
        "both_shifts", C.A, 2, blocks, SymmetryRep.from_matrices(C.A, 2)
    )
    seg = truncate_ti(both, 12, "compress")
    report = fredholm_index(seg, 5)
    assert report.index == 0
    assert (report.kernel_dim, report.cokernel_dim) == (1, 1)


def test_fredholm_cut_independent():
    seg = truncate_ti(make_shift(), 14, "compress")
    assert {fredholm_index(seg, a).index for a in range(3, 12)} == {1}


def test_fredholm_needs_line():
    ring = generating_ring(10)
    with pytest.raises(IncompatibleCells):
        fredholm_index(ring, 3)


# -- the companion representation and relative indices --------------------------------


def test_twiddle_rep_identity_walk():
    rep = normal_form_rep(C.BDI, 2, 2)
    trep = twiddle_rep(one(np.eye(4)), rep)
    for name in rep.ops:
        assert np.allclose(trep.ops[name].matrix, rep.ops[name].matrix)


def test_twiddle_rep_generating_ring():
    ring = generating_ring(10)
    trep = twiddle_rep(ring)
    assert trep.cls is C.BDI
    tau = dense_rep(ring).ops["tau"].matrix
    assert np.allclose(trep.ops["tau"].matrix, ring.matrix @ tau)
    report = trep.validate()
    assert report.max_residual < 1e-10


def test_twiddle_rep_split_step_ring():
    from walkindex.walks import make_split_step

    ring = build_lattice(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), 10, "circle")
    trep = twiddle_rep(ring)
    assert trep.validate().max_residual < 1e-10


@pytest.mark.parametrize("cls", list(C), ids=lambda c: c.value)
def test_twiddle_rep_satisfies_the_class_relations(cls):
    # twiddle_rep does not validate the companion rep it returns; its
    # relations follow from the rep's and the walk's, and validate is the oracle
    gen = rng(1601)
    for _ in range(3):
        rep = random_rep(cls, gen, p=2, q=1)
        trep = twiddle_rep(one(random_admissible_walk(rep, gen)), rep)
        assert trep.cls is cls
        assert trep.validate().max_residual < 1e-10


def test_relative_index_identity_perturbation():
    ring = generating_ring(10)
    assert int(relative_index(ring, one(ring.matrix))) == 0


def test_relative_index_rank_one_reflection():
    ring = generating_ring(12)
    refl, _ = local_reflection(ring, 4)
    assert int(relative_index(ring, one(refl @ ring.matrix))) == 1


def test_verify_locpert_reflection():
    ring = generating_ring(12)
    refl, _ = local_reflection(ring, 4)
    report = verify_locpert(ring, one(refl @ ring.matrix))
    assert report.ok
    assert int(report.relative) == 1
    assert (int(report.si_minus_before), int(report.si_minus_after)) == (0, 1)
    assert (int(report.si_plus_before), int(report.si_plus_after)) == (0, -1)


def test_relative_index_chain_rule():
    ring = generating_ring(14)
    rep = ring.local_rep
    r1, _ = local_reflection(ring, 2)
    r2, _ = local_reflection(ring, 9)
    w1 = one(r1 @ ring.matrix)
    w2 = one(r2 @ w1.matrix)
    total = relative_index(ring, w2)
    assert int(total) == int(relative_index(ring, w1) + relative_index(w1, w2, rep))


def test_relative_index_distant_additivity():
    ring = generating_ring(14)
    r1, v1 = local_reflection(ring, 2)
    r2, v2 = local_reflection(ring, 9)
    assert abs(v1.conj().T @ v2)[0, 0] < 1e-12  # disjoint supports
    separate = int(relative_index(ring, one(r1 @ ring.matrix))) + int(
        relative_index(ring, one(r2 @ ring.matrix))
    )
    assert int(relative_index(ring, one(r1 @ r2 @ ring.matrix))) == separate == 2


def test_relative_index_fuzz_locpert():
    gen = rng(37)
    trials = 0
    while trials < 30:
        cls = [C.AIII, C.BDI, C.D, C.CII][trials % 4]
        rep = random_rep(cls, gen, p=2, q=2)
        w = random_admissible_walk(rep, gen)
        trep = twiddle_rep(one(w), rep)
        z = gen.normal(size=(rep.dim, rep.dim)) + 1j * gen.normal(size=(rep.dim, rep.dim))
        v = expm(1j * admissible_hamiltonian_projection(z, trep))
        try:
            report = verify_locpert(one(w), one(v @ w), rep)
        except WindowAmbiguous:
            continue
        assert report.ok
        trials += 1


def test_contract_identity_is_constant():
    rep = normal_form_rep(C.BDI, 1, 1)
    path = contraction_path(contract_perturbation(np.eye(2, dtype=complex), rep), 4)
    assert len(path) == 5
    for sample in path:
        assert np.allclose(sample, np.eye(2))


def test_contract_conjugate_pair():
    rep = SymmetryRep.from_matrices(
        C.AIII, 2, gamma=np.array([[0, 1], [1, 0]], dtype=complex)
    )
    v = np.diag([np.exp(0.9j), np.exp(-0.9j)])
    path = contraction_path(contract_perturbation(v, rep), 8)
    assert len(path) == 9
    assert np.allclose(path[0], v, atol=1e-10)
    assert np.allclose(path[-1], np.eye(2), atol=1e-12)
    # pair angles shrink monotonically
    angles = [float(np.max(np.abs(np.angle(np.linalg.eigvals(p))))) for p in path]
    assert all(a1 >= a2 - 1e-12 for a1, a2 in zip(angles, angles[1:]))


def test_contract_balanced_minus_block():
    rep = SymmetryRep.from_matrices(C.AIII, 2, gamma=np.diag([1.0, -1.0]))
    path = contraction_path(contract_perturbation(-np.eye(2, dtype=complex), rep), 6)
    assert np.allclose(path[-1], np.eye(2), atol=1e-12)
    # interior samples stay away from -1
    for sample in path[1:]:
        assert np.min(np.abs(np.linalg.eigvals(sample) + 1)) > 0.1


def test_contract_validates_minus_rep_once(monkeypatch):
    rep = SymmetryRep.from_matrices(C.AIII, 2, gamma=np.diag([1.0, -1.0]))
    validated = []
    validate = SymmetryRep.validate

    def counting_validate(self, *args, **kwargs):
        validated.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(SymmetryRep, "validate", counting_validate)
    contract_perturbation(-np.eye(2, dtype=complex), rep)
    assert len(validated) == 1
    assert validated[0] is not rep and validated[0].dim == 2


def test_contract_refuses_edge_eigenvalue():
    # the pair sits 1e-10 rad inside the -1 window edge: its side is undecidable
    rep = SymmetryRep.from_matrices(
        C.AIII, 2, gamma=np.array([[0, 1], [1, 0]], dtype=complex)
    )
    phi = np.pi - 0.999e-7
    v = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    with pytest.raises(WindowAmbiguous, match="window edge"):
        contract_perturbation(v, rep)


def test_contract_obstructed():
    for d in (1, 2):
        rep = SymmetryRep.from_matrices(C.AIII, d, gamma=np.eye(d))
        with pytest.raises(Obstructed, match=f"index {d} in Z"):
            contract_perturbation(-np.eye(d, dtype=complex), rep)


# -- bulk-boundary correspondence ------------------------------------------------------


def test_bulk_right_index_per_class():
    assert int(bulk_right_index(make_generating_example())) == 1
    assert int(bulk_right_index(make_trivial())) == 0
    assert int(bulk_right_index(make_doubled("CII"))) == 2
    assert int(bulk_right_index(make_doubled("DIII"))) == 2
    flat = TIWalk(
        "flat", C.A, 1, {0: 1j * np.eye(1)}, SymmetryRep.from_matrices(C.A, 1)
    )
    assert int(bulk_right_index(flat)) == 0


def join_blockdiag(left_m: np.ndarray, right_m: np.ndarray, cell_rep) -> LatticeOperator:
    d = left_m.shape[0] + right_m.shape[0]
    n = d // 2
    m = np.zeros((d, d), dtype=complex)
    m[: left_m.shape[0], : left_m.shape[0]] = left_m
    m[left_m.shape[0] :, left_m.shape[0] :] = right_m
    cells = CellStructure.uniform(n, 2, "line")
    return LatticeOperator.from_matrix(m, cells, 1, LocalSymmetryRep.uniform(cell_rep, n))


def test_verify_bulk_boundary_trivial_vs_generating():
    gen_w = make_generating_example()
    triv = make_trivial()
    left_m = truncate_ti(triv, 8, "compress").matrix
    right_m = decoupled_generating_segment(8).matrix
    joined = join_blockdiag(left_m, right_m, gen_w.cell_rep)
    report = verify_bulk_boundary(triv, gen_w, joined)
    assert report.ok
    assert int(report.expected) == 1
    assert int(report.measured) == 1
    assert report.protected_dim == 1


def test_verify_bulk_boundary_identical_bulks():
    gen_w = make_generating_example()
    piece = decoupled_generating_segment(8).matrix
    joined = join_blockdiag(piece, piece, gen_w.cell_rep)
    report = verify_bulk_boundary(gen_w, gen_w, joined)
    assert report.ok
    assert int(report.expected) == 0
    assert int(report.measured) == 0
    # the interface hosts a balanced pair, allowed but not required
    assert report.protected_dim == 2


def test_verify_bulk_boundary_does_not_read_tol_exact():
    gen_w = make_generating_example()
    triv = make_trivial()
    left_m = truncate_ti(triv, 8, "compress").matrix
    right_m = decoupled_generating_segment(8).matrix
    joined = join_blockdiag(left_m, right_m, gen_w.cell_rep)
    report = verify_bulk_boundary(triv, gen_w, joined)
    assert report.ok
    # tol.exact at 1e-6 or at the first unprotected eigenphase, which a fixed
    # eigenphase radius used to refuse, leaves the report unchanged
    phases = np.abs(np.angle(np.linalg.eigvals(joined.matrix)))
    dist = np.sort(np.minimum(phases, np.pi - phases))
    edge = float(dist[dist > 0.1][0])
    for exact in (1e-6, edge):
        tol = DEFAULT_TOL.with_(exact=exact)
        assert verify_bulk_boundary(triv, gen_w, joined, tol=tol) == report


def test_verify_bulk_boundary_rejects_mixed_classes():
    gen_w = make_generating_example()
    piece = decoupled_generating_segment(8)
    with pytest.raises(IncompatibleCells):
        verify_bulk_boundary(gen_w, make_shift(), piece)


def test_verify_bulk_boundary_rejects_circle():
    gen_w = make_generating_example()
    ring = generating_ring(10)
    with pytest.raises(IncompatibleCells):
        verify_bulk_boundary(gen_w, gen_w, ring)


# -- the 2x2 index table ---------------------------------------------------------------


def test_index_matrix_decoupled_generating():
    left = decoupled_generating_segment(8).matrix
    right = decoupled_generating_segment(8).matrix
    joined = join_blockdiag(left, right, make_generating_example().cell_rep)
    table = index_matrix(joined, 8)
    assert table.as_table() == {
        "minus_left": 0,
        "minus_right": 0,
        "plus_left": -1,
        "plus_right": 1,
    }
    assert (int(table.si_left), int(table.si_right)) == (-1, 1)
    assert (int(table.si_minus), int(table.si_plus)) == (0, 0)
    assert int(table.total) == 0


def test_index_matrix_trivial_walk():
    m = truncate_ti(make_trivial(), 12, "compress").matrix
    joined = LatticeOperator.from_matrix(
        m,
        CellStructure.uniform(12, 2, "line"),
        0,
        LocalSymmetryRep.uniform(make_trivial().cell_rep, 12),
    )
    table = index_matrix(joined, 6)
    assert all(v == 0 for v in table.as_table().values())


def test_index_matrix_requires_decoupled():
    seg = decoupled_generating_segment(12)
    with pytest.raises(NotDecoupled):
        index_matrix(seg, 5)


def test_index_matrix_consistent_with_half_space():
    left = decoupled_generating_segment(8).matrix
    right = decoupled_generating_segment(8).matrix
    joined = join_blockdiag(left, right, make_generating_example().cell_rep)
    table = index_matrix(joined, 8)
    sl, sr = si_left_right(joined, 8)
    assert int(table.si_left) == int(sl)
    assert int(table.si_right) == int(sr)
    minus, plus = si_pm(joined)
    assert int(table.si_minus) == int(minus)
    assert int(table.si_plus) == int(plus)


# -- momentum formula vs half-space index ------------------------------------------


@pytest.mark.parametrize(
    "ti",
    [
        make_generating_example(),
        make_generating_example(inverse=True),
        make_split_step(9 * np.pi / 32, 7 * np.pi / 32),
        make_split_step(-5 * np.pi / 16, 2 * np.pi / 16),
        make_trivial(),
        make_doubled("CII"),
    ],
    ids=["gen", "gen_inv", "split_a", "split_b", "trivial", "cii"],
)
def test_winding_equals_right_half_space_index(ti):
    # the momentum-space winding of a gapped chiral walk counts exactly the
    # boundary modes its truncation creates at a cut, for every cut deep
    # enough that the mode tails at both piece ends are resolved
    w = int(winding_number(ti).value)
    n = max(24, 6 * ti.band)
    seg = truncate_ti(ti, n, "compress")
    for cut in (n // 2, n // 2 - 2, n // 2 + 2):
        sl, sr = si_left_right(seg, cut)
        assert int(sr) == w
        assert int(sl) == -w


# -- proxy-window attribution: thin bases against the projector oracle --------------


def _window_outcome(drop, basis, cells, band):
    try:
        return drop(basis, cells, band, "kernel")
    except WindowAmbiguous as exc:
        return str(exc)


def _assert_same_window(basis, cells, band) -> bool:
    """Both routes keep the same columns or refuse alike; True when they keep."""
    got = _window_outcome(_drop_window, basis, cells, band)
    want = _window_outcome(drop_window_projectors, basis, cells, band)
    if isinstance(want, str):
        assert got == want
        return False
    assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    return True


WINDOW_FAMILIES = (
    make_generating_example(),
    make_generating_example(True),
    make_split_step(9 * np.pi / 32, 7 * np.pi / 32),
    make_split_step(-5 * np.pi / 16, 2 * np.pi / 16),
    make_split_step(0.6507, -0.3411),
    make_trivial(),
    make_doubled("CII"),
    make_doubled("DIII"),
)


@pytest.mark.parametrize("ti", WINDOW_FAMILIES, ids=lambda ti: ti.name)
def test_drop_window_matches_projector_oracle_on_family_segments(ti):
    gen = rng(5200 + len(ti.name))
    kept = 0
    for n in (12, 17, 24):
        pieces = [truncate_ti(ti, n, "compress")]
        ring = build_lattice(ti, n, "circle")
        pieces += list(half_spaces(ring, int(gen.integers(0, n))))
        for piece in pieces:
            ker, _, _ = _near_basis(piece, None, DEFAULT_TOL)
            # a random rotation inside the span must not change the attribution
            rotated = ker @ haar_unitary(gen, ker.shape[1]) if ker.shape[1] else ker
            for basis in (ker, rotated):
                kept += _assert_same_window(basis, piece.cells, piece.band)
    assert kept


def _localized_column(gen, cells, center, decay) -> np.ndarray:
    x = np.repeat(np.arange(cells.n_cells), cells.cell_dims)
    phases = np.exp(2j * np.pi * gen.random(x.size))
    return np.exp(-np.abs(x - center) / decay) * phases


def test_drop_window_matches_projector_oracle_on_random_bases():
    gen = rng(5300)
    outcomes = {True: 0, False: 0}
    for t in range(150):
        n = int(gen.integers(8, 25))
        ends = [("left",), ("right",), ("left", "right")][t % 3]
        cells = CellStructure(tuple(gen.integers(1, 3, size=n)), "line", 0, frozenset(ends))
        k = int(gen.integers(1, 5))
        cols = [
            _localized_column(gen, cells, gen.choice([0, n - 1, gen.integers(0, n)]), gen.uniform(0.2, 3))
            for _ in range(k)
        ]
        basis, _ = np.linalg.qr(np.stack(cols, axis=1))
        outcomes[_assert_same_window(basis, cells, int(gen.integers(0, 3)))] += 1
    assert min(outcomes.values()) >= 20


def _near_miss_basis(eps: float, delta: float, far: int) -> np.ndarray:
    """An end mode with tail ``eps`` in cell 1 and a mode at cell ``far`` with tail ``delta`` there.

    The radius-1 and radius-2 windows then drop subspaces at an angle of
    order ``eps * delta``.
    """
    v = np.zeros((12, 2), dtype=complex)
    v[0, 0], v[1, 0] = 1.0, eps
    v[far, 1], v[1, 1] = 1.0, 1j * delta
    return np.linalg.qr(v)[0]


def _dropped_distance(basis, cells) -> float:
    """``||P_1 - P_2||`` of the parts dropped at radii 1 and 2."""
    a, b = (split_by_weight(basis, cells, range(r))[0] for r in (1, 2))
    return float(np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2))


def test_drop_window_equal_rank_near_misses_match_projector_oracle():
    cells = CellStructure((1,) * 12, "line", 0, frozenset({"left"}))
    eps, delta0 = 1e-3, 1e-5
    scale = delta0 / _dropped_distance(_near_miss_basis(eps, delta0, 9), cells)
    for ratio in (0.5, 1 - 1e-3, 1 - 1e-5, 1 + 1e-5, 1 + 1e-3, 2.0):
        basis = _near_miss_basis(eps, ratio * WINDOW_AGREEMENT * scale, 9)
        distance = _dropped_distance(basis, cells)
        assert distance == pytest.approx(ratio * WINDOW_AGREEMENT, rel=1e-4)
        assert _assert_same_window(basis, cells, 0) == (ratio < 1)
    # a mode entering the window at radius 4 changes the rank: always a disagreement
    rank_change = _near_miss_basis(eps, 0.0, 3)
    assert not _assert_same_window(rank_change, cells, 0)
    with pytest.raises(WindowAmbiguous, match="depends on the window radius"):
        _drop_window(rank_change, cells, 0, "kernel")


def test_drop_window_scans_every_radius_in_one_batched_eigh(monkeypatch):
    # a 96-cell arc with a mode at its cut and one at its proxy end: one eigh
    # of the (radii, k, k) stack and the k x k eigh of one split_by_weight
    ring = build_lattice(make_split_step(0.9, 0.3), 192, "circle")
    piece = half_spaces(ring, 0)[1]
    ker, _, _ = _near_basis(piece, None, DEFAULT_TOL)
    k = ker.shape[1]
    assert piece.cells.n_cells == 96 and k == 2
    shapes, splits, screens = [], [], []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(np.shape(a)) or eigh(a))
    monkeypatch.setattr(
        walkindex.indices, "split_by_weight", lambda *a: splits.append(a) or split_by_weight(*a)
    )
    monkeypatch.setattr(
        walkindex.indices, "screened_norm", lambda x, b: screens.append(x.shape) or screened_norm(x, b)
    )
    kept = _drop_window(ker, piece.cells, piece.band, "kernel")
    assert shapes == [(48 - piece.band, k, k), (k, k)]
    assert len(splits) == 1
    # the radii that agree are compared side by side, in one screen
    assert screens == [(k, 47 - piece.band)]
    assert kept.shape[1] == 1
    assert np.array_equal(kept, drop_window_projectors(ker, piece.cells, piece.band, "kernel"))


# -- the gap certificate against the dense kernel oracle -------------------------------


CERTIFICATE_CEILINGS = (ESSENTIAL_KERNEL_CEILING, 1e-3, 1e-10)  # the last is below tol.ker


def _certificate_cases(cls, ti, gen):
    """Operators whose Hermitian parts the kernel searches of one class meet."""
    n = max(12, 6 * ti.band)
    ring = build_lattice(ti, n, "circle")
    yield "circle", ring
    yield "line", truncate_ti(ti, n, "compress")
    yield "segment", truncate_ti(ti, n, "decoupled_unitary")
    for piece in half_spaces(ring, int(gen.integers(0, n))):
        yield "piece", piece
    yield "mixed cells", mixed_cell_walk(cls, ti.cell_rep, gen)
    yield "no rows", one(np.zeros((0, 0)))


def test_gap_certificate_agrees_with_the_dense_oracle_fuzz():
    # wherever the certificate clears a matrix, the dense cluster is empty,
    # and the kernel search answers as the oracle either way
    gen = rng(2727)
    verdicts = {True: 0, False: 0}
    seen = set()
    for cls, make in TEN_CLASS_WALKS.items():
        ti = make()
        for what, op in _certificate_cases(cls, ti, gen):
            seen.add(what)
            h = imaginary_part(op.matrix)
            for ceiling in CERTIFICATE_CEILINGS:
                want = dense_kernel_cluster(h, ceiling).size
                certified = _gap_certified(h @ h, frobenius_bound(h), DEFAULT_TOL, ceiling)
                verdicts[certified] += 1
                assert not certified or want == 0, (cls, what, ceiling)
                assert _near_basis(op, None, DEFAULT_TOL, ceiling=ceiling)[0].shape == (h.shape[0], want)
    assert seen == {"circle", "line", "segment", "piece", "mixed cells", "no rows"}
    assert min(verdicts.values()) >= 50


@pytest.mark.parametrize(
    "ceiling, tol",
    [(ceiling, DEFAULT_TOL) for ceiling in CERTIFICATE_CEILINGS] + [(1e-10, DEFAULT_TOL.with_(ker=1e-4))],
    ids=["0.1", "1e-3", "1e-10", "1e-10-ker-1e-4"],
)
def test_gap_certificate_knife_edges(ceiling, tol):
    # one |s| at c (1 -+ 1e-6), c = max(ceiling, tol.ker ||H||_F), the rest in
    # [0.6, 1]: below c the certificate never clears.  Above c the cluster is
    # empty, and the certificate clears wherever c^2 outweighs its rounding
    # allowance, as it does at the ceilings 0.1 and 1e-3
    gen = rng(2728)
    for n in (4, 16, 48):
        for side in (-1, 1):
            s = gen.uniform(0.6, 1.0, n) * gen.choice([-1.0, 1.0], n)
            knife = 1 + side * 1e-6
            # ||H||_F^2 = rest + (c knife)^2, with c = tol.ker ||H||_F unless the ceiling is larger
            rest = np.sum(s[1:] ** 2)
            c = max(ceiling, tol.ker * np.sqrt(rest / (1 - (tol.ker * knife) ** 2)))
            s[0] = np.sign(s[0]) * c * knife
            u = haar_unitary(gen, n)
            h = (u * s) @ u.conj().T
            h = (h + h.conj().T) / 2
            certified = _gap_certified(h @ h, frobenius_bound(h), tol, ceiling)
            assert certified <= (side > 0), n
            if side > 0:
                assert dense_kernel_cluster(h, ceiling, tol).size == 0
            if ceiling >= 1e-3:
                assert certified == (side > 0), n
                assert dense_kernel_cluster(h, ceiling, tol).size == (side < 0)


@pytest.mark.parametrize("ti, sizes", FAMILIES, ids=[ti.name for ti, _ in FAMILIES])
def test_gap_certificate_clears_every_gapped_family_circle(ti, sizes):
    # the speed-up rests on this: a translation-invariant circle has no
    # spectrum near +-1, and the certificate must say so without an eigh
    lo, hi = sizes
    for n in range(lo, hi + 1):
        h = imaginary_part(build_lattice(ti, n, "circle").matrix)
        for ceiling in CERTIFICATE_CEILINGS:
            assert _gap_certified(h @ h, frobenius_bound(h), DEFAULT_TOL, ceiling), (n, ceiling)


def test_index_of_a_gapped_circle_takes_no_full_size_eigh(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "circle.json"
    spec.write_text(json.dumps({
        "type": "ti",
        "builtin": "split_step",
        "coin_params": {"theta1": 0.9, "theta2": 0.3},
        "geometry": {"n_cells": 64, "topology": "circle"},
    }))
    # the chiral route: si_pm of the 128-row circle is one Cholesky of C* C for
    # its 64 x 64 off-diagonal block C, with no SVD of it and no eigh or
    # Cholesky at full size; each 64-row piece takes one 32 x 32 SVD
    eighs, choleskys, svds = [], [], []
    eigh, cholesky, svd = np.linalg.eigh, np.linalg.cholesky, np.linalg.svd
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(np.shape(a)) or eigh(a))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: choleskys.append(np.shape(a)) or cholesky(a))
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: svds.append(np.shape(a)) or svd(a, **kw))
    assert main(["index", str(spec)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["si_minus"]["value"], data["si_plus"]["value"]) == (0, 0)
    assert (data["si_left"]["value"], data["si_right"]["value"]) == (-1, 1)
    assert all(shape[-1] < 128 for shape in eighs + choleskys)
    assert choleskys.count((64, 64)) == 1
    assert all(shape[-1] < 64 for shape in svds)


# -- the chiral route against the dense oracle ------------------------------------------

CHIRAL_CLASSES = (C.AIII, C.BDI, C.CII, C.DIII, C.CI)
# the circle join whose +-1 pairs zheevd returns as non-orthonormal vectors
ZHEEVD_PAIR = (
    make_split_step(-1.1539442633140755, 0.45381585750015385),
    make_split_step(1.196500742480596, -0.3849940163793574),
)


def _chiral_route_cases(cls, gen):
    """(what, operator) of the walks and pieces the chiral route meets in one class."""
    ti = TEN_CLASS_WALKS[cls]()
    n = max(12, 6 * ti.band)
    ring = build_lattice(ti, n, "circle")
    yield "circle", ring
    yield "line", truncate_ti(ti, n, "compress")
    yield "segment", truncate_ti(ti, n, "decoupled_unitary")
    for piece in half_spaces(ring, int(gen.integers(0, n))):
        yield "piece", piece
    yield "cell bases", with_cell_bases(ring, gen)
    other = conjugate_ti(ti, haar_unitary(gen, ti.cell_dim))
    yield "join", join_crossover(ti, other, n // 2, n // 2, "line")
    # gamma with nonzero trace on cells of mixed and zero dimension
    yield "mixed cells", mixed_cell_walk(cls, normal_form_rep(cls, 2, 1), gen)
    if cls is C.BDI:
        yield "zheevd join", join_crossover(*ZHEEVD_PAIR, 16, 16, "circle")


def _projector_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance of the projectors onto two spans; ``eigh`` may return a
    near-degenerate pair as columns that are not orthonormal, so one QR first."""
    a, b = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return spectral_norm(a @ a.conj().T - b @ b.conj().T)


def _separated(mags: np.ndarray, count: int) -> bool:
    """Whether the ``count`` smallest of the magnitudes are set apart from the rest."""
    mags = np.sort(mags)
    return count in (0, mags.size) or mags[count] - mags[count - 1] >= 1e-4


def _same_values(got: np.ndarray, want: np.ndarray, atol: float) -> None:
    assert got.size == want.size
    if got.size:
        assert np.max(np.min(np.abs(got[:, None] - want[None, :]), axis=1)) <= atol
        assert np.max(np.min(np.abs(want[:, None] - got[None, :]), axis=1)) <= atol


def test_chiral_route_matches_the_dense_oracle_fuzz(monkeypatch):
    # every chiral class: the kernel searches of si_pm/si_total at every
    # ceiling, certified or not, and near_spectrum at +-1 in both modes,
    # against one eigh of the whole Im W; the route is taken at every size
    _route_at_every_size(monkeypatch)
    gen = rng(2929)
    seen, runs_seen, clusters, unbalanced = set(), set(), 0, 0
    for cls in CHIRAL_CLASSES:
        for what, op in _chiral_route_cases(cls, gen):
            seen.add(what)
            m = op.matrix
            h = imaginary_part(m)
            runs = op.local_rep.runs()
            runs_seen.add(min(len(runs), 2))
            gamma_trace = trace_runs(runs, "gamma").real if op.local_rep.cls in CHIRAL_PLUS else 0.0
            unbalanced += abs(gamma_trace) > 0.5
            mags = np.abs(np.linalg.eigvalsh(h))
            for ceiling in CERTIFICATE_CEILINGS:
                want = dense_kernel_basis(h, ceiling)
                clusters += bool(want.shape[1])
                got, _, record = _near_basis(op, op.local_rep, DEFAULT_TOL, ceiling=ceiling)
                assert record.route == "chiral", (cls, what)
                assert got.shape == want.shape, (cls, what, ceiling)
                if _separated(mags, want.shape[1]):
                    assert _projector_distance(got, want) <= 1e-10, (cls, what, ceiling)
            if op.unitarity.screened(DEFAULT_TOL.unit) > DEFAULT_TOL.unit:
                continue
            for anchor in (1.0, -1.0):
                for radius in (None, 0.05, 0.5):
                    near, smallest = near_spectrum(op, anchor, radius=radius, rep=op.local_rep)
                    ref, ref_smallest = dense_near_spectrum(m, anchor, radius=radius)
                    _same_values(near.values, ref.values, DEFAULT_TOL.eig)
                    # the exact smallest |s|, not a certificate's bound on it
                    assert smallest == pytest.approx(ref_smallest, abs=1e-14), (cls, what, anchor, radius)
                    reach = np.inf if radius is None else _chord_reach(radius)
                    if radius is None or not np.any(np.abs(mags - reach) < 1e-4):
                        assert _projector_distance(near.vectors, ref.vectors) <= 1e-10, (cls, what, radius)
    assert seen == {"circle", "line", "segment", "piece", "cell bases", "join", "mixed cells", "zheevd join"}
    assert runs_seen == {1, 2}
    assert clusters >= 40 and unbalanced >= 3


def test_chiral_route_on_the_near_degenerate_zheevd_pairs():
    # the pairs that eigh returns with an orthonormality defect of 6e-10 come
    # out of the chiral route orthonormal and W-invariant
    op = join_crossover(*ZHEEVD_PAIR, 16, 16, "circle")
    m = op.matrix
    assert m.shape[0] >= CHIRAL_MIN_ROWS
    for basis in _pm_eigenspaces(op, DEFAULT_TOL, rep=op.local_rep):
        assert basis.shape[1] == 2
        assert spectral_norm(basis.conj().T @ basis - np.eye(2)) <= 1e-12
        assert spectral_norm(m @ basis - basis @ (basis.conj().T @ m @ basis)) <= 1e-12


def _chiral_frame_matrix(runs) -> tuple[np.ndarray, int]:
    """The dense unitary whose columns are every cell's + frame vectors, then its - ones."""
    cols = ([], [])
    n = sum(count * cell.dim for _, count, cell in runs)
    for start, count, cell in runs:
        basis, n_plus = cell.chiral_frame
        for c in range(count):
            at = start + c * cell.dim
            for side, part in enumerate((basis[:, :n_plus], basis[:, n_plus:])):
                for v in part.T:
                    col = np.zeros(n, dtype=complex)
                    col[at : at + cell.dim] = v
                    cols[side].append(col)
    return np.stack(cols[0] + cols[1], axis=1), len(cols[0])


def _chiral_hermitian(runs, sigma, gen, delta: float = 0.0):
    """A Hermitian ``h`` anticommuting with gamma whose off-diagonal block has the
    singular values ``sigma`` (``min(n+, n-)`` of them), plus the gamma-even
    ``-delta (u u* (+) v v*)`` on the pair of ``sigma[0]``, which moves its
    eigenvalues to ``+-sigma[0] - delta`` and has Frobenius norm ``delta sqrt 2``."""
    frame, n_p = _chiral_frame_matrix(runs)
    n = frame.shape[0]
    u, v = haar_unitary(gen, n_p), haar_unitary(gen, n - n_p)
    r = len(sigma)
    hf = np.zeros((n, n), dtype=complex)
    hf[:n_p, n_p:] = (u[:, :r] * sigma) @ v[:, :r].conj().T
    hf[n_p:, :n_p] = hf[:n_p, n_p:].conj().T
    hf[:n_p, :n_p] -= delta * np.outer(u[:, 0], u[:, 0].conj())
    hf[n_p:, n_p:] -= delta * np.outer(v[:, 0], v[:, 0].conj())
    h = frame @ hf @ frame.conj().T
    return (h + h.conj().T) / 2


def _with_imaginary_part(h: np.ndarray, rep: LocalSymmetryRep) -> LatticeOperator:
    """An operator on the cells of ``rep`` whose imaginary part is exactly the
    Hermitian ``h``: ``i h``, whose stacks the chiral route reads."""
    cells = CellStructure(tuple(r.dim for r in rep.per_cell), "line")
    return LatticeOperator.from_matrix(1j * h, cells, cells.n_cells, rep)


def _knife_reps(gen):
    for cls in CHIRAL_CLASSES:
        for cells in cell_layouts(cls, gen, "haar").values():
            yield LocalSymmetryRep(cls, cells)


def _route_at_every_size(monkeypatch):
    monkeypatch.setattr(walkindex.indices, "CHIRAL_MIN_ROWS", 0)


@pytest.mark.parametrize(
    "ceiling, tol",
    [(ceiling, DEFAULT_TOL) for ceiling in CERTIFICATE_CEILINGS] + [(1e-10, DEFAULT_TOL.with_(ker=1e-4))],
    ids=["0.1", "1e-3", "1e-10", "1e-10-ker-1e-4"],
)
def test_chiral_route_knife_edges(ceiling, tol, monkeypatch):
    # one sigma at c (1 -+ 1e-6), c = max(ceiling, tol.ker), the rest in
    # [0.6, 1], on one run, two runs and mixed cell dimensions (where
    # n+ != n- adds exact zeros): below c the pair is in the cluster, above
    # it is not, as in the dense oracle
    _route_at_every_size(monkeypatch)
    gen = rng(2930)
    c = max(ceiling, tol.ker)
    cases = 0
    for rep in _knife_reps(gen):
        runs = rep.runs()
        n_p = sum(count * cell.chiral_frame[1] for _, count, cell in runs)
        n = sum(count * cell.dim for _, count, cell in runs)
        zeros = abs(n - 2 * n_p)
        for side in (-1, 1):
            sigma = gen.uniform(0.6, 1.0, min(n_p, n - n_p))
            sigma[0] = c * (1 + side * 1e-6)
            h = _chiral_hermitian(runs, sigma, gen)
            want = dense_kernel_cluster(h, ceiling, tol).size
            assert want == zeros + 2 * (side < 0)
            got, _, record = _near_basis(_with_imaginary_part(h, rep), rep, tol, ceiling=ceiling)
            assert record.route == "chiral" and got.shape[1] == want
            cases += 1
    assert cases == 2 * 3 * len(CHIRAL_CLASSES)


@pytest.mark.parametrize(
    "ceiling, tol",
    [(ceiling, DEFAULT_TOL) for ceiling in CERTIFICATE_CEILINGS] + [(1e-10, DEFAULT_TOL.with_(ker=1e-4))],
    ids=["0.1", "1e-3", "1e-10", "1e-10-ker-1e-4"],
)
def test_chiral_certificate_knife_edges(ceiling, tol, monkeypatch):
    # sigma_min at c (1 -+ 1e-6) for the certificate's own c = max(ceiling,
    # tol.ker max(1, ||C||_F + e)) + e, the rest in [0.6, 1], on the layouts
    # with n+ = n-: below c the Cholesky of C* C - (c^2 + delta) never
    # factors; above, the cluster is empty, and the certificate clears
    # wherever c^2 outweighs its rounding allowance, as it does at the
    # ceilings 0.1 and 1e-3.  Either way the search answers as the dense oracle
    _route_at_every_size(monkeypatch)
    gen = rng(2934)
    outcomes = []
    cholesky = np.linalg.cholesky

    def recording(a):
        try:
            factor = cholesky(a)
        except np.linalg.LinAlgError:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    cases = 0
    for rep in _knife_reps(gen):
        runs = rep.runs()
        n_p = sum(count * cell.chiral_frame[1] for _, count, cell in runs)
        if sum(count * cell.dim for _, count, cell in runs) != 2 * n_p:
            continue
        for side in (-1, 1):
            sigma = gen.uniform(0.6, 1.0, n_p)
            knife = 1 + side * 1e-6
            # ||C||_F^2 = rest + (c knife)^2, with c = tol.ker ||C||_F unless the ceiling is larger
            rest = np.sum(sigma[1:] ** 2)
            c = max(ceiling, tol.ker * np.sqrt(rest / (1 - (tol.ker * knife) ** 2)))
            sigma[0] = c * knife
            h = _chiral_hermitian(runs, sigma, gen)
            op = _with_imaginary_part(h, rep)
            # the gamma-even rounding e moves the certificate's c by at most 2e
            assert _chiral_block(op, rep)[1] <= 1e-15
            outcomes.clear()
            got, _, record = _near_basis(op, rep, tol, ceiling=ceiling)
            want = dense_kernel_basis(h, ceiling, tol)
            assert got.shape == want.shape
            if want.shape[1]:
                assert _projector_distance(got, want) <= 1e-9
            certified = outcomes == [True]
            assert len(outcomes) == 1 and certified <= (side > 0)
            assert record == _NearRecord("chiral", certified)
            if ceiling >= 1e-3:
                assert certified == (side > 0)
                assert want.shape[1] == 2 * (side < 0)
            cases += 1
    assert cases >= 2 * 2 * len(CHIRAL_CLASSES)


def test_chiral_radius_keeps_every_eigenvalue_within_reach(monkeypatch):
    # a gamma-even part of norm e below the floor moves one eigenvalue of a
    # pair from sigma = reach + delta/2 to reach - delta/2: the dense route
    # keeps it, and so must the chiral route, whose radius is widened by e
    _route_at_every_size(monkeypatch)
    gen = rng(2931)
    radius = 0.2
    reach = _chord_reach(radius)
    delta = 0.5 * CHIRAL_EVEN_FLOOR
    for rep in _knife_reps(gen):
        runs = rep.runs()
        n_p = sum(count * cell.chiral_frame[1] for _, count, cell in runs)
        n = sum(count * cell.dim for _, count, cell in runs)
        sigma = gen.uniform(0.6, 1.0, min(n_p, n - n_p))
        sigma[0] = reach + delta / 2
        h = _chiral_hermitian(runs, sigma, gen, delta)
        vals, vecs = np.linalg.eigh(h)
        inside = vecs[:, np.abs(vals) <= reach]
        assert inside.shape[1] == abs(n - 2 * n_p) + 1
        kept, _, record = _near_basis(_with_imaginary_part(h, rep), rep, DEFAULT_TOL, radius=radius)
        assert record.route == "chiral"
        assert kept.shape[1] == inside.shape[1] + 1
        assert spectral_norm(inside - kept @ (kept.conj().T @ inside)) <= 1e-9


def test_chiral_certificate_clears_only_what_the_dense_spectrum_clears(monkeypatch):
    # the Cholesky of C* C - (c^2 + delta) factors, and no SVD runs, only when
    # every sigma exceeds c + e, so that every eigenvalue of h exceeds c; at
    # sigma = c + delta/2 with a gamma-even part moving one eigenvalue to
    # c - delta/2 it must fail and go on to the SVD with vectors
    _route_at_every_size(monkeypatch)
    calls = []
    svd, cholesky = np.linalg.svd, np.linalg.cholesky

    def recording(a):
        try:
            factor = cholesky(a)
        except np.linalg.LinAlgError:
            calls.append(("cholesky", False))
            raise
        calls.append(("cholesky", True))
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    monkeypatch.setattr(
        np.linalg, "svd", lambda a, **kw: calls.append(("svd", kw.get("compute_uv", True))) or svd(a, **kw)
    )
    gen = rng(2932)
    ceiling = ESSENTIAL_KERNEL_CEILING
    cases = 0
    for rep in _knife_reps(gen):
        runs = rep.runs()
        n_p = sum(count * cell.chiral_frame[1] for _, count, cell in runs)
        n = sum(count * cell.dim for _, count, cell in runs)
        if n != 2 * n_p:
            continue
        for delta, certified in ((0.0, True), (0.5 * CHIRAL_EVEN_FLOOR, False)):
            sigma = gen.uniform(0.6, 1.0, n_p)
            sigma[0] = ceiling * (1 + 1e-6) if delta == 0 else ceiling + delta / 2
            h = _chiral_hermitian(runs, sigma, gen, delta)
            assert (np.min(np.abs(np.linalg.eigvalsh(h))) > ceiling) == certified
            calls.clear()
            kept, _, record = _near_basis(_with_imaginary_part(h, rep), rep, DEFAULT_TOL, ceiling=ceiling)
            assert kept.shape[1] == 0 and record == _NearRecord("chiral", certified)
            assert calls == ([("cholesky", True)] if certified else [("cholesky", False), ("svd", True)])
            cases += 1
    assert cases >= 2 * 2 * len(CHIRAL_CLASSES)


def test_even_part_above_the_floor_takes_the_dense_route(monkeypatch):
    # an admissible walk whose gamma-even part of Im W is above the floor:
    # the chiral route declines, one eigh of the whole matrix answers, and the
    # answers are the oracle's
    gen = rng(2933)
    # pieces of half the circle's CHIRAL_MIN_ROWS cells have CHIRAL_MIN_ROWS rows
    n = CHIRAL_MIN_ROWS
    ring = build_lattice(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), n, "circle")
    assert ring.dim // 2 >= CHIRAL_MIN_ROWS
    cells = gen.normal(size=(n, 2, 2)) + 1j * gen.normal(size=(n, 2, 2))
    k = block_diagonal([(a + a.conj().T) / np.linalg.norm(a + a.conj().T, 2) for a in cells])
    w = ring.matrix @ expm(2e-9j * k)
    op = LatticeOperator.from_matrix(w, ring.cells, ring.band, ring.local_rep)
    check_admissible(op)
    h = imaginary_part(w)
    runs = op.local_rep.runs()
    frame, n_p = _chiral_frame_matrix(runs)
    hf = frame.conj().T @ h @ frame
    assert np.hypot(np.linalg.norm(hf[:n_p, :n_p]), np.linalg.norm(hf[n_p:, n_p:])) > CHIRAL_EVEN_FLOOR
    assert _chiral_block(op, op.local_rep)[1] > CHIRAL_EVEN_FLOOR
    assert _near_basis(op, op.local_rep, DEFAULT_TOL)[2].route == "dense"
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(np.shape(a)) or eigh(a))
    for piece in half_spaces(op, 0):
        hp = imaginary_part(piece.matrix)
        assert hp.shape[0] >= CHIRAL_MIN_ROWS
        got, _, record = _near_basis(piece, piece.local_rep, DEFAULT_TOL)
        assert record == _NearRecord("dense", False)
        assert np.array_equal(got, dense_kernel_basis(hp, ESSENTIAL_KERNEL_CEILING))
        assert eighs[-2:] == [hp.shape, hp.shape]
    for radius in (None, 0.3):
        eighs.clear()
        near, smallest = near_spectrum(op, radius=radius, rep=op.local_rep)
        assert w.shape in eighs
        ref, ref_smallest = dense_near_spectrum(w, radius=radius)
        assert np.array_equal(near.values, ref.values) and smallest == ref_smallest
    assert si_left_right(op, 0) == si_left_right(ring, 0)
    assert si_pm(op) == si_pm(ring)


def test_operators_below_the_row_floors_take_the_dense_route(monkeypatch):
    # the chiral route starts at CHIRAL_MIN_ROWS rows; below, the certificate
    # and one eigh answer at full size, as for the classes without gamma
    shapes = []
    eigh, cholesky = np.linalg.eigh, np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(np.shape(a)) or eigh(a))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(np.shape(a)) or cholesky(a))
    ti = make_split_step(9 * np.pi / 32, 7 * np.pi / 32)
    for rows, dense in ((CHIRAL_MIN_ROWS - 4, True), (CHIRAL_MIN_ROWS, False)):
        shapes.clear()
        piece = half_spaces(build_lattice(ti, rows, "circle"), 0)[1]
        assert piece.dim == rows
        assert int(si_total(piece)) == 1
        assert ((rows, rows) in shapes) == dense
        shapes.clear()
        ring = build_lattice(ti, rows // 2, "circle")
        assert [int(v) for v in si_pm(ring)] == [0, 0]
        assert ((rows, rows) in shapes) == dense
        assert ((rows // 2, rows // 2) in shapes) == (not dense)


def test_near_basis_records_its_route_and_certificate():
    # one walk on each outcome of the solver: circles of CHIRAL_MIN_ROWS rows
    # and fewer are certified empty at half and at full size, and the pieces
    # of circles twice as long keep their cut's mode by an SVD of C or an eigh
    ti = make_split_step(9 * np.pi / 32, 7 * np.pi / 32)
    for rows, route in ((CHIRAL_MIN_ROWS, "chiral"), (CHIRAL_MIN_ROWS - 4, "dense")):
        ring = build_lattice(ti, rows // 2, "circle")
        piece = half_spaces(build_lattice(ti, rows, "circle"), 0)[1]
        assert ring.dim == piece.dim == rows
        basis, smallest, record = _near_basis(ring, ring.local_rep, DEFAULT_TOL)
        assert record == _NearRecord(route, True)
        assert basis.shape == (rows, 0) and smallest is None
        basis, smallest, record = _near_basis(piece, piece.local_rep, DEFAULT_TOL)
        assert record == _NearRecord(route, False)
        assert basis.shape[1] and smallest < ESSENTIAL_KERNEL_CEILING
        # the exact smallest |s|, or a radius, is never certified
        for radius, want in ((None, True), (0.05, False)):
            basis, smallest, record = _near_basis(ring, ring.local_rep, DEFAULT_TOL, radius=radius, want_smallest=want)
            assert record == _NearRecord(route, False)
            assert basis.shape == (rows, 0)
            assert smallest == pytest.approx(dense_near_spectrum(ring.matrix, radius=radius)[1], abs=1e-14)


# -- C from the stacks against the dense frame product -------------------------------


def _dense_off_diagonal(op: LatticeOperator, rep, anchor: float) -> tuple[np.ndarray, float]:
    """``C`` and the gamma-even norm of ``Im(anchor W)`` moved into the frame by
    dense N x N products, the oracle of ``_chiral_block``."""
    frame, n_p = _chiral_frame_matrix(rep.runs())
    hf = frame.conj().T @ imaginary_part(anchor * op.matrix) @ frame
    return hf[:n_p, n_p:], float(np.hypot(np.linalg.norm(hf[:n_p, :n_p]), np.linalg.norm(hf[n_p:, n_p:])))


def _unequal_sides_operator(gen, cls, topology: str) -> LatticeOperator:
    """A banded operator on equal cells whose reps have sectors (2, 1) and
    (1, 2), two cells to one (not admissible: C only reads its stacks)."""
    a, b = random_rep(cls, gen, 2, 1), random_rep(cls, gen, 1, 2)
    n, d = 9, a.dim
    rep = LocalSymmetryRep(cls, tuple(a if x % 3 else b for x in range(n)))
    cells = CellStructure((d,) * n, topology, 0, frozenset() if topology == "circle" else frozenset({"left", "right"}))
    cell = np.arange(d * n) // d
    dist = np.abs(cell[:, None] - cell[None, :])
    if topology == "circle":
        dist = np.minimum(dist, n - dist)
    m = (gen.normal(size=(d * n, d * n)) + 1j * gen.normal(size=(d * n, d * n))) * (dist <= 2)
    return LatticeOperator.from_matrix(m, cells, 2, rep)


def _stack_cases(cls, gen):
    ti = TEN_CLASS_WALKS[cls]()
    n = max(12, 6 * ti.band)
    ring = build_lattice(ti, n, "circle")
    yield "circle", ring
    yield "line", truncate_ti(ti, n, "compress")
    yield "short circle", build_lattice(ti, 2 * ti.band + 1, "circle")
    yield "segment", truncate_ti(ti, n, "decoupled_unitary")
    yield "piece", half_spaces(ring, int(gen.integers(0, n)))[1]
    yield "cell bases", with_cell_bases(ring, gen)
    yield "mixed cells", mixed_cell_walk(cls, normal_form_rep(cls, 2, 1), gen)
    # an operator with no stacks at all
    yield "zero", LatticeOperator.from_matrix(np.zeros((ring.dim,) * 2), ring.cells, ring.band, ring.local_rep)
    if cls in CHIRAL_PLUS:
        for topology in ("circle", "line"):
            yield "n+ != n-", _unequal_sides_operator(gen, cls, topology)
    if cls is C.BDI:
        # W' of a segment's padded ring, with stacks within its window reach -2..2,
        # and the full-size route's W', with rounding at all 20 offsets -9..10
        ring20 = build_lattice(make_split_step(0.9, 0.3), 20, "circle")
        w_prime = gentle_decoupling(ring20, 0, second_cut=16).w_prime
        assert sorted(w_prime.blocks) == list(range(-2, 3))
        yield "W'", w_prime
        dense = LatticeOperator.from_matrix(dense_decoupling(ring20, 0, 16)[1], ring20.cells, 1, ring20.local_rep)
        assert sorted(dense.blocks) == list(range(-9, 11))
        yield "dense W'", dense


def test_chiral_block_from_the_stacks_is_the_dense_frame_product():
    # every chiral class, on circles, lines, decoupled segments, pieces, cells
    # with a rep of their own, mixed and zero-dimensional cells, equal cells
    # with n+ != n-, and W' with 5 and with 20 offsets, at anchor +1 and -1: C is the
    # dense frame product's block within 1e-15 of its largest entry, and bit
    # for bit wherever the cell frames are exact
    gen = rng(2935)
    seen, bitwise = set(), 0
    for cls in CHIRAL_CLASSES:
        for what, op in _stack_cases(cls, gen):
            seen.add(what)
            for anchor in (1.0, -1.0):
                c, got_even, _ = _chiral_block(op, op.local_rep, anchor)
                want, even = _dense_off_diagonal(op, op.local_rep, anchor)
                assert c.shape == want.shape, (cls, what)
                scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
                assert np.max(np.abs(c - want), initial=0.0) <= 1e-15 * scale, (cls, what, anchor)
                assert abs(got_even - even) <= 1e-15 * max(1.0, even), (cls, what, anchor)
                bitwise += np.array_equal(c, want)
    assert seen == {"circle", "line", "short circle", "segment", "piece", "cell bases", "mixed cells", "zero", "n+ != n-", "W'", "dense W'"}
    assert bitwise >= 20


def test_chiral_block_of_a_plain_matrix_reads_it_as_one_cell():
    # a plain matrix with a dense rep, and an operator with a rep that does not
    # act cell by cell, are one cell with the block-diagonal frame
    ring = build_lattice(make_split_step(0.9, 0.3), 12, "circle")
    dense = dense_rep(ring)
    cell = one(ring.matrix)
    for op, rep in ((cell, dense), (ring, dense), (cell, ring.local_rep)):
        want, _ = _dense_off_diagonal(ring, rep, 1.0)
        assert np.array_equal(_chiral_block(op, rep)[0], want)


def test_index_on_a_circle_places_no_full_size_matrix(tmp_path, monkeypatch, capsys):
    # index on a 96-cell split-step circle answers from the stacks: no matrix
    # of its 192 rows is placed, and no array of N x N entries is made
    spec = tmp_path / "circle.json"
    spec.write_text(json.dumps({
        "type": "ti",
        "builtin": "split_step",
        "coin_params": {"theta1": 0.9, "theta2": 0.3},
        "geometry": {"n_cells": 96, "topology": "circle"},
    }))
    placed = []
    place = walkindex.lattice.place_blocks
    monkeypatch.setattr(walkindex.lattice, "place_blocks", lambda b, c: placed.append(c.total_dim) or place(b, c))
    assert main(["index", str(spec)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["si_minus"]["value"], data["si_plus"]["value"]) == (0, 0)
    assert (data["si_left"]["value"], data["si_right"]["value"]) == (-1, 1)
    assert 192 not in placed
    tracemalloc.start()
    try:
        assert main(["index", str(spec)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 192 * 192 * 16
