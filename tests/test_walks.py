"""Translation-invariant walk families, momentum invariants, realizations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

import walkindex.symmetry as symmetry_module
import walkindex.walks as walks_module
from helpers import (
    SIGMA_X,
    berry_per_momentum,
    bloch_per_momentum,
    conjugate_ti,
    dense_factor_product,
    direct_sum_ti,
    forget_ti,
    gap_margin_per_momentum,
    haar_unitary,
    rng,
    validate_per_momentum,
    validate_screened_per_momentum,
    winding_per_momentum,
)
from walkindex.errors import (
    EigenFailure,
    Gapless,
    IncompatibleCells,
    NotChiral,
    NotUnitary,
    RankJump,
    RelationViolation,
    SingularBlock,
    TooShort,
)
from walkindex.lattice import measured_band
from walkindex.serialize import tiwalk_from_json, tiwalk_to_json
from walkindex.symmetry import SymmetryClass, spectral_norm
from walkindex.tolerances import DEFAULT_TOL
from walkindex.walks import (
    TIWalk,
    _band_frames,
    berry_phase,
    build_lattice,
    builtin_walk,
    factor_matrices,
    make_doubled,
    make_generating_example,
    make_shift,
    make_split_step,
    make_trivial,
    skeletons_match,
    ti_gap_margin,
    truncate_ti,
    validate_ti,
    winding_number,
)

C = SymmetryClass

THETA_A = (9 * np.pi / 32, 7 * np.pi / 32)
THETA_B = (-5 * np.pi / 16, np.pi / 8)


def reflected(ti: TIWalk) -> TIWalk:
    """Spatial reflection: hopping offsets change sign, same cell data."""
    return TIWalk(
        f"{ti.name}-reflected",
        ti.cls,
        ti.cell_dim,
        {-j: b for j, b in ti.blocks.items()},
        ti.cell_rep,
    )


def adjoint(ti: TIWalk) -> TIWalk:
    return TIWalk(
        f"{ti.name}-adjoint",
        ti.cls,
        ti.cell_dim,
        {-j: b.conj().T for j, b in ti.blocks.items()},
        ti.cell_rep,
    )


# -- construction ---------------------------------------------------------------


def test_generating_example_blocks_frozen():
    w = make_generating_example()
    assert set(w.blocks) == {1, -1}
    assert np.array_equal(w.blocks[1], np.array([[0, 1j], [0, 0]]))
    assert np.array_equal(w.blocks[-1], np.array([[0, 0], [1j, 0]]))
    assert w.band == 1
    assert w.cls is C.BDI


def test_generating_example_bloch_matrix():
    w = make_generating_example()
    assert np.allclose(w.bloch(0), 1j * SIGMA_X)
    k = 0.7
    expect = 1j * np.array([[0, np.exp(1j * k)], [np.exp(-1j * k), 0]])
    assert np.allclose(w.bloch(k), expect)
    # its square is -1 at every momentum
    assert np.allclose(w.bloch(k) @ w.bloch(k), -np.eye(2))


def test_inverse_is_negation():
    w = make_generating_example()
    inv = make_generating_example(inverse=True)
    for j in w.blocks:
        assert np.array_equal(inv.blocks[j], -w.blocks[j])
    k = 1.3
    assert np.allclose(inv.bloch(k) @ w.bloch(k), np.eye(2))


def test_all_builtins_validate():
    walks = [
        builtin_walk("generating"),
        builtin_walk("generating", inverse=1),
        builtin_walk("trivial"),
        builtin_walk("split_step", theta1=THETA_A[0], theta2=THETA_A[1]),
        builtin_walk("shift"),
        builtin_walk("doubled_cii"),
        builtin_walk("doubled_diii"),
    ]
    for w in walks:
        assert validate_ti(w) < 1e-12


def test_builtin_walk_unknown_name():
    with pytest.raises(ValueError):
        builtin_walk("levitating")


@pytest.mark.parametrize(
    "name, params, twin",
    [
        ("generating", {"inverse": True}, None),
        ("trivial", {}, None),
        ("shift", {}, None),
        ("split_step", {"theta1": THETA_A[0], "theta2": THETA_A[1]}, None),
        ("doubled", {"variant": "CII"}, "doubled_cii"),
        ("doubled", {"variant": "DIII", "inverse": True}, "doubled_diii"),
        ("doubled_cii", {"inverse": True}, None),
        ("doubled_diii", {}, None),
    ],
)
def test_builtin_spec_and_lookup_agree(name, params, twin):
    # the JSON form lists name, class, blocks, rep and factors with exact floats
    walk = tiwalk_to_json(builtin_walk(name, **params))
    spec = {"type": "ti", "builtin": name, "coin_params": params}
    assert tiwalk_to_json(tiwalk_from_json(spec)) == walk
    if twin is not None:
        rest = {k: v for k, v in params.items() if k != "variant"}
        assert tiwalk_to_json(builtin_walk(twin, **rest)) == walk


def test_builtin_missing_parameter_is_named():
    with pytest.raises(ValueError, match="theta1"):
        builtin_walk("split_step")
    with pytest.raises(ValueError, match="variant"):
        tiwalk_from_json({"type": "ti", "builtin": "doubled"})


def test_validate_rejects_wrong_rep():
    ss = make_split_step(*THETA_A)
    broken = TIWalk("broken", C.BDI, 2, ss.blocks, make_generating_example().cell_rep)
    with pytest.raises(RelationViolation):
        validate_ti(broken)


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_split_step_admissible_at_any_angles(t1, t2):
    w = make_split_step(t1, t2)
    k = 0.37
    wk = w.bloch(k)
    assert np.allclose(wk @ wk.conj().T, np.eye(2), atol=1e-12)
    g = w.cell_rep.ops["gamma"].matrix
    assert np.allclose(g @ wk @ g, wk.conj().T, atol=1e-12)


@given(st.floats(-20, 20))
def test_bloch_is_periodic(k):
    w = make_generating_example()
    assert np.allclose(w.bloch(k), w.bloch(k + 2 * np.pi), atol=1e-10)


def test_split_step_bloch_at_zero_merges_rotations():
    t1, t2 = THETA_A
    ss = make_split_step(t1, t2)
    c, s = np.cos(t1 + t2), np.sin(t1 + t2)
    assert np.allclose(ss.bloch(0), np.array([[c, -s], [s, c]]))


def test_direct_sum_requires_same_class():
    with pytest.raises(RelationViolation):
        direct_sum_ti(make_generating_example(), make_shift())


def test_skeletons_match_rules():
    gen_w = make_generating_example()
    assert skeletons_match(gen_w, make_generating_example(inverse=True))
    assert skeletons_match(make_split_step(*THETA_A), make_split_step(*THETA_B))
    assert not skeletons_match(gen_w, make_trivial())
    assert not skeletons_match(gen_w, make_split_step(*THETA_A))
    assert not skeletons_match(gen_w, reflected(gen_w))  # reflection drops factors


# -- winding numbers -------------------------------------------------------------


def test_winding_generating_is_one():
    report = winding_number(make_generating_example())
    assert int(report.value) == 1
    assert report.residual < 1e-6


def test_winding_inverse_equals_original():
    # negating a chiral walk leaves the off-diagonal winding unchanged
    assert int(winding_number(make_generating_example(inverse=True)).value) == 1


def test_winding_trivial_is_zero():
    assert int(winding_number(make_trivial()).value) == 0


def test_winding_split_step_calibration():
    assert int(winding_number(make_split_step(*THETA_A)).value) == 1
    assert int(winding_number(make_split_step(*THETA_B)).value) == -1


def test_winding_split_step_phase_diagram():
    # invariant = sign(sin t1) inside |tan t2| < |tan t1|, 0 outside
    gen = rng(7)
    checked = 0
    while checked < 25:
        t1, t2 = gen.uniform(-np.pi, np.pi, size=2)
        if abs(abs(np.tan(t2)) - abs(np.tan(t1))) < 0.2:
            continue
        if min(abs(np.cos(t1)), abs(np.cos(t2)), abs(np.sin(t1)), abs(np.sin(t2))) < 0.1:
            continue
        expect = int(np.sign(np.sin(t1))) if abs(np.tan(t2)) < abs(np.tan(t1)) else 0
        assert int(winding_number(make_split_step(t1, t2)).value) == expect
        checked += 1


def test_winding_refines_coarse_grid():
    # near the gap closing |t1| = |t2| the phase steps of 32 and 64 samples
    # exceed pi/2, so the grid doubles twice
    report = winding_number(make_split_step(0.8, 0.799), n_k=32)
    assert int(report.value) == 1
    assert report.n_k == 128


def test_winding_refuses_aliasing_grid():
    # the off-diagonal determinant winds at most m * band times; coarser grids
    # returned 0 here with no refinement
    for ti, floor in (
        (make_split_step(1.1, 0.3), 2),
        (make_generating_example(), 2),
        (make_doubled("CII"), 4),
    ):
        for n_k in (1, floor):
            with pytest.raises(ValueError, match=f"n_k > 2 m band = {floor}"):
                winding_number(ti, n_k=n_k)
        assert winding_number(ti, n_k=floor + 1).value == winding_number(ti).value


def test_winding_doubled_cii_is_two():
    report = winding_number(make_doubled("CII"))
    assert int(report.value) == 2
    assert report.value.group.name == "TWO_Z"


def test_winding_additive_under_direct_sum():
    gen_w = make_generating_example()
    assert int(winding_number(direct_sum_ti(gen_w, make_trivial())).value) == 1
    assert int(winding_number(direct_sum_ti(gen_w, gen_w)).value) == 2


def test_winding_invariant_under_cell_conjugation():
    gen = rng(3)
    w = conjugate_ti(make_generating_example(), haar_unitary(gen, 2))
    assert int(winding_number(w).value) == 1


def test_winding_flips_under_reflection():
    assert int(winding_number(reflected(make_generating_example())).value) == -1
    assert int(winding_number(reflected(make_split_step(*THETA_B))).value) == 1


def test_winding_of_adjoint_equals_original():
    # the chiral relation pairs the two off-diagonal blocks, so the adjoint
    # walk winds the same way (reflection, not adjoint, flips the sign)
    ss = make_split_step(*THETA_A)
    assert int(winding_number(adjoint(ss)).value) == 1
    assert int(winding_number(adjoint(make_generating_example())).value) == 1


def test_winding_needs_chiral_square_plus_one():
    with pytest.raises(NotChiral):
        winding_number(make_shift())
    with pytest.raises(NotChiral):
        winding_number(forget_ti(make_generating_example(), C.D))


def test_winding_answers_on_eight_momenta():
    report = winding_number(make_split_step(*THETA_A), n_k=8)
    assert int(report.value) == 1
    assert report.residual < 1e-2


def test_winding_detects_closed_gap():
    # at t1 = t2 the off-diagonal determinant vanishes somewhere
    with pytest.raises((SingularBlock, Gapless)):
        winding_number(make_split_step(np.pi / 4, np.pi / 4))


# -- phase (Berry) indices -------------------------------------------------------


def test_berry_generating_as_class_d():
    report = berry_phase(forget_ti(make_generating_example(), C.D))
    assert int(report.value) == 1
    assert report.value.group.name == "Z2"
    assert report.residual < 1e-6


def test_berry_trivial_as_class_d():
    assert int(berry_phase(forget_ti(make_trivial(), C.D)).value) == 0


def test_berry_doubled_diii_is_two():
    report = berry_phase(make_doubled("DIII"))
    assert int(report.value) == 2
    assert report.value.group.name == "TWO_Z2"
    assert report.residual < 1e-6


def test_berry_refines_coarse_grid():
    # two momenta leave a frame overlap below the refinement threshold
    report = berry_phase(forget_ti(make_split_step(1.2, 0.4), C.D), n_k=2)
    assert int(report.value) == 1 and report.value.group.name == "Z2"
    assert report.n_k == 4


def test_berry_refuses_single_sample():
    walk = forget_ti(make_split_step(1.1, 0.3), C.D)
    for n_k in (0, 1):
        with pytest.raises(ValueError, match="floor of 2 samples"):
            berry_phase(walk, n_k=n_k)
    assert int(berry_phase(walk, n_k=2).value) == 1


def test_berry_needs_class_d_or_diii():
    with pytest.raises(NotChiral):
        berry_phase(make_generating_example())


def test_forget_doubled_walks_to_chiral():
    # CII keeps its winding on forgetting the antiunitary symmetries; DIII
    # keeps only a chiral operator with square -1, rescaling mixes the copies
    assert int(winding_number(forget_ti(make_doubled("CII"), C.AIII)).value) == 2
    assert int(winding_number(forget_ti(make_doubled("DIII"), C.AIII)).value) == 0


# -- gap margins -----------------------------------------------------------------


def test_gap_margin_generating_is_sqrt2():
    assert ti_gap_margin(make_generating_example()) == pytest.approx(np.sqrt(2), abs=1e-9)


def test_gap_margin_split_step_calibration_point():
    assert ti_gap_margin(make_split_step(*THETA_A)) == pytest.approx(0.19603, abs=1e-3)


def test_gap_margin_detects_gapless():
    with pytest.raises(Gapless):
        ti_gap_margin(make_split_step(0.0, 0.0))
    assert ti_gap_margin(make_split_step(0.0, 0.0), strict=False) < 1e-8


# -- finite realizations ---------------------------------------------------------


def test_build_lattice_circle_is_unitary():
    ring = build_lattice(make_generating_example(), 8, "circle")
    assert np.allclose(ring.matrix @ ring.matrix.conj().T, np.eye(16))
    assert np.allclose(ring.matrix @ ring.matrix, -np.eye(16))
    assert ring.cells.topology == "circle"
    assert measured_band(ring) == 1


def test_build_lattice_matches_factor_product():
    # the circle is the dense factor product; the line drops its wrapped corners.
    # At 10 cells the dense product is too small for BLAS to split it between
    # threads, which would round some entries differently.
    for w in (make_split_step(*THETA_B), make_generating_example(), make_doubled("CII")):
        ring = build_lattice(w, 10, "circle")
        dense = dense_factor_product(w.factors, ring.cells)
        assert np.array_equal(ring.matrix, dense)
        cell = np.arange(ring.dim) // w.cell_dim
        near = np.abs(cell[:, None] - cell[None, :]) <= w.band
        assert np.array_equal(build_lattice(w, 10, "line").matrix, np.where(near, dense, 0))


def test_factor_matrices_need_circle():
    from walkindex.lattice import CellStructure

    with pytest.raises(TooShort):
        factor_matrices(
            make_generating_example().factors, CellStructure.uniform(6, 2, "line")
        )


def test_factor_matrices_need_equal_cells():
    from walkindex.lattice import CellStructure

    with pytest.raises(IncompatibleCells):
        factor_matrices(make_trivial().factors, CellStructure((2, 2, 4), "circle"))


def test_build_lattice_too_short():
    w = make_generating_example()
    with pytest.raises(TooShort):
        build_lattice(w, 2, "circle")
    with pytest.raises(TooShort):
        build_lattice(w, 1, "line")


def test_truncate_compress_has_two_defects():
    seg = truncate_ti(make_generating_example(), 6, "compress")
    assert seg.cells.proxy_ends == frozenset({"left", "right"})
    s = np.linalg.svd(seg.matrix, compute_uv=False)
    assert np.sum(s > 0.5) == 10
    assert np.sum(s < 1e-12) == 2
    # the defect modes sit on the outermost components: an up mover at the
    # left end and a down mover at the right end
    _, sv, vh = np.linalg.svd(seg.matrix)
    ker = vh.conj().T[:, sv < 1e-12]
    support = sorted(int(np.flatnonzero(np.abs(col) > 1e-9)[0]) for col in ker.T)
    assert support == [0, seg.dim - 1]


def test_truncate_too_short():
    with pytest.raises(TooShort):
        truncate_ti(make_generating_example(), 3)
    with pytest.raises(ValueError):
        truncate_ti(make_generating_example(), 8, boundary="open")


def test_trivial_walk_truncates_unitarily():
    seg = truncate_ti(make_trivial(), 5, "compress")
    assert np.allclose(seg.matrix @ seg.matrix.conj().T, np.eye(10))


def test_conjugate_ti_keeps_admissibility():
    gen = rng(5)
    u = haar_unitary(gen, 2)
    w = conjugate_ti(make_generating_example(), u)
    assert validate_ti(w) < 1e-12
    assert w.factors is None


def test_doubled_walks_have_expected_squares():
    cii = make_doubled("CII")
    assert cii.cls is C.CII
    eta = cii.cell_rep.ops["eta"]
    assert np.allclose(eta.square(), -np.eye(4))
    diii = make_doubled("DIII")
    assert diii.cls is C.DIII
    tau = diii.cell_rep.ops["tau"]
    assert np.allclose(tau.square(), -np.eye(4))
    assert validate_ti(cii) < 1e-12
    assert validate_ti(diii) < 1e-12


def test_batched_gap_margin_is_bitwise_the_per_momentum_loop():
    gen = rng(5400)
    walks = [make_split_step(*gen.uniform(-np.pi, np.pi, 2)) for _ in range(6)]
    walks += [make_generating_example(), make_doubled("CII"), make_doubled("DIII", True)]
    walks += [conjugate_ti(ti, haar_unitary(gen, ti.cell_dim)) for ti in walks[:3] + walks[-2:]]
    for ti in walks:
        ks = -np.pi + 2 * np.pi * np.arange(64) / 64
        assert np.array_equal(ti.bloch_stack(ks), np.stack([ti.bloch(k) for k in ks]))
        assert ti_gap_margin(ti, strict=False) == gap_margin_per_momentum(ti)


def _off_unitary(ti: TIWalk, eps: float, gen: np.random.Generator) -> TIWalk:
    """An explicit walk: every hopping block moved by ``eps`` times a random matrix."""
    d = ti.cell_dim
    blocks = {j: b + eps * (gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))) for j, b in ti.blocks.items()}
    return TIWalk(f"{ti.name}-off", ti.cls, d, blocks, ti.cell_rep)


def _phased_shifts(phi1: float, phi2: float) -> TIWalk:
    """Two shifts with phases: bands ``exp(i(phi - k))``, whose V-shaped gap minima
    sit between grid momenta, so the grid refines."""
    shift = make_shift()
    return direct_sum_ti(*(TIWalk("phased", C.A, 1, {-1: np.exp(1j * phi) * np.eye(1)}, shift.cell_rep) for phi in (phi1, phi2)))


def _eigvals_counted(monkeypatch) -> list[int]:
    """Patch ``np.linalg.eigvals`` to record how many matrices each call gets."""
    counts = []
    original = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda w: counts.append(len(w)) or original(w))
    return counts


def test_screened_gap_margin_fuzz_is_bitwise_the_per_momentum_loop(monkeypatch):
    # eigvals runs only at the momenta the Hermitian screen leaves as
    # candidates; their minimum is the grid's, bit for bit
    gen = rng(3000)
    walks = []
    for _ in range(8):  # within 1e-7 to 1e-3 of the gap edge |tan t2| = |tan t1|
        t1 = gen.choice((-1, 1)) * gen.uniform(0.3, 1.2)
        t2 = gen.choice((-1, 1)) * (abs(t1) + gen.choice((-1, 1)) * 10 ** gen.uniform(-7, -3))
        walks.append(make_split_step(t1, t2))
    walks += [make_split_step(t, s * t) for t, s in ((0.7, 1), (-1.1, -1), (np.pi / 4, -1))]  # gap closings
    walks += [make_split_step(0, 0), make_shift(), make_trivial()]
    walks += [conjugate_ti(make_doubled(v, inv), haar_unitary(gen, 4)) for v in ("CII", "DIII") for inv in (False, True)]
    walks += [direct_sum_ti(make_split_step(*gen.uniform(-np.pi, np.pi, 2)), make_split_step(0.8, 0.8 + 1e-5))]
    walks += [direct_sum_ti(make_generating_example(True), make_split_step(1.1, 0.3))]
    walks += [_phased_shifts(*gen.uniform(-np.pi, np.pi, 2)) for _ in range(6)]
    for ti in walks:
        assert ti_gap_margin(ti, strict=False) == gap_margin_per_momentum(ti)
    # pushed off unitarity, the unitarity bound widens the candidate set
    counts = _eigvals_counted(monkeypatch)
    solved = {}
    for eps in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2):
        for t1, t2 in ((1.1, 0.3), (0.6, 0.6 + 1e-4), tuple(gen.uniform(-np.pi, np.pi, 2))):
            ti = _off_unitary(make_split_step(t1, t2), eps, gen)
            counts.clear()
            margin = ti_gap_margin(ti, strict=False)
            solved[eps] = solved.get(eps, 0) + sum(counts)
            assert margin == gap_margin_per_momentum(ti)
    assert solved[1e-12] <= 12 and solved[1e-2] > 300


def test_gap_margin_builds_each_momentum_once_and_solves_only_candidates(monkeypatch):
    grids = []
    original = TIWalk.bloch_stack
    monkeypatch.setattr(TIWalk, "bloch_stack", lambda self, ks: grids.append(ks) or original(self, ks))
    counts = _eigvals_counted(monkeypatch)
    for ti, n in ((make_split_step(1.1, 0.3), 512), (_phased_shifts(-3.038, 0.67), 2048)):
        grids.clear()
        counts.clear()
        ti_gap_margin(ti)
        ks = np.concatenate(grids)
        assert len(ks) == n
        assert np.array_equal(np.sort(ks), -np.pi + 2 * np.pi * np.arange(n) / n)
        # a gapped walk has its minimum at a momentum or two per grid
        assert 1 <= sum(counts) <= 6
    # flat bands tie at every momentum: all of them are candidates
    counts.clear()
    ti_gap_margin(make_generating_example())
    assert sum(counts) == 512


def test_momentum_checks_take_an_svd_only_to_fail(monkeypatch):
    # validate, winding and berry screen their momentum stacks: the
    # Frobenius bound passes them, and only a failing matrix is measured exactly
    shapes = []
    original = symmetry_module.spectral_norm
    monkeypatch.setattr(symmetry_module, "spectral_norm", lambda x: shapes.append(x.shape) or original(x))
    for ti, n_k in _chiral_oracle_walks():
        validate_ti(ti)
        winding_number(ti, n_k=n_k)
    for ti, n_k in _phase_oracle_walks():
        validate_ti(ti)
        berry_phase(ti, n_k=n_k)
    assert shapes == []
    with pytest.raises(NotUnitary):
        validate_ti(_swelling(make_trivial(), 1e-10 / 1.96))
    # the momenta whose bound does not pass, k = 0 among them, and nothing else
    assert len(shapes) == 1 and 1 <= shapes[0][0] < 17 and shapes[0][1:] == (2, 2)


# -- batched momentum grids against the per-momentum loops -----------------------------


def _chiral_oracle_walks() -> list[tuple[TIWalk, int]]:
    """Walks of classes AIII/BDI/CII with the initial grid each is checked on."""
    gen = rng(1300)
    walks = [(make_split_step(1.1, 0.3), 256), (make_split_step(0.3, 1.1), 256)]
    walks += [(make_split_step(-1.1, 0.3), 256), (make_split_step(*THETA_B), 256)]
    # within 1e-3 rad of the gap edge: the grid doubles from 32
    walks += [(make_split_step(0.8, 0.799), 32), (make_split_step(-1.0, 0.9995), 32)]
    walks += [(make_generating_example(inv), 256) for inv in (False, True)]
    walks += [(make_doubled("CII", inv), 256) for inv in (False, True)]
    walks += [(make_trivial(), 256)]
    walks += [(conjugate_ti(ti, haar_unitary(gen, ti.cell_dim)), n) for ti, n in walks[::2]]
    walks += [(forget_ti(make_doubled("CII"), C.AIII), 256)]
    walks += [(direct_sum_ti(make_generating_example(), make_split_step(-1.1, 0.3)), 256)]
    walks += [(direct_sum_ti(make_generating_example(True), make_trivial()), 256)]
    return walks


def _phase_oracle_walks() -> list[tuple[TIWalk, int]]:
    """Walks of classes D and DIII with the initial grid each is checked on."""
    gen = rng(1301)
    phases = ((1.1, 0.3), (0.3, 1.1), (-1.1, 0.3))
    walks = [(forget_ti(make_split_step(t1, t2), C.D), 256) for t1, t2 in phases]
    # two momenta leave an overlap below the refinement threshold
    walks += [(forget_ti(make_split_step(1.2, 0.4), C.D), 2)]
    walks += [(forget_ti(make_generating_example(inv), C.D), 256) for inv in (False, True)]
    walks += [(forget_ti(make_trivial(), C.D), 16)]
    walks += [(make_doubled("DIII", inv), 256) for inv in (False, True)]
    walks += [(make_doubled("DIII", True), 4)]
    walks += [(conjugate_ti(ti, haar_unitary(gen, ti.cell_dim)), n) for ti, n in walks[::2]]
    walks += [(direct_sum_ti(make_doubled("DIII"), make_doubled("DIII", True)), 256)]
    gen_d = forget_ti(make_generating_example(), C.D)
    walks += [(direct_sum_ti(gen_d, forget_ti(make_split_step(1.1, 0.3), C.D)), 256)]
    return walks


def test_bloch_stack_is_the_scalar_accumulation():
    ks = -np.pi + 2 * np.pi * np.arange(97) / 97
    for ti, _ in _chiral_oracle_walks() + _phase_oracle_walks():
        assert np.array_equal(ti.bloch_stack(ks), np.stack([bloch_per_momentum(ti, k) for k in ks]))


def _twisted(ti: TIWalk, eps: float, gen: np.random.Generator) -> TIWalk:
    """``W(k) exp(i eps H)`` for a random Hermitian ``H``: unitary, and off its
    symmetry relations by about ``eps`` at every momentum."""
    h = gen.normal(size=(ti.cell_dim,) * 2) + 1j * gen.normal(size=(ti.cell_dim,) * 2)
    v = expm(0.5j * eps * (h + h.conj().T))
    return TIWalk(f"{ti.name}-twisted", ti.cls, ti.cell_dim, {j: b @ v for j, b in ti.blocks.items()}, ti.cell_rep)


def _outcome(check, ti: TIWalk) -> tuple[str, str | float]:
    try:
        return "pass", check(ti)
    except (NotUnitary, RelationViolation) as exc:
        return type(exc).__name__, str(exc)


def test_screened_validate_matches_the_per_momentum_oracle(monkeypatch):
    # each residual is screened: a passing one is a bound in [exact, tol.adm],
    # a failing one the exact norm, so verdicts and failure messages are the oracle's
    broken = [_twisted(make_split_step(1.1, 0.3), 3e-9, rng(3)), _swelling(make_trivial(), 1e-10 / 1.96)]
    for ti in [ti for ti, _ in _chiral_oracle_walks() + _phase_oracle_walks()] + broken:
        verdict, value = _outcome(validate_ti, ti)
        oracle = _outcome(validate_per_momentum, ti)
        assert (verdict, value) == _outcome(validate_screened_per_momentum, ti)
        if verdict == "pass":
            assert oracle[0] == "pass" and oracle[1] <= value <= DEFAULT_TOL.adm
        else:
            assert (verdict, value) == oracle
    assert [_outcome(validate_ti, ti)[0] for ti in broken] == ["RelationViolation", "NotUnitary"]
    # matrix by matrix: a failing residual is bitwise the exact norm, a
    # passing one lies between the exact norm and its threshold
    seen = []
    original = symmetry_module.screened_norm

    def recording(x, bound=None):
        out = original(x, bound)
        seen.append((x, bound, out))
        return out

    for module in (symmetry_module, walks_module):
        monkeypatch.setattr(module, "screened_norm", recording)
    with pytest.raises(RelationViolation):
        validate_ti(broken[0])
    failing = 0
    for x, bound, out in seen:
        exact = np.array([spectral_norm(m) for m in x])
        fails = out > bound
        assert np.array_equal(out[fails], exact[fails])
        assert np.all((exact[~fails] <= out[~fails]) & (out[~fails] <= bound))
        failing += np.count_nonzero(fails)
    assert 0 < failing < sum(len(out) for _, _, out in seen)


def test_batched_winding_is_bitwise_the_per_momentum_loop():
    refined = 0
    for ti, n_k in _chiral_oracle_walks():
        report = winding_number(ti, n_k=n_k)
        assert report == winding_per_momentum(ti, n_k=n_k)
        refined += report.n_k > n_k
    assert refined >= 3


def test_batched_berry_matches_the_per_momentum_loop():
    refined = 0
    for ti, n_k in _phase_oracle_walks():
        report = berry_per_momentum(ti, n_k=n_k)
        batched = berry_phase(ti, n_k=n_k)
        assert (batched.value, batched.n_k) == (report.value, report.n_k)
        # raw is a phase: at the branch cut rounding may land it on either
        # end, -1 or 1 in class D (period 2), -2 or 2 in DIII (period 4)
        period = 2 if ti.cls is C.D else 4
        gap = (batched.raw - report.raw) % period
        assert min(gap, period - gap) <= 1e-12
        assert abs(batched.residual - report.residual) <= 1e-12
        refined += report.n_k > n_k
    assert refined >= 1


def test_berry_raw_sits_next_to_its_value():
    # a nontrivial holonomy lies on the branch cut of the phase, so raw is
    # reported next to the value it rounds to, never as its negative
    negative = 0
    for ti, n_k in _phase_oracle_walks():
        report = berry_phase(ti, n_k=n_k)
        # value + (raw - nearest) rounds to the grid around the value
        assert abs(report.raw - int(report.value)) <= report.residual + np.finfo(float).eps
        negative += ti.cls is C.D and berry_per_momentum(ti, n_k=n_k).raw < -0.5
    assert negative >= 1


def _swelling(ti: TIWalk, a: float) -> TIWalk:
    """``(1 + a (1 + cos k) / 2) W(k)``: not unitary, worst at k = 0."""
    blocks = {j: (1 + a / 2) * b for j, b in ti.blocks.items()}
    for step in (-1, 1):
        for j, b in ti.blocks.items():
            blocks[j + step] = blocks.get(j + step, 0) + (a / 4) * b
    return TIWalk(f"{ti.name}-swollen", ti.cls, ti.cell_dim, blocks, ti.cell_rep)


def test_non_unitary_bloch_matrix_is_refused_at_its_momentum():
    # a = 1e-10 / 1.96: of the 17 momenta only k = 0 has a defect above
    # 1e-10; a = 2e-10: all |k| < 2 pi / 3 do, and the first is named
    for a, named in (
        (1e-10 / 1.96, r"0\.000\) has unitarity defect 1\.0\d\d"),
        (2e-10, r"-1\.963\) has unitarity defect 1\.23\d"),
    ):
        ti = _swelling(make_trivial(), a)
        for walk in (ti, forget_ti(ti, C.D)):
            invariant = winding_number if walk.cls is C.BDI else berry_phase
            for check in (validate_ti, invariant):
                with pytest.raises(NotUnitary, match=rf"^W\({named}e-10 > 1e-10$"):
                    check(walk)


def test_band_frames_refuse_at_the_named_momentum():
    walk = forget_ti(_swelling(make_trivial(), 1e-10 / 1.96), C.D)
    with pytest.raises(NotUnitary, match=r"^W\(0\.000\) "):
        _band_frames(walk, np.array([-1.0, 0.0, 1.0]), DEFAULT_TOL)
    assert _band_frames(walk, np.array([-1.0, 1.0]), DEFAULT_TOL).shape == (2, 2, 1)
    # the frames span the eigenvectors with Im lambda > 0
    ks = np.linspace(-3, 3, 7)
    for ti in (forget_ti(make_split_step(1.1, 0.3), C.D), make_doubled("DIII", True)):
        frames = _band_frames(ti, ks, DEFAULT_TOL)
        for w, b in zip(ti.bloch_stack(ks), frames):
            assert np.all(np.linalg.eigvalsh(b.conj().T @ ((w - w.conj().T) / 2j) @ b) > 0.1)
    gapless = forget_ti(make_split_step(np.pi / 4, np.pi / 4), C.D)
    with pytest.raises(Gapless, match=r"at k=-3\.1416 is near the real axis"):
        _band_frames(gapless, np.array([0.5, -np.pi]), DEFAULT_TOL)
    # the shift's band e^{-ik} crosses the real axis between the momenta
    with pytest.raises(RankJump, match="rank changes across the momentum grid"):
        _band_frames(make_shift(), np.array([-1.0, 1.0]), DEFAULT_TOL)
    # a non-normal W(k) let through a loose unitarity gate: the positive
    # eigenspace of Im W is not W-invariant
    skew = TIWalk("skew", C.D, 2, {0: np.array([[1j, 0.5], [0, -1j]])}, walk.cell_rep)
    with pytest.raises(EigenFailure, match=r"invariance residual \S+ at k=-1\.0000"):
        _band_frames(skew, np.array([-1.0]), DEFAULT_TOL.with_(unit=10.0))


def test_berry_refuses_gap_closing_class_d_walk():
    # the last walk closes the gap of one of its two bands only
    for t in (np.pi / 4, -np.pi / 4):
        closed = make_split_step(t, t)
        for walk in (closed, direct_sum_ti(closed, make_generating_example())):
            with pytest.raises(Gapless, match=r"at k=-3\.1416 is near the real axis"):
                berry_phase(forget_ti(walk, C.D))
