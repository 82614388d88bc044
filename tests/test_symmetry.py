"""Symmetry classes, representations, indices and forgetting maps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import walkindex.symmetry as symmetry_module
from helpers import (
    ALL_CLASSES,
    SIGMA_X,
    SIGMA_Z,
    cell_layouts,
    dense_restrict,
    haar_unitary,
    random_admissible_walk,
    random_rep,
    rng,
)
from walkindex.errors import (
    IllegalForget,
    NonIntegerTrace,
    NotAdmissible,
    RelationViolation,
    Unbalanced,
)
from walkindex.indices import twiddle_rep
from walkindex.lattice import LatticeOperator, LocalSymmetryRep
from walkindex.operators import check_admissible, check_unitary
from walkindex.symmetry import (
    ADMISSIBILITY,
    IndexGroup,
    IndexValue,
    SymmetryClass,
    SymmetryOperator,
    SymmetryRep,
    apply_runs,
    balanced_hamiltonian,
    chiral_sectors,
    compress_invariant,
    fixed_point_basis,
    forget_index,
    forget_legal,
    forget_rep,
    kramers_pairs,
    rep_index,
    screened_norm,
    spectral_norm,
    times_runs,
    trace_runs,
)
from walkindex.tolerances import DEFAULT_TOL

C = SymmetryClass


# -- class table (frozen) ------------------------------------------------------

EXPECTED_TABLE = {
    C.A: ({}, IndexGroup.TRIVIAL),
    C.D: ({"eta": +1}, IndexGroup.Z2),
    C.C: ({"eta": -1}, IndexGroup.TRIVIAL),
    C.AI: ({"tau": +1}, IndexGroup.TRIVIAL),
    C.AII: ({"tau": -1}, IndexGroup.TRIVIAL),
    C.AIII: ({"gamma": +1}, IndexGroup.Z),
    C.BDI: ({"eta": +1, "tau": +1, "gamma": +1}, IndexGroup.Z),
    C.CI: ({"eta": -1, "tau": +1, "gamma": -1}, IndexGroup.TRIVIAL),
    C.CII: ({"eta": -1, "tau": -1, "gamma": +1}, IndexGroup.TWO_Z),
    C.DIII: ({"eta": +1, "tau": -1, "gamma": -1}, IndexGroup.TWO_Z2),
}


def test_class_table_is_the_tenfold_table():
    assert set(EXPECTED_TABLE) == set(ALL_CLASSES)
    for cls, (squares, group) in EXPECTED_TABLE.items():
        assert dict(cls.squares) == squares
        assert cls.index_group is group


def test_three_operator_classes_satisfy_square_product_rule():
    # gamma^2 = eta^2 tau^2 whenever all three are present
    for cls in (C.BDI, C.CI, C.CII, C.DIII):
        sq = cls.squares
        assert sq["gamma"] == sq["eta"] * sq["tau"]


# -- index values ----------------------------------------------------------------

@given(st.integers(-50, 50), st.integers(-50, 50))
def test_index_value_addition_is_canonical_in_z2(a, b):
    x = IndexValue(IndexGroup.Z2, a)
    y = IndexValue(IndexGroup.Z2, b)
    assert (x + y).value == (a + b) % 2
    assert (-x).value == x.value


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_index_value_addition_in_z(a, b):
    x = IndexValue(IndexGroup.Z, a)
    y = IndexValue(IndexGroup.Z, b)
    assert (x + y).value == a + b
    assert (x - y).value == a - b


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_index_value_two_z2_group_law(a, b):
    x = IndexValue(IndexGroup.TWO_Z2, 2 * a)
    y = IndexValue(IndexGroup.TWO_Z2, 2 * b)
    assert (x + y).value == (2 * a + 2 * b) % 4
    assert x.value in (0, 2)


def test_index_value_rejects_bad_values():
    with pytest.raises(ValueError):
        IndexValue(IndexGroup.TWO_Z, 3)
    with pytest.raises(ValueError):
        IndexValue(IndexGroup.TWO_Z2, 1)
    with pytest.raises(ValueError):
        IndexValue(IndexGroup.Z, 1) + IndexValue(IndexGroup.Z2, 1)


def test_trivial_group_collapses_to_zero():
    assert IndexValue(IndexGroup.TRIVIAL, 7).value == 0


# -- antiunitary mechanics --------------------------------------------------------

def test_antiunitary_apply_conjugates():
    gen = rng(1)
    m = haar_unitary(gen, 4)
    op = SymmetryOperator(m, antiunitary=True)
    psi = gen.normal(size=4) + 1j * gen.normal(size=4)
    assert np.allclose(op.apply(1j * psi), -1j * op.apply(psi))


def test_compose_of_two_antiunitaries_is_unitary():
    gen = rng(2)
    a = SymmetryOperator(haar_unitary(gen, 3), True)
    b = SymmetryOperator(haar_unitary(gen, 3), True)
    ab = a.compose(b)
    assert not ab.antiunitary
    psi = gen.normal(size=3) + 1j * gen.normal(size=3)
    assert np.allclose(ab.matrix @ psi, a.apply(b.apply(psi)))


def test_inverse_composes_to_identity():
    gen = rng(3)
    for anti in (False, True):
        op = SymmetryOperator(haar_unitary(gen, 5), anti)
        ident = op.compose(op.inverse())
        assert not ident.antiunitary
        assert np.allclose(ident.matrix, np.eye(5), atol=1e-12)


def test_conjugate_moves_operators_covariantly():
    # sigma (X psi) = (sigma X sigma^-1) (sigma psi)
    gen = rng(4)
    for anti in (False, True):
        op = SymmetryOperator(haar_unitary(gen, 4), anti)
        x = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        psi = gen.normal(size=4) + 1j * gen.normal(size=4)
        lhs = op.apply(x @ psi)
        rhs = op.conjugate(x) @ op.apply(psi)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_restriction_to_invariant_subspace_keeps_action(monkeypatch):
    # an invariant span passes its Frobenius screen and takes no SVD
    op = SymmetryOperator(np.eye(4), True)  # plain conjugation
    basis = np.eye(4)[:, :2]
    monkeypatch.setattr(symmetry_module, "spectral_norm", lambda m: pytest.fail("SVD of a passing span"))
    assert np.array_equal(compress_invariant(basis, op.apply(basis), "sigma", DEFAULT_TOL), np.eye(2))


def test_screened_norm_screens_a_stack_matrix_by_matrix(monkeypatch):
    # one Frobenius bound per matrix; an SVD only of the matrices it does not
    # pass, whose values are then the exact norms bit for bit
    gen = rng(6)
    x = gen.normal(size=(9, 3, 3)) + 1j * gen.normal(size=(9, 3, 3))
    x *= (10.0 ** gen.uniform(-10, -7, 9))[:, None, None]
    bound = 1e-8
    exact = spectral_norm(x)
    svds = []
    monkeypatch.setattr(symmetry_module, "spectral_norm", lambda m: svds.append(m.shape) or spectral_norm(m))
    out = screened_norm(x, bound)
    fails = out > bound * (1 - 1e-6)
    assert 0 < np.count_nonzero(fails) < len(x) and svds == [(np.count_nonzero(fails), 3, 3)]
    assert np.array_equal(out[fails], exact[fails])
    assert np.all((exact[~fails] <= out[~fails]) & (out[~fails] <= bound))
    assert np.array_equal(screened_norm(x[~fails], bound), out[~fails]) and len(svds) == 1
    # a residual that is not a number never passes the screen
    x[3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        screened_norm(x, bound)


def test_invariance_defect_is_screened_by_its_bound(monkeypatch):
    # a defect whose Frobenius bound passes tol.adm takes no SVD; a failing
    # one is refused with its exact norm, from one SVD
    gen = rng(7)
    op = SymmetryOperator(np.eye(4), True)
    basis = np.linalg.qr(gen.normal(size=(4, 2)) + 1j * gen.normal(size=(4, 2)))[0]
    image = op.apply(basis)
    exact = spectral_norm(image - basis @ (basis.conj().T @ image))
    assert exact > 0.1
    svds = []
    monkeypatch.setattr(symmetry_module, "spectral_norm", lambda m: svds.append(m.shape) or spectral_norm(m))
    sub = compress_invariant(basis, image, "sigma", DEFAULT_TOL.with_(adm=1.0))
    assert np.array_equal(sub, basis.conj().T @ image) and svds == []
    with pytest.raises(NotAdmissible) as refused:
        compress_invariant(basis, image, "sigma", DEFAULT_TOL.with_(adm=0.1))
    assert str(refused.value) == f"subspace not invariant under sigma: defect {exact:.3e}"
    assert svds == [(4, 2)]


# -- representations ----------------------------------------------------------------

@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
def test_random_reps_validate(cls):
    gen = rng(10 + ALL_CLASSES.index(cls))
    rep = random_rep(cls, gen, p=2, q=2)
    report = rep.validate()
    assert report.max_residual < 1e-12


def test_validate_catches_wrong_square():
    # eta^2 = -1 presented as class D
    rep = SymmetryRep.from_matrices(C.D, 2, eta=np.array([[0, -1], [1, 0]], dtype=complex))
    with pytest.raises(RelationViolation):
        rep.validate()


def test_validate_catches_missing_operator():
    rep = SymmetryRep.from_matrices(C.BDI, 2, gamma=SIGMA_Z)
    with pytest.raises(RelationViolation):
        rep.validate()


def test_validate_catches_broken_product_rule():
    # gamma != eta tau
    rep = SymmetryRep.from_matrices(C.BDI, 2, eta=SIGMA_Z, tau=np.eye(2), gamma=SIGMA_X)
    with pytest.raises(RelationViolation):
        rep.validate()


def _exact_relations(rep: SymmetryRep) -> dict[str, float]:
    """The spectral norm of each relation residual, one SVD each, in the order
    ``validate`` names them: the oracle of its screened stack."""
    eye = np.eye(rep.dim)
    res = {}
    for name, op in rep.ops.items():
        res[f"unitary:{name}"] = spectral_norm(op.matrix.conj().T @ op.matrix - eye)
        res[f"square:{name}"] = spectral_norm(op.square() - rep.cls.squares[name] * eye)
    names = sorted(rep.ops)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            res[f"commute:{a},{b}"] = spectral_norm(
                rep.ops[a].compose(rep.ops[b]).matrix - rep.ops[b].compose(rep.ops[a]).matrix
            )
    if len(rep.ops) == 3:
        res["product:eta tau = gamma"] = spectral_norm(
            rep.ops["eta"].compose(rep.ops["tau"]).matrix - rep.ops["gamma"].matrix
        )
    return res


def _broken_commutation() -> SymmetryRep:
    # gamma = u sigma_z u* for a Haar u: unitary and squaring to 1, but off
    # eta = sigma_z, so that [eta, gamma] is the largest residual
    gen = rng(1)
    haar_unitary(gen, 2)
    u = haar_unitary(gen, 2)
    return SymmetryRep.from_matrices(C.BDI, 2, eta=SIGMA_Z, tau=np.eye(2), gamma=u @ SIGMA_Z @ u.conj().T)


BROKEN_RELATIONS = {
    # gamma^2 = 1 exactly, gamma not unitary
    "unitary": lambda: SymmetryRep.from_matrices(C.AIII, 2, gamma=np.array([[1, 0.1], [0, -1]])),
    # a unitary eta with eta^2 = -1 presented as class D
    "square": lambda: SymmetryRep.from_matrices(C.D, 2, eta=np.array([[0, -1], [1, 0]])),
    "commute": _broken_commutation,
    # every relation but gamma = eta tau holds
    "product": lambda: SymmetryRep.from_matrices(C.BDI, 2, eta=SIGMA_Z, tau=np.eye(2), gamma=-SIGMA_Z),
}


@pytest.mark.parametrize("kind", sorted(BROKEN_RELATIONS))
def test_validate_names_each_broken_relation_by_its_exact_norm(kind):
    # the residuals are screened as one stack; a broken relation of each kind
    # is still reported as the worst one with its exact spectral norm, and a
    # passing residual is its Frobenius bound
    rep = BROKEN_RELATIONS[kind]()
    exact = _exact_relations(rep)
    worst = max(exact, key=exact.get)
    assert worst.startswith(kind) and exact[worst] > DEFAULT_TOL.adm
    with pytest.raises(RelationViolation) as info:
        rep.validate()
    assert str(info.value) == f"relation {worst} violated: residual {exact[worst]:.3e}"
    report = rep.validate(DEFAULT_TOL.with_(adm=10.0))
    assert list(report.residuals) == list(exact)
    for key, value in report.residuals.items():
        assert exact[key] <= value <= exact[key] * np.sqrt(rep.dim) + 1e-12


@pytest.mark.parametrize(
    "cls,p,q,expected",
    [
        (C.AIII, 3, 1, 2),
        (C.AIII, 1, 4, -3),
        (C.BDI, 2, 2, 0),
        (C.BDI, 3, 1, 2),
        (C.CII, 2, 1, 2),
        (C.CII, 1, 3, -4),
    ],
)
def test_chiral_index_is_gamma_trace(cls, p, q, expected):
    gen = rng(100 + 7 * p + q)
    rep = random_rep(cls, gen, p=p, q=q)
    val = rep_index(rep)
    assert val.value == expected
    assert val.group is cls.index_group


@pytest.mark.parametrize("dim,expected", [(1, 1), (2, 0), (3, 1), (4, 0)])
def test_class_d_index_is_dimension_parity(dim, expected):
    gen = rng(200 + dim)
    rep = random_rep(C.D, gen, p=dim)
    assert rep_index(rep).value == expected


@pytest.mark.parametrize("pairs,expected", [(1, 2), (2, 0), (3, 2)])
def test_diii_index_is_dimension_mod_four(pairs, expected):
    gen = rng(300 + pairs)
    rep = random_rep(C.DIII, gen, p=pairs)
    assert rep_index(rep).value == expected


@pytest.mark.parametrize("cls", [C.A, C.C, C.AI, C.AII, C.CI], ids=lambda c: c.value)
def test_trivial_group_classes_have_zero_index(cls):
    gen = rng(400 + ALL_CLASSES.index(cls))
    rep = random_rep(cls, gen, p=2)
    val = rep_index(rep)
    assert val.value == 0 and val.group is IndexGroup.TRIVIAL


def test_non_integer_trace_raises():
    g = np.diag([1.0, -0.5])  # not involutive; loosen validation to hit the trace check
    rep = SymmetryRep.from_matrices(C.AIII, 2, gamma=g)
    with pytest.raises(NonIntegerTrace):
        rep_index(rep, DEFAULT_TOL.with_(adm=1.0))


def test_direct_sum_adds_indices():
    gen = rng(42)
    a = random_rep(C.BDI, gen, p=2, q=1)
    b = random_rep(C.BDI, gen, p=1, q=3)
    total = a.direct_sum(b)
    assert rep_index(total).value == rep_index(a).value + rep_index(b).value


def test_conjugation_preserves_relations_and_index():
    gen = rng(43)
    rep = random_rep(C.CII, gen, p=2, q=1)
    u = haar_unitary(gen, rep.dim)
    moved = rep.conjugated(u)
    assert moved.validate().max_residual < 1e-12
    assert rep_index(moved) == rep_index(rep)


def test_restrict_to_chiral_sector():
    gen = rng(44)
    rep = random_rep(C.AIII, gen, p=3, q=2)
    plus, minus = chiral_sectors(rep)
    assert plus.shape[1] == 3 and minus.shape[1] == 2
    sub = rep.restrict(plus)
    assert rep_index(sub).value == 3


# -- forgetting -----------------------------------------------------------------------

LEGAL_TARGETS = {
    C.A: {C.A},
    C.D: {C.A, C.D},
    C.C: {C.A, C.C},
    C.AI: {C.A, C.AI},
    C.AII: {C.A, C.AII},
    C.AIII: {C.A, C.AIII},
    C.BDI: {C.A, C.D, C.AI, C.AIII, C.BDI},
    C.CI: {C.A, C.C, C.AI, C.AIII, C.CI},
    C.CII: {C.A, C.C, C.AII, C.AIII, C.CII},
    C.DIII: {C.A, C.D, C.AII, C.AIII, C.DIII},
}


def test_forget_legality_table():
    for src in ALL_CLASSES:
        for tgt in ALL_CLASSES:
            assert forget_legal(src, tgt) == (tgt in LEGAL_TARGETS[src]), (src, tgt)


@pytest.mark.parametrize(
    "src,tgt,value,expected",
    [
        (C.BDI, C.AIII, 3, 3),
        (C.BDI, C.D, 3, 1),
        (C.BDI, C.D, 2, 0),
        (C.BDI, C.AI, 5, 0),
        (C.CII, C.AIII, 2, 2),
        (C.CII, C.C, 4, 0),
        (C.DIII, C.AIII, 2, 0),
        (C.DIII, C.D, 2, 0),
        (C.DIII, C.AII, 2, 0),
        (C.D, C.A, 1, 0),
    ],
)
def test_forget_value_map(src, tgt, value, expected):
    out = forget_index(IndexValue(src.index_group, value), src, tgt)
    assert out.value == expected and out.group is tgt.index_group


def test_forget_illegal_pairs_raise():
    for src, tgt in [(C.CII, C.D), (C.DIII, C.C), (C.BDI, C.AII), (C.D, C.AIII), (C.A, C.D)]:
        with pytest.raises(IllegalForget):
            forget_index(IndexValue(src.index_group, 0), src, tgt)


def test_forget_rep_produces_valid_weaker_rep():
    gen = rng(45)
    bdi = random_rep(C.BDI, gen, p=2, q=1)
    for tgt in (C.AIII, C.D, C.AI, C.A):
        weaker = forget_rep(bdi, tgt)
        weaker.validate()
        assert weaker.cls is tgt
    diii = random_rep(C.DIII, gen, p=2)
    aiii = forget_rep(diii, C.AIII)
    aiii.validate()
    # rescaled chiral operator squares to +1 and the forgotten index vanishes
    assert rep_index(aiii).value == 0


def test_forget_rep_is_index_compatible():
    gen = rng(46)
    for cls, kwargs in [(C.BDI, dict(p=3, q=1)), (C.CII, dict(p=2, q=1)), (C.DIII, dict(p=1))]:
        rep = random_rep(cls, gen, **kwargs)
        for tgt in LEGAL_TARGETS[cls]:
            weaker = forget_rep(rep, tgt)
            assert rep_index(weaker) == forget_index(rep_index(rep), cls, tgt)


# -- adapted bases ---------------------------------------------------------------------

def test_fixed_point_basis_is_pointwise_fixed():
    gen = rng(47)
    rep = random_rep(C.D, gen, p=5)
    eta = rep.ops["eta"]
    basis = fixed_point_basis(eta, np.eye(5, dtype=complex))
    assert basis.shape == (5, 5)
    assert np.linalg.norm(eta.apply(basis) - basis) < 1e-10
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(5)) < 1e-10


def test_kramers_pairs_structure():
    gen = rng(48)
    rep = random_rep(C.C, gen, p=3)
    eta = rep.ops["eta"]
    v, w = kramers_pairs(eta, np.eye(6, dtype=complex))
    assert v.shape == (6, 3) and w.shape == (6, 3)
    full = np.column_stack([v, w])
    assert np.linalg.norm(full.conj().T @ full - np.eye(6)) < 1e-10
    assert np.linalg.norm(eta.apply(v) - w) < 1e-10


def test_kramers_pairs_reject_odd_dimension():
    gen = rng(49)
    rep = random_rep(C.C, gen, p=2)
    eta = rep.ops["eta"]
    with pytest.raises(RelationViolation):
        kramers_pairs(eta, np.eye(4, dtype=complex)[:, :3])


# -- balanced gapped generators ----------------------------------------------------------

BALANCED_DIMS = {
    C.A: dict(p=3),
    C.D: dict(p=4),
    C.C: dict(p=2),
    C.AI: dict(p=3),
    C.AII: dict(p=2),
    C.AIII: dict(p=2, q=2),
    C.BDI: dict(p=3, q=3),
    C.CI: dict(p=2),
    C.CII: dict(p=2, q=2),
    C.DIII: dict(p=2),
}


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
def test_balanced_hamiltonian_every_class(cls):
    gen = rng(500 + ALL_CLASSES.index(cls))
    rep = random_rep(cls, gen, **BALANCED_DIMS[cls])
    h = balanced_hamiltonian(rep)
    d = rep.dim
    assert np.linalg.norm(h - h.conj().T) < 1e-10
    assert np.linalg.norm(h @ h - np.eye(d)) < 1e-10
    check_admissible(LatticeOperator.one_cell(h), rep, kind="hamiltonian")
    g = 1j * h
    check_unitary(LatticeOperator.one_cell(g))
    check_admissible(LatticeOperator.one_cell(g), rep, kind="walk")
    vals = np.linalg.eigvals(g)
    assert np.min(np.abs(vals - 1)) > 1.0  # spectrum is {+i, -i}
    assert np.min(np.abs(vals + 1)) > 1.0


@pytest.mark.parametrize(
    "cls,kwargs",
    [(C.AIII, dict(p=2, q=1)), (C.BDI, dict(p=1, q=2)), (C.D, dict(p=3)), (C.DIII, dict(p=1)), (C.CII, dict(p=2, q=1))],
)
def test_unbalanced_reps_have_no_gapped_generator(cls, kwargs):
    gen = rng(600)
    rep = random_rep(cls, gen, **kwargs)
    with pytest.raises(Unbalanced):
        balanced_hamiltonian(rep)


# -- the action by runs of cells against the dense rep -------------------------------


def _assert_same(got, want, exact: bool):
    """Entry for entry equal when every cell product is exact, else within 1e-12."""
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def _cells_basis(local: LocalSymmetryRep, gen: np.random.Generator) -> np.ndarray:
    """An orthonormal basis, rotated at random, of the vectors on a random set of cells."""
    n = len(local.per_cell)
    members = np.flatnonzero(gen.random(n) < 0.5)
    if members.size == 0:
        members = np.array([int(gen.integers(n))])
    offsets = np.cumsum([0] + [r.dim for r in local.per_cell])
    rows = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in members])
    basis = np.zeros((offsets[-1], rows.size), dtype=complex)
    basis[rows, np.arange(rows.size)] = 1.0
    return basis @ haar_unitary(gen, rows.size)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
def test_action_by_runs_matches_the_dense_rep(cls):
    # conjugation, restriction, the chiral trace and the companion rep, each
    # by runs of cells, against the same operation on the assembled N x N rep
    gen = rng(7300 + ALL_CLASSES.index(cls))
    for cells in ("signed", "phase", "haar"):
        exact = cells != "haar"
        for layout, per_cell in cell_layouts(cls, gen, cells).items():
            local = LocalSymmetryRep(cls, per_cell)
            dense = local.assembled()
            runs = local.runs()
            n = dense.dim
            assert len(runs) == {"uniform": 1, "two_runs": 2, "mixed_dims": 3}[layout]
            x = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
            for name, op in dense.ops.items():
                # the conjugation sigma X sigma^-1: a row pass, then a column pass
                conjugated = times_runs(apply_runs(runs, name, x), runs, name, adjoint=True)
                _assert_same(conjugated, op.conjugate(x), exact)

            basis = _cells_basis(local, gen)
            oracle = dense_restrict(dense, basis)
            for rep in (local, dense):
                got = rep.restrict(basis)
                assert (got.cls, got.dim, list(got.ops)) == (cls, basis.shape[1], list(oracle.ops))
                for name, op in oracle.ops.items():
                    assert got.ops[name].antiunitary == op.antiunitary
                    _assert_same(got.ops[name].matrix, op.matrix, exact or rep is dense)
                assert rep_index(got) == rep_index(oracle)

            if "gamma" in dense.ops:
                g = dense.ops["gamma"].matrix
                assert trace_runs(runs, "gamma") == pytest.approx(np.trace(g), abs=1e-12)
                # Gaussian integers keep every sum exact, whatever its order
                z = gen.integers(-3, 4, size=(n, n)) + 1j * gen.integers(-3, 4, size=(n, n))
                for m in (z, x):
                    got, want = trace_runs(runs, "gamma", m), np.einsum("ij,ji->", g, m)
                    if exact and m is z:
                        assert got == want
                    else:
                        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

            w = random_admissible_walk(dense, gen)
            trep = twiddle_rep(LatticeOperator.one_cell(w), local)
            assert (trep.cls, trep.dim, list(trep.ops)) == (cls, n, list(dense.ops))
            for name, op in dense.ops.items():
                want = w @ op.matrix if ADMISSIBILITY[name][0] else op.matrix
                assert trep.ops[name].antiunitary == op.antiunitary
                _assert_same(trep.ops[name].matrix, want, exact)


@pytest.mark.parametrize("cls", [c for c in ALL_CLASSES if c is not C.A], ids=lambda c: c.value)
def test_restriction_by_runs_refuses_what_the_dense_rep_refuses(cls):
    gen = rng(7400 + ALL_CLASSES.index(cls))
    for cells in ("signed", "phase", "haar"):
        for per_cell in cell_layouts(cls, gen, cells).values():
            local = LocalSymmetryRep(cls, per_cell)
            dense = local.assembled()
            n = dense.dim
            span, _ = np.linalg.qr(gen.normal(size=(n, n // 2)) + 1j * gen.normal(size=(n, n // 2)))
            with pytest.raises(NotAdmissible) as want:
                dense_restrict(dense, span)
            for rep in (local, dense):
                with pytest.raises(NotAdmissible) as got:
                    rep.restrict(span)
                if cells == "haar":
                    # the defect may round differently in its last printed digit
                    assert str(got.value).split(": defect")[0] == str(want.value).split(": defect")[0]
                else:
                    assert str(got.value) == str(want.value)
