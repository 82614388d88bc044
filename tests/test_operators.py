"""Unitary eigendecomposition, kernels, polar factors, windows."""

from __future__ import annotations

import numpy as np
import pytest

import walkindex.lattice as lattice_module
from helpers import (
    ALL_CLASSES,
    cell_layouts,
    dense_admissibility,
    haar_unitary,
    random_admissible_hamiltonian,
    random_admissible_walk,
    random_rep,
    rng,
)
from walkindex.errors import (
    EigenFailure,
    NotAdmissible,
    NotNormal,
    NotUnitary,
    WindowAmbiguous,
)
from walkindex.operators import (
    admissible_hamiltonian_projection,
    check_admissible,
    check_normal,
    check_unitary,
    eig_unitary,
    imaginary_part,
    kernel_basis,
    phase_window,
    polar_isometry,
)
from walkindex.lattice import LatticeOperator, LocalSymmetryRep
from walkindex.symmetry import SymmetryClass, spectral_norm
from walkindex.tolerances import DEFAULT_TOL
from walkindex.walks import build_lattice, make_split_step

C = SymmetryClass


def test_check_unitary_rejects_contraction():
    with pytest.raises(NotUnitary):
        check_unitary(LatticeOperator.one_cell(0.5 * np.eye(3)))


def test_screened_gates_pass_on_a_bound_and_refuse_with_the_exact_norm():
    gen = rng(17)
    u = haar_unitary(gen, 64)
    tol = DEFAULT_TOL
    for check, residual, bound in (
        (
            lambda w, tol: check_unitary(LatticeOperator.one_cell(w), tol),
            lambda w: w.conj().T @ w - np.eye(64),
            tol.unit,
        ),
        (check_normal, lambda w: w @ w.conj().T - w.conj().T @ w, 10 * tol.unit),
    ):
        assert spectral_norm(residual(u)) * (1 - 1e-9) <= check(u, tol=tol) <= bound
        # many small defects: the Frobenius norm is four times the spectral norm
        for w in (u * (1 + 2 * bound * (np.arange(64) < 16)), u + 2 * bound * np.triu(u, 1)):
            exact = spectral_norm(residual(w))
            assert bound < exact < np.linalg.norm(residual(w)) / 3
            with pytest.raises((NotUnitary, NotNormal), match=f"{exact:.3e}"):
                check(w, tol=tol)


def test_eig_unitary_gates_its_input_as_check_unitary_does():
    # r x r inputs with defects on both sides of tol.unit, a few of them set
    # by scaled columns (at 16 and 64 rows the Frobenius norm is over twice
    # the spectral one, so the exact norm decides) and the rest by random
    # perturbations: eig_unitary
    # passes or refuses, with the same message, as the one-cell gate.  Past
    # the gate, a non-normal input may still fail the eigen residual
    def refusal(call) -> str | None:
        try:
            call()
        except NotUnitary as exc:
            return str(exc)
        except EigenFailure:
            pass
        return None

    gen = rng(18)
    tol = DEFAULT_TOL
    verdicts = {True: 0, False: 0}
    for r in (1, 2, 4, 16, 64):
        u = haar_unitary(gen, r)
        cases = [u]
        for ratio in (0.5, 1 - 1e-3, 1 + 1e-3, 2.0):
            x = gen.uniform(-1, 1, r) * (np.arange(r) < max(1, r // 4))
            x[0] = 1.0
            cases.append(u * np.sqrt(1 + ratio * tol.unit * x))
        for eps in (1e-12, 1e-10, 1e-9, 1e-6):
            cases.append(u + eps * (gen.normal(size=(r, r)) + 1j * gen.normal(size=(r, r))))
        for w in cases:
            want = refusal(lambda: check_unitary(LatticeOperator.one_cell(w), tol))
            assert refusal(lambda: eig_unitary(w, tol)) == want, r
            verdicts[want is None] += 1
    assert min(verdicts.values()) >= 15


def test_eig_unitary_random_haar():
    gen = rng(1)
    for d in (2, 5, 16):
        w = haar_unitary(gen, d)
        eig = eig_unitary(w)
        assert eig.residual < 1e-10
        assert np.linalg.norm(w - eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T) < 1e-9
        assert np.all(np.diff(np.angle(eig.values)) >= -1e-12)


def test_eig_unitary_orthonormal_on_conjugate_paired_spectrum():
    # Eigenvalues come in conjugate pairs exp(+-i theta); the real part is
    # doubly degenerate, the regime the cluster refinement is for.
    gen = rng(2)
    thetas = np.array([0.3, 0.3, -0.3, -0.3, 1.1, -1.1, np.pi, 0.0])
    u = haar_unitary(gen, 8)
    w = u @ np.diag(np.exp(1j * thetas)) @ u.conj().T
    eig = eig_unitary(w)
    assert np.linalg.norm(eig.vectors.conj().T @ eig.vectors - np.eye(8)) < 1e-10
    got = np.sort(np.angle(eig.values))
    assert np.allclose(got, np.sort(thetas), atol=1e-9)


def test_eig_unitary_exact_eigenvalue_recovery():
    # Exactly degenerate +-1 with nontrivial eigenvectors
    gen = rng(3)
    u = haar_unitary(gen, 6)
    lam = np.array([1, 1, -1, 1j, -1j, np.exp(0.4j)])
    w = u @ np.diag(lam) @ u.conj().T
    eig = eig_unitary(w)
    assert np.sum(np.abs(eig.values - 1) < 1e-10) == 2
    assert np.sum(np.abs(eig.values + 1) < 1e-10) == 1


def test_kernel_basis_dimensions_and_span():
    gen = rng(4)
    a = gen.normal(size=(6, 4))
    m = np.zeros((6, 7))
    m[:, :4] = a  # columns 4..6 are exact kernel directions
    basis = kernel_basis(m, 1e-10)
    assert basis.shape == (7, 3)
    assert np.linalg.norm(m @ basis) < 1e-10
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(3)) < 1e-12


def test_kernel_basis_of_full_rank_matrix_is_empty():
    gen = rng(5)
    m = haar_unitary(gen, 5)
    assert kernel_basis(m, 1e-10).shape == (5, 0)


def _sqrtm_psd(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    vals = np.clip(vals, 0, None)
    return vecs @ (np.sqrt(vals)[:, None] * vecs.conj().T)


def test_polar_isometry_properties():
    gen = rng(6)
    u = haar_unitary(gen, 5)
    v = haar_unitary(gen, 5)
    x = u @ np.diag([2.0, 1.0, 0.5, 0.0, 0.0]) @ v.conj().T
    iso = polar_isometry(x, DEFAULT_TOL.ker)
    # partial isometry vanishing exactly on ker(x); x = iso * sqrt(x* x)
    assert np.linalg.norm(iso @ iso.conj().T @ iso - iso) < 1e-12
    kern = kernel_basis(x, 1e-10)
    assert np.linalg.norm(iso @ kern) < 1e-12
    assert np.linalg.norm(x - iso @ _sqrtm_psd(x.conj().T @ x)) < 1e-10


def test_imaginary_part_is_hermitian():
    gen = rng(7)
    w = haar_unitary(gen, 6)
    im = imaginary_part(w)
    assert np.linalg.norm(im - im.conj().T) < 1e-12
    assert np.allclose(im, (w - w.conj().T) / 2j)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
def test_random_admissible_walks_pass_check(cls):
    gen = rng(20 + ALL_CLASSES.index(cls))
    rep = random_rep(cls, gen, p=2, q=2)
    w = LatticeOperator.one_cell(random_admissible_walk(rep, gen))
    check_unitary(w)
    report = check_admissible(w, rep, kind="walk")
    assert report.max_residual < 1e-10


def test_check_admissible_rejects_generic_unitary():
    gen = rng(8)
    rep = random_rep(C.BDI, gen, p=2, q=2)
    w = LatticeOperator.one_cell(haar_unitary(gen, 4))
    with pytest.raises(NotAdmissible):
        check_admissible(w, rep, kind="walk")


def test_admissible_projection_is_idempotent_and_admissible():
    gen = rng(9)
    rep = random_rep(C.DIII, gen, p=2)
    k = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    h = admissible_hamiltonian_projection(k, rep)
    h2 = admissible_hamiltonian_projection(h, rep)
    assert np.linalg.norm(h - h2) < 1e-12
    check_admissible(LatticeOperator.one_cell(h), rep, kind="hamiltonian")


def test_phase_window_defaults_to_tol_exact():
    # eig_unitary sorts by phase, so the mask follows the order given here
    eig = eig_unitary(np.diag(np.exp(1j * np.array([5e-8, 0.5, np.pi - 5e-7]))))
    assert phase_window(eig, 1.0).tolist() == [True, False, False]
    assert phase_window(eig, -1.0).tolist() == [False, False, False]
    wide = DEFAULT_TOL.with_(exact=1e-6)
    assert phase_window(eig, -1.0, tol=wide).tolist() == [False, False, True]
    with pytest.raises(WindowAmbiguous):
        phase_window(eig, 1.0, tol=DEFAULT_TOL.with_(exact=5e-8 + 1e-10))


def test_phase_window_flags_edge():
    gen = rng(15)
    u = haar_unitary(gen, 2)
    w = u @ np.diag([np.exp(1e-7j * 0.999), -1.0]) @ u.conj().T
    with pytest.raises(WindowAmbiguous):
        phase_window(eig_unitary(w), 1.0, tol=DEFAULT_TOL.with_(exact=1e-7))


def test_check_normal_accepts_unitary_rejects_jordanish():
    gen = rng(16)
    check_normal(haar_unitary(gen, 4))
    bad = np.eye(3) + np.diag([1.0, 1.0], k=1)
    with pytest.raises(NotNormal):
        check_normal(bad)


# -- cell-local, screened admissibility against the dense-SVD oracle ----------------


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
def test_cell_local_screened_check_matches_dense_oracle(cls, monkeypatch):
    gen = rng(4100 + ALL_CLASSES.index(cls))
    tol = DEFAULT_TOL
    taken = []  # the norms of the residuals that the screen passed on to an SVD

    def counted(x):
        taken.append(spectral_norm(x))
        return taken[-1]

    # the gate's Frobenius screen and the SVD it falls back on live in lattice
    monkeypatch.setattr(lattice_module, "spectral_norm", counted)
    straddled = 0
    for exact in (True, False):
        for layout, per_cell in cell_layouts(cls, gen, "phase" if exact else "haar").items():
            local = LocalSymmetryRep(cls, per_cell)
            dense = local.assembled()
            n = dense.dim
            for kind in ("walk", "hamiltonian"):
                if kind == "walk":
                    base = random_admissible_walk(dense, gen)
                else:
                    base = random_admissible_hamiltonian(dense, gen)
                e = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
                unit = max(dense_admissibility(e, dense, kind).values(), default=1.0)
                # R(W + sE) = R(W) + s R(E): the worst spectral norm lands at factor * tol.adm
                for factor in (0.0, 1e-3, 1 - 1e-3, 1 + 1e-3, 10.0):
                    m = base + factor * tol.adm / unit * e
                    oracle = dense_admissibility(m, dense, kind)
                    w = LatticeOperator.one_cell(m)
                    worst = max(oracle.values(), default=0.0)
                    ok = worst <= tol.adm
                    for rep in (local, dense):
                        taken.clear()
                        report = check_admissible(w, rep, kind=kind, tol=tol, strict=False)
                        assert list(report.residuals) == list(oracle)
                        assert report.ok == ok
                        for name, value in report.residuals.items():
                            if value in taken:  # the spectral norm, as every failing residual
                                if exact:
                                    assert value == oracle[name]
                                else:
                                    assert value == pytest.approx(oracle[name], rel=1e-6, abs=1e-13)
                            else:  # the Frobenius bound, never below the spectral norm
                                assert oracle[name] * (1 - 1e-9) <= value <= tol.adm
                        if not ok:
                            with pytest.raises(NotAdmissible) as err:
                                check_admissible(w, rep, kind=kind, tol=tol)
                            key = max(oracle, key=oracle.get)
                            assert f"for {key} violated" in str(err.value)
                            if exact:
                                assert f"residual {worst:.3e}" in str(err.value)
                            continue
                        # a report is the same measurement as the gate, without the raise
                        assert check_admissible(w, rep, kind=kind, tol=tol) == report
                        if oracle and factor == 1 - 1e-3:
                            # ||R||_F > tol.adm >= ||R||_2: the screen passes it to the SVD
                            key = max(oracle, key=oracle.get)
                            straddled += report.residuals[key] in taken
    if cls is not SymmetryClass.A:
        assert straddled >= 8


def test_strict_check_of_split_step_circle_takes_no_svd(monkeypatch):
    ring = build_lattice(make_split_step(1.2, 0.4), 192, "circle")
    calls = []

    def counted(x):
        calls.append(x.shape)
        return spectral_norm(x)

    # the screen, and the SVD it falls back on, live in lattice
    monkeypatch.setattr(lattice_module, "spectral_norm", counted)
    w = LatticeOperator.one_cell(ring.matrix)
    assert check_admissible(w, ring.local_rep).ok
    # a report (strict=False) is the same screened measurement without the raise
    report = check_admissible(w, ring.local_rep, strict=False)
    assert report.ok and len(report.residuals) == 3
    assert calls == []
