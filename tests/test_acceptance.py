"""End-to-end acceptance checks for the shipped guarantees.

Nine numbered checks; each prints a single [PASS] line (on the real stderr,
past any capture) with its measured figures, and enforces its runtime budget
where one is stated.  Check 5 has a companion fuzz of the +-1 eigenspace
selection against a fixed-radius oracle, and check 6 two of the contraction
generator itself: its admissibility, and its agreement with the whole-space
route.  All randomness is seeded, so the suite is deterministic.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from helpers import (
    ALL_CLASSES,
    ProjectionPair,
    contraction_path,
    count_in_disk,
    dense_rep,
    forget_ti,
    haar_unitary,
    identity_defects,
    random_admissible_walk,
    random_rep,
    rng,
    window_eigenspaces,
)
from walkindex.cli import main
from walkindex.decoupling import gentle_decoupling
from walkindex.errors import Obstructed, WindowAmbiguous
from walkindex.finite import crossover_sweep, temple_kato
from walkindex.indices import (
    contract_perturbation,
    relative_index,
    si_left_right,
    si_pm,
    si_total,
    twiddle_rep,
    verify_locpert,
)
from walkindex.lattice import (
    LatticeOperator,
    LocalSymmetryRep,
    arc_projection,
    half_space_projection,
)
from walkindex.operators import admissible_hamiltonian_projection, check_admissible
from walkindex.symmetry import IndexGroup, IndexValue, SymmetryClass, rep_index
from walkindex.tolerances import DEFAULT_TOL
from walkindex.walks import (
    berry_phase,
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
SPLIT_A = (9 * np.pi / 32, 7 * np.pi / 32)
SPLIT_B = (-5 * np.pi / 16, 2 * np.pi / 16)

# (walk, circle size range); sizes keep total dims <= 60 for the decoupling suite
FAMILIES = (
    (make_generating_example(), (8, 30)),
    (make_generating_example(True), (8, 30)),
    (make_split_step(*SPLIT_A), (16, 30)),
    (make_split_step(*SPLIT_B), (16, 30)),
    (make_trivial(), (8, 30)),
    (make_doubled("CII"), (8, 15)),
    (make_doubled("DIII"), (8, 15)),
)

# half-space indices (left, right) of each family on any cut of a circle; both
# coin signs of the generating example are named "generating" and share them
FAMILY_SI = {
    "generating": (-1, 1),
    "split_step": None,  # sign depends on the angles; filled per instance below
    "trivial": (0, 0),
    "doubled_cii": (-2, 2),
    "doubled_diii": (2, 2),
}


def _passed(n: int, msg: str) -> None:
    print(f"[PASS] {n}/9 {msg}", file=sys.__stderr__)


one = LatticeOperator.one_cell  # a plain matrix as an operator on one cell


def conjugated_ring(ti, n, gen) -> LatticeOperator:
    """The walk on a circle in a random cell-local basis.

    Conjugating matrix and representation together preserves admissibility,
    the band, and every index exactly.
    """
    ring = build_lattice(ti, n, "circle")
    us = [haar_unitary(gen, d) for d in ring.cells.cell_dims]
    v = block_diag(*us)
    per_cell = tuple(r.conjugated(u) for r, u in zip(ring.local_rep.per_cell, us))
    return LatticeOperator.from_matrix(
        v @ ring.matrix @ v.conj().T,
        ring.cells,
        ring.band,
        LocalSymmetryRep(ring.local_rep.cls, per_cell),
        {},
    )


def conjugated_line(ti, n, gen) -> LatticeOperator:
    seg = truncate_ti(ti, n, "decoupled_unitary")
    us = [haar_unitary(gen, d) for d in seg.cells.cell_dims]
    v = block_diag(*us)
    per_cell = tuple(r.conjugated(u) for r, u in zip(seg.local_rep.per_cell, us))
    return LatticeOperator.from_matrix(
        v @ seg.matrix @ v.conj().T,
        seg.cells,
        seg.band,
        LocalSymmetryRep(seg.local_rep.cls, per_cell),
        dict(seg.meta),
    )


def local_reflection(ring: LatticeOperator, cell: int) -> tuple[np.ndarray, np.ndarray]:
    # rank-1 admissible reflection from a column of the companion chiral
    # operator's +1 spectral projection; relative index +1
    gt = twiddle_rep(ring).ops["gamma"].matrix
    col = ((np.eye(ring.dim) + gt) / 2)[:, ring.cells.cell_slice(cell).start]
    v = (col / np.linalg.norm(col)).reshape(-1, 1)
    return np.eye(ring.dim) - 2 * v @ v.conj().T, v


# -- 1: generating walk -------------------------------------------------------------


def test_01_generating_walk_index_and_winding(tmp_path, capsys):
    spec = tmp_path / "walk.json"
    spec.write_text(
        json.dumps(
            {
                "type": "ti",
                "builtin": "generating",
                "geometry": {"n_cells": 20, "topology": "line"},
            }
        ),
        encoding="utf-8",
    )
    t0 = time.perf_counter()
    assert main(["index", str(spec)]) == 0
    index_out = json.loads(capsys.readouterr().out)
    assert main(["winding", str(spec)]) == 0
    winding_out = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - t0
    assert index_out["si_right"] == {"group": "Z", "value": 1}
    assert winding_out["value"] == {"group": "Z", "value": 1}
    assert winding_out["residual"] < 1e-6
    assert elapsed < 1.0
    _passed(
        1,
        "20-cell generating walk: si_right = 1 (Z), winding = 1 with residual "
        f"{winding_out['residual']:.1e} ({elapsed:.2f} s)",
    )


# -- 2: doubled walks and forgetful images -------------------------------------------


def test_02_doubled_walks_and_forget_maps():
    budgets = []
    t0 = time.perf_counter()
    cii = winding_number(make_doubled("CII"))
    budgets.append(time.perf_counter() - t0)
    assert int(cii.value) == 2 and cii.value.group is IndexGroup.TWO_Z

    t0 = time.perf_counter()
    diii = berry_phase(make_doubled("DIII"))
    budgets.append(time.perf_counter() - t0)
    assert int(diii.value) == 2 and diii.value.group is IndexGroup.TWO_Z2

    t0 = time.perf_counter()
    f_cii = winding_number(forget_ti(make_doubled("CII"), C.AIII))
    budgets.append(time.perf_counter() - t0)
    assert int(f_cii.value) == 2 and f_cii.value.group is IndexGroup.Z

    t0 = time.perf_counter()
    f_diii = winding_number(forget_ti(make_doubled("DIII"), C.AIII))
    budgets.append(time.perf_counter() - t0)
    assert int(f_diii.value) == 0

    assert all(b < 1.0 for b in budgets)
    _passed(
        2,
        "doubled walks: CII winding 2 (2Z), DIII phase index 2 (2Z2); forgetting "
        f"to AIII gives 2 and 0 (max {max(budgets):.2f} s per invariant)",
    )


# -- 3: split-step calibration --------------------------------------------------------


def test_03_split_step_winding_calibration():
    plus = winding_number(make_split_step(*SPLIT_A))
    minus = winding_number(make_split_step(*SPLIT_B))
    assert int(plus.value) == 1 and plus.residual < 1e-6
    assert int(minus.value) == -1 and minus.residual < 1e-6
    _passed(
        3,
        f"split-step windings: angles {SPLIT_A[0]:+.4f},{SPLIT_A[1]:+.4f} -> +1; "
        f"{SPLIT_B[0]:+.4f},{SPLIT_B[1]:+.4f} -> -1",
    )


# -- 4: protected modes of a two-bulk circle ------------------------------------------


def test_04_two_bulk_circle_modes_and_localization():
    t0 = time.perf_counter()
    records = crossover_sweep(
        make_split_step(*SPLIT_A),
        make_split_step(*SPLIT_B),
        [(10, 10), (20, 20), (40, 40)],
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    for rec in records:
        assert len(rec.eigenvalues) >= 2
        assert rec.count_near_plus + rec.count_near_minus >= 2
    deltas = [rec.delta for rec in records]
    assert deltas[0] > deltas[1] > deltas[2]
    assert records[-1].max_localization_radius <= 10
    _passed(
        4,
        f"two-bulk circle n=10/20/40: near-anchor modes {[len(r.eigenvalues) for r in records]}, "
        f"delta {deltas[0]:.1f} > {deltas[1]:.1f} > {deltas[2]:.1f}, "
        f"90% mass within {records[-1].max_localization_radius} cells of an interface "
        f"({elapsed:.2f} s)",
    )


# -- 5: relative-index identities ------------------------------------------------------


def test_05_relative_index_identities_fuzz():
    gen = rng(20260805)
    t0 = time.perf_counter()
    done = 0

    # smooth multiplicative perturbations, connected to the identity: 100 trials
    classes = [C.D, C.AIII, C.BDI, C.CII]
    while done < 100:
        cls = classes[done % 4]
        if cls is C.D:
            rep = random_rep(cls, gen, p=int(gen.integers(2, 41)))
        elif cls is C.CII:
            rep = random_rep(cls, gen, int(gen.integers(1, 9)), int(gen.integers(1, 9)))
        else:
            rep = random_rep(cls, gen, int(gen.integers(1, 21)), int(gen.integers(1, 21)))
        assert rep.dim <= 40
        w = random_admissible_walk(rep, gen)
        trep = twiddle_rep(one(w), rep)
        z = gen.normal(size=(rep.dim, rep.dim)) + 1j * gen.normal(size=(rep.dim, rep.dim))
        v = expm(1j * admissible_hamiltonian_projection(z, trep))
        report = verify_locpert(one(w), one(v @ w), rep)
        assert report.ok
        if done % 5 == 0:
            # chain rule through a second perturbation
            trep2 = twiddle_rep(one(v @ w), rep)
            z2 = gen.normal(size=(rep.dim, rep.dim)) + 1j * gen.normal(size=(rep.dim, rep.dim))
            v2 = expm(1j * admissible_hamiltonian_projection(z2, trep2))
            total = relative_index(one(w), one(v2 @ v @ w), rep)
            first = relative_index(one(w), one(v @ w), rep)
            second = relative_index(one(v @ w), one(v2 @ v @ w), rep)
            assert total == first + second
        done += 1

    # rank-1 chiral reflections at matrix level (AIII carries no reality
    # constraint, so any eigenvector of the companion involution works): 60 trials
    for t in range(60):
        p = int(gen.integers(1, 21))
        q = int(gen.integers(1, 21))
        rep = random_rep(C.AIII, gen, p, q)
        w = random_admissible_walk(rep, gen)
        gt = twiddle_rep(one(w), rep).ops["gamma"].matrix
        vals, vecs = np.linalg.eigh((gt + gt.conj().T) / 2)
        sign = 1 if t % 2 == 0 else -1
        sector = vecs[:, vals > 0] if sign == 1 else vecs[:, vals < 0]
        if sector.shape[1] == 0:
            sector = vecs[:, vals > 0] if sign == -1 else vecs[:, vals < 0]
            sign = -sign
        coeff = gen.normal(size=sector.shape[1]) + 1j * gen.normal(size=sector.shape[1])
        v = (sector @ coeff).reshape(-1, 1)
        v /= np.linalg.norm(v)
        refl = np.eye(rep.dim) - 2 * v @ v.conj().T
        report = verify_locpert(one(w), one(refl @ w), rep)
        assert report.ok
        assert int(report.relative) == sign
        done += 1

    # lattice reflections: chain rule and distant additivity on rings: 40 trials
    for t in range(40):
        n = int(gen.choice([14, 16, 18, 20]))
        ring = build_lattice(make_generating_example(), n, "circle")
        c1 = int(gen.integers(0, n))
        c2 = (c1 + n // 2) % n
        r1, v1 = local_reflection(ring, c1)
        r2, v2 = local_reflection(ring, c2)
        assert abs(v1.conj().T @ v2)[0, 0] < 1e-8  # disjoint supports
        report = verify_locpert(ring, one(r1 @ ring.matrix))
        assert report.ok and int(report.relative) == 1
        # chain rule
        total = relative_index(ring, one(r2 @ r1 @ ring.matrix))
        first = relative_index(ring, one(r1 @ ring.matrix))
        second = relative_index(one(r1 @ ring.matrix), one(r2 @ r1 @ ring.matrix), ring.local_rep)
        assert total == first + second
        # additivity of perturbations with distant supports
        assert int(total) == int(first) + int(relative_index(ring, one(r2 @ ring.matrix))) == 2
        done += 1

    elapsed = time.perf_counter() - t0
    assert done == 200
    assert elapsed < 30.0
    _passed(
        5,
        f"relative-index identities: 200 randomized trials exact in D/AIII/BDI/CII, "
        f"chain rule and distant additivity included ({elapsed:.1f} s)",
    )


def test_05_eigen_cluster_matches_window_oracle():
    # si_pm takes the +-1 modes from the essential-gap cluster of Im W;
    # wherever the fixed-radius selection answers, it gives the same indices
    gen = rng(20261019)
    answered = refused = 0

    def compare(w, rep):
        nonlocal answered, refused
        got = si_pm(one(w), rep)
        for window in (DEFAULT_TOL.exact, 1e-3):
            try:
                spaces = window_eigenspaces(w, window)
            except WindowAmbiguous:
                refused += 1
                continue
            zero = IndexValue.zero(rep.cls.index_group)
            oracle = tuple(rep_index(rep.restrict(b)) if b.shape[1] else zero for b in spaces)
            assert got == oracle
            answered += 1

    for t in range(100):
        rep = random_rep(ALL_CLASSES[t % 10], gen, int(gen.integers(1, 6)), int(gen.integers(1, 6)))
        compare(random_admissible_walk(rep, gen), rep)
    for t in range(2 * len(FAMILIES)):
        ti, (lo, hi) = FAMILIES[t % len(FAMILIES)]
        n = int(gen.integers(lo, hi + 1))
        for op in (conjugated_ring(ti, n, gen), conjugated_line(ti, n, gen)):
            compare(op.matrix, dense_rep(op))
    assert answered >= 250


# -- 6: gentle decoupling suite --------------------------------------------------------


def test_06_gentle_decoupling_suite():
    gen = rng(20260806)
    t0 = time.perf_counter()
    worst_comm = worst_unit = worst_adm = 0.0
    min_re = 1.0
    for t in range(50):
        ti, (lo, hi) = FAMILIES[t % len(FAMILIES)]
        n = int(gen.integers(lo, hi + 1))
        assert n * ti.cell_dim <= 60
        op = conjugated_ring(ti, n, gen)
        cut = int(gen.integers(0, n))
        res = gentle_decoupling(op, cut)
        worst_comm = max(worst_comm, res.commutator_norm)
        assert res.commutator_norm <= 1e-9
        re_floor = float(np.min(np.linalg.eigvals(res.v.matrix).real))
        min_re = min(min_re, re_floor)
        assert re_floor >= -1e-9
        rep = op.local_rep
        eye = np.eye(op.dim)
        for v_t in contraction_path(res.generator.matrix, 8):
            sample = v_t @ op.matrix
            unit = float(np.linalg.norm(sample.conj().T @ sample - eye, 2))
            adm = check_admissible(one(sample), rep, kind="walk", strict=False).max_residual
            worst_unit = max(worst_unit, unit)
            worst_adm = max(worst_adm, adm)
            assert unit <= 1e-8 and adm <= 1e-8
        assert res.si_preserved
    with pytest.raises(Obstructed):
        gentle_decoupling(build_lattice(make_shift(), 10, "circle"), 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(
        6,
        f"gentle decoupling: 50 random banded walks decoupled with max commutator "
        f"{worst_comm:.1e}, min Re(eig V) {min_re:+.1e}, path defects <= "
        f"{max(worst_unit, worst_adm):.1e}, indices preserved; pure shift obstructed "
        f"({elapsed:.1f} s)",
    )


def test_06_contraction_generator_fuzz():
    # the generator behind every gentle decoupling is an admissible
    # Hamiltonian for the companion rep, and exp(iK) gives back V
    gen = rng(20261018)
    for t in range(2 * len(FAMILIES)):
        ti, (lo, hi) = FAMILIES[t % len(FAMILIES)]
        n = int(gen.integers(lo, hi + 1))
        op = conjugated_ring(ti, n, gen)
        res = gentle_decoupling(op, int(gen.integers(0, n)))
        k = res.generator.matrix
        assert np.linalg.norm(k - k.conj().T, 2) <= 1e-12
        check_admissible(one(k), twiddle_rep(op), kind="hamiltonian")
        assert np.linalg.norm(expm(1j * k) - res.v.matrix, 2) <= 1e-10


def test_06_generator_matches_full_route_fuzz():
    # gentle_decoupling contracts V on range(P - Q); the whole-space route agrees
    gen = rng(20261021)
    for t in range(10):
        ti, (lo, hi) = FAMILIES[t % len(FAMILIES)]
        n = int(gen.integers(lo, hi + 1))
        op = conjugated_ring(ti, n, gen)
        res = gentle_decoupling(op, int(gen.integers(0, n)))
        full = contract_perturbation(res.v.matrix, twiddle_rep(op))
        assert np.linalg.norm(res.generator.matrix - full, 2) <= 1e-12


# -- 7: half-space index consistency ---------------------------------------------------


def test_07_inverse_generating_walk_has_the_generating_indices():
    # negating a walk keeps the kernel of its imaginary part, so W^-1 = -W of
    # the generating example has its indices (-1, +1), on a circle and on a
    # decoupled line alike
    inverse = make_generating_example(True)
    assert inverse.name == "generating" and FAMILY_SI[inverse.name] == (-1, 1)
    ring = build_lattice(inverse, 12, "circle")
    line = truncate_ti(inverse, 12, "decoupled_unitary")
    for op, cut in ((ring, 0), (ring, 5), (line, 6)):
        left, right = si_left_right(op, cut)
        assert (int(left), int(right)) == (-1, 1)


def test_07_half_space_index_consistency_laws():
    gen = rng(20260807)
    t0 = time.perf_counter()
    for t in range(100):
        if t % 2 == 0:
            ti, (lo, hi) = FAMILIES[(t // 2) % len(FAMILIES)]
            n = int(gen.integers(lo, hi + 1))
            op = conjugated_ring(ti, n, gen)
            cuts = gen.choice(n, size=2, replace=False)
        else:
            # decoupled line segments of the cell-sharp families
            ti = (make_generating_example(), make_generating_example(True), make_trivial())[
                (t // 2) % 3
            ]
            n = int(gen.integers(10, 17))
            op = conjugated_line(ti, n, gen)
            cuts = 3 + gen.choice(n - 6, size=2, replace=False)
        first = si_left_right(op, int(cuts[0]))
        second = si_left_right(op, int(cuts[1]))
        assert first == second  # cut-point independence, exact
        expected = FAMILY_SI.get(ti.name)
        if ti.name == "split_step":
            expected = (-1, 1) if int(winding_number(ti).value) == 1 else (1, -1)
        if expected is not None:
            assert (int(first[0]), int(first[1])) == expected
        assert si_total(op) == first[0] + first[1]  # additivity, exact

        if t % 2 == 0:
            # stability under a finite-rank admissible perturbation supported
            # away from the cut (near-cut cells keep attribution unambiguous)
            n = int(gen.choice([16, 20, 24]))
            ring = build_lattice(make_generating_example(), n, "circle")
            a = int(gen.integers(0, n))
            d = int(gen.integers(2, n // 4))
            refl, _ = local_reflection(ring, (a + d) % n)
            pert = LatticeOperator.from_matrix(refl @ ring.matrix, ring.cells, 2, ring.local_rep)
            before = si_left_right(ring, a, second_cut=(a + n // 2) % n)
            after = si_left_right(pert, a, second_cut=(a + n // 2) % n)
            assert before == after
    elapsed = time.perf_counter() - t0
    _passed(
        7,
        "half-space indices: cut independence, si = si_left + si_right, and "
        f"finite-rank stability exact over 100 randomized trials ({elapsed:.1f} s)",
    )


# -- 8: eigenvalue-count certificates ---------------------------------------------------


def test_08_certificate_soundness_fuzz():
    gen = rng(20260808)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        d = int(gen.integers(2, 101))
        u = haar_unitary(gen, d)
        vals, vecs = np.linalg.eig(u)
        k = int(gen.integers(1, min(6, d) + 1))
        pick = gen.choice(d, size=k, replace=False)
        mix = haar_unitary(gen, k)
        noise = gen.choice([0.0, 1e-8, 1e-3, 5e-2])
        phi = vecs[:, pick] @ mix + noise * (
            gen.normal(size=(d, k)) + 1j * gen.normal(size=(d, k))
        )
        theta = vals[pick[0]] if gen.random() < 0.7 else np.exp(2j * np.pi * gen.random())
        cert = temple_kato(u, theta, phi)
        if cert.valid:
            radius = cert.r_min * (1 + 1e-9) + 1e-15
            assert count_in_disk(u, theta, radius) >= cert.k
            checked += 1
    assert checked >= 40

    # an exact eigenvector of a diagonal unitary certifies with radius exactly 0
    phases = np.exp(2j * np.pi * gen.random(12))
    u = np.diag(phases)
    exact = temple_kato(u, phases[3], np.eye(12)[:, 3:4])
    assert exact.valid and exact.eps2 == 0.0 and exact.r_min == 0.0
    assert count_in_disk(u, phases[3], 0.0) >= 1
    elapsed = time.perf_counter() - t0
    _passed(
        8,
        f"eigenvalue-count certificates: {checked} valid certificates out of 100 "
        f"fuzz trials all sound; exact eigenvector gives radius 0 ({elapsed:.1f} s)",
    )


# -- 9: two-projection algebra ----------------------------------------------------------


def test_09_two_projection_algebra():
    gen = rng(20260809)
    pairs = []
    for ti, _ in FAMILIES:
        n = 12 if ti.cell_dim == 2 else 10
        ring = build_lattice(ti, n, "circle")
        for a, b in ((0, n // 2), (1, n // 2 + 2), (2, n - 2)):
            pairs.append(ProjectionPair.from_walk(ring.matrix, arc_projection(ring.cells, a, b)))
    seg = truncate_ti(make_generating_example(), 12, "decoupled_unitary")
    for a in (4, 6, 8):
        pairs.append(ProjectionPair.from_walk(seg.matrix, half_space_projection(seg.cells, a)))
    for _ in range(10):
        ti, (lo, hi) = FAMILIES[int(gen.integers(0, len(FAMILIES)))]
        n = int(gen.integers(lo, hi + 1))
        op = conjugated_ring(ti, n, gen)
        a = int(gen.integers(0, n))
        b = (a + int(gen.integers(2, n - 1))) % n
        pairs.append(ProjectionPair.from_walk(op.matrix, arc_projection(op.cells, a, b)))

    worst = 0.0
    for pair in pairs:
        defects = identity_defects(pair)
        for name, value in defects.items():
            worst = max(worst, value)
            assert value <= 1e-8, name
    _passed(
        9,
        f"two-projection algebra: anticommutation, pythagoras, spectral circle and "
        f"intertwining hold on all {len(pairs)} constructed pairs (worst defect {worst:.1e})",
    )
