"""Temple-Kato certificates, crossover joins, and size sweeps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from helpers import count_in_disk, dense_near_anchors
from walkindex.errors import (
    CutOutOfRange,
    DimensionMismatch,
    Gapless,
    IncompatibleCells,
    NotEnoughModes,
    NotNormal,
    TooShort,
)
from walkindex.finite import (
    EIGH_RESOLUTION,
    _radius_for_mass,
    certify_boundary_modes,
    crossover_sweep,
    join_crossover,
    localization_profile,
    temple_kato,
)
from walkindex.lattice import CellStructure, LatticeOperator
from walkindex.operators import check_admissible, check_unitary, eig_unitary
from walkindex.walks import (
    build_lattice,
    make_doubled,
    make_generating_example,
    make_shift,
    make_split_step,
    make_trivial,
    ti_gap_margin,
)

SPLIT_A_ANGLES = (9 * np.pi / 32, 7 * np.pi / 32)
SPLIT_B_ANGLES = (-5 * np.pi / 16, 2 * np.pi / 16)


@pytest.fixture(scope="module")
def split_a():
    return make_split_step(*SPLIT_A_ANGLES)


@pytest.fixture(scope="module")
def split_b():
    return make_split_step(*SPLIT_B_ANGLES)


@pytest.fixture(scope="module")
def line_join_80(split_a, split_b):
    return join_crossover(split_a, split_b, 40, 40, "line")


@pytest.fixture(scope="module")
def bulk_margin(split_a, split_b):
    return min(ti_gap_margin(split_a), ti_gap_margin(split_b))


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    return q


# -- temple_kato -------------------------------------------------------------------


def test_exact_eigenvector_gives_zero_radius():
    rng = np.random.default_rng(7)
    u = random_unitary(rng, 8)
    vals, vecs = np.linalg.eig(u)
    phi = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    cert = temple_kato(u, vals[0], phi)
    assert cert.k == 1
    assert cert.eps1 <= 1e-12
    assert cert.eps2 <= 1e-12
    assert cert.valid
    assert cert.r_min <= 1e-10
    assert count_in_disk(u, vals[0], 1e-8) >= 1


def test_exact_degenerate_pair():
    # diagonal unitary with a repeated eigenvalue; basis vectors are exact
    phases = np.exp(1j * np.array([0.3, 0.3, 1.1, -2.0]))
    u = np.diag(phases)
    cert = temple_kato(u, phases[0], np.eye(4)[:, :2])
    assert cert.k == 2 and cert.valid
    assert cert.r_min <= 1e-12
    assert count_in_disk(u, phases[0], 1e-8) == 2


def test_single_vector_defect_sets_radius():
    # K = 1 and eps1 = 0 make r_min equal the defect norm itself
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 8)
    vals, vecs = np.linalg.eig(u)
    v0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    v1 = vecs[:, 1] - (v0.conj() @ vecs[:, 1]) * v0
    v1 /= np.linalg.norm(v1)
    angle = 0.01 / abs(vals[1] - vals[0])
    phi = np.cos(angle) * v0 + np.sin(angle) * v1
    cert = temple_kato(u, vals[0], phi)
    assert cert.eps1 <= 1e-12
    assert cert.r_min == pytest.approx(0.01, rel=1e-4)


def test_parallel_vectors_invalidate_certificate():
    u = np.diag(np.exp(1j * np.array([0.2, 0.9, -1.3])))
    phi = np.stack([np.eye(3)[:, 0], np.eye(3)[:, 0]], axis=1)
    cert = temple_kato(u, u[0, 0], phi)
    assert cert.eps1 == pytest.approx(1.0)
    assert not cert.valid
    assert np.isinf(cert.r_min)


def test_vector_list_input_matches_matrix_input():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 6)
    vals, vecs = np.linalg.eig(u)
    as_list = temple_kato(u, vals[2], [vecs[:, 2], vecs[:, 3]])
    as_matrix = temple_kato(u, vals[2], vecs[:, 2:4])
    assert as_list.eps1 == pytest.approx(as_matrix.eps1, abs=1e-14)
    assert as_list.eps2 == pytest.approx(as_matrix.eps2, abs=1e-14)


def test_non_normal_operator_refused():
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotNormal):
        temple_kato(m, 1.0, np.eye(2)[:, :1])


def test_no_vectors_refused():
    u = np.eye(3, dtype=complex)
    with pytest.raises(NotEnoughModes):
        temple_kato(u, 1.0, np.zeros((3, 0)))


def test_vector_dimension_mismatch_refused():
    u = np.eye(3, dtype=complex)
    with pytest.raises(DimensionMismatch):
        temple_kato(u, 1.0, np.ones(4) / 2)


def test_soundness_fuzz():
    # every valid certificate lower-bounds the directly counted spectrum
    rng = np.random.default_rng(20260815)
    checked = 0
    for _ in range(25):
        d = int(rng.integers(2, 60))
        u = random_unitary(rng, d)
        vals, vecs = np.linalg.eig(u)
        k = int(rng.integers(1, min(4, d) + 1))
        pick = rng.choice(d, size=k, replace=False)
        mix = random_unitary(rng, k)
        noise = rng.choice([0.0, 1e-8, 1e-3, 5e-2])
        phi = vecs[:, pick] @ mix + noise * (
            rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        )
        theta = vals[pick[0]] if rng.random() < 0.7 else np.exp(2j * np.pi * rng.random())
        cert = temple_kato(u, theta, phi)
        if cert.valid:
            radius = cert.r_min * (1 + 1e-9) + 1e-15
            assert count_in_disk(u, theta, radius) >= cert.k
            checked += 1
    assert checked >= 10


# -- certify_boundary_modes --------------------------------------------------------


def test_whole_window_certificate_is_exact(line_join_80):
    cert = certify_boundary_modes(
        line_join_80, range(80), 1.0, 2, select_radius=1e-3
    )
    assert cert.valid
    assert cert.eps1 <= 1e-12
    assert cert.eps2 <= 1e-12
    assert cert.r_min <= 1e-10


def test_interface_window_certifies_below_gap(line_join_80, bulk_margin):
    for theta, r_cap in ((1.0, 1e-5), (-1.0, 1e-2)):
        cert = certify_boundary_modes(
            line_join_80, range(20, 60), theta, 1, select_radius=1e-3
        )
        assert cert.valid
        assert cert.r_min < r_cap < bulk_margin
        radius = cert.r_min * (1 + 1e-9) + 1e-15
        assert count_in_disk(line_join_80.matrix, theta, radius) >= 1


def test_pair_needs_window_covering_both_homes(line_join_80, bulk_margin):
    # the two near +1 modes live at the interface and at the right end;
    # an interface-only window cannot certify both
    narrow = certify_boundary_modes(
        line_join_80, range(20, 60), 1.0, 2, select_radius=1e-3
    )
    assert narrow.r_min > bulk_margin
    wide = certify_boundary_modes(
        line_join_80, range(20, 80), 1.0, 2, select_radius=1e-3
    )
    assert wide.valid
    assert wide.r_min <= 1e-10
    assert count_in_disk(line_join_80.matrix, 1.0, 1e-8) >= 2


def test_off_interface_window_is_vacuous(line_join_80, bulk_margin):
    cert = certify_boundary_modes(
        line_join_80, range(15, 35), 1.0, 1, select_radius=1e-3
    )
    assert cert.r_min > bulk_margin


def test_zero_weight_window_refused(line_join_80):
    with pytest.raises(NotEnoughModes):
        certify_boundary_modes(line_join_80, range(0, 20), 1.0, 1, select_radius=1e-3)


@pytest.mark.parametrize(
    "window", [range(0, 1000), range(-3, 4), range(16, 8)], ids=["past-end", "negative", "empty"]
)
def test_window_outside_lattice_refused(split_a, split_b, window):
    circle = join_crossover(split_a, split_b, 12, 12, "circle")
    with pytest.raises(CutOutOfRange):
        certify_boundary_modes(circle, window, 1.0, 1, select_radius=1e-3)


@pytest.mark.parametrize("k", [0, -1])
def test_nonpositive_mode_count_refused_before_eigensolve(split_a, split_b, monkeypatch, k):
    # k = -1 used to certify one mode through the [:-1] slice
    circle = join_crossover(split_a, split_b, 24, 24, "circle")
    monkeypatch.setattr("walkindex.finite.near_spectrum", None)
    with pytest.raises(NotEnoughModes, match=f"got k = {k}"):
        certify_boundary_modes(circle, range(18, 30), 1.0, k, select_radius=0.05)


def test_too_few_near_eigenvalues_refused(line_join_80):
    with pytest.raises(NotEnoughModes):
        certify_boundary_modes(line_join_80, range(80), 1.0, 5, select_radius=1e-3)


def test_eps2_never_grows_with_window(line_join_80):
    eps2 = [
        certify_boundary_modes(
            line_join_80, range(40 - h, 40 + h), 1.0, 1, select_radius=1e-3
        ).eps2
        for h in (5, 10, 15, 20, 30)
    ]
    assert all(a >= b for a, b in zip(eps2, eps2[1:]))


def test_certificate_transfers_to_any_containing_system(split_a, split_b, line_join_80):
    # the 60-cell system agrees with the 80-cell one on the interface window,
    # so the same truncated vector certifies both with the same defect norm
    j60 = join_crossover(split_a, split_b, 30, 30, "line")
    m80 = line_join_80.cells.index_mask(range(20, 60))
    m60 = j60.cells.index_mask(range(10, 50))
    sub80 = line_join_80.matrix[np.ix_(m80, m80)]
    sub60 = j60.matrix[np.ix_(m60, m60)]
    assert np.max(np.abs(sub80 - sub60)) <= 1e-12

    eig = eig_unitary(line_join_80.matrix)
    span = eig.vectors[:, np.abs(eig.values - 1.0) <= 1e-3]
    w_op = span.conj().T @ (m80.astype(float)[:, None] * span)
    vals, u = np.linalg.eigh((w_op + w_op.conj().T) / 2)
    best = (span @ u)[:, int(np.argmax(vals))]
    trunc = m80.astype(float) * best
    trunc /= np.linalg.norm(trunc)
    phi60 = np.zeros(j60.dim, dtype=complex)
    phi60[m60] = trunc[m80]

    cert80 = temple_kato(line_join_80.matrix, 1.0, trunc)
    cert60 = temple_kato(j60.matrix, 1.0, phi60)
    assert cert60.valid
    assert cert60.eps2 == pytest.approx(cert80.eps2, abs=1e-10)
    assert cert60.r_min < 1e-5
    radius = cert60.r_min * (1 + 1e-9) + 1e-15
    assert count_in_disk(j60.matrix, 1.0, radius) >= 1


# -- join_crossover ----------------------------------------------------------------


def test_identical_bulks_circle_is_pure_bulk():
    gen = make_generating_example()
    joined = join_crossover(gen, gen, 6, 6, "circle")
    bulk = build_lattice(gen, 12, "circle")
    assert np.allclose(joined.matrix, bulk.matrix, atol=1e-12)
    assert joined.meta["interfaces"] == (0, 6)


def test_uniform_profile_join_is_the_ti_walk():
    gen = np.random.default_rng(23)
    walks = [make_split_step(*gen.uniform(-np.pi, np.pi, 2)) for _ in range(20)]
    walks += [make_generating_example(), make_generating_example(True), make_doubled("CII")]
    for w in walks:
        a, b = (int(v) for v in gen.integers(2, 24, 2))
        joined = join_crossover(w, w, a, b, "circle")
        assert joined.meta["interfaces"] == (0, a)
        assert np.array_equal(joined.matrix, build_lattice(w, a + b, "circle").matrix)


# Records the stacks of every coin-level join (circle, and the padded circle
# of a line join), places them, and compares the matrix with the dense factor
# product of its side-chosen coins.  A threaded zgemm can split a cell's rows
# between threads and round them differently, so the dense route is
# bit-reproducible only on one BLAS thread: the comparison runs in a fresh
# interpreter.
_JOIN_ORACLE = """
import json, numpy as np
import walkindex.finite as finite
from walkindex.errors import WalkIndexError
from helpers import dense_factor_product, rng
from walkindex.lattice import CellStructure, place_blocks
from walkindex.walks import CoinFactor, make_doubled, make_generating_example, make_split_step, segment_pad

built = []
stacks = finite.factor_matrices
def recording(factors, cells):
    blocks = stacks(factors, cells)
    built.append(place_blocks(blocks, cells))
    return blocks
finite.factor_matrices = recording

gen = rng(29)
pairs = [(make_split_step(*gen.uniform(-np.pi, np.pi, 2)), make_split_step(*gen.uniform(-np.pi, np.pi, 2)))
         for _ in range(50)]
g, g_inv = make_generating_example(), make_generating_example(True)
pairs += [(g, g), (g, g_inv), (g_inv, g), (make_doubled("CII"), make_doubled("CII", True))]
compared, mismatches = 0, []
for i, (left, right) in enumerate(pairs):
    a, b = (int(v) for v in gen.integers(3, 40, 2))
    pad = segment_pad(max(left.band, right.band))
    for topology, side in (("circle", [0] * a + [1] * b),
                           ("line", [0] * a + [1] * (b + pad) + [0] * pad)):
        built.clear()
        try:  # the product is built before any gate can refuse the join
            finite.join_crossover(left, right, a, b, topology)
        except WalkIndexError:
            pass
        coins = [f if not isinstance(f, CoinFactor) else [(f, r)[s].matrix for s in side]
                 for f, r in zip(left.factors, right.factors)]
        expect = dense_factor_product(coins, CellStructure.uniform(len(side), left.cell_dim, "circle"))
        compared += 1
        if len(built) != 1 or not np.array_equal(built[0], expect):
            mismatches.append([i, topology, a, b])
print(json.dumps({"compared": compared, "mismatches": mismatches}))
"""


def test_coin_level_join_equals_dense_factor_product():
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _JOIN_ORACLE], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["compared"] == 108
    assert result["mismatches"] == []


def test_identical_bulks_spectrum_is_bloch_union():
    gen = make_generating_example()
    joined = join_crossover(gen, gen, 6, 6, "circle")
    vals = np.linalg.eigvals(joined.matrix)
    bloch = np.concatenate(
        [np.linalg.eigvals(gen.bloch(2 * np.pi * k / 12)) for k in range(12)]
    )
    assert np.max(np.abs(np.sort(np.angle(vals)) - np.sort(np.angle(bloch)))) <= 1e-9


def test_split_step_circle_join_has_protected_modes(split_a, split_b):
    joined = join_crossover(split_a, split_b, 30, 30, "circle")
    check_unitary(LatticeOperator.one_cell(joined.matrix), what="join")
    report = check_admissible(LatticeOperator.one_cell(joined.matrix), joined.local_rep, kind="walk")
    assert max(report.residuals.values()) <= 1e-8
    re = np.abs(np.linalg.eigvals(joined.matrix).real)
    assert int(np.sum(re > 1 - 1e-3)) == 4  # one near +-1 pair per interface
    assert int(np.sum(re > 1 - 1e-3)) >= 2


def test_line_join_is_unitary_admissible_with_one_interface(line_join_80):
    assert line_join_80.cells.n_cells == 80
    assert line_join_80.cells.topology == "line"
    assert line_join_80.meta["interfaces"] == (40,)
    assert line_join_80.meta["boundary"] == "decoupled_unitary"
    check_unitary(LatticeOperator.one_cell(line_join_80.matrix), what="line join")
    report = check_admissible(LatticeOperator.one_cell(line_join_80.matrix), line_join_80.local_rep, kind="walk")
    assert max(report.residuals.values()) <= 1e-8
    vals = np.linalg.eigvals(line_join_80.matrix)
    assert int(np.sum(np.abs(vals - 1) <= 1e-9)) == 2
    assert int(np.sum(np.abs(vals + 1) <= 1e-4)) == 2


def test_line_join_interior_blocks_match_bulk(split_a, split_b, line_join_80):
    bulk_a = build_lattice(split_a, 80, "circle")
    bulk_b = build_lattice(split_b, 80, "circle")
    for lo, hi, bulk in ((2, 38, bulk_a), (42, 78, bulk_b)):
        m = line_join_80.cells.index_mask(range(lo, hi))
        gap = np.max(np.abs(line_join_80.matrix[np.ix_(m, m)] - bulk.matrix[np.ix_(m, m)]))
        assert gap <= 1e-12


def test_identical_bulk_line_join_pins_end_defects():
    gen = make_generating_example()
    joined = join_crossover(gen, gen, 8, 8, "line")
    assert joined.meta["transfer_counts"] == {0: (1, 1), 16: (1, 1)}
    vals = np.linalg.eigvals(joined.matrix)
    assert int(np.sum(np.abs(vals - 1) <= 1e-9)) == 2
    bulk = build_lattice(gen, 16, "circle")
    mid = joined.cells.index_mask(range(2, 14))
    assert np.max(np.abs(joined.matrix[np.ix_(mid, mid)] - bulk.matrix[np.ix_(mid, mid)])) <= 1e-12


def test_sign_flipped_coin_pair_falls_back_to_decoupled_glue():
    # mixing the +-i sigma_x coins breaks the tau relation at the interface
    # bonds, so the join cannot stay coin-level; the decoupled glue leaves
    # two exact +1 modes flanking the silent interface and one at each end
    gen = make_generating_example()
    inv = make_generating_example(inverse=True)
    joined = join_crossover(gen, inv, 8, 8, "line")
    assert joined.meta["interface_style"] == "decoupled"
    check_unitary(LatticeOperator.one_cell(joined.matrix), what="fallback join")
    report = check_admissible(LatticeOperator.one_cell(joined.matrix), joined.local_rep, kind="walk")
    assert max(report.residuals.values()) <= 1e-8
    eig = eig_unitary(joined.matrix)
    pinned = np.flatnonzero(np.abs(eig.values - 1) <= 1e-9)
    assert pinned.size == 4
    homes = set()
    for idx in pinned:
        profile = localization_profile(eig.vectors[:, idx], joined.cells)
        assert profile.max() >= 0.99
        homes.add(int(np.argmax(profile)))
    assert homes == {0, 7, 8, 15}


def test_different_skeletons_fall_back(split_a):
    gen = make_generating_example()
    joined = join_crossover(gen, make_trivial(), 8, 8, "line")
    assert joined.meta["interface_style"] == "decoupled"
    check_unitary(LatticeOperator.one_cell(joined.matrix), what="fallback join")
    report = check_admissible(LatticeOperator.one_cell(joined.matrix), joined.local_rep, kind="walk")
    assert max(report.residuals.values()) <= 1e-8
    vals = np.linalg.eigvals(joined.matrix)
    assert int(np.sum(np.abs(vals - 1) <= 1e-9)) == 2


def test_circle_fallback_is_unitary():
    gen = make_generating_example()
    inv = make_generating_example(inverse=True)
    joined = join_crossover(gen, inv, 6, 6, "circle")
    assert joined.cells.topology == "circle"
    check_unitary(LatticeOperator.one_cell(joined.matrix), what="circle fallback")
    vals = np.linalg.eigvals(joined.matrix)
    assert int(np.sum(np.abs(vals - 1) <= 1e-9)) == 4  # two decoupled arcs


def test_join_rejects_incompatible_pairs():
    gen = make_generating_example()
    with pytest.raises(IncompatibleCells):
        join_crossover(gen, make_shift(), 6, 6)
    with pytest.raises(IncompatibleCells):
        join_crossover(make_doubled("CII"), make_doubled("DIII"), 6, 6)
    with pytest.raises(IncompatibleCells):
        join_crossover(gen, gen, 6, 6, topology="ring")
    with pytest.raises(TooShort):
        join_crossover(gen, gen, 0, 6)
    with pytest.raises(TooShort):
        join_crossover(gen, gen, 1, 1, "circle")


# -- crossover_sweep and localization ----------------------------------------------


def test_sweep_identical_bulks_is_quiet(split_a):
    rec = crossover_sweep(split_a, split_a, [(10, 10)], "circle")[0]
    assert rec.count_near_plus == 0
    assert rec.count_near_minus == 0
    assert np.isfinite(rec.delta)
    assert rec.delta <= 0
    assert rec.eigenvalues == ()


def test_sweep_delta_strictly_decreases(split_a, split_b):
    records = crossover_sweep(
        split_a, split_b, [(10, 10), (20, 20), (40, 40)], "circle"
    )
    deltas = [r.delta for r in records]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    for rec in records:
        assert rec.delta <= 0
        assert rec.count_near_plus == 2
        assert rec.count_near_minus == 2
        assert all(abs(abs(z) - 1) <= 1e-10 for z in rec.eigenvalues)
    assert records[-1].max_localization_radius <= 10


def test_sweep_asymmetric_initial_point(split_a, split_b):
    rec = crossover_sweep(split_a, split_b, [(1, 21)], "circle")[0]
    assert -6 < rec.delta < -3
    assert rec.count_near_plus == 2
    assert rec.count_near_minus == 0
    assert rec.max_localization_radius <= 4


def test_sweep_line_topology(split_a, split_b):
    rec = crossover_sweep(split_a, split_b, [(16, 16)], "line")[0]
    assert rec.count_near_plus == 2
    assert rec.count_near_minus == 2
    assert rec.delta < -20


@pytest.mark.parametrize(
    "angles, sizes, topology",
    [
        ((SPLIT_A_ANGLES, SPLIT_B_ANGLES), [(10, 10), (20, 20), (40, 40), (1, 21)], "circle"),
        ((SPLIT_A_ANGLES, SPLIT_B_ANGLES), [(16, 16)], "line"),
        ((SPLIT_A_ANGLES, SPLIT_A_ANGLES), [(10, 10)], "circle"),
        (((1.3, 0.2), (-1.3, 0.2)), [(6, 6), (24, 24)], "circle"),
        (
            (
                (-1.1539442633140755, 0.45381585750015385),
                (1.196500742480596, -0.3849940163793574),
            ),
            [(16, 16)],
            "circle",
        ),
    ],
)
def test_sweep_matches_dense_eigenbasis_oracle(angles, sizes, topology):
    left, right = (make_split_step(*a) for a in angles)
    window = min(ti_gap_margin(left), ti_gap_margin(right)) / np.sqrt(2.0)
    for rec in crossover_sweep(left, right, sizes, topology):
        joined = join_crossover(left, right, rec.n_a, rec.n_b, topology)
        values, vectors, old_delta = dense_near_anchors(joined.matrix, window)
        assert rec.count_near_plus == int(np.sum(np.abs(values - 1.0) < window))
        assert rec.count_near_minus == int(np.sum(np.abs(values + 1.0) < window))
        # as multisets: at +-1 the phase order of a pair is rounding
        gap = np.abs(np.array(rec.eigenvalues)[:, None] - values[None, :])
        rows, cols = linear_sum_assignment(gap)
        assert gap.shape[0] == gap.shape[1] and np.all(gap[rows, cols] <= 1e-12)
        profiles = [localization_profile(v, joined.cells) for v in vectors.T]
        interfaces = joined.meta.get("interfaces", (0,))
        assert rec.max_localization_radius == _radius_for_mass(profiles, joined.cells, interfaces)
        floor = 2 * np.log(joined.dim * EIGH_RESOLUTION) - np.log(2.0)
        assert rec.delta >= floor - 1e-12
        if old_delta > -26:
            assert rec.delta == pytest.approx(old_delta, abs=1e-3)


def test_sweep_delta_stops_at_the_eigh_floor():
    # these interface modes decay within a cell: at 24+24 cells the smallest
    # |Im lambda| is rounding, where log1p(-max |Re lambda|) read noise or
    # -inf; delta reads log(s^2 / 2) at s = N eps instead
    left, right = make_split_step(1.3, 0.2), make_split_step(-1.3, 0.2)
    short, long = crossover_sweep(left, right, [(6, 6), (24, 24)], "circle")
    assert -30 < short.delta < -20
    assert long.delta == pytest.approx(2 * np.log(96 * EIGH_RESOLUTION) - np.log(2.0), abs=1e-12)


def test_sweep_refuses_gapless_bulk():
    shift = make_shift()
    with pytest.raises(Gapless):
        crossover_sweep(shift, shift, [(4, 4)], "circle")


def test_sweep_record_row_shape(split_a, split_b):
    rec = crossover_sweep(split_a, split_b, [(10, 10)], "circle")[0]
    row = rec.as_row()
    assert list(row) == [
        "n_A", "n_B", "delta", "count_near_plus", "count_near_minus",
        "max_localization_radius",
    ]
    assert row["n_A"] == 10 and row["n_B"] == 10


def test_localization_profile_basis_and_uniform_vectors():
    cells = CellStructure.uniform(4, 1)
    basis = np.zeros(4, dtype=complex)
    basis[2] = 1.0
    assert np.allclose(localization_profile(basis, cells), [0, 0, 1, 0])
    uniform = np.full(4, 0.5, dtype=complex)
    assert np.allclose(localization_profile(uniform, cells), [0.25] * 4)


def test_localization_profile_rejects_bad_vectors():
    cells = CellStructure.uniform(4, 1)
    with pytest.raises(DimensionMismatch):
        localization_profile(np.ones(5), cells)
    with pytest.raises(DimensionMismatch):
        localization_profile(np.zeros(4), cells)


def test_localization_profile_and_radius_for_mass():
    cells = CellStructure.uniform(10, 1)
    vec = np.zeros(10, dtype=complex)
    vec[4] = np.sqrt(0.7)
    vec[5] = np.sqrt(0.25)
    vec[9] = np.sqrt(0.05)
    profile = localization_profile(vec, cells)
    assert profile[4] == pytest.approx(0.7)
    assert profile.sum() == pytest.approx(1.0)
    # bond 5 separates cells 4 and 5; radius 1 already holds 95% of the mass
    assert _radius_for_mass(profile, cells, (5,), mass=0.9) == 1
    assert _radius_for_mass(profile, cells, (5,), mass=0.99) == 5


def test_localization_profile_is_the_per_cell_sum():
    # one reduceat over the offsets against a sum per cell slice, on mixed
    # cell dimensions with empty cells at both ends and inside; reduceat
    # adds three or more entries in another order than sum, so only cells
    # of at most two components agree bit for bit
    gen = np.random.default_rng(2300)
    for dims in ((2,) * 16, (1, 2, 1, 1), (0, 1, 3, 0, 0, 2, 9, 4, 0), (4, 1, 7, 8, 2, 0)):
        cells = CellStructure(dims)
        for _ in range(5):
            v = gen.normal(size=cells.total_dim) + 1j * gen.normal(size=cells.total_dim)
            expect = np.array(
                [float(np.sum(np.abs(v[cells.cell_slice(i)]) ** 2)) for i in range(cells.n_cells)]
            ) / float(np.vdot(v, v).real)
            got = localization_profile(v, cells)
            if max(dims) <= 2:
                assert np.array_equal(got, expect)
            np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0)


def test_radius_for_mass_takes_the_widest_of_stacked_profiles():
    cells = CellStructure.uniform(10, 1, "circle")
    gen = np.random.default_rng(2301)
    profiles = gen.random((6, 10)) ** 8
    profiles /= profiles.sum(axis=1, keepdims=True)
    for interfaces in ((5,), (0, 5), (3, 7)):
        each = [_radius_for_mass(p, cells, interfaces) for p in profiles]
        assert _radius_for_mass(profiles, cells, interfaces) == max(each)
        assert _radius_for_mass([], cells, interfaces) == 0


def _radius_for_mass_loop(profiles, cells, interfaces, mass=0.9) -> int:
    """``_radius_for_mass`` with the distance from one ``bond_distance`` call per cell and bond."""
    dist = np.array([min(cells.bond_distance(c, b) for b in interfaces) for c in range(cells.n_cells)])
    top = int(dist.max()) + 1
    rows = np.reshape(profiles, (-1, cells.n_cells))
    return max(
        (next((r for r in range(1, top + 1) if float(np.sum(p[dist < r])) >= mass), top) for p in rows),
        default=0,
    )


def test_radius_for_mass_matches_the_bond_distance_loop():
    gen = np.random.default_rng(2302)
    for topology in ("circle", "line"):
        for n in (3, 8, 17, 48):
            cells = CellStructure.uniform(n, 2, topology)
            bonds = np.arange(n + (topology == "line"))
            for _ in range(6):
                interfaces = tuple(int(b) for b in gen.choice(bonds, size=int(gen.integers(1, 3)), replace=False))
                profiles = gen.random((3, n)) ** 6
                profiles /= profiles.sum(axis=1, keepdims=True)
                for mass in (0.5, 0.9, 0.999):
                    expect = _radius_for_mass_loop(profiles, cells, interfaces, mass)
                    assert _radius_for_mass(profiles, cells, interfaces, mass) == expect
