"""Translation-invariant walks and their momentum-space invariants.

A walk is stored as hopping blocks: ``blocks[j]`` maps cell ``x`` to cell
``x + j`` and the Bloch matrix is ``W(k) = sum_j blocks[j] exp(i j k)``.
With this convention the distinguished shift ``S|x> = |x - 1>`` has Bloch
symbol ``exp(-ik)`` and right half-space Fredholm index +1.

Walks built from shift/coin factor sequences remember them, which allows
position-dependent coins (crossovers between walks of the same family).
A walk on a finite lattice is its hopping blocks, stacked cell by cell into
the ``(n, d, d)`` stacks a :class:`~walkindex.lattice.LatticeOperator`
stores; a coin-level join of two is its factor product's cell blocks
(``factor_matrices``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EigenFailure,
    Gapless,
    IncompatibleCells,
    NonIntegerInvariant,
    NotChiral,
    NotUnitary,
    RankJump,
    RelationViolation,
    SingularBlock,
    TooShort,
)
from .lattice import CellStructure, LatticeOperator, LocalSymmetryRep, assemble_blocks
from .operators import INVARIANCE_FLOOR, check_admissible, check_unitary, imaginary_part
from .symmetry import (
    ADMISSIBILITY,
    FLOAT_EPS,
    IndexGroup,
    IndexValue,
    SymmetryClass,
    SymmetryOperator,
    SymmetryRep,
    block_diagonal,
    chiral_sectors,
    frobenius_bounds,
    kramers_pairs,
    screened_norm,
    unitarity_defect,
)
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ShiftFactor",
    "CoinFactor",
    "TIWalk",
    "make_generating_example",
    "make_trivial",
    "make_split_step",
    "make_shift",
    "make_doubled",
    "builtin_walk",
    "validate_ti",
    "winding_number",
    "berry_phase",
    "InvariantReport",
    "ti_gap_margin",
    "build_lattice",
    "truncate_ti",
    "segment_pad",
    "factor_matrices",
    "skeletons_match",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

MAX_MOMENTUM_SAMPLES = 8192
# ti_gap_margin doubles its grid until the margin moves by at most this fraction.
GAP_MARGIN_STEP = 0.01
# Rounding units per cell dimension and hopping block that ti_gap_margin's
# Hermitian screen adds to the unitarity bound for the Bloch sums, Re W(k)
# and the backward errors of eigvalsh and eigvals (_gap_screen_slack).
GAP_SCREEN_SLACK = 64.0
# _berry_once refines its grid while a neighbouring band-frame overlap has |det| below this.
BERRY_OVERLAP_FLOOR = 0.3
# A product of unit-norm factors whose paths to one offset cancel leaves
# rounding of order 1e-16 per entry there; an offset whose blocks, over all
# cells, have no larger Frobenius norm than this is such a cancellation.
PRODUCT_CUT = 1e-14
# Cell reps of one family are built from the same exact matrices, so walks
# that share a skeleton have reps equal up to rounding; a larger difference is
# another rep, and a coin-level join would then have no single cell rep.
SKELETON_ATOL = 1e-12


@dataclass(frozen=True)
class ShiftFactor:
    """Shift the listed internal components by one cell (step = +-1)."""

    components: tuple[int, ...]
    step: int


@dataclass(frozen=True)
class CoinFactor:
    """A cell-local unitary applied to every cell."""

    matrix: np.ndarray


Factor = ShiftFactor | CoinFactor


def _one_cell_blocks(factors: Sequence[Factor], cell_dim: int) -> dict[int, np.ndarray]:
    """Hopping blocks of a translation-invariant factor product: the one-cell case."""
    cells = CellStructure.uniform(1, cell_dim, "circle")
    return {j: b[0] for j, b in factor_matrices(factors, cells).items()}


@dataclass(frozen=True)
class TIWalk:
    """A translation-invariant walk with one cell type."""

    name: str
    cls: SymmetryClass
    cell_dim: int
    blocks: Mapping[int, np.ndarray]
    cell_rep: SymmetryRep
    factors: tuple[Factor, ...] | None = None
    params: Mapping[str, float] = field(default_factory=dict)

    @property
    def band(self) -> int:
        return max((abs(j) for j in self.blocks), default=0)

    def bloch(self, k: float) -> np.ndarray:
        return self.bloch_stack(np.array([k]))[0]

    def bloch_stack(self, ks: np.ndarray) -> np.ndarray:
        """``bloch(k)`` for each momentum of ``ks``, stacked along axis 0."""
        w = np.zeros((len(ks), self.cell_dim, self.cell_dim), dtype=complex)
        for j, b in self.blocks.items():
            w += b * np.exp(1j * j * ks)[:, None, None]
        return w


def make_generating_example(inverse: bool = False) -> TIWalk:
    """The basic two-component walk exchanging components while hopping.

    ``W|x,up> = i|x-1,down>`` and ``W|x,down> = i|x+1,up>``; with
    ``inverse=True`` the inverse walk ``W^-1 = -W`` (same hopping skeleton,
    opposite coin sign).  Class BDI with ``gamma = sigma_z``, ``tau = K``,
    ``eta = sigma_z K``; right half-space index +1.  Negating a walk does not
    change its half-space indices (the kernel of the imaginary part is the
    same), so the inverse variant matters as a *different* decoupled side, not
    as an index flip.
    """
    coin = (-1 if inverse else 1) * 1j * PAULI_X
    factors = (
        CoinFactor(coin),
        ShiftFactor((1,), -1),
        ShiftFactor((0,), +1),
    )
    rep = SymmetryRep.from_matrices(
        SymmetryClass.BDI, 2, eta=PAULI_Z, tau=np.eye(2), gamma=PAULI_Z
    )
    return TIWalk(
        "generating",
        SymmetryClass.BDI,
        2,
        _one_cell_blocks(factors, 2),
        rep,
        factors,
        {"inverse": float(inverse)},
    )


def make_trivial() -> TIWalk:
    """A purely cell-local gapped walk (coin ``i sigma_x``), all indices zero.

    Shares the cell representation of the generating example, so the two can
    be direct-summed cellwise.
    """
    factors = (CoinFactor(1j * PAULI_X),)
    rep = SymmetryRep.from_matrices(
        SymmetryClass.BDI, 2, eta=PAULI_Z, tau=np.eye(2), gamma=PAULI_Z
    )
    return TIWalk(
        "trivial", SymmetryClass.BDI, 2, _one_cell_blocks(factors, 2), rep, factors, {}
    )


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def make_split_step(theta1: float, theta2: float) -> TIWalk:
    """Split-step walk in its chiral-symmetric timeframe.

    ``W = R(t1/2) S_up R(t2) S_down R(t1/2)`` with real rotations ``R``;
    class BDI with ``gamma = sigma_x``, ``tau = sigma_x K``, ``eta = K``.
    The right half-space index is ``sign(sin t1)`` when
    ``|tan t2| < |tan t1|`` and 0 otherwise.
    """
    half = CoinFactor(_rotation(theta1 / 2))
    factors = (
        half,
        ShiftFactor((1,), -1),
        CoinFactor(_rotation(theta2)),
        ShiftFactor((0,), +1),
        half,
    )
    rep = SymmetryRep.from_matrices(
        SymmetryClass.BDI, 2, eta=np.eye(2), tau=PAULI_X, gamma=PAULI_X
    )
    return TIWalk(
        "split_step",
        SymmetryClass.BDI,
        2,
        _one_cell_blocks(factors, 2),
        rep,
        factors,
        {"theta1": theta1, "theta2": theta2},
    )


def make_shift() -> TIWalk:
    """The distinguished shift ``S|x> = |x-1>`` (class A, Fredholm index +1)."""
    blocks = {-1: np.eye(1, dtype=complex)}
    rep = SymmetryRep.from_matrices(SymmetryClass.A, 1)
    return TIWalk("shift", SymmetryClass.A, 1, blocks, rep, None, {})


def make_doubled(variant: str, inverse: bool = False) -> TIWalk:
    """Doubled generating example realizing the nontrivial CII / DIII indices.

    ``variant='CII'``: two copies of the walk with a symplectic particle-hole
    pairing the copies (winding 2).  ``variant='DIII'``: the walk plus its
    inverse with chiral/time-reversal operators swapping the copies
    (half-interval phase index 2 mod 4).
    """
    base = make_generating_example(inverse)
    e = PAULI_Z  # base eta matrix
    zero = np.zeros((2, 2))
    if variant == "CII":
        factors = tuple(_double_factor(f) for f in base.factors)
        blocks = _one_cell_blocks(factors, 4)
        gamma = block_diagonal((PAULI_Z, PAULI_Z))
        eta = np.block([[zero, -e], [e, zero]])
        cls = SymmetryClass.CII
    elif variant == "DIII":
        blocks_inv = {-j: b.conj().T for j, b in base.blocks.items()}
        blocks = {}
        for j in set(base.blocks) | set(blocks_inv):
            top = base.blocks.get(j, zero)
            bot = blocks_inv.get(j, zero)
            blocks[j] = block_diagonal((top, bot))
        gamma = np.block([[zero, -np.eye(2)], [np.eye(2), zero]])
        eta = block_diagonal((e, e))
        factors = None
        cls = SymmetryClass.DIII
    else:
        raise ValueError(f"variant must be 'CII' or 'DIII', got {variant!r}")
    eta_op = SymmetryOperator(np.asarray(eta, dtype=complex), True)
    gamma_op = SymmetryOperator(np.asarray(gamma, dtype=complex), False)
    tau_op = eta_op.inverse().compose(gamma_op)
    rep = SymmetryRep(
        cls, {"eta": eta_op, "tau": tau_op, "gamma": gamma_op}, 4
    )
    rep.validate(DEFAULT_TOL)
    return TIWalk(f"doubled_{variant.lower()}", cls, 4, blocks, rep, factors, {"inverse": float(inverse)})


def _double_factor(f: Factor) -> Factor:
    if isinstance(f, CoinFactor):
        return CoinFactor(block_diagonal((f.matrix, f.matrix)))
    return ShiftFactor(tuple(list(f.components) + [c + 2 for c in f.components]), f.step)


# Builtin families by name; each entry reads its coin parameters from a dict.
# The doubled walks answer both to ``doubled`` with a ``variant`` parameter
# and to ``doubled_cii`` / ``doubled_diii``.
_BUILTINS = {
    "generating": lambda p: make_generating_example(bool(p.get("inverse", False))),
    "trivial": lambda p: make_trivial(),
    "shift": lambda p: make_shift(),
    "split_step": lambda p: make_split_step(float(p["theta1"]), float(p["theta2"])),
    "doubled": lambda p: make_doubled(str(p["variant"]), bool(p.get("inverse", False))),
    "doubled_cii": lambda p: make_doubled("CII", bool(p.get("inverse", False))),
    "doubled_diii": lambda p: make_doubled("DIII", bool(p.get("inverse", False))),
}


def builtin_walk(name: str, /, **params) -> TIWalk:
    """Look up a builtin family by name, with its coin parameters."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin walk {name!r}; known: {sorted(_BUILTINS)}")
    try:
        return _BUILTINS[name](params)
    except KeyError as exc:
        raise ValueError(f"builtin {name!r} is missing coin parameter {exc}") from exc


def _unitary_bloch_stack(
    ti: TIWalk, ks: np.ndarray, tol: Tolerances, bound: float
) -> tuple[np.ndarray, np.ndarray]:
    """``bloch_stack(ks)`` and its unitarity defects, screened by ``bound <= tol.unit``
    (:func:`~walkindex.symmetry.screened_norm`): a bound where it passes, else exact.

    Raises ``NotUnitary`` naming the first momentum above ``tol.unit``.
    """
    w = ti.bloch_stack(ks)
    defects = unitarity_defect(w, bound)
    bad = np.flatnonzero(defects > tol.unit)
    if bad.size:
        i = bad[0]
        raise NotUnitary(f"W({ks[i]:.3f}) has unitarity defect {defects[i]:.3e} > {tol.unit}")
    return w, defects


def validate_ti(ti: TIWalk, tol: Tolerances = DEFAULT_TOL) -> float:
    """Check unitarity and the momentum-space symmetry conditions on 17 momenta.

    Antiunitary symmetries relate ``W(k)`` and ``W(-k)``:
    ``E conj(W(-k)) E* = W(k)``, ``T conj(W(-k)) T* = W(k)*``,
    ``G W(k) G* = W(k)*``.  Each quantity is one batched product over the
    grid, screened momentum by momentum
    (:func:`~walkindex.symmetry.screened_norm`): the unitarity defects by
    ``min(tol.unit, tol.adm)`` and the relations by ``tol.adm``.  Only a
    momentum whose Frobenius bound does not pass takes an SVD, so the
    verdicts are those of the exact norms.  Returns the worst residual: a
    bound in [exact, ``tol.adm``] where every check passes, else exact.
    """
    ks = np.linspace(-np.pi, np.pi, 17)
    wk, defects = _unitary_bloch_stack(ti, ks, tol, min(tol.unit, tol.adm))
    wmk = ti.bloch_stack(-ks)
    worst = float(defects.max())
    for name, op in ti.cell_rep.ops.items():
        adjoint, _ = ADMISSIBILITY[name]
        moved = op.conjugate(wmk if op.antiunitary else wk)
        target = wk.conj().swapaxes(-1, -2) if adjoint else wk
        worst = max(worst, float(screened_norm(moved - target, tol.adm).max()))
    if worst > tol.adm:
        raise RelationViolation(f"momentum-space symmetry residual {worst:.3e}")
    return worst


@dataclass(frozen=True)
class InvariantReport:
    """An integer invariant from a momentum-space integral."""

    value: IndexValue
    raw: float
    residual: float
    n_k: int


def winding_number(ti: TIWalk, n_k: int = 256, tol: Tolerances = DEFAULT_TOL) -> InvariantReport:
    """Winding of the chiral off-diagonal Bloch block determinant.

    Equals the right half-space index for the classes with ``gamma^2 = +1``
    (AIII, BDI, CII).  The grid is doubled until phase increments are small
    and the sum is within ``tol.integer_residual`` of an integer.  The ``m x m``
    block determinant winds at most ``m band`` times, so ``n_k <= 2 m band``
    can alias it and is refused (``ValueError``).
    """
    if ti.cls not in (SymmetryClass.AIII, SymmetryClass.BDI, SymmetryClass.CII):
        raise NotChiral(f"winding number needs gamma^2 = +1, class {ti.cls.value} does not provide it")
    validate_ti(ti, tol=tol)
    plus, minus = chiral_sectors(ti.cell_rep, tol)
    if plus.shape[1] != minus.shape[1]:
        raise SingularBlock("chiral sectors of unequal dimension have no unitary off-diagonal block")
    floor = 2 * plus.shape[1] * ti.band
    if n_k <= floor:
        raise ValueError(f"n_k = {n_k} can alias the winding: need n_k > 2 m band = {floor}")
    n = n_k
    while True:
        ks = -np.pi + 2 * np.pi * np.arange(n) / n
        dets = np.linalg.det(plus.conj().T @ ti.bloch_stack(ks) @ minus)
        if np.min(np.abs(dets)) < tol.det:
            raise SingularBlock(
                f"off-diagonal block determinant {np.min(np.abs(dets)):.3e} at some momentum; gap closed"
            )
        incr = np.angle(np.roll(dets, -1) / dets)
        total = float(np.sum(incr) / (2 * np.pi))
        nearest = round(total)
        ok_step = np.max(np.abs(incr)) < np.pi / 2
        if ok_step and abs(total - nearest) <= tol.integer_residual:
            group = ti.cls.index_group
            try:
                value = IndexValue(group, nearest)
            except ValueError as exc:
                raise NonIntegerInvariant(str(exc)) from exc
            return InvariantReport(value, total, abs(total - nearest), n)
        if n >= MAX_MOMENTUM_SAMPLES:
            raise NonIntegerInvariant(
                f"winding {total:.6f} not within {tol.integer_residual} of an integer at {n} samples"
            )
        n *= 2


def berry_phase(ti: TIWalk, n_k: int = 256, tol: Tolerances = DEFAULT_TOL) -> InvariantReport:
    """Phase of the upper-band frame holonomy.

    Class D: closed loop over the momentum circle, value in Z2 (the right
    half-space index).  Class DIII: half interval [0, pi] with time-reversal
    Kramers-pinned frames at both endpoints, value in {0, 2} mod 4.  Pinned
    endpoint frames are unique up to determinant-one (quaternionic) gauges,
    so the product of frame overlaps is gauge invariant.  ``raw`` is the
    phase in units of the group generator, taken next to ``value`` (1, not
    -1, in class D), so ``|raw - value|`` is the residual.  ``n_k < 2`` is
    refused (``ValueError``).
    """
    if ti.cls not in (SymmetryClass.D, SymmetryClass.DIII):
        raise NotChiral(f"phase index is defined for classes D and DIII, not {ti.cls.value}")
    if n_k < 2:
        raise ValueError(f"n_k = {n_k} is below the phase-index floor of 2 samples")
    validate_ti(ti, tol=tol)
    n = n_k
    while True:
        try:
            value, raw, residual = _berry_once(ti, n, tol)
        except _Refine:
            if n >= MAX_MOMENTUM_SAMPLES:
                raise NonIntegerInvariant(f"phase index did not stabilize at {n} samples")
            n *= 2
            continue
        return InvariantReport(value, raw, residual, n)


class _Refine(Exception):
    pass


def _band_frames(ti: TIWalk, ks: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Orthonormal frames of the upper band at each momentum, stacked along axis 0.

    For a unitary ``W(k)`` the eigenvalues of ``Im W(k)`` are the
    ``Im lambda``, so the upper band is its positive eigenspace: one ``eigh``
    for the whole grid.  Refused: a ``W(k)`` that is not unitary
    (``NotUnitary``), an eigenvalue within ``tol.gap`` of the real axis
    (``Gapless``), a band rank that changes over the grid (``RankJump``) and
    a frame that ``W(k)`` does not map into itself within
    ``max(tol.eig, INVARIANCE_FLOOR d)`` (``EigenFailure``); each names the momentum.
    The unitarity defects and the frame residuals are screened by their
    thresholds (:func:`~walkindex.symmetry.screened_norm`), so a momentum
    takes an SVD only to fail.
    """
    w, _ = _unitary_bloch_stack(ti, ks, tol, tol.unit)
    im, vectors = np.linalg.eigh(imaginary_part(w))
    near = np.abs(im)
    low = np.flatnonzero(near.min(axis=1) < tol.gap)
    if low.size:
        i = low[0]
        raise Gapless(
            f"eigenvalue with Im lambda {im[i, np.argmin(near[i])]:.6g} "
            f"at k={ks[i]:.4f} is near the real axis"
        )
    ranks = np.count_nonzero(im > 0, axis=1)
    if np.any(ranks != ranks[0]):
        raise RankJump("upper band rank changes across the momentum grid")
    frames = vectors[:, :, ti.cell_dim - ranks[0] :]
    image = w @ frames
    bound = max(tol.eig, INVARIANCE_FLOOR * ti.cell_dim)
    residual = screened_norm(image - frames @ (frames.conj().swapaxes(-1, -2) @ image), bound)
    i = int(np.argmax(residual))
    if residual[i] > bound:
        raise EigenFailure(f"band frame invariance residual {residual[i]:.3e} at k={ks[i]:.4f}")
    return frames


def _berry_once(ti: TIWalk, n: int, tol: Tolerances) -> tuple[IndexValue, float, float]:
    if ti.cls is SymmetryClass.D:
        frames = _band_frames(ti, -np.pi + 2 * np.pi * np.arange(n) / n, tol)
        frames = np.concatenate([frames, frames[:1]])  # closed loop; shared frame cancels its gauge
    else:
        frames = _band_frames(ti, np.pi * np.arange(n + 1) / n, tol)
        tau = ti.cell_rep.ops["tau"]
        frames[0] = _kramers_frame(tau, frames[0], tol)
        frames[-1] = _kramers_frame(tau, frames[-1], tol)
    overlaps = np.linalg.det(frames[:-1].conj().swapaxes(-1, -2) @ frames[1:])
    size = np.abs(overlaps)
    if np.min(size) < BERRY_OVERLAP_FLOOR:
        raise _Refine
    phase = float(np.angle(np.prod(overlaps / size)))
    if ti.cls is SymmetryClass.D:
        raw = phase / np.pi
        nearest = round(raw)
        value = IndexValue(IndexGroup.Z2, nearest % 2)
    else:
        raw = 2 * phase / np.pi
        nearest = 2 * round(raw / 2)
        value = IndexValue(IndexGroup.TWO_Z2, nearest % 4)
    residual = abs(raw - nearest)
    if residual > tol.integer_residual:
        raise _Refine
    # a nontrivial holonomy sits on the branch cut of the phase, where the
    # sign of raw is rounding noise: report it next to the value instead
    return value, value.value + (raw - nearest), residual


def _kramers_frame(tau: SymmetryOperator, basis: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Reorder a band frame into Kramers pairs (v, tau v).

    The compressed time reversal squares to -1 on the band space, so such a
    frame exists and is unique up to a determinant-one change of frame.
    """
    sub = SymmetryOperator(basis.conj().T @ tau.apply(basis), tau.antiunitary)
    v, w = kramers_pairs(sub, np.eye(basis.shape[1], dtype=complex), tol)
    cols = []
    for j in range(v.shape[1]):
        cols.extend([v[:, j], w[:, j]])
    return basis @ np.column_stack(cols)


def ti_gap_margin(ti: TIWalk, tol: Tolerances = DEFAULT_TOL, strict: bool = True) -> float:
    """Distance of the Bloch spectrum from {+1, -1} over the momentum grid.

    The grid starts at 256 momenta and is doubled until the margin
    stabilizes to 1%; raises Gapless below ``tol.gap`` unless ``strict=False``.
    The grids are nested: the 256 momenta are the even half of the first 512,
    which are built at once, and each doubling builds only the new odd ones.

    The margin is the minimum over the grid of ``eigvals(W(k))``'s distance
    to +-1, read only at candidate momenta picked by a Hermitian screen.  For
    a unitary ``W(k)`` with eigenvalues ``exp(i phi)`` the squared distance
    to the nearer of +-1 is ``2 - 2 |cos phi|``, and ``Re W(k)`` has the
    eigenvalues ``cos phi``; so ``s(k) = 2 - 2 max|eigvalsh(Re W(k))|`` is
    the squared margin, for the grid in one batched ``eigvalsh``.  When
    ``W(k)`` is not quite unitary the two part by at most ``e``
    (:func:`_gap_screen_slack`), and every momentum whose eigvals margin
    squared could be the grid minimum has ``s(k) <= min s + 2 e``.  Those
    candidates take ``eigvals``; their minimum is the minimum over the whole
    grid, bit for bit, since ``eigvals`` of one matrix does not depend on the
    others in its batch.  A walk whose unitarity bound is 1 or more screens
    nothing: every momentum is a candidate.
    """
    width = 2 * _gap_screen_slack(ti)
    n = 512
    w = ti.bloch_stack(_momenta(n))
    screen = _hermitian_screen(w, width)
    exact = np.full(n, np.nan)

    def grid_margin(part: slice) -> float:
        """The eigvals margin over the momenta ``part`` of the current grid."""
        s = screen[part]
        idx = np.arange(n)[part][s <= s.min() + width]
        todo = idx[np.isnan(exact[idx])]
        if todo.size:
            vals = np.linalg.eigvals(w[todo])
            exact[todo] = np.minimum(np.abs(vals - 1).min(axis=1), np.abs(vals + 1).min(axis=1))
        return float(exact[idx].min())

    prev = grid_margin(slice(None, None, 2))  # the 256-momentum grid
    while True:
        margin = grid_margin(slice(None))
        if abs(margin - prev) <= GAP_MARGIN_STEP * max(prev, 1e-12) or n >= MAX_MOMENTUM_SAMPLES:
            break
        prev = margin
        n *= 2
        odd = ti.bloch_stack(_momenta(n)[1::2])
        w = _interleave(w, odd)
        screen = _interleave(screen, _hermitian_screen(odd, width))
        exact = _interleave(exact, np.full(len(odd), np.nan))
    if strict and margin < tol.gap:
        raise Gapless(f"essential gap margin {margin:.3e} below {tol.gap}")
    return margin


def _momenta(n: int) -> np.ndarray:
    """The grid ``-pi + 2 pi j / n``; its even half is the ``n / 2`` grid bit for bit."""
    return -np.pi + 2 * np.pi * np.arange(n) / n


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The doubled grid's values: ``even`` at its even momenta, ``odd`` between them."""
    out = np.empty((len(even) + len(odd), *even.shape[1:]), dtype=even.dtype)
    out[0::2] = even
    out[1::2] = odd
    return out


def _hermitian_screen(w: np.ndarray, width: float) -> np.ndarray:
    """``2 - 2 max|eigvalsh(Re W(k))|`` for each matrix of a stack; zeros when
    ``width`` is infinite, where every momentum is a candidate anyway."""
    if not np.isfinite(width):
        return np.zeros(len(w))
    vals = np.linalg.eigvalsh((w + w.conj().swapaxes(-1, -2)) / 2)
    return 2 - 2 * np.abs(vals).max(axis=1)


def _unitarity_bound(offsets: np.ndarray, stacked: np.ndarray) -> float:
    """``delta = sum_m ||sum_j B_j* B_(j+m) - [m = 0] 1||_F`` of the ``(J, d, d)``
    hopping blocks ``stacked`` at ``offsets``.

    ``W(k)* W(k) - 1`` is the Fourier sum of these offset sums, so ``delta``
    bounds its norm at every momentum, from ``J^2`` cell-size products.
    """
    d = stacked.shape[-1]
    reach = int(np.abs(offsets).max(initial=0))
    sums = np.zeros((4 * reach + 1, d, d), dtype=complex)
    gram = stacked.conj().swapaxes(-1, -2)[:, None] @ stacked[None]  # B_a* B_b, at offset b - a
    np.add.at(sums, (offsets[None, :] - offsets[:, None]).ravel() + 2 * reach, gram.reshape(-1, d, d))
    sums[2 * reach] -= np.eye(d)
    return float(frobenius_bounds(sums).sum())


def _gap_screen_slack(ti: TIWalk) -> float:
    """The bound ``e`` on ``|m(k)^2 - s(k)|`` for :func:`ti_gap_margin`; inf when
    the unitarity bound is 1 or more (or not finite).

    Let ``W`` be a computed ``W(k)`` and ``m`` its ``eigvals`` margin.  With
    ``delta >= ||W* W - 1||`` (:func:`_unitarity_bound`) the polar factor
    ``U`` of ``W`` is unitary and ``||W - U|| <= delta``, since every
    singular value ``sigma`` has ``|sigma - 1| <= |sigma^2 - 1|``.  Let
    ``eta = delta + r``, where ``r`` covers the rounding of the Bloch sum,
    of ``Re W``, and the backward errors of ``eigvals`` and ``eigvalsh``:
    ``r = GAP_SCREEN_SLACK (d + J) eps (1 + beta)^2`` for ``d x d`` cells,
    ``J`` hopping blocks and ``beta = sum_j ||B_j||_F``.

    - Bauer-Fike for the normal ``U``: every computed eigenvalue of ``W`` is
      within ``eta`` of an eigenvalue of ``U``, and by continuity each
      eigenvalue of ``U`` has one of ``W`` in its connected union of such
      disks, within ``2 d eta``.  So ``|m - m_U| <= 2 d eta`` and, with
      ``m_U <= sqrt 2``, ``|m^2 - m_U^2| <= 2 d eta (3 + 2 d eta)``.
    - Weyl for the Hermitian ``Re W`` and ``Re U``: their eigenvalues differ
      by at most ``eta``, so ``|s - m_U^2| <= 2 eta``.

    Hence ``e = 2 d eta (3 + 2 d eta) + 2 eta``.
    """
    d = ti.cell_dim
    offsets = np.array(list(ti.blocks), dtype=int)
    stacked = np.array(list(ti.blocks.values()), dtype=complex).reshape(-1, d, d)
    delta = _unitarity_bound(offsets, stacked)
    if not delta < 1:
        return np.inf
    beta = float(frobenius_bounds(stacked).sum())
    eta = delta + GAP_SCREEN_SLACK * (d + len(offsets)) * FLOAT_EPS * (1 + beta) ** 2
    return 2 * d * eta * (3 + 2 * d * eta) + 2 * eta


# -- finite realizations -----------------------------------------------------------

def factor_matrices(
    factors: Sequence[Factor | np.ndarray],
    cells: CellStructure,
) -> dict[int, np.ndarray]:
    """Hopping blocks of a factor product on a circle of equal cells.

    The first factor acts first.  A factor is a ``ShiftFactor``, a
    ``CoinFactor`` (the same coin in every cell) or an ``(n, d, d)`` stack of
    per-cell coins.  ``out[j][x]`` maps cell ``x`` to cell ``x + j``; a coin
    acts where the path has arrived, at cell ``(x + j) mod n``.  Offsets are
    not wrapped here, so a translation-invariant walk is the one-cell case.
    Offsets below ``PRODUCT_CUT`` are dropped.
    """
    n = cells.n_cells
    d = cells.cell_dims[0]
    if set(cells.cell_dims) != {d}:
        raise IncompatibleCells("a factor product needs equal cells")
    x = np.arange(n)
    cur: dict[int, np.ndarray] = {0: np.broadcast_to(np.eye(d, dtype=complex), (n, d, d))}
    for f in factors:
        if isinstance(f, ShiftFactor):
            if cells.topology != "circle":
                raise TooShort("shift factors need a circle; decouple afterwards for segments")
            sel = np.zeros((d, d), dtype=complex)
            sel[f.components, f.components] = 1.0
            parts = {f.step: sel, 0: np.eye(d, dtype=complex) - sel}
        else:
            parts = {0: f.matrix if isinstance(f, CoinFactor) else np.asarray(f)}
        new: dict[int, np.ndarray] = {}
        for j2, b2 in parts.items():
            for j1, b1 in cur.items():
                here = b2 if b2.ndim == 2 else b2[(x + j1) % n]
                new[j1 + j2] = new.get(j1 + j2, 0) + here @ b1
        cur = new
    return {j: b for j, b in cur.items() if np.linalg.norm(b) > PRODUCT_CUT}


def build_lattice(
    ti: TIWalk,
    n_cells: int,
    topology: str = "circle",
    tol: Tolerances = DEFAULT_TOL,
) -> LatticeOperator:
    """Realize a walk on a circle (exactly unitary) or a line segment.

    The segment is the compression of the infinite operator: hopping past the
    ends is dropped, so it is unitary only up to boundary defects and its ends
    are proxy ends.  For an exactly unitary segment decouple a circle instead.
    """
    band = ti.band
    if topology == "circle" and n_cells <= 2 * band:
        raise TooShort(f"circle of {n_cells} cells aliases hopping range {band}")
    if topology == "line" and n_cells < band + 1:
        raise TooShort(f"segment of {n_cells} cells is shorter than the hopping range {band}")
    cells = CellStructure.uniform(n_cells, ti.cell_dim, topology)
    shape = (n_cells, ti.cell_dim, ti.cell_dim)
    blocks = assemble_blocks(cells, ((j, 0, np.broadcast_to(b, shape)) for j, b in ti.blocks.items()))
    local_rep = LocalSymmetryRep.uniform(ti.cell_rep, n_cells)
    meta = {"ti_name": ti.name, "params": dict(ti.params), "class": ti.cls.value}
    op = LatticeOperator(blocks, cells, band, local_rep, meta)
    if topology == "circle":
        check_unitary(op, tol, what="circle realization")
        check_admissible(op, tol=tol)
    return op


def truncate_ti(
    ti: TIWalk,
    n_cells: int,
    boundary: str = "compress",
    tol: Tolerances = DEFAULT_TOL,
) -> LatticeOperator:
    """Finite segment of a walk.

    ``compress``: plain restriction of the infinite banded matrix (essentially
    unitary; both ends are proxy ends).  ``decoupled_unitary``: realize the
    walk on a padded circle, gently decouple the segment boundary, and extract
    the exactly unitary block.
    """
    if n_cells < 2 * ti.band + 2:
        raise TooShort(f"{n_cells} cells < 2*band+2 = {2 * ti.band + 2}")
    if boundary == "compress":
        return build_lattice(ti, n_cells, "line", tol)
    if boundary != "decoupled_unitary":
        raise ValueError(f"boundary must be 'compress' or 'decoupled_unitary', got {boundary!r}")
    from .decoupling import decouple_segment  # deferred: decoupling sits above walks

    ring = build_lattice(ti, n_cells + segment_pad(ti.band), "circle", tol)
    return decouple_segment(ring, n_cells, tol)


def segment_pad(band: int) -> int:
    """Cells a padded circle adds beyond a segment that is decoupled out of it."""
    return max(2 * band + 2, 4)


def skeletons_match(a: TIWalk, b: TIWalk) -> bool:
    """Whether two walks share factor structure and cell representation.

    Only then can they be joined at coin level into one admissible walk.
    """
    if a.factors is None or b.factors is None or a.cell_dim != b.cell_dim:
        return False
    if len(a.factors) != len(b.factors) or a.cls is not b.cls:
        return False
    for fa, fb in zip(a.factors, b.factors):
        if type(fa) is not type(fb):
            return False
        if isinstance(fa, ShiftFactor) and (fa.components != fb.components or fa.step != fb.step):
            return False
    if set(a.cell_rep.ops) != set(b.cell_rep.ops):
        return False
    for name in a.cell_rep.ops:
        oa, ob = a.cell_rep.ops[name], b.cell_rep.ops[name]
        if oa.antiunitary != ob.antiunitary or not np.allclose(oa.matrix, ob.matrix, atol=SKELETON_ATOL):
            return False
    return True
