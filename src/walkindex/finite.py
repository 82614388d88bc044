"""Finite-size certificates and crossover experiments.

On a finite lattice protected boundary eigenvalues no longer sit exactly at
+-1; they approach these anchors exponentially as the bulk segments grow.
Two tools quantify this.  A crossover join realizes two bulk walks on one
finite lattice, exactly unitary and admissible, with the interface blocks
fixed by a reproducible rule.  A Temple-Kato certificate turns a set of
approximately orthonormal approximate eigenvectors into a rigorous lower
bound on the eigenvalue count of a normal operator inside a disk: with
``K`` vectors of Gram deviation at most ``eps1 < 1/K`` and defect norms
``||(U - theta) phi|| <= eps2``, every disk around ``theta`` of radius
exceeding ``K eps2 / sqrt(1 - K eps1)`` contains at least ``K`` eigenvalues.
Truncating the eigenvectors of a larger system to a window and certifying
them against the system containing that window makes the bound a finite-size
proxy for the infinite-volume index statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decoupling import decouple_segment
from .errors import (
    CutOutOfRange,
    DimensionMismatch,
    IncompatibleCells,
    NotAdmissible,
    NotEnoughModes,
    TooShort,
)
from .indices import near_spectrum
from .lattice import CellStructure, LatticeOperator, LocalSymmetryRep, assemble_blocks
from .operators import check_admissible, check_normal, check_unitary
from .symmetry import FLOAT_EPS
from .tolerances import DEFAULT_TOL, Tolerances
from .walks import (
    CoinFactor,
    TIWalk,
    factor_matrices,
    segment_pad,
    skeletons_match,
    ti_gap_margin,
    truncate_ti,
)

__all__ = [
    "TempleKatoCertificate",
    "SweepRecord",
    "temple_kato",
    "certify_boundary_modes",
    "join_crossover",
    "crossover_sweep",
    "localization_profile",
]


# -- Temple-Kato certificates ------------------------------------------------------


@dataclass(frozen=True)
class TempleKatoCertificate:
    """Lower bound on the eigenvalue count of a normal operator in a disk.

    When ``valid``, every disk around ``theta`` with radius > ``r_min``
    contains at least ``k`` eigenvalues (with multiplicity).
    """

    k: int
    theta: complex
    eps1: float
    eps2: float
    r_min: float
    valid: bool


def _column_matrix(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim == 2 and not isinstance(vectors, np.ndarray):
        # a list of vectors arrives row-wise; store them as columns
        arr = arr.T
    return arr


def temple_kato(
    u: np.ndarray,
    theta: complex,
    vectors,
    tol: Tolerances = DEFAULT_TOL,
) -> TempleKatoCertificate:
    """Certificate from approximate eigenvectors of a normal operator.

    The vectors are consumed raw: near-orthonormality enters through the
    measured Gram deviation ``eps1``, which is the entire point of the
    bound.  ``valid`` is false when ``eps1 >= 1/k``, in which case no
    radius is certified and ``r_min`` is infinite.
    """
    check_normal(u, tol)
    return _temple_kato_bound(u, theta, _column_matrix(vectors))


def _temple_kato_bound(u: np.ndarray, theta: complex, phi: np.ndarray) -> TempleKatoCertificate:
    """The certificate of :func:`temple_kato` for a ``u`` the caller has
    checked normal, or unitary (normal within ``2 tol.unit``)."""
    u = np.asarray(u, dtype=complex)
    if phi.shape[0] != u.shape[0]:
        raise DimensionMismatch(
            f"vectors of dimension {phi.shape[0]} against operator of dimension {u.shape[0]}"
        )
    k = phi.shape[1]
    if k == 0:
        raise NotEnoughModes("a certificate needs at least one vector")
    gram = phi.conj().T @ phi
    eps1 = float(np.max(np.abs(gram - np.eye(k))))
    eps2 = float(np.max(np.linalg.norm(u @ phi - theta * phi, axis=0)))
    valid = eps1 < 1.0 / k
    r_min = k * eps2 / np.sqrt(1.0 - k * eps1) if valid else np.inf
    return TempleKatoCertificate(k, complex(theta), eps1, eps2, float(r_min), valid)


def certify_boundary_modes(
    big: LatticeOperator,
    window: Sequence[int],
    theta: complex,
    k_expected: int,
    select_radius: float | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> TempleKatoCertificate:
    """Certificate for boundary modes from window-truncated eigenvectors.

    Takes the eigenvectors of ``big`` within ``select_radius`` of ``theta``,
    or else in the essential cluster of ``Im(conj(theta) W)`` on the side of
    ``theta`` (the rule of ``si_pm``), both by
    :func:`~walkindex.indices.near_spectrum`.  The ``k_expected`` most
    localized in the window are truncated to its cells, renormalized, and
    certified against ``big`` itself.  The certificate is therefore driven
    entirely by the decay of the modes: a window containing their
    localization region gives small ``eps1``/``eps2`` and a tight radius, a
    distant window gives a vacuous one.  The same truncated vectors certify any larger system that
    contains the window unchanged.  An empty window, or one naming a cell
    outside ``[0, n_cells)``, is refused with ``CutOutOfRange``, and a
    ``k_expected`` below 1 with ``NotEnoughModes``.
    """
    if k_expected < 1:
        raise NotEnoughModes(f"need at least one mode to certify, got k = {k_expected}")
    cells = tuple(window)
    n = big.cells.n_cells
    if not cells:
        raise CutOutOfRange("the cell window is empty")
    if min(cells) < 0 or max(cells) >= n:
        raise CutOutOfRange(f"window cells {min(cells)}..{max(cells)} outside [0, {n})")
    check_unitary(big, tol)
    anchor = theta / abs(theta) if theta else 1.0
    # |lambda - anchor| <= |lambda - theta| + ||theta| - 1|
    radius = None if select_radius is None else select_radius + abs(abs(theta) - 1)
    near, _ = near_spectrum(big, anchor, tol, radius=radius, rep=big.local_rep)
    if select_radius is None:
        eligible = np.flatnonzero((np.conj(anchor) * near.values).real > 0)
    else:
        eligible = np.flatnonzero(np.abs(near.values - theta) <= select_radius)
    if eligible.size < k_expected:
        rule = "in the essential cluster" if select_radius is None else f"within {select_radius:.2e}"
        raise NotEnoughModes(f"{eligible.size} eigenvalues {rule} of {theta}, need {k_expected}")
    # The basis within a near-degenerate cluster is arbitrary, so rotate the
    # selected span to diagonalize the window weight and keep the k most
    # localized combinations; otherwise a hybridized pair straddling two
    # boundaries truncates to two parallel vectors.
    span = near.vectors[:, eligible]
    mask = big.cells.index_mask(cells).astype(float)
    w_op = span.conj().T @ (mask[:, None] * span)
    vals, u = np.linalg.eigh((w_op + w_op.conj().T) / 2)
    chosen = (span @ u)[:, np.argsort(vals)[::-1][:k_expected]]
    phi = mask[:, None] * chosen
    norms = np.linalg.norm(phi, axis=0)
    if np.any(norms <= tol.ker):
        raise NotEnoughModes("a selected mode has no weight inside the window")
    return _temple_kato_bound(big.matrix, theta, phi / norms)


# -- crossover systems -------------------------------------------------------------


def join_crossover(
    left: TIWalk,
    right: TIWalk,
    n_left: int,
    n_right: int,
    topology: str = "circle",
    tol: Tolerances = DEFAULT_TOL,
) -> LatticeOperator:
    """Finite walk equal to the left bulk on one segment and the right on the other.

    Walks sharing a factor skeleton are joined at the coin level: the shift
    structure is global so the result is exactly unitary, and the interface
    blocks are whatever the mixed coins produce.  On a circle the cells
    ``[0, n_left)`` carry the left coins and the interfaces sit at bonds
    ``0`` and ``n_left``.  On a line the coin join is built on a padded
    circle and the segment ``[0, n_left + n_right)`` is gently decoupled
    out, so both outer ends terminate in pinned defect eigenvalues while
    the single interface at bond ``n_left`` keeps its protected modes.

    Walks without a common skeleton, and skeleton pairs whose coin mix
    breaks a symmetry relation at the interface bonds, fall back to the
    block-diagonal join of two gently decoupled segments: each side is
    exactly unitary on its own and the interface carries no coupling.
    """
    if left.cell_dim != right.cell_dim:
        raise IncompatibleCells(
            f"cell dimensions {left.cell_dim} and {right.cell_dim} differ"
        )
    if left.cls is not right.cls:
        raise IncompatibleCells(
            f"symmetry classes {left.cls.value} and {right.cls.value} differ"
        )
    if topology not in ("circle", "line"):
        raise IncompatibleCells(f"topology must be 'circle' or 'line', got {topology!r}")
    if n_left < 1 or n_right < 1:
        raise TooShort("both segments need at least one cell")
    band = max(left.band, right.band)
    n = n_left + n_right
    info = {"left": left.name, "right": right.name, "n_left": n_left, "n_right": n_right}

    if skeletons_match(left, right):
        if topology == "circle":
            if n <= 2 * band:
                raise TooShort(f"circle of {n} cells aliases hopping range {band}")
            side = [0] * n_left + [1] * n_right
        else:
            pad = segment_pad(band)
            side = [0] * n_left + [1] * (n_right + pad) + [0] * pad
        # per-cell coins of the side each cell lies on; a line is decoupled out of a circle
        factors = [
            np.stack([fl.matrix, fr.matrix])[side] if isinstance(fl, CoinFactor) else fl
            for fl, fr in zip(left.factors, right.factors)
        ]
        cells = CellStructure.uniform(len(side), left.cell_dim, "circle")
        local = LocalSymmetryRep.uniform(left.cell_rep, len(side))
        op = LatticeOperator.from_blocks(factor_matrices(factors, cells), cells, None, local, {}, tol)
        check_unitary(op, tol, "crossover join")
        admissible = True
        try:
            check_admissible(op, tol=tol)
        except NotAdmissible:
            admissible = False
        if admissible:
            if topology == "circle":
                op.meta.update({"join": info, "interfaces": (0, n_left)})
                return op
            seg = decouple_segment(op, n, tol)
            seg.meta.update({"join": info, "interfaces": (n_left,)})
            return seg

    left_seg = truncate_ti(left, n_left, "decoupled_unitary", tol)
    right_seg = truncate_ti(right, n_right, "decoupled_unitary", tol)
    cells = CellStructure(
        left_seg.cells.cell_dims + right_seg.cells.cell_dims,
        topology,
        0,
        frozenset() if topology == "circle" else frozenset({"left", "right"}),
    )
    local = LocalSymmetryRep(
        left.cls, left_seg.local_rep.per_cell + right_seg.local_rep.per_cell
    )
    meta = {
        "join": info,
        "interfaces": (n_left,) if topology == "line" else (0, n_left),
        "boundary": "decoupled_unitary",
        "interface_style": "decoupled",
    }
    # the direct sum of the two segments: each one's stacks on its own cells
    parts = [(j, 0, stack) for j, stack in left_seg.blocks.items()]
    parts += [(j, n_left, stack) for j, stack in right_seg.blocks.items()]
    return LatticeOperator.from_blocks(assemble_blocks(cells, parts), cells, None, local, meta, tol)


# -- sweeps ------------------------------------------------------------------------

# eigh finds each eigenvalue s of Im W (N x N, norm <= 1) to about N eps, so a
# sweep reads the smallest |s| as at least N eps: delta >= 2 ln(N eps) - ln 2.
EIGH_RESOLUTION = FLOAT_EPS


@dataclass(frozen=True)
class SweepRecord:
    """Spectral summary of one crossover system in a size sweep.

    ``delta = log(1 - max |Re lambda|)`` measures how closely the most
    protected eigenvalue approaches +-1, as ``log(s^2 / (1 + sqrt(1 - s^2)))``
    of the smallest ``s = |Im lambda|`` (floored, see ``EIGH_RESOLUTION``);
    ``eigenvalues`` lists the spectrum within half a bulk gap (over sqrt(2))
    of the anchors, and ``max_localization_radius`` is the largest radius (in
    cells around the nearest interface) any of those modes needs to hold 90%
    of its weight.
    """

    n_a: int
    n_b: int
    delta: float
    eigenvalues: tuple[complex, ...]
    count_near_plus: int
    count_near_minus: int
    max_localization_radius: int

    def as_row(self) -> dict:
        return {
            "n_A": self.n_a,
            "n_B": self.n_b,
            "delta": self.delta,
            "count_near_plus": self.count_near_plus,
            "count_near_minus": self.count_near_minus,
            "max_localization_radius": self.max_localization_radius,
        }


def localization_profile(vec: np.ndarray, cells: CellStructure) -> np.ndarray:
    """Per-cell squared-norm weights of a vector, normalized to sum 1."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.size != cells.total_dim:
        raise DimensionMismatch(
            f"vector of dimension {v.size} on cells of total dimension {cells.total_dim}"
        )
    total = float(np.vdot(v, v).real)
    if total <= 0.0:
        raise DimensionMismatch("cannot profile the zero vector")
    # one reduceat over the cell offsets; an empty cell would read its
    # neighbour's first entry there, so it keeps weight 0
    live = np.array(cells.cell_dims) > 0
    weights = np.zeros(cells.n_cells)
    weights[live] = np.add.reduceat(np.abs(v) ** 2, np.array(cells.offsets[:-1])[live])
    return weights / total


def _radius_for_mass(
    profiles: np.ndarray, cells: CellStructure, interfaces: Sequence[int], mass: float = 0.9
) -> int:
    """Smallest radius around the interfaces holding ``mass`` of every profile.

    ``profiles`` is one profile or a stack of them as rows; 0 for no rows.
    """
    # radius r covers cells with bond distance < r, matching cells_near_bond;
    # the distance is CellStructure.bond_distance for every cell and bond at once
    n = cells.n_cells
    c, b = np.arange(n)[:, None], np.asarray(interfaces, dtype=int)[None, :]
    if cells.topology == "circle":
        dist = np.minimum((c - b) % n, (b - 1 - c) % n).min(axis=1)
    else:
        dist = np.where(c >= b, c - b, b - 1 - c).min(axis=1)
    top = int(dist.max()) + 1
    return max(
        (
            next((r for r in range(1, top + 1) if float(np.sum(p[dist < r])) >= mass), top)
            for p in np.reshape(profiles, (-1, cells.n_cells))
        ),
        default=0,
    )


def crossover_sweep(
    left: TIWalk,
    right: TIWalk,
    sizes: Sequence[tuple[int, int]],
    topology: str = "circle",
    tol: Tolerances = DEFAULT_TOL,
) -> list[SweepRecord]:
    """Sweep crossover systems over segment sizes and record the spectra.

    Requires both bulks gapped (``ti_gap_margin`` raises ``Gapless``); the
    near-anchor window is half the smaller bulk gap margin over sqrt(2), so
    bulk states can never enter it.  Its spectrum is that of
    :func:`~walkindex.indices.near_spectrum` with the window as chord radius.
    """
    margin = min(ti_gap_margin(left, tol=tol), ti_gap_margin(right, tol=tol))
    window = margin / np.sqrt(2.0)
    records = []
    for n_a, n_b in sizes:
        joined = join_crossover(left, right, n_a, n_b, topology, tol)
        near, min_im = near_spectrum(joined, 1.0, tol, radius=window, rep=joined.local_rep)
        plus, minus = (np.abs(near.values - a) < window for a in (1.0, -1.0))
        idx = np.flatnonzero(plus | minus)
        s = min(max(min_im, EIGH_RESOLUTION * joined.dim), 1.0)
        interfaces = joined.meta.get("interfaces", (0,))
        profiles = [localization_profile(near.vectors[:, j], joined.cells) for j in idx]
        radius = _radius_for_mass(profiles, joined.cells, interfaces)
        records.append(
            SweepRecord(
                n_a=n_a,
                n_b=n_b,
                delta=float(np.log(s * s / (1.0 + np.sqrt(1.0 - s * s)))),
                eigenvalues=tuple(complex(z) for z in near.values[idx]),
                count_near_plus=int(np.sum(plus)),
                count_near_minus=int(np.sum(minus)),
                max_localization_radius=int(radius),
            )
        )
    return records
