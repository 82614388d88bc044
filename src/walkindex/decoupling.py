"""Gentle decoupling of banded walks at lattice cuts.

Cutting a walk ``W`` at a bond means finding a nearby admissible walk
``W' = V W`` that commutes with the region projection ``P``, so the two
sides evolve independently.  The correction ``V`` must carry
``Q = W P W*`` back onto ``P``; it is assembled from the geometry of the
projection pair ``(P, Q)``:

* Where ``P`` and ``Q`` are in oblique position, the direct rotation (the
  unitary polar factor of the alignment map ``(1-P)(1-Q) + PQ``) turns
  ``Q`` onto ``P``.  Its spectrum lies in the closed right half plane and
  it is the identity wherever the projections already agree.
* The alignment map vanishes on the transfer modes: states inside the
  region that the walk brought in from outside, and images of inside
  states that left.  These are swapped pairwise by ``i`` times a unitary
  involution built from an admissible Hamiltonian, so that factor has
  eigenvalues ``+-i``.  The involution has one seed: ``-i`` times the
  adjoint of the polar factor of the walk's outgoing <- incoming block,
  projected onto the admissible Hamiltonians.  Where the walk carries an
  incoming state onto an outgoing one with phase ``phi``, the swap carries
  it back with phase ``-phi``, so ``V W`` fixes that state and an isolated
  transfer pair is parked at eigenvalue +1.  A projected seed that loses
  rank, or a swap that is not admissible, is refused (``DecouplingFailed``)
  rather than replaced by another guess.

On ker(P - Q) the projections agree, so the alignment map is the identity
there and the swap vanishes: ``V - 1`` lives in range(P - Q), a subspace of
a few modes per cut bond that ``V`` and the companion representation both
preserve (``W tau`` and ``W gamma`` swap ``P`` and ``Q``).  For a walk of
band ``b``, ``P - Q`` vanishes off the cells within ``b`` of a cut bond, so
it is diagonalized on that window, the rotation, swap and contraction act on
``r x r`` compressions to its range ``S``, and ``V = 1 + S(U_r - 1)S*`` and
``W' = V W`` differ from ``1`` and ``W`` only in the window rows.

``V`` never has eigenvalue ``-1`` and contracts to the identity
through admissible unitaries: the decoupling is gentle, and every
half-space index survives it unchanged.  A cut bond where the incoming
and outgoing transfer counts differ (a pure shift, for example) admits no
local swap at all; such a cut is obstructed, matching the nonzero
compression index across that bond.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CutOutOfRange,
    DecouplingFailed,
    DimensionMismatch,
    IncompatibleCells,
    NotAdmissible,
    NotUnitary,
    Obstructed,
    OddDimensionAII,
)
from .indices import contract_perturbation, si_left_right
from .lattice import (
    CellProjection,
    CellStructure,
    LatticeOperator,
    arc_projection,
    cells_near_bond,
    compress,
    half_space_projection,
    measured_band,
    second_bond,
    split_by_weight,
)
from .operators import (
    admissible_hamiltonian_projection,
    check_admissible,
    check_unitary,
    polar_isometry,
)
from .symmetry import IndexValue, SymmetryClass, SymmetryRep, restrict_runs, screened_norm
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "TransferModes",
    "DecouplingResult",
    "split_transfer_modes",
    "attribute_transfers",
    "direct_rotation",
    "gentle_decoupling",
    "decouple_segment",
]

# Transfer eigenvalues of P - Q sit at exactly +-1; membership below and the
# separation guard above leave a dead band where modes are neither cleanly
# transferred nor cleanly oblique.
TRANSFER_MEMBERSHIP = 1e-7
TRANSFER_GUARD = 1e-3

# A projected swap seed whose smallest singular value falls below this times
# max(1, its largest) has left the admissible sector.
_MIN_SEED_WEIGHT = 1e-6


@dataclass(frozen=True)
class TransferModes:
    """Orthonormal basis of range(P - Q), the transfer modes first.

    ``support`` spans the eigenvectors of ``P - Q`` above ``tol.ker`` in
    magnitude and vanishes off the ``window`` rows.  Its first ``dims[0]``
    columns are the incoming transfers (eigenvalue +1): states inside the
    region that the walk brought in from outside.  The next ``dims[1]`` are
    the outgoing ones (eigenvalue -1): images, outside the region, of states
    that left it.  The rest are oblique.  For a unitary walk on a closed
    lattice the two transfer counts agree globally.
    """

    support: np.ndarray
    dims: tuple[int, int]
    window: np.ndarray

    @property
    def incoming(self) -> np.ndarray:
        return self.support[:, : self.dims[0]]

    @property
    def outgoing(self) -> np.ndarray:
        return self.support[:, self.dims[0] : sum(self.dims)]

    def basis(self) -> np.ndarray:
        return self.support[:, : sum(self.dims)]


def split_transfer_modes(
    w: np.ndarray, proj: CellProjection, band: int, tol: Tolerances = DEFAULT_TOL
) -> TransferModes:
    """Eigenspaces of ``P - Q`` at +-1 and its range, with a dead-band guard.

    ``P`` is ``proj`` and ``Q = W P W*`` for the unitary walk ``w``.
    ``P - Q`` is formed and diagonalized on the window of cells within
    ``band`` of a cut bond, as ``diag(p) - (W_w p) W_w*`` from the window
    rows ``W_w``.  It vanishes off the window exactly when ``[P, W]`` does on
    the other rows; a residual coupling there above ``10 tol.unit`` (a band
    that understates a hop across the cut) is refused.  So are eigenvalues
    in the dead band between ``TRANSFER_MEMBERSHIP`` and ``TRANSFER_GUARD``
    away from +-1: such a mode is almost but not exactly transferred, and no
    clean swap exists.
    """
    near = {i for bond in proj.cut_bonds() for i in cells_near_bond(proj.cells, bond, band)}
    window = np.flatnonzero(proj.cells.index_mask(near))
    p = proj.mask().astype(float)
    outside = np.setdiff1d(np.arange(len(p)), window)
    leak = screened_norm((p[outside, None] - p[None, :]) * w[outside], 10 * tol.unit)
    if leak > 10 * tol.unit:
        raise DecouplingFailed(
            f"residual coupling {leak:.3e} outside the cut window: "
            f"the declared band {band} understates a hop across the cut"
        )
    rows = w[window]
    a = np.diag(p[window]) - (rows * p) @ rows.conj().T
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    edge = np.abs(np.abs(vals) - 1.0)
    risky = (edge > TRANSFER_MEMBERSHIP) & (edge < TRANSFER_GUARD)
    if np.any(risky):
        worst = float(np.min(edge[risky]))
        raise DecouplingFailed(
            f"transfer eigenvalue {worst:.3e} away from +-1; modes are not cleanly separated"
        )
    incoming = vals > 1.0 - TRANSFER_MEMBERSHIP
    outgoing = vals < -1.0 + TRANSFER_MEMBERSHIP
    oblique = (np.abs(vals) > tol.ker) & ~incoming & ~outgoing
    order = np.concatenate([np.flatnonzero(x) for x in (incoming, outgoing, oblique)])
    support = np.zeros((w.shape[0], order.size), dtype=complex)
    support[window] = vecs[:, order]
    return TransferModes(support, (int(incoming.sum()), int(outgoing.sum())), window)


def attribute_transfers(
    modes: TransferModes,
    cells: CellStructure,
    bonds: tuple[int, ...],
    radius: int,
) -> dict[int, tuple[int, int]]:
    """Per-bond (incoming, outgoing) transfer counts.

    Every transfer mode must sit cleanly within ``radius`` cells of exactly
    one cut bond; modes that straddle bonds or fall outside every window
    make the attribution ambiguous.
    """
    counts: dict[int, tuple[int, int]] = {}
    totals = [0, 0]
    for b in bonds:
        near = cells_near_bond(cells, b, radius)
        here = []
        for which, basis in enumerate((modes.incoming, modes.outgoing)):
            inside, _, _, n_amb = split_by_weight(basis, cells, near)
            if n_amb:
                raise DecouplingFailed(
                    f"{n_amb} transfer modes straddle the window at bond {b}"
                )
            here.append(inside.shape[1])
            totals[which] += inside.shape[1]
        counts[b] = (here[0], here[1])
    if totals != list(modes.dims):
        raise DecouplingFailed(
            f"transfer modes attributed to bonds {totals} do not match totals "
            f"{modes.dims}; windows overlap or a mode is delocalized"
        )
    return counts


def direct_rotation(
    w: np.ndarray, p: np.ndarray, modes: TransferModes, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Unitary polar factor of the alignment map on range(P - Q), zero on the transfers.

    The alignment map ``X = (1-P)(1-Q) + PQ`` is the identity on ker(P - Q),
    so this is the polar factor of ``S* X S`` (``S = modes.support``, in its
    coordinates), from ``PS`` and ``QS = W(P(W* S))`` with ``p`` the diagonal
    of ``P``.  The transfer rows and columns are zeroed first, so that
    almost-transferred leakage cannot produce spurious small singular
    directions.  It carries ran Q onto ran P and ker Q onto ker P; a
    spectrum outside the closed right half plane is refused.
    """
    s = modes.support
    qs = w @ (p[:, None] * (w.conj().T @ s))
    x = s.conj().T @ (s - p[:, None] * s - qs + 2 * p[:, None] * qs)
    d = sum(modes.dims)
    x[:d] = 0
    x[:, :d] = 0
    u = polar_isometry(x, tol.ker)
    re_min = float(np.min(np.linalg.eigvals(u).real)) if u.size else 0.0
    if re_min < -10 * tol.unit:
        raise DecouplingFailed(
            f"direct rotation has eigenvalue with real part {re_min:.3e} < 0"
        )
    return u


def _transfer_swap(
    m: np.ndarray,
    trep_d: SymmetryRep,
    modes: TransferModes,
    cls: SymmetryClass,
    tol: Tolerances,
) -> np.ndarray:
    """Admissible unitary on transfer coordinates exchanging the two sides.

    Returns ``i G`` for a Hermitian admissible involution ``G`` that is
    off-diagonal with respect to (incoming, outgoing), so the result has
    eigenvalues +-i and squares to minus the identity.  Raises
    ``DecouplingFailed`` naming the gate when the projected seed is
    singular or the swap is not admissible.
    """
    n_in, n_out = modes.dims
    if n_in != n_out:
        raise DimensionMismatch(
            f"{n_in} incoming but {n_out} outgoing transfer modes"
        )
    if cls is SymmetryClass.AII and n_in % 2:
        raise OddDimensionAII(f"{n_in} transfer modes cannot form Kramers pairs")
    d = n_in + n_out
    u_w = polar_isometry(modes.outgoing.conj().T @ m @ modes.incoming, tol.ker)
    g0 = -1j * u_w.conj().T
    k0 = np.zeros((d, d), dtype=complex)
    k0[:n_in, n_in:] = g0
    k0[n_in:, :n_in] = g0.conj().T
    g1 = admissible_hamiltonian_projection(k0, trep_d)[:n_in, n_in:]
    svals = np.linalg.svd(g1, compute_uv=False)
    if svals[-1] <= _MIN_SEED_WEIGHT * max(1.0, svals[0]):
        raise DecouplingFailed(
            f"projected swap seed is singular: smallest singular value {svals[-1]:.3e} "
            f"<= {_MIN_SEED_WEIGHT:g} x max(1, {svals[0]:.3e})"
        )
    u = polar_isometry(g1, tol.ker)
    swap = np.zeros((d, d), dtype=complex)
    swap[:n_in, n_in:] = u
    swap[n_in:, :n_in] = u.conj().T
    v01 = 1j * swap
    report = check_admissible(LatticeOperator.one_cell(v01), trep_d, kind="walk", tol=tol, strict=False)
    if not report.ok:
        raise DecouplingFailed(
            f"transfer swap is not admissible: residual {report.max_residual:.3e} > {tol.adm:g}"
        )
    return v01


@dataclass(frozen=True)
class DecouplingResult:
    """Outcome of a gentle decoupling.

    ``generator`` is the admissible Hermitian ``K`` with ``exp(iK) = V``
    (:func:`~walkindex.indices.contract_perturbation`).  The walks
    ``exp(i(1-t)K) W`` form a norm-continuous admissible path from the
    decoupled ``w_prime`` (``t = 0``) back to the original (``t = 1``): the
    decoupling is gentle, so both half-space indices are preserved.
    ``commutator_norm`` bounds ``||[P, W']||`` (screened by ``10 tol.unit``).
    """

    v: np.ndarray
    w_prime: LatticeOperator
    generator: np.ndarray
    commutator_norm: float
    transfer_counts: dict[int, tuple[int, int]]
    si_before: tuple[IndexValue, IndexValue]
    si_after: tuple[IndexValue, IndexValue]

    @property
    def si_preserved(self) -> bool:
        return tuple(int(x) for x in self.si_before) == tuple(int(x) for x in self.si_after)

    @property
    def ok(self) -> bool:
        # the commutator is gated inside gentle_decoupling (10 * tol.unit)
        return self.si_preserved


def gentle_decoupling(
    op: LatticeOperator,
    cut: int,
    second_cut: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> DecouplingResult:
    """Decouple a walk at a bond (line) or a pair of bonds (circle).

    Builds the canonical correction ``V`` (direct rotation plus transfer
    swap), returns ``W' = V W`` with ``[P, W'] = 0``, and certifies
    gentleness with the admissible generator of the contraction path and the
    half-space indices before and after.  The work is on ``r x r``
    compressions to range(P - Q) (the ``support`` of
    :func:`split_transfer_modes`) against the companion rep restricted there,
    and ``V``, ``W'`` and ``K`` are block updates of the cut window: no
    full-size ``eigh``, ``eigvals`` or SVD.  At full size it checks the
    walk's unitarity and admissibility, ``W'``'s admissibility and
    ``||[P, W']||``.  Raises ``Obstructed`` when a cut bond has a nonzero net
    transfer count.
    """
    if op.local_rep is None:
        raise NotAdmissible("operator carries no local symmetry representation")
    m = np.asarray(op.matrix, dtype=complex)
    check_unitary(op, tol, "walk")
    check_admissible(op, tol=tol)
    second = second_bond(op.cells, cut, second_cut)
    if second is None:
        proj = half_space_projection(op.cells, cut)
    else:
        proj = arc_projection(op.cells, cut, second)

    modes = split_transfer_modes(m, proj, op.band, tol)
    counts = attribute_transfers(modes, op.cells, proj.cut_bonds(), op.band + 1)
    for bond, (n_in, n_out) in counts.items():
        if n_in != n_out:
            raise Obstructed(
                f"net transfer count {n_in - n_out} at bond {bond}; "
                "no local correction can close this cut"
            )

    s = modes.support
    r = s.shape[1]
    # the companion rep (eta, W tau, W gamma) restricted to range(P - Q)
    trep = restrict_runs(op.local_rep.cls, op.local_rep.runs(), s, tol, walk=m)
    p = proj.mask().astype(float)
    u = direct_rotation(m, p, modes, tol)
    d = sum(modes.dims)
    if d:
        trep_d = trep.restrict(np.eye(r)[:, :d], tol)
        u[:d, :d] = _transfer_swap(m, trep_d, modes, op.local_rep.cls, tol)
    try:
        check_unitary(LatticeOperator.one_cell(u), tol, "decoupling correction")
    except NotUnitary as exc:
        raise DecouplingFailed(f"correction is not unitary: {exc}") from exc

    rows = modes.window
    block = np.ix_(rows, rows)
    s_w = s[rows]
    step = s_w @ (u - np.eye(r)) @ s_w.conj().T
    v = np.eye(m.shape[0], dtype=complex)
    v[block] += step
    w2 = m.copy()
    w2[rows] += step @ m[rows]
    # [P, W'] entrywise, over the whole matrix
    commutator = screened_norm((p[:, None] - p[None, :]) * w2, 10 * tol.unit)
    if commutator > 10 * tol.unit:
        raise DecouplingFailed(f"residual coupling {commutator:.3e} after correction")
    w2_op = LatticeOperator.from_matrix(w2, op.cells, None, op.local_rep, dict(op.meta), tol)
    report = check_admissible(w2_op, tol=tol, strict=False)
    if not report.ok:
        raise DecouplingFailed(
            f"decoupled walk violates admissibility: {report.max_residual:.3e}"
        )

    k_s = s_w @ contract_perturbation(u, trep, tol) @ s_w.conj().T
    generator = np.zeros_like(v)
    generator[block] = (k_s + k_s.conj().T) / 2

    si_b = si_left_right(op, cut, second_cut=second, tol=tol)
    si_a = si_left_right(w2_op, cut, second_cut=second, tol=tol)
    return DecouplingResult(
        v=v,
        w_prime=w2_op,
        generator=generator,
        commutator_norm=commutator,
        transfer_counts=counts,
        si_before=si_b,
        si_after=si_a,
    )


def decouple_segment(
    ring: LatticeOperator,
    n_cells: int,
    tol: Tolerances = DEFAULT_TOL,
) -> LatticeOperator:
    """Exactly unitary line segment cut gently out of a circle walk.

    Decouples the arc ``[0, n_cells)`` and extracts its block.  Both ends
    are marked as proxy ends: the pinned boundary eigenvectors stand in
    for the infinite continuation, so index computations skip them just as
    they skip the defective corners of a plain compression.  A decoupling
    whose certificate fails (changed half-space indices) raises
    ``DecouplingFailed``.
    """
    if ring.cells.topology != "circle":
        raise IncompatibleCells("segment extraction needs a circle to cut")
    n = ring.cells.n_cells
    if not 0 < n_cells < n:
        raise CutOutOfRange(f"segment length {n_cells} outside (0, {n})")
    result = gentle_decoupling(ring, 0, second_cut=n_cells, tol=tol)
    if not result.ok:
        before = [int(x) for x in result.si_before]
        after = [int(x) for x in result.si_after]
        raise DecouplingFailed(
            f"segment decoupling is not certified: half-space indices {before} -> {after}, "
            f"commutator {result.commutator_norm:.3e}"
        )
    seg = compress(result.w_prime, arc_projection(ring.cells, 0, n_cells))
    cells = replace(seg.cells, proxy_ends=frozenset({"left", "right"}))
    meta = {
        "boundary": "decoupled_unitary",
        "transfer_counts": result.transfer_counts,
        "parent_cells": seg.meta.get("parent_cells"),
    }
    # the relabelled segment keeps its parent, W', for the admissibility bound
    return replace(seg, cells=cells, meta=meta, band=measured_band(seg, tol))
