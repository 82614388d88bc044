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
preserve (``W tau`` and ``W gamma`` swap ``P`` and ``Q``).  The contraction
of ``V`` (:func:`~walkindex.indices.contract_perturbation`) therefore works
on its compression to that range.

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
from .indices import contract_perturbation, si_left_right, twiddle_rep
from .lattice import (
    CellProjection,
    CellStructure,
    LatticeOperator,
    arc_projection,
    cells_near_bond,
    compress,
    half_space_projection,
    second_bond,
    split_by_weight,
)
from .operators import (
    admissible_hamiltonian_projection,
    check_admissible,
    check_unitary,
    polar_isometry,
)
from .symmetry import IndexValue, SymmetryClass, SymmetryRep, screened_norm
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "ProjectionPair",
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
class ProjectionPair:
    """A region projection ``P`` with its image ``Q = W P W*`` under a walk.

    The pair encodes how much of the region the walk preserves.  The odd
    part ``P - Q`` and even part ``1 - P - Q`` anticommute and their
    squares sum to the identity, so the spectrum of the pair organizes
    into aligned states, transfer modes and oblique rotation planes.
    """

    p: np.ndarray
    q: np.ndarray

    @classmethod
    def from_walk(cls, w: np.ndarray, proj: CellProjection) -> "ProjectionPair":
        w = np.asarray(w, dtype=complex)
        p = proj.matrix.astype(complex)
        return cls(p, w @ p @ w.conj().T)

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    def odd_part(self) -> np.ndarray:
        """``P - Q``: +1 on incoming transfers, -1 on outgoing ones."""
        return self.p - self.q

    def even_part(self) -> np.ndarray:
        """``1 - P - Q``: +1 where both projections vanish, -1 where both hold."""
        return np.eye(self.dim) - self.p - self.q

    def alignment(self) -> np.ndarray:
        """``(1-P)(1-Q) + PQ``: normal, carries ran Q to ran P, kills transfers.

        Its spectrum lies on the circle of radius 1/2 around 1/2, and twice
        the map minus the identity is the product of the two reflections
        ``(1-2P)(1-2Q)``.
        """
        eye = np.eye(self.dim)
        return (eye - self.p) @ (eye - self.q) + self.p @ self.q


@dataclass(frozen=True)
class TransferModes:
    """Orthonormal bases of the fully transferred states of a projection pair.

    ``incoming`` spans states inside the region that the walk brought in
    from outside; ``outgoing`` spans the images, outside the region, of
    states that left it.  For a unitary walk on a closed lattice the two
    dimensions agree globally.  ``support`` spans range(P - Q), the
    eigenvectors of ``P - Q`` above ``tol.ker`` in magnitude.
    """

    incoming: np.ndarray
    outgoing: np.ndarray
    support: np.ndarray

    @property
    def dims(self) -> tuple[int, int]:
        return self.incoming.shape[1], self.outgoing.shape[1]

    def basis(self) -> np.ndarray:
        return np.hstack([self.incoming, self.outgoing])


def split_transfer_modes(pair: ProjectionPair, tol: Tolerances = DEFAULT_TOL) -> TransferModes:
    """Eigenspaces of ``P - Q`` at +-1 and its range, with a dead-band guard.

    Eigenvalues in the dead band between ``TRANSFER_MEMBERSHIP`` and
    ``TRANSFER_GUARD`` away from +-1 mean a mode is almost but not exactly
    transferred; no clean swap exists there and the split is refused.
    """
    a = pair.odd_part()
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    edge = np.abs(np.abs(vals) - 1.0)
    risky = (edge > TRANSFER_MEMBERSHIP) & (edge < TRANSFER_GUARD)
    if np.any(risky):
        worst = float(np.min(edge[risky]))
        raise DecouplingFailed(
            f"transfer eigenvalue {worst:.3e} away from +-1; modes are not cleanly separated"
        )
    return TransferModes(
        incoming=vecs[:, vals > 1.0 - TRANSFER_MEMBERSHIP],
        outgoing=vecs[:, vals < -1.0 + TRANSFER_MEMBERSHIP],
        support=vecs[:, np.abs(vals) > tol.ker],
    )


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
    if totals != [modes.incoming.shape[1], modes.outgoing.shape[1]]:
        raise DecouplingFailed(
            f"transfer modes attributed to bonds {totals} do not match totals "
            f"{modes.dims}; windows overlap or a mode is delocalized"
        )
    return counts


def direct_rotation(
    pair: ProjectionPair,
    tol: Tolerances = DEFAULT_TOL,
    transfer_basis: np.ndarray | None = None,
) -> np.ndarray:
    """Unitary polar factor of the alignment map, zero on the transfer modes.

    The partial isometry carries ran Q onto ran P and ker Q onto ker P with
    spectrum in the closed right half plane.  If ``transfer_basis`` is
    given the alignment map is first compressed to its orthocomplement so
    that almost-transferred leakage cannot produce spurious small singular
    directions.
    """
    x = pair.alignment()
    if transfer_basis is not None and transfer_basis.shape[1]:
        perp = np.eye(pair.dim) - transfer_basis @ transfer_basis.conj().T
        x = perp @ x @ perp
    v = polar_isometry(x, tol.ker)
    re_min = float(np.min(np.linalg.eigvals(v).real)) if v.size else 0.0
    if re_min < -10 * tol.unit:
        raise DecouplingFailed(
            f"direct rotation has eigenvalue with real part {re_min:.3e} < 0"
        )
    return v


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
    u_w = polar_isometry(modes.outgoing.conj().T @ m @ modes.incoming)
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
    u = polar_isometry(g1)
    swap = np.zeros((d, d), dtype=complex)
    swap[:n_in, n_in:] = u
    swap[n_in:, :n_in] = u.conj().T
    v01 = 1j * swap
    report = check_admissible(v01, trep_d, kind="walk", tol=tol, strict=False)
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
    half-space indices before and after.  The generator is contracted on
    range(P - Q) (the ``support`` of :func:`split_transfer_modes`), so the
    one full-size ``eigh`` is that of ``P - Q``.  Each full-size matrix is
    checked once: the walk (in ``twiddle_rep``), ``W'`` and the generator.  Raises
    ``Obstructed`` when a cut bond has a nonzero net transfer count.
    """
    if op.local_rep is None:
        raise NotAdmissible("operator carries no local symmetry representation")
    m = np.asarray(op.matrix, dtype=complex)
    # twiddle_rep checks that the walk is unitary and admissible
    trep = twiddle_rep(m, op.local_rep, tol)
    second = second_bond(op.cells, cut, second_cut)
    if second is None:
        proj = half_space_projection(op.cells, cut)
    else:
        proj = arc_projection(op.cells, cut, second)

    pair = ProjectionPair.from_walk(m, proj)
    modes = split_transfer_modes(pair, tol)
    counts = attribute_transfers(modes, op.cells, proj.cut_bonds(), op.band + 1)
    for bond, (n_in, n_out) in counts.items():
        if n_in != n_out:
            raise Obstructed(
                f"net transfer count {n_in - n_out} at bond {bond}; "
                "no local correction can close this cut"
            )

    basis_d = modes.basis()
    v = direct_rotation(pair, tol, transfer_basis=basis_d)
    if basis_d.shape[1]:
        trep_d = trep.restrict(basis_d, tol)
        v01 = _transfer_swap(m, trep_d, modes, op.local_rep.cls, tol)
        v = v + basis_d @ v01 @ basis_d.conj().T

    try:
        check_unitary(v, tol, "decoupling correction")
    except NotUnitary as exc:
        raise DecouplingFailed(f"correction is not unitary: {exc}") from exc
    w2 = v @ m
    p = proj.matrix
    commutator = screened_norm(p @ w2 - w2 @ p, 10 * tol.unit)
    if commutator > 10 * tol.unit:
        raise DecouplingFailed(f"residual coupling {commutator:.3e} after correction")
    report = check_admissible(w2, op.local_rep, kind="walk", tol=tol, strict=False)
    if not report.ok:
        raise DecouplingFailed(
            f"decoupled walk violates admissibility: {report.max_residual:.3e}"
        )

    generator = contract_perturbation(v, trep, tol, support=modes.support)

    w2_op = LatticeOperator.with_measured_band(w2, op.cells, op.local_rep, dict(op.meta), tol)
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
    return LatticeOperator.with_measured_band(seg.matrix, cells, seg.local_rep, meta, tol)
