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
it is diagonalized on that window, read from the walk's stacks, with the
windows of far cuts apart; the rotation, swap and contraction act on
``r x r`` compressions to its range ``S``, and ``V = 1 + S(U_r - 1)S*`` and
``W' = V W`` differ from ``1`` and ``W`` only in the window rows, as blocks
added into stacks.

``V`` never has eigenvalue ``-1`` and contracts to the identity
through admissible unitaries: the decoupling is gentle, and every
half-space index survives it unchanged.  A cut bond where the incoming
and outgoing transfer counts differ (a pure shift, for example) admits no
local swap at all; such a cut is obstructed, matching the nonzero
compression index across that bond.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

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
    gather_blocks,
    half_space_projection,
    measured_band,
    scatter_blocks,
    second_bond,
    split_by_weight,
)
from .operators import (
    admissible_hamiltonian_projection,
    check_admissible,
    check_unitary,
    polar_isometry,
)
from .symmetry import (
    IndexValue,
    SymmetryClass,
    SymmetryRep,
    restrict_runs,
    screened_squares,
    spectral_norm,
)
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
    """Orthonormal basis of range(P - Q) on one window group, the transfer modes first.

    The window of a cut bond is the cells within ``band`` of it.  Bonds whose
    windows lie within ``2 band`` cells of each other form one group, since
    ``P - Q`` couples their cells; it has no entry between two groups.
    ``support`` spans the eigenvectors of ``P - Q`` above ``tol.ker`` in
    magnitude, on the group's ``rows`` (the indices of its ``window`` cells
    among the ``cells``).  Its first ``dims[0]`` columns are the incoming
    transfers (eigenvalue +1): states inside the region that the walk brought
    in from outside.  The next ``dims[1]`` are the outgoing ones (eigenvalue
    -1): images, outside the region, of states that left it.  The rest are
    oblique.  For a unitary walk on a closed lattice the two transfer counts
    agree globally.

    ``walk`` is ``W`` on the ``reach`` cells, those one stored hop from the
    window, read from the stacks, and ``p`` is the diagonal of ``P`` there;
    ``at`` places the window rows among the reach rows.  They hold all that
    the group's ``r x r`` algebra reads of the walk.
    """

    support: np.ndarray
    dims: tuple[int, int]
    bonds: tuple[int, ...]
    window: np.ndarray
    reach: np.ndarray
    walk: np.ndarray
    p: np.ndarray
    cells: CellStructure

    @cached_property
    def rows(self) -> np.ndarray:
        return np.flatnonzero(self.cells.index_mask(self.window))

    @cached_property
    def at(self) -> np.ndarray:
        return np.searchsorted(np.flatnonzero(self.cells.index_mask(self.reach)), self.rows)

    @property
    def incoming(self) -> np.ndarray:
        return self.support[:, : self.dims[0]]

    @property
    def outgoing(self) -> np.ndarray:
        return self.support[:, self.dims[0] : sum(self.dims)]

    def basis(self) -> np.ndarray:
        return self.support[:, : sum(self.dims)]

    @property
    def window_rows(self) -> np.ndarray:
        """``W_w``: the window rows of ``W`` on the reach columns."""
        return self.walk[self.at]


def _window_groups(proj: CellProjection, band: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """``(bonds, window cells)`` of each window group of the cut bonds: windows
    at most ``2 band`` cells apart (wrapped on a circle) are one group."""
    cells = proj.cells
    groups: list[tuple[tuple[int, ...], np.ndarray]] = []
    for bond in proj.cut_bonds():
        bonds, window = (bond,), np.array(cells_near_bond(cells, bond, band), dtype=int)
        merge = []
        for _, other in groups:
            gap = np.abs(other[:, None] - window[None, :])
            if cells.topology == "circle":
                gap = np.minimum(gap, cells.n_cells - gap)
            merge.append(gap.min(initial=2 * band + 1) <= 2 * band)
        for (more, other), joined in zip(groups, merge):
            if joined:
                bonds, window = more + bonds, np.union1d(other, window)
        groups = [g for g, joined in zip(groups, merge) if not joined] + [(bonds, window)]
    return groups


def _reach(op: LatticeOperator, window: np.ndarray) -> np.ndarray:
    """The cells one stored hop (either way) from the window cells, and those."""
    cells = op.cells
    if cells.one_block:
        return np.arange(cells.n_cells)
    hops = np.array(list(op.blocks) + [0], dtype=int)
    near = (window[:, None] + np.concatenate([hops, -hops])).ravel()
    if cells.topology == "circle":
        return np.unique(near % cells.n_cells)
    return np.unique(near[(near >= 0) & (near < cells.n_cells)])


def _crossing(
    op: LatticeOperator, inside: np.ndarray, skip: np.ndarray
) -> tuple[float, Callable[[], float]]:
    """The blocks of ``op`` that hop across the cut into a cell outside
    ``skip`` (``inside`` and ``skip`` are masks over the cells): the sum of
    their squares, and the spectral norm of ``[P, op]`` on them, taken on
    call.  One block on mixed cells is its whole matrix, masked."""
    cells = op.cells
    if cells.one_block:
        side, skip_rows = (np.repeat(mask, cells.cell_dims) for mask in (inside, skip))
        whole = op.blocks[0][0] if 0 in op.blocks else np.zeros((op.dim,) * 2, dtype=complex)
        blocks = np.where((side[:, None] != side[None, :]) & ~skip_rows[:, None], whole, 0)[None]
        targets = sources = np.zeros(1, dtype=int)
    else:
        n, d = cells.n_cells, cells.cell_dims[0]
        stacks = np.array([*op.blocks.values()]).reshape(-1, n, d, d)
        t = np.array([*op.blocks], dtype=int)[:, None] + np.arange(n)
        live = (t >= 0) & (t < n) | (cells.topology == "circle")
        t %= n
        live &= (inside[t] != inside[None, :]) & ~skip[t]
        hop, sources = np.nonzero(live)
        targets, blocks = t[hop, sources], stacks[hop, sources]

    def exact() -> float:
        # [P, op] is +-op on these blocks, the sign fixed by the row: the norm is theirs
        rows, at_row = np.unique(targets, return_inverse=True)
        cols, at_col = np.unique(sources, return_inverse=True)
        d = blocks.shape[1]
        placed = np.zeros((rows.size, d, cols.size, d), dtype=complex)
        placed[at_row, :, at_col, :] = blocks
        return spectral_norm(placed.reshape(rows.size * d, cols.size * d))

    return float(np.vdot(blocks, blocks).real), exact


def _inside(proj: CellProjection) -> np.ndarray:
    """The projection's cells, as a mask over the cells."""
    inside = np.zeros(proj.cells.n_cells, dtype=bool)
    inside[list(proj.members)] = True
    return inside


def split_transfer_modes(
    op: LatticeOperator, proj: CellProjection, tol: Tolerances = DEFAULT_TOL
) -> tuple[tuple[TransferModes, ...], float]:
    """Eigenspaces of ``P - Q`` at +-1 and its range on each window group,
    with a dead-band guard, and the squares of ``[P, W]`` off the windows.

    ``P`` is ``proj`` and ``Q = W P W*`` for the unitary walk ``op`` of
    declared band ``b``.  ``P - Q`` is formed and diagonalized on the window
    of each group (:class:`TransferModes`), as ``diag(p) - (W_w p) W_w*``
    from the window rows ``W_w`` read from the stacks.  It vanishes off the
    windows exactly when ``[P, W]`` does on the other rows; the blocks there
    that hop across the cut must sum below ``10 tol.unit`` in Frobenius norm
    (else their exact norm decides), or the band understates a hop across
    the cut and the cut is refused.  So are eigenvalues in the dead band
    between ``TRANSFER_MEMBERSHIP`` and ``TRANSFER_GUARD`` away from +-1:
    such a mode is almost but not exactly transferred, and no clean swap
    exists.
    """
    cells = op.cells
    groups = _window_groups(proj, op.band)
    inside = _inside(proj)
    near = np.zeros(cells.n_cells, dtype=bool)
    for _, window in groups:
        near[window] = True
    squares, exact = _crossing(op, inside, near)
    leak = screened_squares(squares, op.dim**2, 10 * tol.unit, exact)
    if leak > 10 * tol.unit:
        raise DecouplingFailed(
            f"residual coupling {leak:.3e} outside the cut window: "
            f"the declared band {op.band} understates a hop across the cut"
        )
    p = proj.mask().astype(float)
    solved = []
    for bonds, window in groups:
        reach = _reach(op, window)
        p_reach = p[cells.index_mask(reach)]
        walk = gather_blocks(op, reach, reach)
        # the group before its modes are known
        group = TransferModes(np.zeros((0, 0)), (0, 0), bonds, window, reach, walk, p_reach, cells)
        w_rows = group.window_rows
        a = np.diag(p_reach[group.at]) - (w_rows * p_reach) @ w_rows.conj().T
        vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
        solved.append((vals, vecs, group))
    edge = np.abs(np.abs(np.concatenate([vals for vals, _, _ in solved] + [[]])) - 1.0)
    risky = (edge > TRANSFER_MEMBERSHIP) & (edge < TRANSFER_GUARD)
    if np.any(risky):
        worst = float(np.min(edge[risky]))
        raise DecouplingFailed(
            f"transfer eigenvalue {worst:.3e} away from +-1; modes are not cleanly separated"
        )
    out = []
    for vals, vecs, group in solved:
        incoming = vals > 1.0 - TRANSFER_MEMBERSHIP
        outgoing = vals < -1.0 + TRANSFER_MEMBERSHIP
        oblique = (np.abs(vals) > tol.ker) & ~incoming & ~outgoing
        order = np.concatenate([np.flatnonzero(x) for x in (incoming, outgoing, oblique)])
        out.append(replace(group, support=vecs[:, order], dims=(int(incoming.sum()), int(outgoing.sum()))))
    return tuple(out), squares


def attribute_transfers(
    groups: Sequence[TransferModes], cells: CellStructure, radius: int
) -> dict[int, tuple[int, int]]:
    """Per-bond (incoming, outgoing) transfer counts.

    Every transfer mode of a group must sit cleanly within ``radius`` cells
    of exactly one of its bonds; modes that straddle bonds or fall outside
    every window make the attribution ambiguous.
    """
    counts: dict[int, tuple[int, int]] = {}
    totals = [0, 0]
    for modes in groups:
        for b in modes.bonds:
            near = cells_near_bond(cells, b, radius)
            here = []
            for which, basis in enumerate((modes.incoming, modes.outgoing)):
                inside, _, _, n_amb = split_by_weight(basis, cells, near, modes.rows)
                if n_amb:
                    raise DecouplingFailed(
                        f"{n_amb} transfer modes straddle the window at bond {b}"
                    )
                here.append(inside.shape[1])
                totals[which] += inside.shape[1]
            counts[b] = (here[0], here[1])
    dims = tuple(int(sum(m.dims[k] for m in groups)) for k in (0, 1))
    if totals != list(dims):
        raise DecouplingFailed(
            f"transfer modes attributed to bonds {totals} do not match totals "
            f"{dims}; windows overlap or a mode is delocalized"
        )
    return counts


def direct_rotation(modes: TransferModes, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unitary polar factor of the alignment map on range(P - Q), zero on the transfers.

    The alignment map ``X = (1-P)(1-Q) + PQ`` is the identity on ker(P - Q),
    so this is the polar factor of ``S* X S`` (``S = modes.support``, in its
    coordinates), from ``PS`` and ``QS = W_w(p (W_w* S))`` on the window rows,
    with ``p`` the diagonal of ``P`` on the reach.  The transfer rows and
    columns are zeroed first, so that almost-transferred leakage cannot
    produce spurious small singular directions.  It carries ran Q onto ran P
    and ker Q onto ker P; a spectrum outside the closed right half plane is
    refused.
    """
    s, w, p = modes.support, modes.window_rows, modes.p
    p_w = p[modes.at, None]
    qs = w @ (p[:, None] * (w.conj().T @ s))
    x = s.conj().T @ (s - p_w * s - qs + 2 * p_w * qs)
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
    m = modes.window_rows[:, modes.at]
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

    ``v`` is the correction ``V`` and ``generator`` the admissible Hermitian
    ``K`` with ``exp(iK) = V`` (:func:`~walkindex.indices.contract_perturbation`),
    both operators on the walk's cells, declared at the largest offset of
    their stacks: ``V`` is the identity and ``K`` zero off the window blocks.  The walks
    ``exp(i(1-t)K) W`` form a norm-continuous admissible path from the
    decoupled ``w_prime`` (``t = 0``) back to the original (``t = 1``): the
    decoupling is gentle, so both half-space indices are preserved.
    ``commutator_norm`` bounds ``||[P, W']||`` (screened by ``10 tol.unit``).
    """

    v: LatticeOperator
    w_prime: LatticeOperator
    generator: LatticeOperator
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
    half-space indices before and after.  Each window group
    (:func:`split_transfer_modes`) is solved on its own: the rotation, swap
    and contraction act on ``r x r`` compressions to its range(P - Q)
    against the companion rep restricted there, read through the group's
    reach rows.  ``V``, ``K`` and ``W'`` are the walk's stacks (or the
    identity, or none) plus the window blocks of each group, so no block
    couples two groups and no matrix of the whole walk is placed.  From the
    stacks it checks the walk's unitarity and admissibility and ``W'``'s
    admissibility; ``||[P, W']||`` is the leak off the windows together with
    the window rows of ``W'``.  Raises ``Obstructed`` when a cut bond has a
    nonzero net transfer count.
    """
    if op.local_rep is None:
        raise NotAdmissible("operator carries no local symmetry representation")
    check_unitary(op, tol, "walk")
    check_admissible(op, tol=tol)
    cells, cls = op.cells, op.local_rep.cls
    second = second_bond(cells, cut, second_cut)
    if second is None:
        proj = half_space_projection(cells, cut)
    else:
        proj = arc_projection(cells, cut, second)

    groups, squares = split_transfer_modes(op, proj, tol)
    counts = attribute_transfers(groups, cells, op.band + 1)
    for bond, (n_in, n_out) in counts.items():
        if n_in != n_out:
            raise Obstructed(
                f"net transfer count {n_in - n_out} at bond {bond}; "
                "no local correction can close this cut"
            )

    w2_blocks = {j: stack.copy() for j, stack in op.blocks.items()}
    solved = []
    for modes in groups:
        s_w, w_rows = modes.support, modes.window_rows
        r = s_w.shape[1]
        if r:
            # the companion rep (eta, W tau, W gamma) restricted to range(P - Q), on the reach rows
            basis = np.zeros((len(modes.walk), r), dtype=complex)
            basis[modes.at] = s_w
            runs = op.local_rep.restrict_cells(modes.reach).runs()
            trep = restrict_runs(cls, runs, basis, tol, walk=modes.walk)
            u = direct_rotation(modes, tol)
            d = sum(modes.dims)
            if d:
                u[:d, :d] = _transfer_swap(trep.restrict(np.eye(r)[:, :d], tol), modes, cls, tol)
            try:
                check_unitary(LatticeOperator.one_cell(u), tol, "decoupling correction")
            except NotUnitary as exc:
                raise DecouplingFailed(f"correction is not unitary: {exc}") from exc
            step = s_w @ (u - np.eye(r)) @ s_w.conj().T
            update = step @ w_rows
            scatter_blocks(cells, modes.window, modes.reach, [(w2_blocks, update)])
            w_rows = w_rows + update
            solved.append((modes, u, trep, step))
        # [P, W'] on the window rows
        coupling = (modes.p[modes.at, None] - modes.p[None, :]) * w_rows
        squares += float(np.vdot(coupling, coupling).real)
    w2_op = LatticeOperator.from_blocks(w2_blocks, cells, None, op.local_rep, dict(op.meta), tol)
    inside = _inside(proj)
    exact = lambda: _crossing(w2_op, inside, np.zeros_like(inside))[1]()
    commutator = screened_squares(squares, op.dim**2, 10 * tol.unit, exact)
    if commutator > 10 * tol.unit:
        raise DecouplingFailed(f"residual coupling {commutator:.3e} after correction")
    report = check_admissible(w2_op, tol=tol, strict=False)
    if not report.ok:
        raise DecouplingFailed(
            f"decoupled walk violates admissibility: {report.max_residual:.3e}"
        )

    v_blocks, k_blocks = _identity(cells), {}
    for modes, u, trep, step in solved:
        k_s = modes.support @ contract_perturbation(u, trep, tol) @ modes.support.conj().T
        scatter_blocks(cells, modes.window, modes.window, [(v_blocks, step), (k_blocks, (k_s + k_s.conj().T) / 2)])

    si_b = si_left_right(op, cut, second_cut=second, tol=tol)
    si_a = si_left_right(w2_op, cut, second_cut=second, tol=tol)
    return DecouplingResult(
        v=LatticeOperator.from_blocks(v_blocks, cells, max(map(abs, v_blocks)), tol=tol),
        w_prime=w2_op,
        generator=LatticeOperator.from_blocks(k_blocks, cells, max(map(abs, k_blocks), default=0), tol=tol),
        commutator_norm=commutator,
        transfer_counts=counts,
        si_before=si_b,
        si_after=si_a,
    )


def _identity(cells: CellStructure) -> dict[int, np.ndarray]:
    """Writable stacks of the identity on the cells."""
    if cells.one_block:
        return {0: np.eye(cells.total_dim, dtype=complex)[None]}
    return {0: np.tile(np.eye(cells.cell_dims[0], dtype=complex), (cells.n_cells, 1, 1))}


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
